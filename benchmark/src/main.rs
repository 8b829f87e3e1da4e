//! Command line of the benchmark.
//!
//! ```text
//! mpsoc-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run; the last line of standard output is the result object
//! mpsoc-benchmark run [--seed N] [--seconds S] [--repeat K] [--smoke] [--out FILE]
//!     every workload untraced then traced, one results JSON
//! mpsoc-benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! mpsoc-benchmark pin
//!     regenerate expected.json for the pinned seeds
//! ```

use std::process::ExitCode;

use mpsoc_benchmark::harness::{RunConfig, BENCH_DIR};
use mpsoc_benchmark::report::{self, RunAll};

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("mpsoc-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--flag`, parsed; `default` when absent.
fn opt<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a valid value")),
    }
}

fn dispatch(args: Vec<String>) -> Result<bool, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    match args.first().map(String::as_str) {
        Some("run") => {
            let seed = opt(&args, "--seed", 1)?;
            report::run_all(&RunAll {
                seed,
                seconds: opt(&args, "--seconds", 10.0)?,
                repeat: opt(&args, "--repeat", 1)?,
                smoke,
                out: opt(
                    &args,
                    "--out",
                    format!("{BENCH_DIR}/out/results-seed{seed}.json"),
                )?,
            })
        }
        Some("compare") => match &args[1..] {
            [a, b, ..] => {
                report::compare(a, b, &opt(&args, "--bounds", "BENCHMARK.json".to_string())?)
            }
            _ => Err("compare needs two results files".into()),
        },
        Some("pin") => report::pin().map(|()| true),
        _ => {
            let workload: String = opt(&args, "--workload", String::new())?;
            if workload.is_empty() {
                return Err("usage: --workload NAME --seed N --seconds S --trace 0|1 | run | compare A B | pin".into());
            }
            let cfg = RunConfig {
                seed: opt(&args, "--seed", 1)?,
                seconds: opt(&args, "--seconds", 10.0)?,
                trace: opt(&args, "--trace", 0u8)? != 0,
                smoke,
            };
            let outcome = mpsoc_benchmark::run_workload(&workload, cfg)?;
            println!("{}", outcome.to_json());
            Ok(outcome.failed == 0)
        }
    }
}
