//! The whole-suite commands: `run` (every workload untraced, then traced,
//! each as a child process, into one results JSON), `compare` (two results
//! files against the bounds in `BENCHMARK.json`) and `pin` (regenerate
//! `expected.json`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use crate::harness::{BENCH_DIR, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, Value};
use crate::layers::Res;
use crate::stats;

/// Seeds `expected.json` pins: the default seed and the held-out one.
pub const PINNED_SEEDS: [u64; 2] = [1, 2];

/// Options of the `run` command.
#[derive(Clone, Debug)]
pub struct RunAll {
    /// Workload seed.
    pub seed: u64,
    /// Seconds each run's timed loop measures for.
    pub seconds: f64,
    /// Untraced runs per workload (their median is reported).
    pub repeat: usize,
    /// Minimum work only: checks outputs, reports no rates.
    pub smoke: bool,
    /// Where to write the results JSON.
    pub out: String,
}

/// What a child run printed.
struct Child {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    pins: Vec<(String, String)>,
}

/// Runs one `(workload, traced?)` pair as a child process of this
/// executable, one at a time, echoing its report.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Res<Child> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{body}");
    if !output.stderr.is_empty() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    let result = json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let num = |k: &str| result.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect();
    let pins = body
        .lines()
        .filter_map(|l| l.strip_prefix("pin ")?.split_once(" = "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    if !output.status.success() && num("failed") == 0 {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    Ok(Child {
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
        pins,
    })
}

/// The host fingerprint every results file carries. `run.sh` passes the
/// toolchain it resolved and the git revision through the environment.
fn fingerprint(cfg: &RunAll) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"rustc\": {}, \"toolchain\": {}, \"git_rev\": {}, \
         \"seed\": {}, \"seconds\": {}, \"repeat\": {}, \"smoke\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json::quote(&env("BENCH_RUSTC")),
        json::quote(&env("BENCH_TOOLCHAIN")),
        json::quote(&env("BENCH_GIT_REV")),
        cfg.seed,
        cfg.seconds,
        cfg.repeat,
        cfg.smoke
    )
}

/// `run`: every workload untraced (`repeat` times) for the end-to-end
/// metrics, then once traced for the per-layer metrics. Returns whether
/// every operation and output check of every run passed.
pub fn run_all(cfg: &RunAll) -> Res<bool> {
    if cfg.smoke {
        println!("SMOKE profile: output checks only — not a measurement, no rates or ratios.");
    }
    let mut doc = format!(
        "{{\n\"fingerprint\": {},\n\"workloads\": {{",
        fingerprint(cfg)
    );
    let mut summary = String::new();
    let mut all_ok = true;
    for (wi, workload) in WORKLOADS.iter().enumerate() {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let (mut attempted, mut failed) = (0, 0);
        // A smoke run's one traced child already covers the loop, the
        // output checks and every probe.
        for _ in 0..if cfg.smoke { 0 } else { cfg.repeat.max(1) } {
            let c = child(workload, cfg.seed, cfg.seconds, false, cfg.smoke)?;
            attempted += c.attempted;
            failed += c.failed;
            for (name, v, unit) in c.metrics {
                values.entry(name).or_insert((unit, Vec::new())).1.push(v);
            }
        }
        let traced = child(workload, cfg.seed, cfg.seconds, true, cfg.smoke)?;
        attempted += traced.attempted;
        failed += traced.failed;
        all_ok &= failed == 0;

        let _ = write!(
            doc,
            "{}\n{}: {{\"attempted\": {attempted}, \"failed\": {failed},\n \"end_to_end\": {{",
            if wi == 0 { "" } else { "," },
            json::quote(workload)
        );
        let _ = writeln!(
            summary,
            "{workload}: ops_attempted {attempted} ops_failed {failed}"
        );
        // Table order, not map order.
        let mut first = true;
        for (name, _, _) in END_TO_END {
            let Some((unit, vals)) = values.get_mut(name) else {
                continue;
            };
            let raw: Vec<String> = vals.iter().map(f64::to_string).collect();
            let s = stats::summarize(vals).expect("a metric has at least one value");
            let _ = write!(
                doc,
                "{}\n  {}: {{\"unit\": {}, \"n\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"values\": [{}]}}",
                if first { "" } else { "," },
                json::quote(name),
                json::quote(unit),
                s.n,
                s.median,
                s.min,
                s.max,
                raw.join(", ")
            );
            first = false;
            let _ = writeln!(
                summary,
                "  {name:<14} median {:>16.4} min {:>16.4} max {:>16.4} n {} {unit}",
                s.median, s.min, s.max, s.n
            );
        }
        doc.push_str("},\n \"per_layer\": {");
        for (i, (name, v, unit)) in traced.metrics.iter().enumerate() {
            let _ = write!(
                doc,
                "{}\n  {}: {{\"unit\": {}, \"value\": {v}}}",
                if i == 0 { "" } else { "," },
                json::quote(name),
                json::quote(unit)
            );
        }
        doc.push_str("}}");
    }
    doc.push_str("\n}\n}\n");
    println!(
        "\n== summary (seed {}, {} s per run) ==\n{summary}",
        cfg.seed, cfg.seconds
    );
    let out = &cfg.out;
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))?;
    println!("results written to {out}");
    Ok(all_ok)
}

/// `pin`: regenerates `expected.json` from smoke runs of every workload at
/// the pinned seeds. Pinned outputs depend only on each workload's fixed,
/// always-executed prefix, never on how long the run measured.
pub fn pin() -> Res<()> {
    let path = format!("{BENCH_DIR}/expected.json");
    // Runs compare against whatever the file pins; pin nothing meanwhile.
    std::fs::write(&path, "{}\n").map_err(|e| format!("{path}: {e}"))?;
    let mut doc = String::from("{");
    for (si, seed) in PINNED_SEEDS.iter().enumerate() {
        let _ = write!(doc, "{}\n\"{seed}\": {{", if si == 0 { "" } else { "," });
        for (wi, workload) in WORKLOADS.iter().enumerate() {
            let c = child(workload, *seed, 1.0, false, true)?;
            if c.failed > 0 {
                return Err(format!(
                    "{workload} seed {seed}: refusing to pin a failing run"
                ));
            }
            let pins: Vec<String> = c
                .pins
                .iter()
                .map(|(k, v)| format!("\n    {}: {}", json::quote(k), json::quote(v)))
                .collect();
            let _ = write!(
                doc,
                "{}\n  {}: {{{}\n  }}",
                if wi == 0 { "" } else { "," },
                json::quote(workload),
                pins.join(",")
            );
        }
        doc.push_str("\n}");
    }
    doc.push_str("\n}\n");
    std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
    println!("pinned outputs written to {path}");
    Ok(())
}

fn load(path: &str) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values_of(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let mut v: Vec<f64> = results
        .get("workloads")
        .and_then(|w| {
            w.get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("values")
        })
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    stats::sort(&mut v);
    v
}

/// `compare`: applies the fixed bound of every end-to-end metric to each
/// workload's medians in results files `a` (parent) and `b` (change).
/// A metric whose run-to-run spread exceeds its bound is *unresolved*, not
/// unchanged, unless every run of `b` beats every run of `a`. An *exact*
/// per-layer metric that differs (same seed) fails the comparison. Returns
/// whether nothing regressed.
pub fn compare(a_path: &str, b_path: &str, bounds_path: &str) -> Res<bool> {
    let (a, b, bench) = (load(a_path)?, load(b_path)?, load(bounds_path)?);
    let mut ok = true;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "worse %", "bound %", "spread%"
    );
    for workload in WORKLOADS {
        for spec in bench
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap_or_default()
        {
            let field = |k| spec.get(k).and_then(Value::as_str).unwrap_or("");
            let (metric, lower_is_better) = (field("name"), field("better") == "lower");
            let bound = spec.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (va, vb) = (
                values_of(&a, workload, metric),
                values_of(&b, workload, metric),
            );
            let (Some(ma), Some(mb)) = (stats::median(&va), stats::median(&vb)) else {
                println!("{workload:<18} {metric:<12} missing from one file");
                ok = false;
                continue;
            };
            let worse = if lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let spread = stats::spread(&va)
                .into_iter()
                .chain(stats::spread(&vb))
                .fold(f64::NAN, f64::max);
            let b_always_better = if lower_is_better {
                vb.last() < va.first()
            } else {
                vb.first() > va.last()
            };
            let verdict = if spread > bound && !b_always_better {
                "unresolved (spread exceeds bound)"
            } else if worse > bound {
                ok = false;
                "REGRESSED"
            } else if b_always_better && va.len() > 1 {
                "better in every run"
            } else {
                "within bound"
            };
            println!(
                "{workload:<18} {metric:<12} {ma:>14.4} {mb:>14.4} {:>8.2} {:>7.1} {:>7.2}  {verdict}",
                worse * 100.0,
                bound * 100.0,
                spread * 100.0
            );
        }
    }
    let seed = |r: &Value| r.get("fingerprint").and_then(|f| f.get("seed")?.as_f64());
    if seed(&a) != seed(&b) {
        println!("exact metrics not compared: the files were run with different seeds");
        return Ok(ok);
    }
    for workload in WORKLOADS {
        for (name, _, _, _) in PER_LAYER.iter().filter(|m| m.3) {
            let value = |r: &Value| {
                r.get("workloads").and_then(|w| {
                    w.get(workload)?
                        .get("per_layer")?
                        .get(name)?
                        .get("value")?
                        .as_f64()
                })
            };
            if value(&a) != value(&b) {
                println!(
                    "EXACT DIFFERS {workload} {name}: {:?} vs {:?}",
                    value(&a),
                    value(&b)
                );
                ok = false;
            }
        }
    }
    Ok(ok)
}
