//! The run loop every workload shares: repeated set-up, a timed closed
//! loop of iterations, output checks, and — in a traced run — per-layer
//! metrics from the recorded spans and the workload's probes.
//!
//! One process runs one `(workload, traced?)` pair, so `peak_rss_mb` and
//! allocator state are per run. All timed work is single-threaded except
//! the RSP server/client pair of the debug workloads.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json;
use crate::layers::Res;
use crate::stats;
use crate::trace::{self, Tracer};

/// Directory holding this crate (`inputs/`, `expected.json`, `out/`).
pub const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// The frozen copy of input file `name`.
pub fn input_path(name: &str) -> String {
    format!("{BENCH_DIR}/inputs/{name}")
}

/// Workload names, in run order.
pub const WORKLOADS: [&str; 7] = [
    "toolflow_dse",
    "sim_compute",
    "sim_control",
    "debug_interactive",
    "debug_rewind",
    "regress_scripts",
    "regress_campaign",
];

/// End-to-end metrics `(name, unit, better)`: every untraced run of every
/// workload reports all of them. What a unit of *work* and an *op* are is
/// the workload's to define (see `README.md`).
///
/// `work_per_s` and `op_us_p50` are taken per iteration (an iteration's
/// work rate; the median latency of its ops) and reported at the **fast
/// decile across iterations**. On a shared host, interference comes in
/// episodes of seconds and can only slow a run down: over ten runs the
/// plain mean and median moved 6-16 %, the fast decile 1-6 % (README,
/// "Steadiness"). The plain figures, tail included, are per-layer metrics
/// (`loop.*`) of the traced run.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("op_us_p50", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics `(name, unit, better, exact)`: every traced run
/// reports all of them, reading 0 where the workload never runs the
/// operation. *Exact* metrics are counts of simulated or generated
/// artefacts that must repeat bit-for-bit for one seed.
pub const PER_LAYER: [(&str, &str, &str, bool); 72] = [
    ("minic.parse_us", "us", "lower", false),
    ("minic.parse_lines_per_s", "1/s", "higher", false),
    ("minic.analysis_us", "us", "lower", false),
    ("recoder.split_us", "us", "lower", false),
    ("maps.extract_us", "us", "lower", false),
    ("maps.anneal_iters_per_s", "1/s", "higher", false),
    ("maps.anneal_share", "%", "lower", false),
    ("pdl.generate_us", "us", "lower", false),
    ("pdl.compile_us", "us", "lower", false),
    ("pdl.joint_trials_per_s", "1/s", "higher", false),
    ("pdl.joint_share", "%", "lower", false),
    ("cic.translate_us", "us", "lower", false),
    ("cic.explore_trials_per_s", "1/s", "higher", false),
    ("rtkernel.sweep_trials_per_s", "1/s", "higher", false),
    ("dataflow.sizing_probes_per_s", "1/s", "higher", false),
    ("explore.trials", "count", "lower", true),
    ("explore.speedup_2t", "x", "higher", false),
    ("platform.ns_per_step", "ns", "lower", false),
    ("platform.slice_ms_p95", "ms", "lower", false),
    ("platform.step_call_ns", "ns", "lower", false),
    ("platform.steps", "count", "lower", true),
    ("platform.sim_time_ps", "ps", "lower", true),
    ("platform.cache_hit_ratio", "ratio", "higher", true),
    ("platform.interconnect_transfers", "count", "lower", true),
    ("obs.attached_ns_per_step", "ns", "lower", false),
    ("obs.overhead_pct", "%", "lower", false),
    ("snapshot.full_capture_us", "us", "lower", false),
    ("snapshot.full_bytes", "B", "lower", true),
    ("snapshot.delta_capture_us", "us", "lower", false),
    ("snapshot.delta_bytes", "B", "lower", true),
    ("snapshot.restore_full_us", "us", "lower", false),
    ("snapshot.restore_delta_us", "us", "lower", false),
    ("snapshot.reset_to_base_us", "us", "lower", false),
    ("vpdebug.run_ns_per_step", "ns", "lower", false),
    ("vpdebug.run_tt_ns_per_step", "ns", "lower", false),
    ("vpdebug.debug_overhead_x", "x", "lower", false),
    ("vpdebug.step_back_us_p50", "us", "lower", false),
    ("vpdebug.replay_steps_per_back", "count", "lower", true),
    ("vpdebug.ring_checkpoints", "count", "higher", true),
    ("vpdebug.ring_bytes", "B", "lower", true),
    ("vpdebug.campaign_trial_us", "us", "lower", false),
    ("vpdebug.golden_run_us", "us", "lower", false),
    ("gdbrsp.dispatch_us_p50", "us", "lower", false),
    ("gdbrsp.self_us_p50", "us", "lower", false),
    ("gdbrsp.transport_us_p50", "us", "lower", false),
    ("gdbrsp.rtt_us_p99", "us", "lower", false),
    ("gdbrsp.bytes_per_packet", "B", "lower", true),
    ("apps.load_soc_us", "us", "lower", false),
    ("apps.attach_us_p50", "us", "lower", false),
    ("apps.script_us_p50", "us", "lower", false),
    ("apps.script_us_max", "us", "lower", false),
    ("apps.commands_per_s", "1/s", "higher", false),
    ("apps.report_us", "us", "lower", false),
    ("loop.work_per_s_mean", "1/s", "higher", false),
    ("loop.op_us_p50", "us", "lower", false),
    ("loop.op_us_p95", "us", "lower", false),
    ("loop.op_us_p99", "us", "lower", false),
    ("trace.overhead_pct", "%", "lower", false),
    ("trace.self_sum_pct", "%", "higher", false),
    ("share.minic", "%", "lower", false),
    ("share.recoder", "%", "lower", false),
    ("share.maps", "%", "lower", false),
    ("share.pdl", "%", "lower", false),
    ("share.cic", "%", "lower", false),
    ("share.rtkernel", "%", "lower", false),
    ("share.dataflow", "%", "lower", false),
    ("share.platform", "%", "lower", false),
    ("share.snapshot", "%", "lower", false),
    ("share.vpdebug", "%", "lower", false),
    ("share.gdbrsp", "%", "lower", false),
    ("share.apps", "%", "lower", false),
    ("share.harness", "%", "lower", false),
];

/// What one run's timed loop accumulates.
#[derive(Debug, Default)]
pub struct Samples {
    /// Latency of each user-visible operation of the current iteration,
    /// µs. The harness folds it into a per-iteration median after every
    /// iteration, so memory does not grow with how fast the run went.
    pub op_us: Vec<f64>,
    /// Traced run only: every op latency of the whole loop, ascending.
    pub all_op_us: Vec<f64>,
    /// Units of work completed.
    pub work: u64,
    /// Host seconds spent on that work.
    pub busy_s: f64,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// One message per failed operation or check.
    pub failures: Vec<String>,
}

impl Samples {
    /// Records one user-visible operation of latency `d`.
    pub fn op(&mut self, d: Duration) {
        self.op_us.push(d.as_secs_f64() * 1e6);
    }

    /// Records `units` of work that took `d`.
    pub fn did(&mut self, units: u64, d: Duration) {
        self.work += units;
        self.busy_s += d.as_secs_f64();
    }

    /// Counts one attempted operation or check; records `msg()` if it
    /// failed.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(msg());
        }
    }

    /// Counts an attempted operation; on `Err` records it as failed.
    pub fn attempt<T>(&mut self, what: &str, r: Res<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Per-layer metric values a workload fills in (missing ones read 0).
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Observed outputs to pin: `(key, value)`; compared against
/// `expected.json` for the seeds it lists.
pub type Pins = Vec<(String, String)>;

/// One benchmark workload.
pub trait Workload: Sized {
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Iterations the output checks need, run even when time is up.
    const MIN_ITERATIONS: u64;

    /// Input generation, `.soc` loads and golden runs — everything before
    /// timing starts. Timed as `setup_s`.
    fn setup(seed: u64) -> Res<Self>;

    /// One iteration of the closed loop: calls into the layers through
    /// `tr`, records ops, work and failures in `out`.
    fn iterate(&mut self, index: u64, tr: &mut Tracer, out: &mut Samples);

    /// Output checks after the loop; returns the observables to pin.
    fn check(&mut self, out: &mut Samples) -> Pins;

    /// Traced run only: per-layer metrics from the recorded spans and from
    /// probes of single operations (`quick` shrinks probe repeat counts).
    fn layer_metrics(
        &mut self,
        tr: &mut Tracer,
        out: &mut Samples,
        m: &mut LayerMetrics,
        quick: bool,
    );
}

/// How to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed loop measures for.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Minimum work only; reports no rates.
    pub smoke: bool,
}

/// Result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// `(name, value, unit)` — end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one; empty for a smoke run.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line the acceptance driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json::quote(n),
                    json::quote(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Set-ups per measured run (the median is reported); one in a smoke run.
const SETUP_REPEATS: usize = 5;

/// Runs workload `W` under `cfg`, printing progress and every metric by
/// name on standard output.
pub fn run<W: Workload>(cfg: RunConfig) -> Res<Outcome> {
    println!(
        "# {} seed={} seconds={} trace={}{}",
        W::NAME,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.smoke {
            " SMOKE: not a measurement"
        } else {
            ""
        }
    );
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..if cfg.smoke { 1 } else { SETUP_REPEATS } {
        drop(w.take());
        let t0 = Instant::now();
        w = Some(W::setup(cfg.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    stats::sort(&mut setup_s);

    // A traced run spends half its time in the loop and the rest in probes,
    // and records spans on every other iteration so it carries its own
    // untraced baseline for `trace.overhead_pct`.
    let loop_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut tr = Tracer::new(false);
    let mut out = Samples::default();
    // Per iteration: work rate (by untraced/traced iteration), and median
    // op latency.
    let mut iter_rate = [Vec::new(), Vec::new()];
    let mut iter_op_us = Vec::new();
    let mut traced_wall = Duration::ZERO;
    let started = Instant::now();
    let mut index = 0;
    while index < W::MIN_ITERATIONS || (!cfg.smoke && started.elapsed().as_secs_f64() < loop_s) {
        tr.enabled = cfg.trace && index % 2 == 0;
        tr.id = index;
        let (work0, busy0) = (out.work, out.busy_s);
        let root = tr.begin("harness.iteration");
        w.iterate(index, &mut tr, &mut out);
        let wall = tr.end(root);
        let (work, busy) = (out.work - work0, out.busy_s - busy0);
        if busy > 0.0 {
            iter_rate[usize::from(tr.enabled)].push(work as f64 / busy);
        }
        stats::sort(&mut out.op_us);
        iter_op_us.extend(stats::median(&out.op_us));
        if cfg.trace {
            out.all_op_us.extend_from_slice(&out.op_us);
        }
        out.op_us.clear();
        if tr.enabled {
            traced_wall += wall;
        }
        index += 1;
    }
    tr.enabled = false;
    let loop_wall = started.elapsed().as_secs_f64();
    let ops_sampled = iter_op_us.len();
    iter_rate.iter_mut().for_each(|r| stats::sort(r));
    stats::sort(&mut iter_op_us);
    stats::sort(&mut out.all_op_us);

    let pins = w.check(&mut out);
    check_pins(W::NAME, cfg.seed, &pins, &mut out);

    let mut metrics = Vec::new();
    if cfg.trace {
        let mut m = LayerMetrics::new();
        let table = trace::layer_table(tr.spans());
        if table.root_ns > 0 {
            let share = |ns: u64| ns as f64 / table.root_ns as f64 * 100.0;
            for (name, _, _, _) in PER_LAYER {
                if let Some(layer) = name.strip_prefix("share.") {
                    m.insert(name, share(table.self_ns(layer)));
                }
            }
            m.insert("trace.self_sum_pct", share(table.self_sum_ns()));
            println!(
                "layer table ({} spans, traced wall {:.3} s, root spans {:.3} s):",
                tr.spans().len(),
                traced_wall.as_secs_f64(),
                table.root_ns as f64 / 1e9
            );
            for (layer, ns, n) in &table.rows {
                println!(
                    "  {layer:<10} self {:>10.3} ms {:>6.2} %  ({n} spans)",
                    *ns as f64 / 1e6,
                    share(*ns)
                );
            }
        }
        if !cfg.smoke {
            if let [Some(off), Some(on)] = [&iter_rate[0], &iter_rate[1]].map(|r| stats::median(r))
            {
                m.insert("trace.overhead_pct", (off / on - 1.0) * 100.0);
            }
            m.insert("loop.work_per_s_mean", out.work as f64 / out.busy_s);
            for (name, p) in [
                ("loop.op_us_p50", 50.0),
                ("loop.op_us_p95", 95.0),
                ("loop.op_us_p99", 99.0),
            ] {
                m.insert(name, stats::percentile(&out.all_op_us, p).unwrap_or(0.0));
            }
        }
        w.layer_metrics(&mut tr, &mut out, &mut m, cfg.smoke);
        let path = format!("{BENCH_DIR}/out/trace-{}.json", W::NAME);
        std::fs::create_dir_all(format!("{BENCH_DIR}/out"))
            .and_then(|()| std::fs::write(&path, trace::chrome_json(tr.spans())))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("trace written to {path}");
        if !cfg.smoke {
            for (name, unit, _, _) in PER_LAYER {
                metrics.push((name, m.get(name).copied().unwrap_or(0.0), unit));
            }
        }
    } else if !cfg.smoke {
        let value = |name: &str| match name {
            "setup_s" => stats::median(&setup_s),
            "work_per_s" => stats::percentile(&iter_rate[0], 90.0),
            "op_us_p50" => stats::percentile(&iter_op_us, 10.0),
            "peak_rss_mb" => peak_rss_mb(),
            _ => None,
        };
        for (name, unit, _) in END_TO_END {
            let v = value(name).ok_or_else(|| format!("{}: no samples for {name}", W::NAME))?;
            metrics.push((name, v, unit));
        }
    }

    println!(
        "{} iterations in {loop_wall:.3} s ({} with op samples), {} work units; set-up x{} median {:.4} s (min {:.4}, max {:.4})",
        index,
        ops_sampled,
        out.work,
        setup_s.len(),
        stats::median(&setup_s).unwrap_or(0.0),
        setup_s[0],
        setup_s[setup_s.len() - 1],
    );
    for (k, v) in &pins {
        println!("pin {k} = {v}");
    }
    for (name, v, unit) in &metrics {
        println!("  {name:<34} {v:>18.4} {unit}");
    }
    for f in out.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    println!(
        "ops_attempted {} ops_failed {}",
        out.attempted,
        out.failures.len()
    );
    Ok(Outcome {
        attempted: out.attempted.max(1),
        failed: out.failures.len() as u64,
        metrics,
    })
}

/// Compares `pins` with `expected.json`'s entry for `(seed, workload)`,
/// when it has one. A missing or different value counts as a failed check.
fn check_pins(workload: &str, seed: u64, pins: &Pins, out: &mut Samples) {
    let path = format!("{BENCH_DIR}/expected.json");
    let expected = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text));
    let expected = match expected {
        Ok(v) => v,
        Err(e) => {
            out.check(false, || format!("{path}: {e}"));
            return;
        }
    };
    let Some(entry) = expected
        .get(&seed.to_string())
        .and_then(|s| s.get(workload))
    else {
        println!("expected.json pins no outputs for seed {seed}; relying on the reference checks");
        return;
    };
    for (k, v) in pins {
        let want = entry.get(k).and_then(json::Value::as_str);
        out.check(want == Some(v), || {
            format!("pin {k}: got {v}, expected.json has {want:?}")
        });
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Median of `f` timed `n` times, µs.
pub fn median_us_of(n: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut d = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        f()?;
        d.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    stats::sort(&mut d);
    stats::median(&d).ok_or_else(|| "no samples".into())
}
