//! `regress_scripts` and `regress_campaign` — the CI user's path.
//!
//! * `regress_scripts`: passes of `testrunner::run_suite` over the six
//!   frozen `.mts` scripts — short scripted runs, each on a fresh platform,
//!   through the same `Target` surface a GDB attach drives. Work unit: one
//!   script. Op: one pass over the suite (scripts in, verdicts out).
//! * `regress_campaign`: `run_campaign_delta` over seed-generated fault
//!   batches on the E12 image captured mid-DMA (20 000-step budget).
//!   Restore-heavy: every trial ends in `reset_to_base`, the read side of
//!   the snapshot layer beside `debug_rewind`'s write side. Work unit: one
//!   classified fault. Op: one batch of [`BATCH`] faults.

use crate::gen;
use crate::harness::{self, LayerMetrics, Pins, Samples, Workload};
use crate::layers::{self, CampaignConfig, FaultSpace, FaultSpec, Res};
use crate::stats;
use crate::trace::{self, Tracer};

use super::snapshot_probes;

// -------------------------------------------------------- regress_scripts

const SCRIPTS: [&str; 6] = [
    "car_radio_isr",
    "e12_selfcheck",
    "jpeg_dma_watch",
    "race_timetravel",
    "soc_car_radio",
    "stimulus_inject",
];

/// State of `regress_scripts`.
pub struct Scripts {
    scripts: Vec<(String, String)>,
    /// Verdict lines of the golden pass run during set-up.
    golden: Vec<String>,
    script_us: Vec<f64>,
    commands: u64,
}

impl Workload for Scripts {
    const NAME: &'static str = "regress_scripts";
    const MIN_ITERATIONS: u64 = 1;

    fn setup(_seed: u64) -> Res<Self> {
        let mut scripts = Vec::new();
        for name in SCRIPTS {
            let path = harness::input_path(&format!("{name}.mts"));
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            // The frozen scripts name the frozen `.soc` copy relative to
            // the repository root; resolve it against this checkout.
            let text = text.replace("benchmark/inputs/", &harness::input_path(""));
            scripts.push((name.to_string(), text));
        }
        let (_, golden, failed) = layers::run_suite(&scripts);
        if failed > 0 {
            return Err(format!("golden pass: {failed} scripts failed: {golden:?}"));
        }
        Ok(Scripts {
            scripts,
            golden,
            script_us: Vec::new(),
            commands: 0,
        })
    }

    fn iterate(&mut self, _index: u64, tr: &mut Tracer, out: &mut Samples) {
        let pass = tr.begin("harness.suite_pass");
        for (script, golden) in self.scripts.iter().zip(&self.golden) {
            let ((report, lines, failed), d) = tr.call("apps.run_suite", || {
                layers::run_suite(std::slice::from_ref(script))
            });
            self.script_us.push(d.as_secs_f64() * 1e6);
            self.commands += layers::suite_commands(&report);
            out.check(failed == 0 && lines.first() == Some(golden), || {
                format!("verdict {lines:?}, golden {golden:?}")
            });
        }
        let wall = tr.end(pass);
        out.op(wall);
        out.did(self.scripts.len() as u64, wall);
    }

    fn check(&mut self, _out: &mut Samples) -> Pins {
        self.golden
            .iter()
            .map(|line| {
                let (name, verdict) = line.split_once(' ').unwrap_or((line, ""));
                (format!("verdict.{name}"), verdict.to_string())
            })
            .collect()
    }

    fn layer_metrics(
        &mut self,
        _tr: &mut Tracer,
        out: &mut Samples,
        m: &mut LayerMetrics,
        quick: bool,
    ) {
        stats::sort(&mut self.script_us);
        m.insert(
            "apps.script_us_p50",
            stats::median(&self.script_us).unwrap_or(0.0),
        );
        m.insert(
            "apps.script_us_max",
            self.script_us.last().copied().unwrap_or(0.0),
        );
        m.insert(
            "apps.commands_per_s",
            self.commands as f64 / out.busy_s.max(f64::MIN_POSITIVE),
        );
        let n = if quick { 3 } else { 50 };
        let probes = (|| -> Res<()> {
            let (report, _, _) = layers::run_suite(&self.scripts);
            m.insert(
                "apps.report_us",
                harness::median_us_of(n, || {
                    std::hint::black_box(layers::suite_render(&report));
                    Ok(())
                })?,
            );
            let soc = harness::input_path("car_radio.soc");
            m.insert(
                "apps.load_soc_us",
                harness::median_us_of(n, || layers::load_soc(&soc).map(drop))?,
            );
            Ok(())
        })();
        out.attempt("regress_scripts probes", probes);
    }
}

// ------------------------------------------------------- regress_campaign

/// Faults per `run_campaign_delta` call.
pub const BATCH: usize = 100;
/// Batches whose verdicts are checked against the full-restore reference.
const CHECKED_BATCHES: u64 = 10;
/// The reference re-runs every 20th fault of those batches.
const SAMPLE_EVERY: usize = 20;
/// Batches whose whole verdict table is pinned.
const PINNED_BATCHES: u64 = 2;

fn batch(seed: u64, index: u64, space: &FaultSpace) -> Vec<FaultSpec> {
    layers::campaign_faults(gen::fault_seed(seed, index), BATCH, space)
}

/// State of `regress_campaign`.
pub struct Campaign {
    seed: u64,
    image: Vec<u8>,
    space: FaultSpace,
    cfg: CampaignConfig,
    /// Verdict lines of the sampled faults, through `run_campaign` (a full
    /// image restore per trial) during set-up.
    golden: Vec<String>,
    seen: Vec<String>,
    table_digests: Vec<u64>,
}

impl Workload for Campaign {
    const NAME: &'static str = "regress_campaign";
    const MIN_ITERATIONS: u64 = CHECKED_BATCHES;

    fn setup(seed: u64) -> Res<Self> {
        let (image, space) = layers::e12_fault_site()?;
        let cfg = layers::e12_campaign_config();
        let sample: Vec<FaultSpec> = (0..CHECKED_BATCHES)
            .flat_map(|b| batch(seed, b, &space).into_iter().step_by(SAMPLE_EVERY))
            .collect();
        let golden = layers::campaign_lines(&layers::campaign_full(&image, &sample, cfg)?);
        Ok(Campaign {
            seed,
            image,
            space,
            cfg,
            golden,
            seen: Vec::new(),
            table_digests: Vec::new(),
        })
    }

    fn iterate(&mut self, index: u64, tr: &mut Tracer, out: &mut Samples) {
        let faults = batch(self.seed, index, &self.space);
        let (report, wall) = tr.call("vpdebug.run_campaign_delta", || {
            layers::campaign_delta(&self.image, &faults, self.cfg)
        });
        let Some(report) = out.attempt("campaign batch", report) else {
            return;
        };
        out.op(wall);
        out.did(faults.len() as u64, wall);
        let lines = layers::campaign_lines(&report);
        out.check(lines.len() == faults.len(), || {
            format!(
                "batch {index}: {} outcomes for {} faults",
                lines.len(),
                faults.len()
            )
        });
        if index < PINNED_BATCHES {
            self.table_digests
                .push(layers::fnv(lines.join("\n").as_bytes()));
        }
        if index < CHECKED_BATCHES {
            self.seen.extend(lines.into_iter().step_by(SAMPLE_EVERY));
        }
    }

    fn check(&mut self, out: &mut Samples) -> Pins {
        out.check(self.seen == self.golden, || {
            let first = self.seen.iter().zip(&self.golden).position(|(a, b)| a != b);
            format!(
                "sampled verdicts differ from the full-restore reference \
                 ({} vs {} lines, first difference at {first:?})",
                self.seen.len(),
                self.golden.len()
            )
        });
        self.table_digests
            .iter()
            .enumerate()
            .map(|(i, d)| (format!("verdict_table_digest.{i}"), format!("{d:#018x}")))
            .collect()
    }

    fn layer_metrics(
        &mut self,
        tr: &mut Tracer,
        out: &mut Samples,
        m: &mut LayerMetrics,
        quick: bool,
    ) {
        let spans = tr.spans();
        let batches = spans
            .iter()
            .filter(|s| s.name == "vpdebug.run_campaign_delta")
            .count();
        if batches > 0 {
            m.insert(
                "vpdebug.campaign_trial_us",
                trace::total_s(spans, "vpdebug.run_campaign_delta") * 1e6
                    / (batches * BATCH) as f64,
            );
        }
        let probes = (|| -> Res<()> {
            // A campaign over no faults is its fixed cost: the golden
            // (fault-free) run plus decoding the base image.
            m.insert(
                "vpdebug.golden_run_us",
                harness::median_us_of(if quick { 3 } else { 40 }, || {
                    layers::campaign_delta(&self.image, &[], self.cfg).map(drop)
                })?,
            );
            let mut p = layers::snap_from_image(&self.image)?;
            snapshot_probes(&mut p, m, quick)
        })();
        out.attempt("regress_campaign probes", probes);
    }
}
