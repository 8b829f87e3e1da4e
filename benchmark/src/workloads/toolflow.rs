//! `toolflow_dse` — the designer's path, end to end: application mini-C
//! sources and a `.soc` platform description in, a Pareto front of
//! (mapping, topology) design points out, then the other engine-backed
//! flows once each. minic, recoder, maps, pdl, cic, rtkernel, dataflow and
//! the explore engine do all the work; the platform simulator does none.
//!
//! * work unit — one exploration-engine trial (joint-sweep design point,
//!   annealer restart, CIC candidate, policy-grid cell, sizing probe);
//! * op — one designer iteration's *front latency*: sources + `.soc` in to
//!   Pareto-front JSON out.
//!
//! Every iteration draws fresh inputs from the seed (generated source,
//! sweep and annealer seeds, rtkernel workload, dataflow graph), outside
//! the timed region.

use std::time::Duration;

use crate::gen::{self, ToolflowInput};
use crate::harness::{self, LayerMetrics, Pins, Samples, Workload};
use crate::layers::{self, CicModel, Res};
use crate::trace::{self, Tracer};

/// Joint sweep size per iteration: 48 topologies x 2 mappings x 600
/// annealing iterations (about 18 ms of the ~25 ms iteration).
const TOPOLOGIES: usize = 48;
const MAPPINGS: usize = 2;
const JOINT_ITERS: u64 = 600;
/// Multi-start anneal of the application task graph on the `.soc`
/// architecture: 8 restarts x 3000 iterations.
const ANNEAL_STARTS: usize = 8;
const ANNEAL_ITERS: u64 = 3_000;
/// Iterations whose outputs are pinned.
const PINNED: u64 = 4;

/// Outputs and timings of one designer iteration.
struct Iteration {
    front_digest: u64,
    winners_digest: u64,
    front_scores: Vec<(u64, u64, u64)>,
    /// Engine trials of the CIC, rtkernel and dataflow flows.
    flow_trials: [u64; 3],
    front_latency: Duration,
}

impl Iteration {
    fn trials(&self) -> u64 {
        (TOPOLOGIES * MAPPINGS + ANNEAL_STARTS) as u64 + self.flow_trials.iter().sum::<u64>()
    }
}

/// The inputs every iteration shares.
struct Fixed {
    frame_src: String,
    block_src: String,
    soc_src: String,
    cic: CicModel,
}

/// State of the workload.
pub struct Toolflow {
    seed: u64,
    fixed: Fixed,
    /// Iteration 0 computed during set-up: the loop's iteration 0 must
    /// reproduce it bit for bit.
    golden: Iteration,
    /// `(front, winners)` digests of the first [`PINNED`] loop iterations.
    seen: Vec<(u64, u64)>,
    seen_scores: Vec<(u64, u64, u64)>,
    trials_iter0: u64,
    /// Source lines parsed and per-flow trials run while spans were being
    /// recorded — the numerators of the traced run's rates.
    traced_lines: u64,
    traced_flow_trials: [u64; 3],
}

impl Fixed {
    fn designer_iteration(&self, input: &ToolflowInput, tr: &mut Tracer) -> Res<Iteration> {
        let front_clock = tr.begin("harness.front_latency");
        let mut units = Vec::new();
        for src in [&self.frame_src, &self.block_src, &input.minic] {
            units.push(tr.call("minic.parse", || layers::minic_parse(src)).0?);
        }
        for unit in &units {
            tr.call("minic.analysis", || layers::minic_analysis(unit));
        }
        let mut frame = units.swap_remove(0);
        tr.call("recoder.split_loop", || {
            layers::recoder_split_loop(&mut frame, "encode_frame", 0, 8)
        })
        .0?;
        let graph = tr
            .call("maps.extract_task_graph", || {
                layers::maps_extract(&frame, "encode_frame")
            })
            .0?;
        let arch = tr
            .call("pdl.arch_model", || layers::pdl_arch_model(&self.soc_src))
            .0?;
        let mapping = tr
            .call("maps.anneal_multi", || {
                layers::maps_anneal_multi(
                    &graph,
                    &arch,
                    input.anneal_seed,
                    ANNEAL_ITERS,
                    ANNEAL_STARTS,
                )
            })
            .0?;
        let report = tr
            .call("pdl.joint_sweep", || {
                layers::pdl_joint_sweep(input.joint_seed, TOPOLOGIES, MAPPINGS, JOINT_ITERS, 1)
            })
            .0?;
        let front = tr
            .call("pdl.front_json", || layers::pdl_front_json(&report))
            .0;
        let front_latency = tr.end(front_clock);

        // The other engine-backed flows run after the front is out.
        let (cic, cic_trials) = tr
            .call("cic.explore_parallel", || {
                layers::cic_explore(&self.cic, input.cic_deadline)
            })
            .0?;
        let (rt, rt_trials) = tr
            .call("rtkernel.sweep_policies", || layers::rt_sweep(&input.rt))
            .0?;
        let (caps, df_trials) = tr
            .call("dataflow.minimal_capacities_sweep", || {
                layers::df_sizing(&input.df)
            })
            .0?;

        let winners = format!(
            "{:?}:{} | {} | {} | {caps:?}",
            mapping.assignment,
            mapping.makespan,
            layers::cic_winner(&cic),
            layers::rt_winner(&rt),
        );
        Ok(Iteration {
            front_digest: layers::fnv(front.as_bytes()),
            winners_digest: layers::fnv(winners.as_bytes()),
            front_scores: layers::pdl_front_scores(&report),
            flow_trials: [cic_trials, rt_trials, df_trials],
            front_latency,
        })
    }
}

impl Workload for Toolflow {
    const NAME: &'static str = "toolflow_dse";
    const MIN_ITERATIONS: u64 = PINNED;

    fn setup(seed: u64) -> Res<Self> {
        let (frame_src, block_src) = layers::app_sources();
        let path = harness::input_path("jpeg.soc");
        let soc_src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let fixed = Fixed {
            frame_src,
            block_src,
            soc_src,
            cic: layers::cic_model()?,
        };
        let golden =
            fixed.designer_iteration(&gen::toolflow_input(seed, 0)?, &mut Tracer::new(false))?;
        Ok(Toolflow {
            seed,
            fixed,
            golden,
            seen: Vec::new(),
            seen_scores: Vec::new(),
            trials_iter0: 0,
            traced_lines: 0,
            traced_flow_trials: [0; 3],
        })
    }

    fn iterate(&mut self, index: u64, tr: &mut Tracer, out: &mut Samples) {
        let Some(input) = out.attempt("toolflow input", gen::toolflow_input(self.seed, index))
        else {
            return;
        };
        let open = tr.begin("harness.designer_iteration");
        let result = self.fixed.designer_iteration(&input, tr);
        let wall = tr.end(open);
        let Some(it) = out.attempt("designer iteration", result) else {
            return;
        };
        out.op(it.front_latency);
        out.did(it.trials(), wall);
        if tr.enabled {
            for src in [&self.fixed.frame_src, &self.fixed.block_src, &input.minic] {
                self.traced_lines += src.lines().count() as u64;
            }
            for (sum, n) in self.traced_flow_trials.iter_mut().zip(it.flow_trials) {
                *sum += n;
            }
        }
        if index < PINNED {
            self.seen.push((it.front_digest, it.winners_digest));
        }
        if index == 0 {
            self.trials_iter0 = it.trials();
            self.seen_scores = it.front_scores;
        }
    }

    fn check(&mut self, out: &mut Samples) -> Pins {
        out.check(
            self.seen.first() == Some(&(self.golden.front_digest, self.golden.winners_digest)),
            || "iteration 0 did not reproduce the set-up golden run".into(),
        );
        // Independent of the program's own Pareto code: no front point may
        // be dominated by, or equal to, another.
        let s = &self.seen_scores;
        let dominated = s.iter().enumerate().any(|(i, a)| {
            s.iter()
                .enumerate()
                .any(|(j, b)| i != j && b.0 <= a.0 && b.1 <= a.1 && b.2 <= a.2)
        });
        out.check(!s.is_empty() && !dominated, || {
            format!("iteration 0 front is empty or not a Pareto front: {s:?}")
        });
        out.check(*s == self.golden.front_scores, || {
            "iteration 0 front scores differ from the golden run".into()
        });
        self.seen
            .iter()
            .enumerate()
            .flat_map(|(i, (front, winners))| {
                [
                    (format!("front_digest.{i}"), format!("{front:#018x}")),
                    (format!("winners_digest.{i}"), format!("{winners:#018x}")),
                ]
            })
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
        let iterations = spans
            .iter()
            .filter(|s| s.name == "harness.designer_iteration")
            .count() as u64;
        let wall = trace::total_s(spans, "harness.designer_iteration");
        if iterations > 0 {
            let med = |name| trace::median_us(spans, name).unwrap_or(0.0);
            let rate = |units: u64, name| units as f64 / trace::total_s(spans, name);
            let share = |name| trace::total_s(spans, name) / wall * 100.0;
            let [cic, rt, df] = self.traced_flow_trials;
            m.insert("minic.parse_us", med("minic.parse"));
            m.insert(
                "minic.parse_lines_per_s",
                rate(self.traced_lines, "minic.parse"),
            );
            m.insert("minic.analysis_us", med("minic.analysis"));
            m.insert("recoder.split_us", med("recoder.split_loop"));
            m.insert("maps.extract_us", med("maps.extract_task_graph"));
            m.insert(
                "maps.anneal_iters_per_s",
                rate(
                    iterations * ANNEAL_ITERS * ANNEAL_STARTS as u64,
                    "maps.anneal_multi",
                ),
            );
            m.insert("maps.anneal_share", share("maps.anneal_multi"));
            m.insert(
                "pdl.joint_trials_per_s",
                rate(
                    iterations * (TOPOLOGIES * MAPPINGS) as u64,
                    "pdl.joint_sweep",
                ),
            );
            m.insert("pdl.joint_share", share("pdl.joint_sweep"));
            m.insert(
                "cic.explore_trials_per_s",
                rate(cic, "cic.explore_parallel"),
            );
            m.insert(
                "rtkernel.sweep_trials_per_s",
                rate(rt, "rtkernel.sweep_policies"),
            );
            m.insert(
                "dataflow.sizing_probes_per_s",
                rate(df, "dataflow.minimal_capacities_sweep"),
            );
        }
        m.insert("explore.trials", self.trials_iter0 as f64);

        // Probes of single operations the iteration only runs inside a sweep.
        let n = if quick { 3 } else { 200 };
        let probes = (|| -> Res<()> {
            let mut seed = self.seed;
            m.insert(
                "pdl.generate_us",
                harness::median_us_of(n, || {
                    seed += 1;
                    std::hint::black_box(layers::pdl_generate(seed));
                    Ok(())
                })?,
            );
            m.insert(
                "pdl.compile_us",
                harness::median_us_of(n, || layers::pdl_compile(&self.fixed.soc_src).map(drop))?,
            );
            m.insert(
                "cic.translate_us",
                harness::median_us_of(n, || layers::cic_translate(&self.fixed.cic).map(drop))?,
            );
            // Thread scaling is reported only where the host has the cores,
            // and is never gated. The front must not depend on it.
            let input = gen::toolflow_input(self.seed, 0)?;
            let (topologies, repeats) = if quick { (8, 1) } else { (4 * TOPOLOGIES, 5) };
            let mut fronts = [0u64; 2];
            let mut secs = [0f64; 2];
            for (slot, threads) in [1usize, 2].into_iter().enumerate() {
                secs[slot] = harness::median_us_of(repeats, || {
                    let r = layers::pdl_joint_sweep(
                        input.joint_seed,
                        topologies,
                        MAPPINGS,
                        JOINT_ITERS,
                        threads,
                    )?;
                    fronts[slot] = layers::fnv(layers::pdl_front_json(&r).as_bytes());
                    Ok(())
                })?;
            }
            out.check(fronts[0] == fronts[1], || {
                "joint sweep front differs between 1 and 2 threads".into()
            });
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            if cores >= 2 && !quick {
                m.insert("explore.speedup_2t", secs[0] / secs[1]);
            }
            Ok(())
        })();
        out.attempt("toolflow probes", probes);
    }
}
