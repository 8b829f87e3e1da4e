//! Joint mapping*topology design-space exploration.
//!
//! The paper's road-works complaint is that the platform is a *fixed*
//! artifact the mapping flow must target; here the platform itself becomes
//! a sweepable axis. Trial `i` of the sweep is mapping
//! `i % mappings_per_topology` of topology `i / mappings_per_topology`:
//!
//! 1. a topology seed and a mapping seed derive from those two indices,
//! 2. the topology is generated as a `.soc` description
//!    ([`crate::generate::generate`]), parsed back and budget-checked (every
//!    topology round-trips the language front end — once, shared by its
//!    mappings), and yields the coarse MAPS architecture model and the
//!    (area, power) figures of the deterministic integer cost model,
//! 3. each mapping seed anneals a mapping of the fixed multimedia-style
//!    workload graph onto that model,
//! 4. the trial scores as (makespan, area, power).
//!
//! Topologies run on [`mpsoc_explore::Sweep`] — seed-split fan-out,
//! fixed-order merge — and their trials are flattened in trial order, so the
//! resulting Pareto front is bit-identical at any thread count;
//! `tests/explore_equivalence.rs` pins 1/2/4/8.

use crate::compile::SocMetrics;
use crate::error::{Error, Result};
use crate::generate::generate;
use crate::parser::parse;
use mpsoc_explore::{split_seeds, Sweep};
use mpsoc_maps::{PeClass, Task, TaskEdge, TaskGraph};
use std::fmt;
use std::fmt::Write as _;

/// Configuration of a joint sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JointConfig {
    /// Master seed; topology and mapping seeds derive from it.
    pub master_seed: u64,
    /// Number of distinct topologies to generate.
    pub topologies: usize,
    /// Mappings annealed per topology.
    pub mappings_per_topology: usize,
    /// Annealing iterations per mapping trial.
    pub anneal_iters: u64,
    /// Worker threads for the sweep (results are thread-invariant).
    pub threads: usize,
}

impl JointConfig {
    /// The CI smoke profile: seconds-scale, still a real joint sweep.
    pub fn smoke() -> Self {
        JointConfig {
            master_seed: 0xD5E9,
            topologies: 24,
            mappings_per_topology: 2,
            anneal_iters: 150,
            threads: 1,
        }
    }

    /// The full experiment profile used by E13.
    pub fn full() -> Self {
        JointConfig {
            master_seed: 0xD5E9,
            topologies: 96,
            mappings_per_topology: 4,
            anneal_iters: 600,
            threads: 1,
        }
    }
}

/// One scored design point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JointTrial {
    /// Seed the topology was generated from.
    pub(crate) topology_seed: u64,
    /// Seed the mapping was annealed from.
    pub(crate) mapping_seed: u64,
    /// Generated platform name.
    pub platform: String,
    /// Core count of the platform.
    pub cores: usize,
    /// Annealed makespan of the workload graph, in reference cycles.
    pub makespan: u64,
    /// Platform area in milli-mm^2.
    pub area_mmm2: u64,
    /// Platform power in uW.
    pub power_uw: u64,
}

impl JointTrial {
    /// `true` if `other` dominates this point (no worse on every
    /// objective, strictly better on at least one; all minimized).
    pub(crate) fn dominated_by(&self, other: &JointTrial) -> bool {
        let no_worse = other.makespan <= self.makespan
            && other.area_mmm2 <= self.area_mmm2
            && other.power_uw <= self.power_uw;
        let better = other.makespan < self.makespan
            || other.area_mmm2 < self.area_mmm2
            || other.power_uw < self.power_uw;
        no_worse && better
    }
}

/// Result of a joint sweep: all trials plus the Pareto front.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JointReport {
    /// Master seed the sweep derived everything from.
    pub master_seed: u64,
    /// Trials evaluated (`topologies * mappings_per_topology`).
    pub trials: usize,
    /// Topology count.
    pub topologies: usize,
    /// Mappings per topology.
    pub mappings_per_topology: usize,
    /// The non-dominated set over (makespan, area, power), in trial order.
    pub front: Vec<JointTrial>,
}

impl JointReport {
    /// Serializes the report (the CI artifact) as JSON. Thread count is an
    /// execution detail and is deliberately excluded: the JSON is byte-
    /// identical at any thread count.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"experiment\": \"E13 joint mapping x topology DSE\",");
        let _ = writeln!(s, "  \"master_seed\": {},", self.master_seed);
        let _ = writeln!(s, "  \"trials\": {},", self.trials);
        let _ = writeln!(s, "  \"topologies\": {},", self.topologies);
        let _ = writeln!(
            s,
            "  \"mappings_per_topology\": {},",
            self.mappings_per_topology
        );
        let _ = writeln!(s, "  \"pareto_front\": [");
        for (i, t) in self.front.iter().enumerate() {
            let comma = if i + 1 == self.front.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"platform\": \"{}\", \"topology_seed\": {}, \"mapping_seed\": {}, \
                 \"cores\": {}, \"makespan\": {}, \"area_mmm2\": {}, \"power_uw\": {}}}{comma}",
                t.platform,
                t.topology_seed,
                t.mapping_seed,
                t.cores,
                t.makespan,
                t.area_mmm2,
                t.power_uw
            );
        }
        s.push_str("  ]\n}\n");
        s
    }
}

impl fmt::Display for JointReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "joint DSE: {} trials ({} topologies x {} mappings), Pareto front {}",
            self.trials,
            self.topologies,
            self.mappings_per_topology,
            self.front.len()
        )?;
        writeln!(
            f,
            "  {:<22} {:>5} {:>10} {:>10} {:>10}",
            "platform", "cores", "makespan", "area mm2", "power mW"
        )?;
        for t in &self.front {
            writeln!(
                f,
                "  {:<22} {:>5} {:>10} {:>10.3} {:>10.3}",
                t.platform,
                t.cores,
                t.makespan,
                t.area_mmm2 as f64 / 1000.0,
                t.power_uw as f64 / 1000.0
            )?;
        }
        Ok(())
    }
}

/// The fixed workload the joint sweep maps: a multimedia-style DAG
/// (capture, parallel filter bank, DSP transform pair, accelerator
/// entropy/packing stages, control merge) with class preferences — so core
/// mix genuinely matters to the score.
pub fn workload() -> TaskGraph {
    let t = |name: &str, cost: u64, pref: Option<PeClass>| Task {
        name: name.into(),
        cost,
        pref,
        stmts: Vec::new(),
    };
    let e = |from: usize, to: usize, volume: u64| TaskEdge { from, to, volume };
    TaskGraph {
        tasks: vec![
            t("capture", 400, Some(PeClass::Risc)),         // 0
            t("filter0", 1200, Some(PeClass::Dsp)),         // 1
            t("filter1", 1200, Some(PeClass::Dsp)),         // 2
            t("filter2", 1200, Some(PeClass::Dsp)),         // 3
            t("filter3", 1200, Some(PeClass::Dsp)),         // 4
            t("xform0", 2000, Some(PeClass::Dsp)),          // 5
            t("xform1", 2000, Some(PeClass::Dsp)),          // 6
            t("quant", 900, None),                          // 7
            t("entropy", 1600, Some(PeClass::Accelerator)), // 8
            t("pack", 1100, Some(PeClass::Accelerator)),    // 9
            t("control", 500, Some(PeClass::Risc)),         // 10
            t("emit", 300, Some(PeClass::Risc)),            // 11
        ],
        edges: vec![
            e(0, 1, 64),
            e(0, 2, 64),
            e(0, 3, 64),
            e(0, 4, 64),
            e(1, 5, 48),
            e(2, 5, 48),
            e(3, 6, 48),
            e(4, 6, 48),
            e(5, 7, 32),
            e(6, 7, 32),
            e(7, 8, 32),
            e(7, 9, 32),
            e(0, 10, 8),
            e(8, 11, 16),
            e(9, 11, 16),
            e(10, 11, 8),
        ],
    }
}

/// Computes the Pareto front of `trials` over (makespan, area, power), all
/// minimized. The front keeps trial order; exactly-equal score triples keep
/// only their first occurrence, so the result is deterministic.
pub(crate) fn pareto_front(trials: &[JointTrial]) -> Vec<JointTrial> {
    let mut front = Vec::new();
    'outer: for (i, t) in trials.iter().enumerate() {
        for (j, o) in trials.iter().enumerate() {
            if i == j {
                continue;
            }
            if t.dominated_by(o) {
                continue 'outer;
            }
            // Tie on all three objectives: keep the earliest trial only.
            if j < i
                && o.makespan == t.makespan
                && o.area_mmm2 == t.area_mmm2
                && o.power_uw == t.power_uw
            {
                continue 'outer;
            }
        }
        front.push(t.clone());
    }
    front
}

/// Runs the joint mapping*topology sweep.
///
/// # Errors
///
/// An [`Error`] if any generated topology fails to validate or any mapping
/// fails to evaluate — both indicate a generator/workload bug, and the
/// sweep reports rather than panics.
pub fn joint_sweep(cfg: &JointConfig) -> Result<JointReport> {
    let trials = joint_trials(cfg)?;
    Ok(JointReport {
        master_seed: cfg.master_seed,
        trials: trials.len(),
        topologies: cfg.topologies,
        mappings_per_topology: cfg.mappings_per_topology,
        front: pareto_front(&trials),
    })
}

/// Every design point of the sweep, in trial order: trial `i` is mapping
/// `i % mappings_per_topology` of topology `i / mappings_per_topology`.
fn joint_trials(cfg: &JointConfig) -> Result<Vec<JointTrial>> {
    let topo_seeds = split_seeds(cfg.master_seed, cfg.topologies);
    let map_seeds = split_seeds(
        cfg.master_seed ^ 0x9E37_79B9_7F4A_7C15,
        cfg.mappings_per_topology,
    );
    let graph = workload();
    // One front-end pass per topology; its mappings share the result.
    let per_topology: Result<Vec<Vec<JointTrial>>> = Sweep::new(cfg.threads)
        .run(cfg.topologies, |t| {
            let topo_seed = topo_seeds[t];
            let src = generate(topo_seed);
            let desc = parse(&src)?;
            desc.check_budget()?;
            let arch = desc.arch_model();
            let m: SocMetrics = desc.metrics();
            map_seeds
                .iter()
                .map(|&mapping_seed| {
                    let mapping = mpsoc_maps::anneal(&graph, &arch, mapping_seed, cfg.anneal_iters)
                        .map_err(|e| Error::new(0, 0, format!("mapping failed: {e}")))?;
                    Ok(JointTrial {
                        topology_seed: topo_seed,
                        mapping_seed,
                        platform: desc.name.clone(),
                        cores: m.cores,
                        makespan: mapping.makespan,
                        area_mmm2: m.area_mmm2,
                        power_uw: m.power_uw,
                    })
                })
                .collect()
        })
        .into_iter()
        .collect();
    // Topology-major is trial order, so the first error above is the first
    // by trial index.
    Ok(per_topology?.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_a_front() {
        let report = joint_sweep(&JointConfig::smoke()).expect("sweep runs");
        assert_eq!(report.trials, 48);
        assert!(!report.front.is_empty());
        assert!(report.front.len() <= report.trials);
        let json = report.to_json();
        assert!(json.contains("\"pareto_front\""));
    }

    #[test]
    fn front_is_nondominated_and_deduped() {
        let report = joint_sweep(&JointConfig::smoke()).expect("sweep runs");
        for (i, a) in report.front.iter().enumerate() {
            for (j, b) in report.front.iter().enumerate() {
                if i != j {
                    assert!(!a.dominated_by(b), "front point {i} dominated by {j}");
                    assert!(
                        (a.makespan, a.area_mmm2, a.power_uw)
                            != (b.makespan, b.area_mmm2, b.power_uw),
                        "front contains duplicate score triple"
                    );
                }
            }
        }
    }

    /// The parent commit's sweep, kept as the oracle: one trial per
    /// (topology, mapping), each through the whole `.soc` front end.
    fn joint_trials_reference(cfg: &JointConfig) -> Result<Vec<JointTrial>> {
        let topo_seeds = split_seeds(cfg.master_seed, cfg.topologies);
        let map_seeds = split_seeds(
            cfg.master_seed ^ 0x9E37_79B9_7F4A_7C15,
            cfg.mappings_per_topology,
        );
        let graph = workload();
        let n = cfg.topologies * cfg.mappings_per_topology;
        let results: Vec<Result<JointTrial>> = Sweep::new(cfg.threads).run(n, |i| {
            let topo_seed = topo_seeds[i / cfg.mappings_per_topology];
            let mapping_seed = map_seeds[i % cfg.mappings_per_topology];
            let src = generate(topo_seed);
            let desc = parse(&src)?;
            desc.check_budget()?;
            let arch = desc.arch_model();
            let mapping = mpsoc_maps::anneal(&graph, &arch, mapping_seed, cfg.anneal_iters)
                .map_err(|e| Error::new(0, 0, format!("mapping failed: {e}")))?;
            let m: SocMetrics = desc.metrics();
            Ok(JointTrial {
                topology_seed: topo_seed,
                mapping_seed,
                platform: desc.name.clone(),
                cores: m.cores,
                makespan: mapping.makespan,
                area_mmm2: m.area_mmm2,
                power_uw: m.power_uw,
            })
        });
        results.into_iter().collect()
    }

    #[test]
    fn per_topology_front_end_matches_the_per_trial_reference() {
        let smoke = JointConfig::smoke();
        let reference = joint_trials_reference(&smoke).expect("reference runs");
        for threads in [1, 2, 4] {
            let cfg = JointConfig { threads, ..smoke };
            assert_eq!(
                joint_trials(&cfg).expect("sweep runs"),
                reference,
                "threads={threads}"
            );
            let report = joint_sweep(&cfg).expect("sweep runs");
            assert_eq!(report.trials, reference.len());
            assert_eq!(report.front, pareto_front(&reference));
        }
        // More mappings than the smoke profile's two, and an uneven split.
        let cfg = JointConfig {
            topologies: 5,
            mappings_per_topology: 3,
            anneal_iters: 40,
            threads: 2,
            ..smoke
        };
        assert_eq!(joint_trials(&cfg), joint_trials_reference(&cfg));
    }

    #[test]
    fn workload_is_well_formed() {
        let g = workload();
        assert_eq!(g.tasks.len(), 12);
        for e in &g.edges {
            assert!(e.from < e.to, "tasks must be in topological order");
            assert!(e.to < g.tasks.len());
        }
    }
}
