//! Design-space exploration over target architectures.
//!
//! Section V closes with the HOPES agenda: *"There are many issues to be
//! researched further in the future, which include optimal mapping of CIC
//! tasks to a given target architecture, **exploration of optimal target
//! architecture**, and optimizing the CIC translator for specific target
//! architectures."* This module implements that exploration: it sweeps a
//! family of candidate platforms (SMP core counts, Cell-like worker
//! counts), auto-maps and translates the model onto each, and selects the
//! cheapest candidate whose estimated iteration time meets a deadline.

use crate::archfile::{ArchInfo, PeClass};
use crate::error::{Error, Result};
use crate::model::CicModel;
use crate::translator::{auto_map, translate};
use mpsoc_explore::Prefix;

/// One evaluated candidate platform.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// The architecture name (e.g. `"smplike"`).
    pub arch: ArchInfo,
    /// Estimated cycles per graph iteration after translation.
    pub est_cycles: u64,
    /// Abstract silicon cost of the platform (RISC = 1.0, DSP = 0.8 —
    /// smaller cores — plus 0.2 for a DMA interconnect).
    pub cost: f64,
    /// Whether the candidate meets the deadline.
    pub meets_deadline: bool,
}

/// The exploration outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct Exploration {
    /// Every candidate evaluated, in sweep order.
    pub candidates: Vec<Candidate>,
    /// Index of the cheapest deadline-meeting candidate, if any.
    pub best: Option<usize>,
}

impl Exploration {
    /// The winning candidate, if any met the deadline.
    pub fn best_candidate(&self) -> Option<&Candidate> {
        self.best.map(|i| &self.candidates[i])
    }
}

fn platform_cost(arch: &ArchInfo) -> f64 {
    let pe_cost: f64 = arch
        .pes
        .iter()
        .map(|p| match p.class {
            PeClass::Risc => 1.0,
            PeClass::Dsp => 0.8,
        })
        .sum();
    let ic = match arch.interconnect {
        crate::archfile::InterconnectKind::Dma => 0.2,
        crate::archfile::InterconnectKind::Bus => 0.1,
    };
    pe_cost + ic
}

/// Explores SMP targets with 1..=`max_cores` cores and Cell-like targets
/// with 1..=`max_workers` SPEs, returning every candidate and the cheapest
/// one whose estimated iteration time is at most `deadline_cycles`. The
/// candidate sweep fans out through the shared [`mpsoc_explore::Sweep`]
/// engine.
///
/// Candidate evaluation (auto-map + translate) is independent per
/// architecture, so the sweep parallelises embarrassingly. Candidates keep
/// their sweep indices, errors are reported in sweep order, and the winner
/// is selected by a fixed `(cost, est_cycles, index)` order — the returned
/// [`Exploration`] is **bit-identical for any `threads >= 1`**, and at
/// `threads == 1` the sweep runs inline in index order.
///
/// # Errors
///
/// [`Error::Mapping`] if the sweep bounds are zero; mapping/translation
/// errors propagate (they indicate an over-constrained model), with ties
/// in error reporting broken by sweep index.
pub fn explore_parallel(
    model: &CicModel,
    deadline_cycles: u64,
    max_cores: usize,
    max_workers: usize,
    threads: usize,
) -> Result<Exploration> {
    if max_cores == 0 || max_workers == 0 {
        return Err(Error::Mapping("exploration bounds must be non-zero".into()));
    }
    let mut archs: Vec<ArchInfo> = (1..=max_cores).map(ArchInfo::smp_like).collect();
    archs.extend((1..=max_workers).map(ArchInfo::cell_like));
    let n = archs.len();
    let results = mpsoc_explore::Sweep::new(threads)
        .run(n, |i| evaluate_candidate(model, &archs[i], deadline_cycles));

    // Index-ordered merge: the first failing candidate's error is the one
    // a one-thread sweep hits first.
    let mut candidates = Vec::with_capacity(n);
    for r in results {
        candidates.push(r?);
    }
    let best = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.meets_deadline)
        .min_by(|(_, a), (_, b)| {
            a.cost
                .partial_cmp(&b.cost)
                .expect("costs are finite")
                .then(a.est_cycles.cmp(&b.est_cycles))
        })
        .map(|(i, _)| i);
    Ok(Exploration { candidates, best })
}

/// Re-costs a CIC model from measured calibration data on a simulated
/// platform.
///
/// The platform is positioned at the region of interest via `prefix` —
/// re-simulated from scratch ([`Prefix::cold`]) or restored from a snapshot
/// ([`Prefix::base`], the warm start) — and the word at `profile_addr + t`
/// is read for task `t`. A positive word replaces the task's declared
/// [`work`](crate::model::CicTask::work) estimate; zero or negative words
/// leave it untouched. A snapshot restore is bit-identical to having
/// simulated the prefix, so both kinds yield the same calibrated model.
///
/// # Errors
///
/// [`Error::Exec`] when the prefix cannot be materialized or a calibration
/// word is outside the platform's address map.
pub fn calibrate_task_work(
    model: &CicModel,
    prefix: &Prefix<'_>,
    profile_addr: u32,
) -> Result<CicModel> {
    let words = prefix
        .profile_words(profile_addr, model.tasks.len())
        .map_err(|e| Error::Exec(format!("task calibration: {e}")))?;
    let mut calibrated = model.clone();
    for (task, &w) in calibrated.tasks.iter_mut().zip(&words) {
        if w > 0 {
            task.work = w as u64;
        }
    }
    Ok(calibrated)
}

/// Maps and translates the model onto one candidate architecture.
fn evaluate_candidate(
    model: &CicModel,
    arch: &ArchInfo,
    deadline_cycles: u64,
) -> Result<Candidate> {
    let mapping = auto_map(model, arch)?;
    let t = translate(model, arch, &mapping)?;
    Ok(Candidate {
        est_cycles: t.est_cycles,
        cost: platform_cost(arch),
        meets_deadline: t.est_cycles <= deadline_cycles,
        arch: arch.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CicChannel, CicTask};

    fn model() -> CicModel {
        let unit = mpsoc_minic::parse(
            "void gen(int out[]) { for (k = 0; k < 4; k = k + 1) { out[k] = k; } }\n\
             void work(int in[], int out[]) { for (k = 0; k < 4; k = k + 1) { out[k] = in[k] * 3; } }\n\
             void fin(int in[]) { int x = in[0]; }",
        )
        .unwrap();
        CicModel::new(
            unit,
            vec![
                CicTask {
                    name: "gen".into(),
                    body_fn: "gen".into(),
                    period: Some(100),
                    deadline: None,
                    work: 200,
                },
                CicTask {
                    name: "work".into(),
                    body_fn: "work".into(),
                    period: None,
                    deadline: None,
                    work: 800,
                },
                CicTask {
                    name: "fin".into(),
                    body_fn: "fin".into(),
                    period: None,
                    deadline: Some(1_000),
                    work: 100,
                },
            ],
            vec![
                CicChannel {
                    name: "a".into(),
                    src: 0,
                    dst: 1,
                    tokens: 4,
                },
                CicChannel {
                    name: "b".into(),
                    src: 1,
                    dst: 2,
                    tokens: 4,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn tight_deadline_needs_bigger_platform() {
        let m = model();
        let loose = explore_parallel(&m, 2_000, 4, 4, 1).unwrap();
        let tight = explore_parallel(&m, 900, 4, 4, 1).unwrap();
        let loose_best = loose.best_candidate().expect("loose is feasible");
        let tight_best = tight.best_candidate().expect("tight is feasible");
        assert!(
            tight_best.cost >= loose_best.cost,
            "tight {tight_best:?} vs loose {loose_best:?}"
        );
        // Loose deadline: a single cheap core suffices.
        assert_eq!(loose_best.arch.pes.len(), 1);
    }

    #[test]
    fn infeasible_deadline_has_no_winner() {
        let m = model();
        let e = explore_parallel(&m, 10, 3, 3, 1).unwrap();
        assert!(e.best.is_none());
        assert_eq!(e.candidates.len(), 6);
        assert!(e.candidates.iter().all(|c| !c.meets_deadline));
    }

    #[test]
    fn best_is_cheapest_feasible() {
        let m = model();
        let e = explore_parallel(&m, 1_500, 4, 4, 1).unwrap();
        let best = e.best_candidate().unwrap();
        for c in &e.candidates {
            if c.meets_deadline {
                assert!(best.cost <= c.cost);
            }
        }
    }

    #[test]
    fn bounds_validated() {
        let m = model();
        assert!(explore_parallel(&m, 100, 0, 1, 1).is_err());
        assert!(explore_parallel(&m, 100, 1, 0, 2).is_err());
    }

    #[test]
    fn profiled_sweep_warm_start_matches_cold() {
        use mpsoc_platform::isa::assemble;
        use mpsoc_platform::platform::PlatformBuilder;
        use mpsoc_platform::{BaseImage, Frequency};

        // A calibration run that deposits measured per-task work at 0x100.
        let build = || -> mpsoc_platform::Result<mpsoc_platform::Platform> {
            let mut p = PlatformBuilder::new()
                .cores(1, Frequency::mhz(100))
                .shared_words(512)
                .cache(None)
                .build()?;
            let prog = assemble(
                "movi r1, 0x100\nmovi r2, 300\nst r2, r1, 0\nmovi r2, 500\nst r2, r1, 1\n\
                 movi r2, 150\nst r2, r1, 2\nhalt",
            )
            .unwrap();
            p.load_program(0, prog, 0)?;
            Ok(p)
        };
        let steps = 10;
        let cold = Prefix::cold(&build, steps);
        let mut p = build().unwrap();
        for _ in 0..steps {
            p.step().unwrap();
        }
        let base = BaseImage::new(p.capture().unwrap()).unwrap();
        let warm = Prefix::base(&base);

        let m = model();
        // Calibration really replaces the declared work estimates.
        let calibrated = calibrate_task_work(&m, &warm, 0x100).unwrap();
        assert_eq!(
            calibrated.tasks.iter().map(|t| t.work).collect::<Vec<_>>(),
            vec![300, 500, 150]
        );
        // Warm equals cold, bit for bit, at every thread count.
        let cold_m = calibrate_task_work(&m, &cold, 0x100).unwrap();
        for deadline in [600u64, 1_000, 2_000] {
            let reference = explore_parallel(&cold_m, deadline, 4, 4, 1).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let warm_e = explore_parallel(&calibrated, deadline, 4, 4, threads).unwrap();
                assert_eq!(reference, warm_e, "deadline {deadline}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_sweep_is_thread_count_invariant() {
        let m = model();
        for deadline in [10u64, 900, 1_500, 2_000] {
            let one = explore_parallel(&m, deadline, 4, 4, 1).unwrap();
            for threads in [2usize, 4, 8] {
                let par = explore_parallel(&m, deadline, 4, 4, threads).unwrap();
                assert_eq!(par, one, "deadline {deadline}, {threads} threads");
            }
        }
    }
}
