//! Engine-backed scheduling-policy / DVFS-boost design-space sweeps.
//!
//! The paper's Section II stack leaves one question to the system designer:
//! how many cores should stay time-shared, and how hard should the scarce
//! *"high speed processor resources"* be boosted? This module turns that
//! question into a deterministic design-space sweep over [`Policy`]
//! candidates, fanned out through the shared [`mpsoc_explore::Sweep`]
//! engine — bit-identical results at any thread count — with an optional
//! snapshot warm start ([`mpsoc_explore::Prefix`]) that re-costs the
//! workload from profile counters measured on a simulated platform instead
//! of re-simulating the profiling prefix per sweep.

use crate::error::{Error, Result};
use crate::sched::{simulate, Policy, SimConfig, SimResult};
use crate::task::Workload;
use mpsoc_explore::{Prefix, Sweep};
use mpsoc_obs::MetricsRegistry;

/// One evaluated point of a policy sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyCandidate {
    /// The scheduling policy simulated.
    pub policy: Policy,
    /// Its simulation outcome.
    pub result: SimResult,
}

/// The outcome of [`sweep_policies`]: every candidate in grid order plus
/// the winner's index.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicySweep {
    /// All candidates, in the fixed grid order of `policy_grid`.
    pub candidates: Vec<PolicyCandidate>,
    /// Index of the winner: fewest deadline misses, then fewest busy
    /// ticks, then the earliest grid position.
    pub best: usize,
}

impl PolicySweep {
    /// The winning candidate.
    #[must_use]
    pub fn best_candidate(&self) -> &PolicyCandidate {
        &self.candidates[self.best]
    }
}

/// The fixed candidate grid for `cores` cores and the given DVFS boost
/// factors: [`Policy::TimeShared`] first, then [`Policy::Hybrid`] with
/// every time-shared pool size `1..cores` crossed with every boost, in
/// order. The grid order is part of the sweep's deterministic contract
/// (ties in the winner selection break toward earlier grid positions).
#[must_use]
pub(crate) fn policy_grid(cores: usize, boosts: &[f64]) -> Vec<Policy> {
    let mut grid = vec![Policy::TimeShared];
    for ts_cores in 1..cores {
        for &boost in boosts {
            grid.push(Policy::Hybrid { ts_cores, boost });
        }
    }
    grid
}

/// Sweeps every `policy_grid` candidate over `workload`, simulating each
/// with `base`'s parameters and the candidate's policy.
///
/// Candidates fan out through the shared [`mpsoc_explore::Sweep`] engine
/// and merge in grid order, so the returned [`PolicySweep`] is
/// bit-identical for any `threads >= 1` — including the serial reference
/// of simply simulating the grid in a loop. With `metrics`, the engine
/// bumps `explore.trials` / `explore.wall_ns`.
///
/// # Errors
///
/// Propagates the first (by grid index) [`simulate`] validation error —
/// e.g. a boost below `1.0` or a zero-core configuration.
pub fn sweep_policies(
    workload: &Workload,
    base: &SimConfig,
    boosts: &[f64],
    threads: usize,
    metrics: Option<&MetricsRegistry>,
) -> Result<PolicySweep> {
    let grid = policy_grid(base.cores, boosts);
    let mut sweep = Sweep::new(threads);
    if let Some(m) = metrics {
        sweep = sweep.metrics(m);
    }
    let results = sweep.run(grid.len(), |i| {
        simulate(
            workload,
            &SimConfig {
                policy: grid[i],
                ..*base
            },
        )
    });
    let mut candidates = Vec::with_capacity(grid.len());
    for (policy, r) in grid.iter().zip(results) {
        candidates.push(PolicyCandidate {
            policy: *policy,
            result: r?,
        });
    }
    let best = candidates
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| (c.result.total_missed(), c.result.busy_ticks))
        .map(|(i, _)| i)
        .expect("the grid always contains TimeShared");
    Ok(PolicySweep { candidates, best })
}

/// Re-costs `workload` from measured profile data on a simulated platform.
///
/// The platform is positioned at the region of interest via `prefix` —
/// re-simulated from scratch or restored from a snapshot / delta base (the
/// warm start) — and the word at `profile_addr + t` is read for every task
/// `t`. A positive word replaces the task's declared
/// `serial_work` estimate; zero or
/// negative words (no measurement) leave it untouched. Because a snapshot
/// restore is bit-identical to having simulated the prefix, warm and cold
/// prefixes yield the same re-costed workload.
///
/// # Errors
///
/// [`Error::Config`] when the prefix cannot be materialized or a profile
/// word is outside the platform's address map.
pub fn profile_workload(
    workload: &Workload,
    prefix: &Prefix<'_>,
    profile_addr: u32,
) -> Result<Workload> {
    let words = prefix
        .profile_words(profile_addr, workload.tasks().len())
        .map_err(|e| Error::Config(format!("task profile: {e}")))?;
    let mut profiled = workload.clone();
    for (spec, &word) in profiled.tasks_mut().iter_mut().zip(&words) {
        if word > 0 {
            spec.serial_work = word as u64;
        }
    }
    Ok(profiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    fn mixed_workload() -> Workload {
        let mut w = Workload::new();
        w.push(TaskSpec::parallel("video", 10, 900, 4, 200).with_period(250, 8));
        w.push(TaskSpec::sequential("control", 40, 80).with_period(100, 20));
        w.push(TaskSpec::sequential("ui", 25, 200).with_priority(3));
        w
    }

    fn base_cfg() -> SimConfig {
        SimConfig {
            cores: 4,
            horizon: 4_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn grid_starts_with_time_shared_and_crosses_pools_with_boosts() {
        let grid = policy_grid(3, &[1.0, 1.5]);
        assert_eq!(grid[0], Policy::TimeShared);
        assert_eq!(grid.len(), 1 + 2 * 2);
        assert!(matches!(
            grid[1],
            Policy::Hybrid {
                ts_cores: 1,
                boost
            } if boost == 1.0
        ));
    }

    #[test]
    fn single_core_grid_is_just_time_shared() {
        assert_eq!(policy_grid(1, &[1.5]), vec![Policy::TimeShared]);
    }

    #[test]
    fn sweep_matches_the_serial_grid_loop() {
        let w = mixed_workload();
        let base = base_cfg();
        let boosts = [1.0, 1.5, 2.0];
        let sweep = sweep_policies(&w, &base, &boosts, 4, None).unwrap();
        let grid = policy_grid(base.cores, &boosts);
        assert_eq!(sweep.candidates.len(), grid.len());
        for (c, policy) in sweep.candidates.iter().zip(&grid) {
            let reference = simulate(
                &w,
                &SimConfig {
                    policy: *policy,
                    ..base
                },
            )
            .unwrap();
            assert_eq!(c.result, reference);
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let w = mixed_workload();
        let base = base_cfg();
        let boosts = [1.0, 1.5, 2.0];
        let serial = sweep_policies(&w, &base, &boosts, 1, None).unwrap();
        for threads in [2, 4, 8] {
            let parallel = sweep_policies(&w, &base, &boosts, threads, None).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn winner_never_misses_more_than_time_shared() {
        let w = mixed_workload();
        let sweep = sweep_policies(&w, &base_cfg(), &[1.0, 1.5, 2.0], 2, None).unwrap();
        let ts_missed = sweep.candidates[0].result.total_missed();
        assert!(sweep.best_candidate().result.total_missed() <= ts_missed);
    }

    #[test]
    fn invalid_boost_surfaces_the_first_grid_error() {
        let w = mixed_workload();
        let err = sweep_policies(&w, &base_cfg(), &[0.5], 2, None).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err:?}");
    }
}
