//! Reactive admission control for the hybrid scheduler.
//!
//! Section II.B: *"there is a need for scheduling algorithms that can in a
//! reactive way mitigate multiple requests for parallel computing
//! resources as well \[as\] sequential computing resources … In addition,
//! especially for the purpose of real-time systems, a predictable approach
//! shall be designed, that can meet application dead-line requirements. To
//! the best of our knowledge, no such algorithm has been published yet."*
//!
//! This module supplies that missing piece for our machine model: an
//! [`AdmissionController`] that accepts or rejects tasks *online* so that
//! every admitted periodic task provably meets its deadlines under the
//! hybrid policy of [`crate::sched`]:
//!
//! * **Parallel tasks** receive a dedicated gang reservation on the
//!   space-shared pool. Admission requires (a) enough unreserved space
//!   cores for the width, and (b) the job's critical path — serial part on
//!   a time-shared core plus parallel part over the gang — to fit the
//!   deadline with the configured margin.
//! * **Sequential tasks** are partitioned first-fit onto time-shared
//!   cores; each core's utilisation is kept at or below the configured
//!   bound, and response time must fit the deadline under the busy-period
//!   bound for the core's admitted set.
//!
//! Each request is decided as it arrives, so the controller is reactive in
//! the paper's sense. The test-suite closes the loop: every admitted set is
//! replayed in the [`crate::sched`] simulator and must miss nothing.

use crate::error::{Error, Result};
use crate::task::{TaskId, TaskSpec, Workload};

/// Machine description for admission decisions (must match the
/// [`crate::sched::SimConfig`] the set will run under).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Total cores.
    pub cores: usize,
    /// Cores in the time-shared pool (the rest are space-shared).
    pub ts_cores: usize,
    /// Work units per tick of a base-speed core.
    pub speed: u64,
    /// Per-job fixed overhead budget (switches etc.), in work units.
    pub overhead: u64,
    /// Utilisation bound per time-shared core (≤ 1.0).
    pub(crate) util_bound: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            cores: 8,
            ts_cores: 2,
            speed: 10,
            overhead: 4,
            util_bound: 0.8,
        }
    }
}

/// A reservation held by an admitted task.
#[derive(Clone, Debug, PartialEq)]
enum Reservation {
    /// Gang of space-shared cores.
    Gang { width: usize },
    /// A time-shared core index with the task's utilisation share.
    TimeShared { core: usize, util: f64 },
}

/// Online admission control over the hybrid machine.
#[derive(Clone, Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    space_free: usize,
    ts_util: Vec<f64>,
    admitted: Vec<(TaskId, TaskSpec, Reservation)>,
    next_id: usize,
    rejected: u64,
}

impl AdmissionController {
    /// Creates a controller for the given machine.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for inconsistent pool sizes or bounds.
    pub fn new(cfg: AdmissionConfig) -> Result<Self> {
        if cfg.ts_cores == 0 || cfg.ts_cores > cfg.cores {
            return Err(Error::Config(format!(
                "time-shared pool {} does not fit {} cores",
                cfg.ts_cores, cfg.cores
            )));
        }
        if !(0.0..=1.0).contains(&cfg.util_bound) {
            return Err(Error::Config("utilisation bound must be in [0, 1]".into()));
        }
        if cfg.speed == 0 {
            return Err(Error::Config("speed must be non-zero".into()));
        }
        Ok(AdmissionController {
            space_free: cfg.cores - cfg.ts_cores,
            ts_util: vec![0.0; cfg.ts_cores],
            admitted: Vec::new(),
            next_id: 0,
            rejected: 0,
            cfg,
        })
    }

    /// Admitted tasks, in admission order.
    pub fn admitted(&self) -> impl Iterator<Item = &TaskSpec> {
        self.admitted.iter().map(|(_, s, _)| s)
    }

    /// How many requests have been rejected.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The admitted set as a workload (for replay in the simulator).
    pub fn workload(&self) -> Workload {
        self.admitted.iter().map(|(_, s, _)| s.clone()).collect()
    }

    /// Tries to admit `spec`; on success returns the admitted task's handle.
    ///
    /// # Errors
    ///
    /// [`Error::AdmissionRejected`] with the failing test's explanation;
    /// [`Error::Config`] for specs without a period (admission reasons
    /// about long-run demand).
    pub fn try_admit(&mut self, spec: TaskSpec) -> Result<TaskId> {
        let Some(period) = spec.period else {
            return Err(Error::Config(format!(
                "task `{}` has no period; admission requires one",
                spec.name
            )));
        };
        let speed = self.cfg.speed;
        let reservation = if spec.width > 1 || spec.parallel_work > 0 {
            // Parallel task: gang on the space pool.
            if spec.width > self.space_free {
                self.rejected += 1;
                return Err(Error::AdmissionRejected {
                    task: spec.name.clone(),
                    reason: format!(
                        "needs a gang of {} but only {} space cores are free",
                        spec.width, self.space_free
                    ),
                });
            }
            // Critical path with overhead margin must fit the deadline.
            let response = spec.critical_path_ticks(speed) + self.cfg.overhead.div_ceil(speed) + 1; // release quantisation
            if response > spec.deadline {
                self.rejected += 1;
                return Err(Error::AdmissionRejected {
                    task: spec.name.clone(),
                    reason: format!(
                        "critical path {response} ticks exceeds deadline {}",
                        spec.deadline
                    ),
                });
            }
            // Demand must fit the period (gang is dedicated, so only the
            // task's own period constrains it).
            if response > period {
                self.rejected += 1;
                return Err(Error::AdmissionRejected {
                    task: spec.name.clone(),
                    reason: format!("response {response} exceeds period {period}"),
                });
            }
            Reservation::Gang { width: spec.width }
        } else {
            // Sequential task: first-fit onto a time-shared core.
            let util =
                (spec.serial_work + self.cfg.overhead) as f64 / (speed as f64 * period as f64);
            if util > self.cfg.util_bound {
                self.rejected += 1;
                return Err(Error::AdmissionRejected {
                    task: spec.name.clone(),
                    reason: format!(
                        "utilisation {util:.3} exceeds bound {}",
                        self.cfg.util_bound
                    ),
                });
            }
            let Some(core) =
                (0..self.cfg.ts_cores).find(|&c| self.ts_util[c] + util <= self.cfg.util_bound)
            else {
                self.rejected += 1;
                return Err(Error::AdmissionRejected {
                    task: spec.name.clone(),
                    reason: "no time-shared core has spare utilisation".to_string(),
                });
            };
            // Response bound on this core: busy period of all admitted
            // work sharing it (non-preemptive-ish pessimism): sum of one
            // job of everything + own work must fit the deadline.
            let mut busy = (spec.serial_work + self.cfg.overhead).div_ceil(speed);
            for (_, other, r) in &self.admitted {
                if matches!(r, Reservation::TimeShared { core: c, .. } if *c == core) {
                    busy += (other.serial_work + self.cfg.overhead).div_ceil(speed);
                }
            }
            if busy > spec.deadline {
                self.rejected += 1;
                return Err(Error::AdmissionRejected {
                    task: spec.name.clone(),
                    reason: format!(
                        "busy-period bound {busy} exceeds deadline {}",
                        spec.deadline
                    ),
                });
            }
            self.ts_util[core] += util;
            Reservation::TimeShared { core, util }
        };
        if let Reservation::Gang { width } = reservation {
            self.space_free -= width;
        }
        let id = TaskId(self.next_id);
        self.next_id += 1;
        self.admitted.push((id, spec, reservation));
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{simulate, Policy, SimConfig};

    fn controller() -> AdmissionController {
        AdmissionController::new(AdmissionConfig::default()).unwrap()
    }

    fn sim_cfg() -> SimConfig {
        SimConfig {
            cores: 8,
            speed: 10,
            switch_overhead: 2,
            horizon: 4_000,
            policy: Policy::Hybrid {
                ts_cores: 2,
                boost: 1.0,
            },
        }
    }

    #[test]
    fn admitted_set_misses_nothing_in_simulation() {
        let mut ac = controller();
        let specs = vec![
            TaskSpec::parallel("video", 20, 1_200, 4, 250).with_period(300, 10),
            TaskSpec::parallel("radio", 10, 400, 2, 150).with_period(200, 15),
            TaskSpec::sequential("ui", 100, 300).with_period(400, 8),
            TaskSpec::sequential("net", 150, 500).with_period(500, 6),
        ];
        for s in specs {
            ac.try_admit(s).unwrap();
        }
        let r = simulate(&ac.workload(), &sim_cfg()).unwrap();
        assert_eq!(
            r.total_missed(),
            0,
            "admission must be sound: {:?}",
            r.tasks
        );
    }

    #[test]
    fn gang_capacity_is_enforced() {
        let mut ac = controller(); // 6 space cores
        ac.try_admit(TaskSpec::parallel("a", 0, 100, 4, 500).with_period(500, 1))
            .unwrap();
        let e = ac
            .try_admit(TaskSpec::parallel("b", 0, 100, 3, 500).with_period(500, 1))
            .unwrap_err();
        assert!(matches!(e, Error::AdmissionRejected { .. }));
        assert_eq!(ac.space_free, 2);
        assert_eq!(ac.rejected(), 1);
    }

    #[test]
    fn infeasible_deadline_rejected() {
        let mut ac = controller();
        // Critical path 100 ticks, deadline 50.
        let e = ac
            .try_admit(TaskSpec::parallel("x", 500, 2_000, 4, 50).with_period(500, 1))
            .unwrap_err();
        assert!(e.to_string().contains("critical path"));
    }

    #[test]
    fn sequential_overload_rejected() {
        let mut ac = controller();
        // Each task uses ~0.52 of a ts core; two fit (one per core), the
        // third finds no core under the 0.8 bound.
        for i in 0..2 {
            ac.try_admit(TaskSpec::sequential(format!("s{i}"), 500, 900).with_period(100, 10))
                .unwrap();
        }
        let e = ac
            .try_admit(TaskSpec::sequential("s2", 500, 900).with_period(100, 10))
            .unwrap_err();
        assert!(e.to_string().contains("no time-shared core"));
    }

    #[test]
    fn aperiodic_tasks_not_admissible() {
        let mut ac = controller();
        assert!(ac
            .try_admit(TaskSpec::sequential("oneshot", 10, 100))
            .is_err());
    }

    #[test]
    fn config_validation() {
        assert!(AdmissionController::new(AdmissionConfig {
            ts_cores: 0,
            ..Default::default()
        })
        .is_err());
        assert!(AdmissionController::new(AdmissionConfig {
            util_bound: 1.5,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn stress_admitted_sets_are_always_schedulable() {
        // Drive the controller with a deterministic stream of requests;
        // whatever it admits must simulate clean. This is the paper's
        // "predictable reactive" property, checked end to end.
        let mut ac = controller();
        for i in 0..20u64 {
            let spec = if i % 3 == 0 {
                TaskSpec::parallel(
                    format!("p{i}"),
                    10 + (i % 5) * 20,
                    300 + (i % 7) * 100,
                    2 + (i as usize % 3),
                    200 + (i % 4) * 50,
                )
                .with_period(250 + (i % 5) * 50, 5)
            } else {
                TaskSpec::sequential(format!("s{i}"), 50 + (i % 6) * 30, 400)
                    .with_period(200 + (i % 9) * 30, 8)
            };
            // A rejection is the controller's answer, not a failure.
            let _ = ac.try_admit(spec);
        }
        assert!(ac.admitted().count() > 0);
        let r = simulate(&ac.workload(), &sim_cfg()).unwrap();
        assert_eq!(r.total_missed(), 0, "stats: {:?}", r.tasks);
    }
}
