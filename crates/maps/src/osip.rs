//! OSIP — the operating-system ASIP model.
//!
//! Section IV closes with MAPS' hardware-scheduler direction: *"in the
//! future MAPS will also support a dedicated task dispatching ASIP (OSIP,
//! operating system ASIP) in order to enable higher PE utilization via more
//! fine-grained tasks and low context switching overhead. Early evaluation
//! case studies exhibited great potential of the OSIP approach in lowering
//! the task-switching overhead, compared to an additional RISC performing
//! scheduling in a typical MPSoC environment."*
//!
//! Both schedulers are modelled as a central dispatcher that hands tasks to
//! PEs: dispatching is serialised at the dispatcher (one decision at a
//! time), and every task pays a context-switch cost on its PE. OSIP differs
//! from the software-RISC scheduler only in its constants — decisions in
//! tens of cycles instead of thousands — which is precisely what makes
//! fine-grained tasking viable. Experiment E6 sweeps task granularity.

use crate::error::{Error, Result};

/// The dispatcher implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Hardware scheduling ASIP: fast decisions, tiny switch cost.
    Osip {
        /// Cycles per scheduling decision (serialised at the ASIP).
        dispatch_cycles: u64,
        /// Context-switch cycles paid on the receiving PE.
        switch_cycles: u64,
    },
    /// A RISC core running the scheduler in software.
    SoftwareRisc {
        /// Cycles per scheduling decision.
        dispatch_cycles: u64,
        /// Context-switch cycles paid on the receiving PE.
        switch_cycles: u64,
    },
}

impl SchedulerKind {
    /// Typical OSIP constants from the MAPS project's early evaluations
    /// (order of magnitude: decisions in ~50 cycles).
    pub fn typical_osip() -> Self {
        SchedulerKind::Osip {
            dispatch_cycles: 50,
            switch_cycles: 20,
        }
    }

    /// Typical software scheduler on an extra RISC (~2000-cycle decisions,
    /// full register-file context switches).
    pub fn typical_software() -> Self {
        SchedulerKind::SoftwareRisc {
            dispatch_cycles: 2_000,
            switch_cycles: 500,
        }
    }

    fn costs(self) -> (u64, u64) {
        match self {
            SchedulerKind::Osip {
                dispatch_cycles,
                switch_cycles,
            }
            | SchedulerKind::SoftwareRisc {
                dispatch_cycles,
                switch_cycles,
            } => (dispatch_cycles, switch_cycles),
        }
    }
}

/// Outcome of dispatching a task set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DispatchResult {
    /// Total cycles until the last task completes.
    pub makespan: u64,
    /// Aggregate PE utilisation: useful work / (makespan × PEs).
    pub utilization: f64,
    /// Cycles the dispatcher itself was busy.
    pub(crate) dispatcher_busy: u64,
}

/// Simulates dispatching `n_tasks` independent tasks of `task_cycles` each
/// onto `n_pes` PEs through the given scheduler.
///
/// The dispatcher issues decisions back-to-back; a PE receiving a task pays
/// the switch cost, runs the task, then waits for its next assignment.
///
/// # Errors
///
/// [`Error::Config`] on zero tasks, PEs, or task size.
pub fn dispatch(
    n_tasks: u64,
    task_cycles: u64,
    n_pes: usize,
    sched: SchedulerKind,
) -> Result<DispatchResult> {
    if n_tasks == 0 || n_pes == 0 || task_cycles == 0 {
        return Err(Error::Config(
            "tasks, PEs, and task size must be non-zero".into(),
        ));
    }
    let (dispatch_cycles, switch_cycles) = sched.costs();
    let mut pe_free = vec![0u64; n_pes];
    let mut dispatcher_free = 0u64;
    let mut makespan = 0u64;
    for _ in 0..n_tasks {
        // The dispatcher decides for the PE that frees earliest.
        let pe = pe_free
            .iter()
            .enumerate()
            .min_by_key(|(i, &t)| (t, *i))
            .map(|(i, _)| i)
            .expect("n_pes > 0");
        // Decision can overlap PE execution but decisions serialise.
        let decided = dispatcher_free + dispatch_cycles;
        dispatcher_free = decided;
        let start = decided.max(pe_free[pe]) + switch_cycles;
        let end = start + task_cycles;
        pe_free[pe] = end;
        makespan = makespan.max(end);
    }
    let useful = n_tasks * task_cycles;
    Ok(DispatchResult {
        makespan,
        utilization: useful as f64 / (makespan * n_pes as u64) as f64,
        dispatcher_busy: n_tasks * dispatch_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The task granularity (cycles) at which `sched` first sustains at least
    /// `target` utilisation on `n_pes` PEs, or `None` within the probed range.
    fn granularity_for_utilization(n_pes: usize, sched: SchedulerKind, target: f64) -> Option<u64> {
        let mut g = 1u64;
        while g <= 1 << 24 {
            if let Ok(r) = dispatch(10_000, g, n_pes, sched) {
                if r.utilization >= target {
                    return Some(g);
                }
            }
            g *= 2;
        }
        None
    }

    #[test]
    fn coarse_tasks_saturate_either_scheduler() {
        for sched in [
            SchedulerKind::typical_osip(),
            SchedulerKind::typical_software(),
        ] {
            let r = dispatch(1_000, 1_000_000, 4, sched).unwrap();
            assert!(r.utilization > 0.95, "{sched:?}: {r:?}");
        }
    }

    #[test]
    fn fine_tasks_collapse_software_scheduler_only() {
        let fine = 500; // cycles per task
        let osip = dispatch(10_000, fine, 4, SchedulerKind::typical_osip()).unwrap();
        let sw = dispatch(10_000, fine, 4, SchedulerKind::typical_software()).unwrap();
        assert!(
            osip.utilization > 2.0 * sw.utilization,
            "osip {} vs sw {}",
            osip.utilization,
            sw.utilization
        );
        assert!(sw.utilization < 0.3);
    }

    #[test]
    fn dispatcher_serialisation_bounds_throughput() {
        // 16 PEs, tiny tasks: the software dispatcher can feed at most one
        // task per 2000 cycles regardless of PE count.
        let r = dispatch(5_000, 100, 16, SchedulerKind::typical_software()).unwrap();
        assert!(r.makespan >= 5_000 * 2_000);
    }

    #[test]
    fn osip_enables_finer_granularity_at_same_utilization() {
        let g_osip = granularity_for_utilization(4, SchedulerKind::typical_osip(), 0.8).unwrap();
        let g_sw = granularity_for_utilization(4, SchedulerKind::typical_software(), 0.8).unwrap();
        assert!(
            g_osip * 8 <= g_sw,
            "osip granularity {g_osip} should be >=8x finer than software {g_sw}"
        );
    }

    #[test]
    fn utilization_in_unit_interval() {
        let r = dispatch(100, 1_000, 4, SchedulerKind::typical_osip()).unwrap();
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
    }

    #[test]
    fn validation() {
        assert!(dispatch(0, 1, 1, SchedulerKind::typical_osip()).is_err());
        assert!(dispatch(1, 0, 1, SchedulerKind::typical_osip()).is_err());
        assert!(dispatch(1, 1, 0, SchedulerKind::typical_osip()).is_err());
    }
}
