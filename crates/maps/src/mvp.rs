//! MVP — the MAPS Virtual Platform.
//!
//! Figure 1's evaluation stage: *"The resulting mapping can be exercised
//! and refined with a fast, high-level SystemC based simulation environment
//! (MAPS Virtual Platform, MVP), which has been designed to evaluate
//! different software settings specifically in a multi-application
//! scenario."*
//!
//! This MVP is a trace-free, event-driven multi-application simulator over
//! the coarse [`ArchModel`]: applications release jobs (instances of their
//! task graphs) periodically; tasks become ready when their predecessors
//! complete (plus communication latency) and compete for their assigned PE.
//! Per the paper, *"hard real-time applications are scheduled statically,
//! while soft and non-real-time applications are scheduled dynamically
//! according to their priority in best effort manner"* — here hard tasks
//! outrank every soft/best-effort task on a PE, soft tasks carry explicit
//! priorities, and best-effort tasks fill the gaps.

use crate::arch::ArchModel;
use crate::error::{Error, Result};
use crate::taskgraph::TaskGraph;

/// Real-time class of an application (the paper's annotation set: latency,
/// period, PE preferences are carried by the task graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtClass {
    /// Hard real-time: periodic with a deadline; statically prioritised
    /// above everything else.
    Hard {
        /// Release period in cycles.
        period: u64,
        /// Relative deadline in cycles.
        deadline: u64,
    },
    /// Soft real-time: periodic, scheduled by priority (higher wins).
    Soft {
        /// Release period in cycles.
        period: u64,
        /// Relative deadline in cycles (misses are counted, not fatal).
        deadline: u64,
        /// Priority among soft apps.
        priority: u8,
    },
    /// Best effort: a single job, lowest priority.
    BestEffort,
}

/// An application to simulate: a task graph, its PE assignment, and its
/// real-time class.
#[derive(Clone, Debug, PartialEq)]
pub struct MvpApp {
    /// Name.
    pub name: String,
    /// The (coarse) task graph.
    pub graph: TaskGraph,
    /// `assignment[task] = pe`.
    pub assignment: Vec<usize>,
    /// Real-time class.
    pub rt: RtClass,
    /// Jobs to release (periodic classes).
    pub jobs: usize,
}

/// Per-application outcome.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AppStats {
    /// Jobs released.
    pub released: usize,
    /// Jobs finishing within their deadline (best-effort jobs always
    /// count as met).
    pub met: usize,
    /// Jobs missing their deadline.
    pub missed: usize,
    /// Worst job latency (release to last task completion).
    pub worst_latency: u64,
    /// Sum of job latencies (mean = total / (met+missed)).
    pub total_latency: u64,
}

/// MVP simulation result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MvpResult {
    /// Per-app stats in input order.
    pub apps: Vec<AppStats>,
    /// Busy cycles per PE.
    pub pe_busy: Vec<u64>,
    /// Completion time of the last task.
    pub end_time: u64,
}

impl MvpResult {
    /// Utilisation of PE `pe` relative to the simulation end time.
    pub fn utilization(&self, pe: usize) -> f64 {
        if self.end_time == 0 {
            return 0.0;
        }
        self.pe_busy.get(pe).copied().unwrap_or(0) as f64 / self.end_time as f64
    }
}

#[derive(Clone, Debug)]
struct TaskInst {
    app: usize,
    job: usize,
    task: usize,
    preds_left: usize,
    ready: u64, // data-ready time (max over pred arrivals), valid when preds_left == 0
    done: bool,
}

/// Priority key: lower is more urgent.
fn prio(app: &MvpApp) -> (u8, u8) {
    match app.rt {
        RtClass::Hard { .. } => (0, 0),
        RtClass::Soft { priority, .. } => (1, u8::MAX - priority),
        RtClass::BestEffort => (2, 0),
    }
}

/// Runs the MVP simulation until all released jobs complete.
///
/// # Errors
///
/// [`Error::Config`] for assignment mismatches or a job/app set that cannot
/// make progress.
pub fn simulate_mvp(arch: &ArchModel, apps: &[MvpApp]) -> Result<MvpResult> {
    for a in apps {
        if a.assignment.len() != a.graph.tasks.len() {
            return Err(Error::Config(format!(
                "app `{}` assignment does not match its graph",
                a.name
            )));
        }
        if a.assignment.iter().any(|&pe| pe >= arch.len()) {
            return Err(Error::Config(format!(
                "app `{}` assigned to a nonexistent PE",
                a.name
            )));
        }
        if a.jobs == 0 {
            return Err(Error::Config(format!("app `{}` has zero jobs", a.name)));
        }
    }
    let mut result = MvpResult {
        apps: vec![AppStats::default(); apps.len()],
        pe_busy: vec![0; arch.len()],
        end_time: 0,
    };

    // Instantiate every job's task instances up front.
    let mut insts: Vec<TaskInst> = Vec::new();
    let mut release: Vec<Vec<u64>> = Vec::new(); // per app, per job release time
    for (ai, app) in apps.iter().enumerate() {
        let period = match app.rt {
            RtClass::Hard { period, .. } | RtClass::Soft { period, .. } => period,
            RtClass::BestEffort => 0,
        };
        let mut rel = Vec::new();
        for j in 0..app.jobs {
            let r = j as u64 * period;
            rel.push(r);
            result.apps[ai].released += 1;
            for (ti, _t) in app.graph.tasks.iter().enumerate() {
                let preds = app.graph.preds(ti).count();
                insts.push(TaskInst {
                    app: ai,
                    job: j,
                    task: ti,
                    preds_left: preds,
                    ready: r,
                    done: false,
                });
            }
        }
        release.push(rel);
    }
    let mut job_end: Vec<Vec<u64>> = apps.iter().map(|a| vec![0u64; a.jobs]).collect();
    let mut job_left: Vec<Vec<usize>> = apps
        .iter()
        .map(|a| vec![a.graph.tasks.len(); a.jobs])
        .collect();

    let mut pe_free = vec![0u64; arch.len()];
    let mut remaining = insts.len();
    let mut guard = 0u64;
    while remaining > 0 {
        guard += 1;
        if guard > 10_000_000 {
            return Err(Error::Config("MVP simulation did not converge".into()));
        }
        // Candidate tasks: all preds done. Choose, per scheduling decision,
        // the globally next (PE, task) pair: the task whose start time
        // (max(ready, pe_free)) is smallest; ties by priority class, then
        // deterministic ids.
        let mut best: Option<(u64, (u8, u8), u64, usize)> = None; // (start, prio, ready, idx)
        for (i, inst) in insts.iter().enumerate() {
            if inst.done || inst.preds_left > 0 {
                continue;
            }
            let app = &apps[inst.app];
            let pe = app.assignment[inst.task];
            let start = inst.ready.max(pe_free[pe]);
            let key = (start, prio(app), inst.ready, i);
            if best.is_none_or(|b| key < (b.0, b.1, b.2, b.3)) {
                best = Some(key);
            }
        }
        let Some((_, _, _, idx)) = best else {
            return Err(Error::Config(
                "no runnable task but jobs remain (cyclic graph?)".into(),
            ));
        };
        let (ai, ji, ti) = (insts[idx].app, insts[idx].job, insts[idx].task);
        let app = &apps[ai];
        let pe = app.assignment[ti];
        let start = insts[idx].ready.max(pe_free[pe]);
        let dur = arch.exec_cycles(pe, app.graph.tasks[ti].cost, app.graph.tasks[ti].pref);
        let end = start + dur;
        pe_free[pe] = end;
        result.pe_busy[pe] += dur;
        result.end_time = result.end_time.max(end);
        insts[idx].done = true;
        remaining -= 1;
        // Wake successors of this job.
        for e in app.graph.succs(ti) {
            let arrival = end + arch.comm_cycles(pe, app.assignment[e.to], e.volume);
            for other in insts.iter_mut() {
                if other.app == ai && other.job == ji && other.task == e.to && !other.done {
                    other.preds_left -= 1;
                    other.ready = other.ready.max(arrival);
                }
            }
        }
        // Job bookkeeping.
        job_end[ai][ji] = job_end[ai][ji].max(end);
        job_left[ai][ji] -= 1;
        if job_left[ai][ji] == 0 {
            let latency = job_end[ai][ji] - release[ai][ji];
            let stats = &mut result.apps[ai];
            stats.total_latency += latency;
            stats.worst_latency = stats.worst_latency.max(latency);
            let deadline = match app.rt {
                RtClass::Hard { deadline, .. } | RtClass::Soft { deadline, .. } => Some(deadline),
                RtClass::BestEffort => None,
            };
            match deadline {
                Some(d) if latency > d => stats.missed += 1,
                _ => stats.met += 1,
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskgraph::{Task, TaskEdge};

    fn chain(costs: &[u64]) -> TaskGraph {
        TaskGraph {
            tasks: costs
                .iter()
                .enumerate()
                .map(|(i, &c)| Task {
                    name: format!("t{i}"),
                    cost: c,
                    pref: None,
                    stmts: vec![i],
                })
                .collect(),
            edges: (1..costs.len())
                .map(|i| TaskEdge {
                    from: i - 1,
                    to: i,
                    volume: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn single_app_latency_matches_schedule() {
        let arch = ArchModel::homogeneous(2);
        let apps = vec![MvpApp {
            name: "a".into(),
            graph: chain(&[10, 20, 30]),
            assignment: vec![0, 0, 0],
            rt: RtClass::Hard {
                period: 1_000,
                deadline: 100,
            },
            jobs: 1,
        }];
        let r = simulate_mvp(&arch, &apps).unwrap();
        assert_eq!(r.apps[0].met, 1);
        // 10+20+30 with local comm 1 per hop = <= 62.
        assert!(r.apps[0].worst_latency <= 62);
    }

    #[test]
    fn pipelined_jobs_overlap_across_pes() {
        let arch = ArchModel::homogeneous(2);
        // Two-stage pipeline split over two PEs: jobs overlap, so 10 jobs
        // take ~ 10 periods of the slower stage, not 10x the sum.
        let apps = vec![MvpApp {
            name: "stream".into(),
            graph: chain(&[100, 100]),
            assignment: vec![0, 1],
            rt: RtClass::Soft {
                period: 110,
                deadline: 400,
                priority: 1,
            },
            jobs: 10,
        }];
        let r = simulate_mvp(&arch, &apps).unwrap();
        assert_eq!(r.apps[0].missed, 0);
        // Serial would be 10 * 200 = 2000; pipelined ~ 1100 + tail.
        assert!(r.end_time < 1_500, "end {}", r.end_time);
    }

    #[test]
    fn hard_app_preempts_best_effort_in_queueing() {
        let arch = ArchModel::homogeneous(1);
        let apps = vec![
            MvpApp {
                name: "be".into(),
                graph: chain(&[500]),
                assignment: vec![0],
                rt: RtClass::BestEffort,
                jobs: 1,
            },
            MvpApp {
                name: "hard".into(),
                graph: chain(&[50]),
                assignment: vec![0],
                rt: RtClass::Hard {
                    period: 1_000,
                    deadline: 100,
                },
                jobs: 1,
            },
        ];
        let r = simulate_mvp(&arch, &apps).unwrap();
        // Both ready at 0 on the same PE: the hard app must run first.
        assert_eq!(r.apps[1].met, 1);
        assert!(r.apps[1].worst_latency <= 100);
    }

    #[test]
    fn soft_priority_orders_contending_apps() {
        let arch = ArchModel::homogeneous(1);
        let mk = |prio: u8| MvpApp {
            name: format!("p{prio}"),
            graph: chain(&[100]),
            assignment: vec![0],
            rt: RtClass::Soft {
                period: 1_000,
                deadline: 150,
                priority: prio,
            },
            jobs: 1,
        };
        let r = simulate_mvp(&arch, &[mk(1), mk(9)]).unwrap();
        // Higher priority (9) meets; lower (1) runs second and misses.
        assert_eq!(r.apps[1].met, 1);
        assert_eq!(r.apps[0].missed, 1);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let arch = ArchModel::homogeneous(2);
        let apps = vec![MvpApp {
            name: "a".into(),
            graph: chain(&[100]),
            assignment: vec![0],
            rt: RtClass::BestEffort,
            jobs: 1,
        }];
        let r = simulate_mvp(&arch, &apps).unwrap();
        assert!((r.utilization(0) - 1.0).abs() < 1e-9);
        assert_eq!(r.utilization(1), 0.0);
    }

    #[test]
    fn validation() {
        let arch = ArchModel::homogeneous(1);
        let bad = MvpApp {
            name: "x".into(),
            graph: chain(&[1, 2]),
            assignment: vec![0],
            rt: RtClass::BestEffort,
            jobs: 1,
        };
        assert!(simulate_mvp(&arch, &[bad]).is_err());
        let bad_pe = MvpApp {
            name: "y".into(),
            graph: chain(&[1]),
            assignment: vec![5],
            rt: RtClass::BestEffort,
            jobs: 1,
        };
        assert!(simulate_mvp(&arch, &[bad_pe]).is_err());
    }
}
