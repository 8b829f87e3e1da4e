//! Task-to-PE mapping: list scheduling and simulated-annealing refinement.
//!
//! Figure 1's middle stage: *"Using optimization algorithms, the task graphs
//! are mapped to the target architecture, taking into account real-time
//! requirements and preferred PE classes."* Two optimizers are provided —
//! a HEFT-style list scheduler (fast, deterministic) and a seeded
//! simulated-annealing refinement (slower, usually better on irregular
//! graphs); the E5 ablation bench compares them.

use crate::arch::ArchModel;
use crate::error::{Error, Result};
use crate::taskgraph::TaskGraph;
use mpsoc_explore::Prefix;

/// One scheduled task instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Task index.
    pub task: usize,
    /// Assigned PE.
    pub pe: usize,
    /// Start cycle.
    pub start: u64,
    /// End cycle.
    pub end: u64,
}

/// A complete mapping: assignment plus its static schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Mapping {
    /// `assignment[task] = pe`.
    pub assignment: Vec<usize>,
    /// The static schedule (hard-RT applications run exactly this).
    pub schedule: Vec<Slot>,
    /// Schedule makespan in cycles.
    pub makespan: u64,
}

/// Evaluates `assignment` by topological list scheduling: every task starts
/// as soon as its PE is free and all predecessor data has arrived
/// (communication is charged between distinct PEs).
///
/// # Errors
///
/// [`Error::Config`] if the assignment length does not match the graph or
/// references a nonexistent PE.
pub fn evaluate(graph: &TaskGraph, arch: &ArchModel, assignment: &[usize]) -> Result<Mapping> {
    if assignment.len() != graph.tasks.len() {
        return Err(Error::Config(format!(
            "assignment of {} tasks for graph of {}",
            assignment.len(),
            graph.tasks.len()
        )));
    }
    if let Some(&pe) = assignment.iter().find(|&&pe| pe >= arch.len()) {
        return Err(Error::Config(format!("assignment references PE {pe}")));
    }
    let n = graph.tasks.len();
    let mut pe_free = vec![0u64; arch.len()];
    let mut end = vec![0u64; n];
    let mut schedule = Vec::with_capacity(n);
    // Tasks are topologically ordered by construction of TaskGraph.
    for t in 0..n {
        let pe = assignment[t];
        let mut ready = 0u64;
        for e in graph.preds(t) {
            let arrival = end[e.from] + arch.comm_cycles(assignment[e.from], pe, e.volume);
            ready = ready.max(arrival);
        }
        let start = ready.max(pe_free[pe]);
        let dur = arch.exec_cycles(pe, graph.tasks[t].cost, graph.tasks[t].pref);
        let finish = start + dur;
        pe_free[pe] = finish;
        end[t] = finish;
        schedule.push(Slot {
            task: t,
            pe,
            start,
            end: finish,
        });
    }
    Ok(Mapping {
        assignment: assignment.to_vec(),
        makespan: end.into_iter().max().unwrap_or(0),
        schedule,
    })
}

/// HEFT-style list scheduling: tasks in decreasing upward rank, each
/// assigned to the PE that minimises its earliest finish time.
///
/// # Errors
///
/// Propagates [`evaluate`] errors (internal bug guard only — inputs are
/// validated up front).
pub fn list_schedule(graph: &TaskGraph, arch: &ArchModel) -> Result<Mapping> {
    if graph.tasks.is_empty() {
        return Ok(Mapping::default());
    }
    let n = graph.tasks.len();
    // Average execution cost across PEs for ranking.
    let avg_cost: Vec<f64> = graph
        .tasks
        .iter()
        .map(|t| {
            (0..arch.len())
                .map(|pe| arch.exec_cycles(pe, t.cost, t.pref) as f64)
                .sum::<f64>()
                / arch.len() as f64
        })
        .collect();
    // Upward rank (computed in reverse topological order).
    let mut rank = vec![0f64; n];
    for t in (0..n).rev() {
        let succ_max = graph
            .succs(t)
            .map(|e| e.volume as f64 * arch.comm_cost_remote as f64 + rank[e.to])
            .fold(0f64, f64::max);
        rank[t] = avg_cost[t] + succ_max;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| rank[b].partial_cmp(&rank[a]).expect("ranks are finite"));

    // Greedy EFT assignment. We must still respect topological readiness,
    // so track end times as tasks get placed; rank order is a topological
    // order for DAGs with positive costs.
    let mut assignment = vec![usize::MAX; n];
    let mut pe_free = vec![0u64; arch.len()];
    let mut end = vec![0u64; n];
    for &t in &order {
        let mut best: Option<(u64, usize, u64)> = None; // (finish, pe, start)
        for (pe, &free) in pe_free.iter().enumerate() {
            let mut ready = 0u64;
            for e in graph.preds(t) {
                // Unplaced predecessors (possible under rank ties) are
                // treated optimistically as local.
                let (pend, ppe) = if assignment[e.from] == usize::MAX {
                    (0, pe)
                } else {
                    (end[e.from], assignment[e.from])
                };
                ready = ready.max(pend + arch.comm_cycles(ppe, pe, e.volume));
            }
            let start = ready.max(free);
            let finish = start + arch.exec_cycles(pe, graph.tasks[t].cost, graph.tasks[t].pref);
            if best.is_none_or(|(bf, _, _)| finish < bf) {
                best = Some((finish, pe, start));
            }
        }
        let (finish, pe, _start) = best.expect("at least one PE");
        assignment[t] = pe;
        pe_free[pe] = finish;
        end[t] = finish;
    }
    evaluate(graph, arch, &assignment)
}

/// Deterministic simulated annealing over assignments, starting from the
/// list schedule.
///
/// `seed` drives the internal PRNG; `iters` bounds the moves examined.
///
/// # Errors
///
/// Propagates validation errors from [`evaluate`].
pub fn anneal(graph: &TaskGraph, arch: &ArchModel, seed: u64, iters: u64) -> Result<Mapping> {
    let mut current = list_schedule(graph, arch)?;
    if graph.tasks.is_empty() || arch.len() < 2 {
        return Ok(current);
    }
    let mut best = current.clone();
    let mut rng = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
        | 1;
    let mut next = || {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        rng.wrapping_mul(0x2545F4914F6CDD1D)
    };
    let t0 = (current.makespan as f64 / 10.0).max(1.0);
    for i in 0..iters {
        let temp = t0 * (1.0 - i as f64 / iters as f64) + 1e-9;
        let task = (next() % graph.tasks.len() as u64) as usize;
        let new_pe = (next() % arch.len() as u64) as usize;
        if current.assignment[task] == new_pe {
            continue;
        }
        let mut trial = current.assignment.clone();
        trial[task] = new_pe;
        let cand = evaluate(graph, arch, &trial)?;
        let delta = cand.makespan as f64 - current.makespan as f64;
        let accept = delta <= 0.0 || {
            let p = (-delta / temp).exp();
            (next() % 1_000_000) as f64 / 1_000_000.0 < p
        };
        if accept {
            current = cand;
            if current.makespan < best.makespan {
                best = current.clone();
            }
        }
    }
    Ok(best)
}

/// Deterministic multi-start annealing, optionally parallel.
///
/// Runs `starts` independent [`anneal`] restarts. Restart `i` is seeded
/// with the `i`-th [`mpsoc_explore::split_seeds`] split of `seed`, so each
/// restart's search trajectory is a pure function of `(seed, i)`. The
/// restarts fan out through the shared [`mpsoc_explore::Sweep`] engine and
/// merge by **fixed `(makespan, restart index)` order** — the earliest
/// restart wins ties — so the returned mapping is bit-identical for any
/// `threads >= 1`, including the serial reference `threads == 1`.
///
/// # Errors
///
/// Propagates the first (by restart index) validation error from
/// [`evaluate`]; [`Error::Config`] if `starts` is zero.
pub fn anneal_multi(
    graph: &TaskGraph,
    arch: &ArchModel,
    seed: u64,
    iters: u64,
    starts: usize,
    threads: usize,
) -> Result<Mapping> {
    if starts == 0 {
        return Err(Error::Config(
            "anneal_multi needs at least one start".into(),
        ));
    }
    let seeds = mpsoc_explore::split_seeds(seed, starts);
    let results =
        mpsoc_explore::Sweep::new(threads).run(starts, |i| anneal(graph, arch, seeds[i], iters));

    // Deterministic merge: walk restarts in index order, keep the first
    // mapping achieving the smallest makespan. Thread count only changed
    // *where* each restart ran, never its result or its merge rank.
    let mut best: Option<Mapping> = None;
    for r in results {
        let m = r?;
        if best.as_ref().is_none_or(|b| m.makespan < b.makespan) {
            best = Some(m);
        }
    }
    Ok(best.expect("starts >= 1"))
}

/// Re-costs `graph` from measured profile data on a simulated platform.
///
/// The platform is positioned at the region of interest via `prefix` —
/// re-simulated from scratch ([`Prefix::cold`]) or restored from a snapshot
/// ([`Prefix::base`], the warm start) — and the word at `profile_addr + t`
/// is read for every task `t`. A positive word replaces the task's static
/// cost estimate; zero or negative words (no measurement) leave the
/// estimate untouched. Because a snapshot restore is bit-identical to
/// having simulated the prefix, both kinds yield the same re-costed graph.
///
/// # Errors
///
/// [`Error::Config`] when the prefix cannot be materialized or a profile
/// word is outside the platform's address map.
pub fn profile_task_costs(
    graph: &TaskGraph,
    prefix: &Prefix<'_>,
    profile_addr: u32,
) -> Result<TaskGraph> {
    let words = prefix
        .profile_words(profile_addr, graph.tasks.len())
        .map_err(|e| Error::Config(format!("task profile: {e}")))?;
    let mut profiled = graph.clone();
    for (task, &w) in profiled.tasks.iter_mut().zip(&words) {
        if w > 0 {
            task.cost = w as u64;
        }
    }
    Ok(profiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PeClass;
    use crate::taskgraph::{Task, TaskEdge};

    fn diamond(costs: [u64; 4]) -> TaskGraph {
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
            edges: vec![
                TaskEdge {
                    from: 0,
                    to: 1,
                    volume: 1,
                },
                TaskEdge {
                    from: 0,
                    to: 2,
                    volume: 1,
                },
                TaskEdge {
                    from: 1,
                    to: 3,
                    volume: 1,
                },
                TaskEdge {
                    from: 2,
                    to: 3,
                    volume: 1,
                },
            ],
        }
    }

    #[test]
    fn diamond_parallelises_on_two_pes() {
        let g = diamond([10, 100, 100, 10]);
        let arch = ArchModel::homogeneous(2);
        let m = list_schedule(&g, &arch).unwrap();
        // Serial: 220. Parallel with comm 10: ~140.
        assert!(m.makespan < 180, "makespan {}", m.makespan);
        // The two middle tasks must sit on different PEs.
        assert_ne!(m.assignment[1], m.assignment[2]);
    }

    #[test]
    fn single_pe_serialises() {
        let g = diamond([10, 100, 100, 10]);
        let arch = ArchModel::homogeneous(1);
        let m = list_schedule(&g, &arch).unwrap();
        assert!(m.makespan >= 220);
    }

    #[test]
    fn schedule_respects_dependences() {
        let g = diamond([10, 100, 50, 10]);
        let arch = ArchModel::homogeneous(3);
        let m = list_schedule(&g, &arch).unwrap();
        let slot = |t: usize| m.schedule.iter().find(|s| s.task == t).copied().unwrap();
        assert!(slot(1).start >= slot(0).end);
        assert!(slot(3).start >= slot(1).end.max(slot(2).end));
    }

    #[test]
    fn pe_preferences_steer_assignment() {
        let mut g = diamond([10, 100, 100, 10]);
        g.tasks[1].pref = Some(PeClass::Dsp);
        let arch = ArchModel::wireless_terminal(1, 1);
        let m = list_schedule(&g, &arch).unwrap();
        let dsp = arch.pe_by_name("dsp0").unwrap();
        assert_eq!(m.assignment[1], dsp);
    }

    #[test]
    fn anneal_never_worse_than_list() {
        let g = diamond([37, 91, 64, 22]);
        let arch = ArchModel::homogeneous(3);
        let ls = list_schedule(&g, &arch).unwrap();
        let sa = anneal(&g, &arch, 42, 500).unwrap();
        assert!(sa.makespan <= ls.makespan);
    }

    #[test]
    fn anneal_is_deterministic_per_seed() {
        let g = diamond([37, 91, 64, 22]);
        let arch = ArchModel::homogeneous(3);
        let a = anneal(&g, &arch, 7, 300).unwrap();
        let b = anneal(&g, &arch, 7, 300).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn anneal_multi_is_thread_count_invariant() {
        let g = diamond([37, 91, 64, 22]);
        let arch = ArchModel::homogeneous(3);
        let serial = anneal_multi(&g, &arch, 7, 200, 6, 1).unwrap();
        for threads in [2, 3, 4, 8] {
            let parallel = anneal_multi(&g, &arch, 7, 200, 6, threads).unwrap();
            assert_eq!(
                serial, parallel,
                "threads={threads} must not change the result"
            );
        }
    }

    #[test]
    fn anneal_multi_never_worse_than_single_start() {
        let g = diamond([37, 91, 64, 22]);
        let arch = ArchModel::homogeneous(3);
        // The multi-start best is the min over restarts, one of which is
        // exactly the single-start run with the same first split seed.
        let multi = anneal_multi(&g, &arch, 11, 200, 4, 2).unwrap();
        let single = anneal_multi(&g, &arch, 11, 200, 1, 1).unwrap();
        assert!(multi.makespan <= single.makespan);
    }

    #[test]
    fn profiled_anneal_warm_start_matches_cold() {
        use mpsoc_platform::isa::assemble;
        use mpsoc_platform::platform::PlatformBuilder;
        use mpsoc_platform::{BaseImage, Frequency};

        // A measurement run that deposits per-task cycle counts at 0x100.
        let build = || -> mpsoc_platform::Result<mpsoc_platform::Platform> {
            let mut p = PlatformBuilder::new()
                .cores(1, Frequency::mhz(100))
                .shared_words(512)
                .cache(None)
                .build()?;
            let prog = assemble(
                "movi r1, 0x100\nmovi r2, 55\nst r2, r1, 0\nmovi r2, 40\nst r2, r1, 1\n\
                 movi r2, 90\nst r2, r1, 2\nmovi r2, 15\nst r2, r1, 3\nhalt",
            )
            .unwrap();
            p.load_program(0, prog, 0)?;
            Ok(p)
        };
        let steps = 12;
        let cold = Prefix::cold(&build, steps);
        // The warm start: capture once at the region of interest.
        let mut p = build().unwrap();
        for _ in 0..steps {
            p.step().unwrap();
        }
        let base = BaseImage::new(p.capture().unwrap()).unwrap();
        let warm = Prefix::base(&base);

        let g = diamond([37, 91, 64, 22]);
        let arch = ArchModel::homogeneous(3);
        // The profile really re-costs the graph...
        let profiled = profile_task_costs(&g, &warm, 0x100).unwrap();
        assert_eq!(
            profiled.tasks.iter().map(|t| t.cost).collect::<Vec<_>>(),
            vec![55, 40, 90, 15]
        );
        // ...and warm equals cold, bit for bit, at every thread count.
        let cold_g = profile_task_costs(&g, &cold, 0x100).unwrap();
        let reference = anneal_multi(&cold_g, &arch, 7, 200, 6, 1).unwrap();
        for threads in [1, 2, 4, 8] {
            let warm_m = anneal_multi(&profiled, &arch, 7, 200, 6, threads).unwrap();
            assert_eq!(
                reference, warm_m,
                "warm start at {threads} threads must match the cold reference"
            );
        }
    }

    #[test]
    fn anneal_multi_validates_starts() {
        let g = diamond([1, 1, 1, 1]);
        let arch = ArchModel::homogeneous(2);
        assert!(anneal_multi(&g, &arch, 1, 10, 0, 2).is_err());
    }

    #[test]
    fn evaluate_validates() {
        let g = diamond([1, 1, 1, 1]);
        let arch = ArchModel::homogeneous(2);
        assert!(evaluate(&g, &arch, &[0, 1]).is_err());
        assert!(evaluate(&g, &arch, &[0, 1, 2, 0]).is_err());
    }

    #[test]
    fn empty_graph_maps_trivially() {
        let g = TaskGraph::default();
        let arch = ArchModel::homogeneous(2);
        let m = list_schedule(&g, &arch).unwrap();
        assert_eq!(m.makespan, 0);
    }
}

/// Checks a mapping against an application's real-time [`Annotations`]:
/// the static schedule's makespan must fit the latency bound, and must
/// also fit the period (otherwise jobs pile up).
///
/// This is the admission step of the paper's flow — *"taking into account
/// real-time requirements"* — executed after mapping rather than during
/// it, so the caller can fall back to a bigger platform or a different
/// optimizer on failure.
///
/// # Errors
///
/// [`Error::Infeasible`] naming the violated bound.
///
/// [`Annotations`]: crate::anno::Annotations
pub fn verify_realtime(
    app: &str,
    mapping: &Mapping,
    anno: &crate::anno::Annotations,
) -> Result<()> {
    if let Some(latency) = anno.latency {
        if mapping.makespan > latency {
            return Err(Error::Infeasible {
                app: app.to_string(),
                achieved: mapping.makespan,
                required: latency,
            });
        }
    }
    if let Some(period) = anno.period {
        if mapping.makespan > period {
            return Err(Error::Infeasible {
                app: app.to_string(),
                achieved: mapping.makespan,
                required: period,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod rt_tests {
    use super::*;
    use crate::anno::{take_annotations, Annotations};
    use crate::arch::ArchModel;
    use crate::taskgraph::extract_task_graph;
    use mpsoc_minic::cost::CostModel;

    #[test]
    fn annotated_app_verifies_end_to_end() {
        let mut unit = mpsoc_minic::parse(
            "void app(int n, int out[]) {\n\
             maps_period(100000);\n\
             maps_latency(60000);\n\
             for (i = 0; i < 64; i = i + 1) { out[i] = i * 2; }\n\
             for (j = 0; j < 64; j = j + 1) { out[j] = out[j] + 1; }\n\
             }",
        )
        .unwrap();
        let anno = take_annotations(&mut unit, "app").unwrap();
        let graph = extract_task_graph(&unit, "app", &CostModel::default()).unwrap();
        let arch = ArchModel::homogeneous(2);
        let m = list_schedule(&graph, &arch).unwrap();
        verify_realtime("app", &m, &anno).unwrap();
        // A latency bound below the makespan is reported infeasible.
        let tight = Annotations {
            latency: Some(m.makespan - 1),
            ..anno
        };
        let e = verify_realtime("app", &m, &tight).unwrap_err();
        assert!(matches!(e, Error::Infeasible { .. }));
    }

    #[test]
    fn period_bound_checked_too() {
        let m = Mapping {
            assignment: vec![],
            schedule: vec![],
            makespan: 500,
        };
        let anno = Annotations {
            period: Some(400),
            latency: None,
            pref: None,
        };
        assert!(verify_realtime("x", &m, &anno).is_err());
        let loose = Annotations {
            period: Some(600),
            latency: None,
            pref: None,
        };
        assert!(verify_realtime("x", &m, &loose).is_ok());
    }
}
