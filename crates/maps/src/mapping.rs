//! Task-to-PE mapping: list scheduling and simulated-annealing refinement.
//!
//! Figure 1's middle stage: *"Using optimization algorithms, the task graphs
//! are mapped to the target architecture, taking into account real-time
//! requirements and preferred PE classes."* Two optimizers are provided —
//! a HEFT-style list scheduler (fast, deterministic) and a seeded
//! simulated-annealing refinement (slower, usually better on irregular
//! graphs); the E5 ablation bench compares them.
//!
//! Both share one list-scheduling recurrence (`Index::place`) over one
//! index built once per call: an execution-cycle table per (task, PE) and
//! predecessor lists with both communication costs pre-multiplied, so a
//! schedule costs `tasks + edges` integer steps and no allocation.
//! [`evaluate`] runs the recurrence recording [`Slot`]s; [`list_schedule`]
//! asks it for the earliest finish of a task on every PE; [`anneal`] moves
//! one task of one assignment in place, asks for the makespan only, and
//! materialises a single [`Mapping`] — the best assignment's — at the end.

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

/// An incoming edge of a task, with the transfer already costed both ways.
struct Pred {
    from: usize,
    /// [`ArchModel::comm_cycles`] when producer and consumer share a PE.
    local: u64,
    /// [`ArchModel::comm_cycles`] when they do not.
    remote: u64,
}

/// What the recurrence reads of a (graph, architecture) pair.
struct Index {
    pes: usize,
    /// `exec[task * pes + pe]` = [`ArchModel::exec_cycles`].
    exec: Vec<u64>,
    /// `preds[pred_start[t]..pred_start[t + 1]]` are task `t`'s incoming edges.
    pred_start: Vec<usize>,
    preds: Vec<Pred>,
}

/// The recurrence's working state, reused from one schedule to the next.
struct Scratch {
    pe_free: Vec<u64>,
    /// `end[t]` is written before any successor reads it (edges run forward),
    /// so it needs no reset between schedules.
    end: Vec<u64>,
}

impl Index {
    /// Builds the index, validating the edges on the way.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] naming the first edge that is not `from < to <
    /// tasks.len()`: the recurrence visits tasks in index order and reads a
    /// predecessor's end time, which only a forward edge has by then.
    fn new(graph: &TaskGraph, arch: &ArchModel) -> Result<Self> {
        let n = graph.tasks.len();
        let pes = arch.len();
        let mut pred_start = vec![0usize; n + 1];
        for e in &graph.edges {
            if e.from >= e.to || e.to >= n {
                return Err(Error::Config(format!(
                    "edge {} -> {} of a {n}-task graph: need from < to < {n}",
                    e.from, e.to
                )));
            }
            pred_start[e.to + 1] += 1;
        }
        for t in 0..n {
            pred_start[t + 1] += pred_start[t];
        }
        let mut by_consumer: Vec<_> = graph.edges.iter().collect();
        by_consumer.sort_by_key(|e| e.to);
        let preds = by_consumer
            .into_iter()
            .map(|e| Pred {
                from: e.from,
                // The cost depends only on whether the two PEs are the same.
                local: arch.comm_cycles(0, 0, e.volume),
                remote: arch.comm_cycles(0, 1, e.volume),
            })
            .collect();
        let exec = graph
            .tasks
            .iter()
            .flat_map(|t| (0..pes).map(move |pe| arch.exec_cycles(pe, t.cost, t.pref)))
            .collect();
        Ok(Index {
            pes,
            exec,
            pred_start,
            preds,
        })
    }

    fn tasks(&self) -> usize {
        self.pred_start.len() - 1
    }

    fn scratch(&self) -> Scratch {
        Scratch {
            pe_free: vec![0; self.pes],
            end: vec![0; self.tasks()],
        }
    }

    /// Task `t`'s incoming edges and its execution cycles on every PE.
    #[inline]
    fn task(&self, t: usize) -> (&[Pred], &[u64]) {
        (
            &self.preds[self.pred_start[t]..self.pred_start[t + 1]],
            &self.exec[t * self.pes..(t + 1) * self.pes],
        )
    }

    /// The list-scheduling recurrence: `(start, finish)` of a task (one
    /// [`Index::task`]) on `pe`, where it starts as soon as the PE is free and
    /// all predecessor data has arrived (communication is charged between
    /// distinct PEs). Every predecessor must already be placed in
    /// `assignment` and `s.end`.
    #[inline]
    fn place(
        (preds, exec): (&[Pred], &[u64]),
        pe: usize,
        assignment: &[usize],
        s: &Scratch,
    ) -> (u64, u64) {
        let mut ready = 0u64;
        for p in preds {
            let comm = if assignment[p.from] == pe {
                p.local
            } else {
                p.remote
            };
            ready = ready.max(s.end[p.from] + comm);
        }
        let start = ready.max(s.pe_free[pe]);
        (start, start + exec[pe])
    }

    /// Schedules `assignment` (one in-range PE per task) in task order —
    /// topological by the edge check of [`Index::new`] — handing every slot
    /// to `record`, and returns the makespan.
    #[inline]
    fn schedule(&self, assignment: &[usize], s: &mut Scratch, mut record: impl FnMut(Slot)) -> u64 {
        s.pe_free.fill(0);
        let mut makespan = 0;
        for (task, &pe) in assignment.iter().enumerate() {
            let (start, end) = Self::place(self.task(task), pe, assignment, s);
            s.pe_free[pe] = end;
            s.end[task] = end;
            makespan = makespan.max(end);
            record(Slot {
                task,
                pe,
                start,
                end,
            });
        }
        makespan
    }

    fn makespan(&self, assignment: &[usize], s: &mut Scratch) -> u64 {
        self.schedule(assignment, s, |_| {})
    }

    fn mapping(&self, assignment: &[usize], s: &mut Scratch) -> Mapping {
        let mut schedule = Vec::with_capacity(assignment.len());
        let makespan = self.schedule(assignment, s, |slot| schedule.push(slot));
        Mapping {
            assignment: assignment.to_vec(),
            schedule,
            makespan,
        }
    }

    /// The HEFT assignment: tasks in decreasing upward rank, each on the PE
    /// that minimises its earliest finish time (the lowest such PE on ties).
    fn eft_assignment(&self, graph: &TaskGraph, arch: &ArchModel, s: &mut Scratch) -> Vec<usize> {
        let n = self.tasks();
        // Upward rank (computed in reverse topological order) over the
        // average execution cost across PEs.
        let mut rank = vec![0f64; n];
        for t in (0..n).rev() {
            let exec = self.task(t).1;
            let avg_cost = exec.iter().map(|&c| c as f64).sum::<f64>() / self.pes as f64;
            let succ_max = graph
                .succs(t)
                .map(|e| e.volume as f64 * arch.comm_cost_remote as f64 + rank[e.to])
                .fold(0f64, f64::max);
            rank[t] = avg_cost + succ_max;
        }
        // Rank order is a topological order: costs are non-negative, so a
        // producer never ranks below its consumer, and on a tie the stable
        // sort keeps `from < to`. Every predecessor is placed before `place`
        // reads it.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| rank[b].partial_cmp(&rank[a]).expect("ranks are finite"));

        let mut assignment = vec![usize::MAX; n];
        s.pe_free.fill(0);
        for &t in &order {
            let (pe, finish) = (0..self.pes)
                .map(|pe| (pe, Self::place(self.task(t), pe, &assignment, s).1))
                .min_by_key(|&(_, finish)| finish)
                .expect("at least one PE");
            assignment[t] = pe;
            s.pe_free[pe] = finish;
            s.end[t] = finish;
        }
        assignment
    }
}

/// Evaluates `assignment` by topological list scheduling: every task starts
/// as soon as its PE is free and all predecessor data has arrived
/// (communication is charged between distinct PEs).
///
/// # Errors
///
/// [`Error::Config`] if the assignment length does not match the graph or
/// references a nonexistent PE, or if an edge of the graph is not
/// `from < to < tasks.len()` (tasks are scheduled in index order).
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
    let index = Index::new(graph, arch)?;
    Ok(index.mapping(assignment, &mut index.scratch()))
}

/// HEFT-style list scheduling: tasks in decreasing upward rank, each
/// assigned to the PE that minimises its earliest finish time.
///
/// # Errors
///
/// [`Error::Config`] for a graph with a malformed edge (see [`evaluate`]).
pub fn list_schedule(graph: &TaskGraph, arch: &ArchModel) -> Result<Mapping> {
    let index = Index::new(graph, arch)?;
    let mut scratch = index.scratch();
    let assignment = index.eft_assignment(graph, arch, &mut scratch);
    Ok(index.mapping(&assignment, &mut scratch))
}

/// Deterministic simulated annealing over assignments, starting from the
/// list schedule.
///
/// `seed` drives the internal PRNG; `iters` bounds the moves examined.
///
/// # Errors
///
/// [`Error::Config`] for a graph with a malformed edge (see [`evaluate`]).
pub fn anneal(graph: &TaskGraph, arch: &ArchModel, seed: u64, iters: u64) -> Result<Mapping> {
    let index = Index::new(graph, arch)?;
    let mut scratch = index.scratch();
    let mut assignment = index.eft_assignment(graph, arch, &mut scratch);
    if graph.tasks.is_empty() || arch.len() < 2 {
        return Ok(index.mapping(&assignment, &mut scratch));
    }
    let mut current = index.makespan(&assignment, &mut scratch);
    let mut best = current;
    let mut best_assignment = assignment.clone();
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
    let t0 = (current as f64 / 10.0).max(1.0);
    for i in 0..iters {
        let temp = t0 * (1.0 - i as f64 / iters as f64) + 1e-9;
        let task = (next() % graph.tasks.len() as u64) as usize;
        let new_pe = (next() % arch.len() as u64) as usize;
        let old_pe = assignment[task];
        if old_pe == new_pe {
            continue;
        }
        assignment[task] = new_pe;
        let cand = index.makespan(&assignment, &mut scratch);
        let delta = cand as f64 - current as f64;
        let accept = delta <= 0.0 || {
            let p = (-delta / temp).exp();
            (next() % 1_000_000) as f64 / 1_000_000.0 < p
        };
        if accept {
            current = cand;
            if current < best {
                best = current;
                best_assignment.copy_from_slice(&assignment);
            }
        } else {
            assignment[task] = old_pe;
        }
    }
    Ok(index.mapping(&best_assignment, &mut scratch))
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
    use crate::arch::{Pe, PeClass};
    use crate::taskgraph::{Task, TaskEdge};
    use mpsoc_obs::XorShift64Star;

    /// Every PE class, for drawing one.
    const CLASSES: [PeClass; 3] = [PeClass::Risc, PeClass::Dsp, PeClass::Accelerator];

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

    /// `evaluate`, `list_schedule`, `anneal` and `anneal_multi` must all
    /// reject the diamond plus the edge `from -> to`, naming the edge.
    fn assert_edge_rejected(from: usize, to: usize) {
        let arch = ArchModel::homogeneous(2);
        let mut g = diamond([10, 20, 30, 40]);
        g.edges.push(TaskEdge {
            from,
            to,
            volume: 1,
        });
        let results = [
            evaluate(&g, &arch, &[0, 1, 0, 1]),
            list_schedule(&g, &arch),
            anneal(&g, &arch, 3, 50),
            anneal_multi(&g, &arch, 3, 50, 2, 1),
        ];
        for r in results {
            match r {
                Err(Error::Config(m)) => {
                    assert!(m.contains(&format!("edge {from} -> {to}")), "{m}")
                }
                other => panic!("edge {from} -> {to}: expected Error::Config, got {other:?}"),
            }
        }
    }

    /// The parent indexed `end[7]` out of bounds and panicked.
    #[test]
    fn edge_from_a_missing_task_is_rejected() {
        assert_edge_rejected(7, 3);
    }

    /// The parent never visited task 9, so the edge was silently ignored.
    #[test]
    fn edge_to_a_missing_task_is_rejected() {
        assert_edge_rejected(1, 9);
        // Also when there is no task to schedule at all.
        let g = TaskGraph {
            tasks: Vec::new(),
            edges: vec![TaskEdge {
                from: 0,
                to: 1,
                volume: 1,
            }],
        };
        assert!(list_schedule(&g, &ArchModel::homogeneous(2)).is_err());
    }

    /// The parent read an end time of 0 for a producer it had not scheduled
    /// yet and under-reported the makespan.
    #[test]
    fn backward_and_self_edges_are_rejected() {
        assert_edge_rejected(2, 1);
        assert_edge_rejected(2, 2);
    }

    // ---- The parent commit's implementation, kept as the oracle. --------

    /// `evaluate` as it was before the index: `TaskGraph::preds` filters every
    /// edge per task, `exec_cycles` / `comm_cycles` are recomputed per visit.
    fn evaluate_reference(graph: &TaskGraph, arch: &ArchModel, assignment: &[usize]) -> Mapping {
        let n = graph.tasks.len();
        let mut pe_free = vec![0u64; arch.len()];
        let mut end = vec![0u64; n];
        let mut schedule = Vec::with_capacity(n);
        for t in 0..n {
            let pe = assignment[t];
            let mut ready = 0u64;
            for e in graph.edges.iter().filter(|e| e.to == t) {
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
        Mapping {
            assignment: assignment.to_vec(),
            makespan: end.into_iter().max().unwrap_or(0),
            schedule,
        }
    }

    /// `list_schedule` as it was, unplaced-predecessor branch included.
    fn list_schedule_reference(graph: &TaskGraph, arch: &ArchModel) -> Mapping {
        if graph.tasks.is_empty() {
            return Mapping::default();
        }
        let n = graph.tasks.len();
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
        let mut assignment = vec![usize::MAX; n];
        let mut pe_free = vec![0u64; arch.len()];
        let mut end = vec![0u64; n];
        for &t in &order {
            let mut best: Option<(u64, usize, u64)> = None;
            for (pe, &free) in pe_free.iter().enumerate() {
                let mut ready = 0u64;
                for e in graph.edges.iter().filter(|e| e.to == t) {
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
        evaluate_reference(graph, arch, &assignment)
    }

    /// `anneal` as it was: a cloned assignment and a full `Mapping` per
    /// examined move.
    fn anneal_reference(graph: &TaskGraph, arch: &ArchModel, seed: u64, iters: u64) -> Mapping {
        let mut current = list_schedule_reference(graph, arch);
        if graph.tasks.is_empty() || arch.len() < 2 {
            return current;
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
            let cand = evaluate_reference(graph, arch, &trial);
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
        best
    }

    /// A random DAG of 1..=24 tasks (costs and volumes including 0, random
    /// class preferences) and a random architecture of 1..=9 PEs (mixed
    /// classes, speeds such as 1.5 so the `ceil` in `exec_cycles` matters,
    /// local communication sometimes free).
    fn random_case(rng: &mut XorShift64Star) -> (TaskGraph, ArchModel) {
        let pref = |rng: &mut XorShift64Star| match rng.usize_in(0, 3) {
            3 => None,
            c => Some(CLASSES[c]),
        };
        let n = rng.usize_in(1, 24);
        let tasks = (0..n)
            .map(|i| Task {
                name: format!("t{i}"),
                cost: if rng.chance_pct(10) {
                    0
                } else {
                    rng.u64_in(1, 2_000)
                },
                pref: pref(rng),
                stmts: Vec::new(),
            })
            .collect();
        let mut edges = Vec::new();
        for to in 1..n {
            for from in 0..to {
                if rng.chance_pct(18) {
                    let volume = if rng.chance_pct(20) {
                        0
                    } else {
                        rng.u64_in(1, 64)
                    };
                    edges.push(TaskEdge { from, to, volume });
                }
            }
        }
        // Edge order is not consumer order in general.
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.usize_in(0, i));
        }
        let pes = (0..rng.usize_in(1, 9))
            .map(|i| Pe {
                name: format!("pe{i}"),
                class: CLASSES[rng.usize_in(0, 2)],
                speed: [0.5, 1.0, 1.5, 2.0, 3.0][rng.usize_in(0, 4)],
            })
            .collect();
        let arch = ArchModel::new(pes, rng.u64_in(0, 20), rng.u64_in(0, 2)).unwrap();
        (TaskGraph { tasks, edges }, arch)
    }

    #[test]
    fn index_matches_the_reference_on_random_graphs() {
        let mut rng = XorShift64Star::new(0x5EED_0017);
        for case in 0..300 {
            let (g, arch) = random_case(&mut rng);
            let what = format!("case {case}: {} tasks, {} PEs", g.tasks.len(), arch.len());
            let assignment: Vec<usize> = (0..g.tasks.len())
                .map(|_| rng.usize_in(0, arch.len() - 1))
                .collect();
            assert_eq!(
                evaluate(&g, &arch, &assignment).unwrap(),
                evaluate_reference(&g, &arch, &assignment),
                "evaluate, {what}"
            );
            assert_eq!(
                list_schedule(&g, &arch).unwrap(),
                list_schedule_reference(&g, &arch),
                "list_schedule, {what}"
            );
            let seed = rng.next_u64();
            for iters in [0, 1, 50, 600] {
                assert_eq!(
                    anneal(&g, &arch, seed, iters).unwrap(),
                    anneal_reference(&g, &arch, seed, iters),
                    "anneal seed {seed:#x} iters {iters}, {what}"
                );
            }
        }
    }
}
