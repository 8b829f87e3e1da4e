//! Task graphs and their extraction from sequential mini-C.
//!
//! This is the front half of Figure 1 of the paper: *"MAPS uses advanced
//! dataflow analysis to extract the available parallelism from the
//! sequential codes … and to form a set of fine-grained task graphs based on
//! a coarse model of the target architecture."*
//!
//! [`extract_task_graph`] turns each top-level statement of a function into
//! a unit task, computes flow dependences between units (the communication
//! edges, weighted by the number of conferring memory locations), and
//! [`coarsen`] clusters units into the requested number of coarse tasks
//! while respecting dependences — the semi-automatic granularity knob a
//! MAPS user turns.

use std::collections::BTreeMap;

use mpsoc_minic::analysis::accesses;
use mpsoc_minic::cost::{stmt_cost, CostModel};
use mpsoc_minic::{Function, Unit};

use crate::arch::PeClass;
use crate::error::{Error, Result};

/// A node in a task graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    /// Task name (derived from the function and statement range).
    pub name: String,
    /// Estimated cost in reference cycles.
    pub cost: u64,
    /// Preferred PE class (None = class-neutral code).
    pub pref: Option<PeClass>,
    /// Indices of the source statements folded into this task.
    pub stmts: Vec<usize>,
}

/// A dependence edge `from -> to` carrying `volume` data units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskEdge {
    /// Producing task index.
    pub from: usize,
    /// Consuming task index.
    pub to: usize,
    /// Communication volume (data units).
    pub volume: u64,
}

/// A weighted DAG of tasks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskGraph {
    /// The tasks, in topological (source) order.
    pub tasks: Vec<Task>,
    /// The edges.
    pub edges: Vec<TaskEdge>,
}

impl TaskGraph {
    /// Total computational work.
    pub fn total_cost(&self) -> u64 {
        self.tasks.iter().map(|t| t.cost).sum()
    }

    /// Length of the critical (most expensive) dependence path, computation
    /// only — the bound on achievable parallel latency.
    pub fn critical_path(&self) -> u64 {
        let n = self.tasks.len();
        let mut dist = vec![0u64; n];
        // Tasks are in topological order by construction.
        for i in 0..n {
            dist[i] = dist[i].max(self.tasks[i].cost);
            for e in self.edges.iter().filter(|e| e.from == i) {
                dist[e.to] = dist[e.to].max(dist[i] + self.tasks[e.to].cost);
            }
        }
        dist.into_iter().max().unwrap_or(0)
    }

    /// Upper bound on speedup from this granularity: total work over
    /// critical path.
    pub fn parallelism(&self) -> f64 {
        let cp = self.critical_path();
        if cp == 0 {
            1.0
        } else {
            self.total_cost() as f64 / cp as f64
        }
    }

    /// Successors of task `i`.
    pub(crate) fn succs(&self, i: usize) -> impl Iterator<Item = &TaskEdge> {
        self.edges.iter().filter(move |e| e.from == i)
    }
}

/// Extracts a fine-grained task graph from function `func` of `unit`: one
/// task per top-level statement, edges from flow dependences, volumes from
/// the number of conflicting memory references.
///
/// # Errors
///
/// [`Error::NotFound`] if the function does not exist.
pub fn extract_task_graph(unit: &Unit, func: &str, model: &CostModel) -> Result<TaskGraph> {
    let f: &Function = unit
        .function(func)
        .ok_or_else(|| Error::NotFound(func.to_string()))?;
    let sets: Vec<_> = f.body.iter().map(accesses).collect();
    let mut tasks = Vec::new();
    for (i, s) in f.body.iter().enumerate() {
        let mut stack = Vec::new();
        tasks.push(Task {
            name: format!("{func}_s{i}"),
            cost: stmt_cost(unit, s, model, &mut stack).max(1),
            pref: None,
            stmts: vec![i],
        });
    }
    let mut edges = Vec::new();
    for j in 1..f.body.len() {
        for i in 0..j {
            // Flow dependence: i writes something j reads.
            let volume = sets[i]
                .writes
                .iter()
                .filter(|w| sets[j].reads.iter().any(|r| w.conflicts(r)))
                .count() as u64;
            // Anti/output dependences also order tasks (volume-free).
            let ordered = volume > 0
                || sets[i]
                    .reads
                    .iter()
                    .any(|r| sets[j].writes.iter().any(|w| r.conflicts(w)))
                || sets[i]
                    .writes
                    .iter()
                    .any(|w| sets[j].writes.iter().any(|x| w.conflicts(x)));
            if ordered {
                edges.push(TaskEdge {
                    from: i,
                    to: j,
                    volume: volume.max(1),
                });
            }
        }
    }
    Ok(TaskGraph { tasks, edges })
}

/// Clusters a fine-grained graph into at most `k` coarse tasks.
///
/// Greedy topological clustering: walk tasks in order, open a new cluster
/// whenever the current one reaches the balanced-size target
/// (`total/k`). Dependences between clusters are the union of member
/// dependences (volumes summed); intra-cluster communication disappears —
/// which is exactly why coarsening trades parallelism for lower
/// communication overhead.
///
/// # Errors
///
/// [`Error::Config`] if `k == 0`.
pub fn coarsen(graph: &TaskGraph, k: usize) -> Result<TaskGraph> {
    if k == 0 {
        return Err(Error::Config("cannot coarsen to zero tasks".into()));
    }
    if graph.tasks.is_empty() || k >= graph.tasks.len() {
        return Ok(graph.clone());
    }
    let target = graph.total_cost().div_ceil(k as u64).max(1);
    let mut cluster_of = vec![0usize; graph.tasks.len()];
    let mut clusters: Vec<Task> = Vec::new();
    let mut acc = 0u64;
    for (i, t) in graph.tasks.iter().enumerate() {
        let need_new = clusters.is_empty() || (acc >= target && clusters.len() < k);
        if need_new {
            clusters.push(Task {
                name: format!("cluster{}", clusters.len()),
                cost: 0,
                pref: None,
                stmts: Vec::new(),
            });
            acc = 0;
        }
        let c = clusters.len() - 1;
        cluster_of[i] = c;
        let cl = &mut clusters[c];
        cl.cost += t.cost;
        cl.stmts.extend(t.stmts.iter().copied());
        if cl.pref.is_none() {
            cl.pref = t.pref;
        }
        acc += t.cost;
    }
    // Union the edges.
    let mut vol: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for e in &graph.edges {
        let (cf, ct) = (cluster_of[e.from], cluster_of[e.to]);
        if cf != ct {
            *vol.entry((cf, ct)).or_insert(0) += e.volume;
        }
    }
    Ok(TaskGraph {
        tasks: clusters,
        edges: vol
            .into_iter()
            .map(|((from, to), volume)| TaskEdge { from, to, volume })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_minic::parse;

    const INDEP: &str = "void f(int a[], int b[]) {\n\
         a[0] = 1;\n\
         b[0] = 2;\n\
         a[1] = 3;\n\
         b[1] = 4;\n\
         }";

    #[test]
    fn independent_statements_have_no_edges() {
        let u = parse(INDEP).unwrap();
        let g = extract_task_graph(&u, "f", &CostModel::default()).unwrap();
        assert_eq!(g.tasks.len(), 4);
        assert!(g.edges.is_empty());
        assert!(g.parallelism() > 3.9);
    }

    #[test]
    fn flow_chain_is_sequential() {
        let u = parse("void f(void) { int x = 1; int y = x + 1; int z = y + 1; }").unwrap();
        let g = extract_task_graph(&u, "f", &CostModel::default()).unwrap();
        assert!(g.edges.iter().any(|e| e.from == 0 && e.to == 1));
        assert!(g.edges.iter().any(|e| e.from == 1 && e.to == 2));
        assert!((g.parallelism() - 1.0).abs() < 0.3);
    }

    #[test]
    fn loop_costs_dominate() {
        let u = parse(
            "void f(int a[], int b[]) {\n\
             int t = 1;\n\
             for (i = 0; i < 100; i = i + 1) { a[i] = i * i; }\n\
             b[0] = t;\n\
             }",
        )
        .unwrap();
        let g = extract_task_graph(&u, "f", &CostModel::default()).unwrap();
        assert!(g.tasks[1].cost > 50 * g.tasks[0].cost);
    }

    #[test]
    fn coarsen_reduces_tasks_and_keeps_cost() {
        let u = parse(INDEP).unwrap();
        let g = extract_task_graph(&u, "f", &CostModel::default()).unwrap();
        let c = coarsen(&g, 2).unwrap();
        assert_eq!(c.tasks.len(), 2);
        assert_eq!(c.total_cost(), g.total_cost());
    }

    #[test]
    fn coarsen_merges_edges() {
        let u = parse("void f(void) { int x = 1; int y = x + 1; int z = y + 1; int w = z + 1; }")
            .unwrap();
        let g = extract_task_graph(&u, "f", &CostModel::default()).unwrap();
        let c = coarsen(&g, 2).unwrap();
        assert_eq!(c.tasks.len(), 2);
        // One cross-cluster dependence chain remains.
        assert_eq!(c.edges.len(), 1);
        assert!(c.edges[0].volume >= 1);
    }

    #[test]
    fn coarsen_identity_when_k_large() {
        let u = parse(INDEP).unwrap();
        let g = extract_task_graph(&u, "f", &CostModel::default()).unwrap();
        assert_eq!(coarsen(&g, 10).unwrap(), g);
        assert!(coarsen(&g, 0).is_err());
    }

    #[test]
    fn missing_function_reported() {
        let u = parse("void f(void) { return; }").unwrap();
        assert!(extract_task_graph(&u, "nope", &CostModel::default()).is_err());
    }
}
