//! Time-triggered execution with data-integrity accounting.
//!
//! In a time-triggered system *"the tasks are triggered according to a
//! periodic schedule computed at design-time"* (Section III, citing Kopetz).
//! The executor here does exactly that: a static schedule is derived from a
//! worst-case self-timed run, and at run time every firing starts at its
//! scheduled instant — *whether or not its input data has actually arrived*.
//!
//! The paper's central claim is that this corrupts data when a task
//! *"exceeds an unreliable worst-case execution time estimate"*: the
//! consumer reads a buffer slot the producer has not yet (re)written, or the
//! producer overwrites a slot not yet read. Both failure modes are counted
//! (`TimeTriggeredResult::corrupted_reads`,
//! `TimeTriggeredResult::overwritten`), which experiment E3 compares
//! against the structurally corruption-free [data-driven
//! executor](crate::selftimed).

use std::collections::VecDeque;

use crate::error::{Error, Result};
use crate::graph::{ActorId, Graph};
use crate::selftimed::{run_self_timed, SelfTimedConfig, TimeModel, WcetTimes};

/// The design-time schedule: start times per actor firing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StaticSchedule {
    /// `starts[actor][k]` = scheduled start of firing `k`.
    pub starts: Vec<Vec<u64>>,
}

impl StaticSchedule {
    /// Total scheduled firings.
    pub fn len(&self) -> usize {
        self.starts.iter().map(Vec::len).sum()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The schedule makespan (latest start).
    pub fn makespan(&self) -> u64 {
        self.starts
            .iter()
            .flat_map(|s| s.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

/// Computes the design-time periodic schedule by running the graph
/// self-timed with WCETs and the given buffer capacities.
///
/// This is the existence argument of Section III: *"it is sufficient to
/// show at design time that a valid schedule exists"* — the worst-case
/// self-timed schedule bounds all actual data arrival times *provided the
/// WCETs are sound*.
///
/// # Errors
///
/// Propagates deadlock/consistency errors from the self-timed analysis.
pub(crate) fn derive_schedule(
    graph: &Graph,
    capacities: &[u32],
    iterations: u64,
) -> Result<StaticSchedule> {
    let cfg = SelfTimedConfig {
        capacities: Some(capacities.to_vec()),
        iterations,
        ..Default::default()
    };
    let r = run_self_timed(graph, &cfg, &mut WcetTimes)?;
    let mut starts = vec![Vec::new(); graph.actors().len()];
    for f in &r.firings {
        starts[f.actor.0].push((f.firing, f.start));
    }
    let starts = starts
        .into_iter()
        .map(|mut v: Vec<(u64, u64)>| {
            v.sort();
            v.into_iter().map(|(_, s)| s).collect()
        })
        .collect();
    Ok(StaticSchedule { starts })
}

/// Result of a time-triggered run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimeTriggeredResult {
    /// Tokens read before their producer had written them (stale/garbage
    /// data consumed *inside* the application).
    pub(crate) corrupted_reads: u64,
    /// Tokens overwritten before their consumer read them.
    pub(crate) overwritten: u64,
    /// Firings executed.
    pub firings: u64,
    /// Completion time of the last firing.
    pub(crate) end_time: u64,
}

impl TimeTriggeredResult {
    /// Total integrity violations.
    pub fn total_corruption(&self) -> u64 {
        self.corrupted_reads + self.overwritten
    }
}

/// Executes `schedule` over `graph` with *actual* durations from `times`,
/// counting data-integrity violations.
///
/// # Errors
///
/// [`Error::Config`] when the schedule or capacity vector does not match
/// the graph.
pub(crate) fn run_time_triggered(
    graph: &Graph,
    schedule: &StaticSchedule,
    capacities: &[u32],
    times: &mut dyn TimeModel,
) -> Result<TimeTriggeredResult> {
    if schedule.starts.len() != graph.actors().len() {
        return Err(Error::Config("schedule does not match graph".into()));
    }
    if capacities.len() != graph.channels().len() {
        return Err(Error::Config("capacity vector does not match graph".into()));
    }
    // All firings in scheduled order (ties: actor id, firing index).
    let mut order: Vec<(u64, usize, u64)> = Vec::new();
    for (a, starts) in schedule.starts.iter().enumerate() {
        for (k, &s) in starts.iter().enumerate() {
            order.push((s, a, k as u64));
        }
    }
    order.sort();

    // Per channel: FIFO of token write-completion times.
    let mut fifos: Vec<VecDeque<u64>> = graph
        .channels()
        .iter()
        .map(|c| (0..c.initial).map(|_| 0u64).collect())
        .collect();
    let mut result = TimeTriggeredResult::default();

    for (start, a, k) in order {
        let actor = &graph.actors()[a];
        let phase = (k % actor.phases() as u64) as usize;
        let dur = times.duration(ActorId(a), k, actor.wcet[phase]).max(1);
        let end = start + dur;
        // Consume inputs at the scheduled start: the time-triggered hazard.
        for chid in graph.inputs(ActorId(a)) {
            let c = &graph.channels()[chid.0];
            for _ in 0..c.cons[phase] {
                match fifos[chid.0].pop_front() {
                    Some(written) if written <= start => {}
                    Some(_) | None => {
                        // Data not yet produced: the consumer reads a stale
                        // or empty slot. The paper: "the same data would be
                        // read again" / garbage is consumed.
                        result.corrupted_reads += 1;
                    }
                }
            }
        }
        // Produce outputs at actual completion.
        for chid in graph.outputs(ActorId(a)) {
            let c = &graph.channels()[chid.0];
            for _ in 0..c.prod[phase] {
                if fifos[chid.0].len() >= capacities[chid.0] as usize {
                    // "data would be overwritten in a buffer".
                    fifos[chid.0].pop_front();
                    result.overwritten += 1;
                }
                fifos[chid.0].push_back(end);
            }
        }
        result.firings += 1;
        result.end_time = result.end_time.max(end);
    }
    Ok(result)
}

/// Convenience: derive the schedule with WCETs, then execute it with
/// `times`, returning both the schedule and the run result.
///
/// # Errors
///
/// Propagates schedule derivation and execution errors.
pub fn time_triggered_experiment(
    graph: &Graph,
    capacities: &[u32],
    iterations: u64,
    times: &mut dyn TimeModel,
) -> Result<(StaticSchedule, TimeTriggeredResult)> {
    let schedule = derive_schedule(graph, capacities, iterations)?;
    let result = run_time_triggered(graph, &schedule, capacities, times)?;
    Ok((schedule, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ActorKind;
    use crate::selftimed::VaryingTimes;

    fn pipeline(wcets: [u64; 3], period: u64) -> Graph {
        let mut g = Graph::new();
        let s = g.add_actor("src", vec![wcets[0]], ActorKind::Source { period });
        let f = g.add_actor("f", vec![wcets[1]], ActorKind::Regular);
        let k = g.add_actor("snk", vec![wcets[2]], ActorKind::Sink { period });
        g.add_channel(s, f, vec![1], vec![1], 0).unwrap();
        g.add_channel(f, k, vec![1], vec![1], 0).unwrap();
        g
    }

    #[test]
    fn schedule_derived_from_worst_case_run() {
        let g = pipeline([5, 20, 5], 100);
        let s = derive_schedule(&g, &[2, 2], 4).unwrap();
        assert_eq!(s.starts[0].len(), 4);
        assert_eq!(s.starts[0], vec![0, 100, 200, 300]);
        // f starts when src completes.
        assert_eq!(s.starts[1][0], 5);
    }

    #[test]
    fn wcet_respecting_run_is_corruption_free() {
        let g = pipeline([5, 20, 5], 100);
        let (_s, r) = time_triggered_experiment(&g, &[2, 2], 10, &mut WcetTimes).unwrap();
        assert_eq!(r.total_corruption(), 0);
        assert_eq!(r.firings, 30);
    }

    #[test]
    fn faster_than_wcet_is_also_safe() {
        let g = pipeline([5, 20, 5], 100);
        let mut fast = VaryingTimes::new(11, 30, 100);
        let (_s, r) = time_triggered_experiment(&g, &[2, 2], 10, &mut fast).unwrap();
        assert_eq!(
            r.total_corruption(),
            0,
            "early completion never corrupts a TT schedule"
        );
    }

    #[test]
    fn wcet_violation_corrupts_time_triggered_data() {
        // Tight schedule: f's WCET almost fills the period, so a 1.5x
        // overrun pushes its completion past the sink's scheduled read.
        let g = pipeline([5, 80, 5], 100);
        let mut over = VaryingTimes::new(17, 90, 150);
        let (_s, r) = time_triggered_experiment(&g, &[1, 1], 30, &mut over).unwrap();
        assert!(r.corrupted_reads > 0, "expected corrupted reads, got {r:?}");
    }

    #[test]
    fn same_overruns_are_harmless_when_data_driven() {
        // The exact workload of the previous test, run data-driven.
        let g = pipeline([5, 80, 5], 100);
        let mut over = VaryingTimes::new(17, 90, 150);
        let cfg = SelfTimedConfig {
            capacities: Some(vec![1, 1]),
            iterations: 30,
            ..Default::default()
        };
        let r = run_self_timed(&g, &cfg, &mut over).unwrap();
        // All tokens delivered exactly once; only timing degrades.
        assert_eq!(r.sink_completions[2].len(), 30);
    }

    #[test]
    fn undersized_buffers_overflow_in_tt() {
        // Multirate: src produces 2 per firing, consumer takes 1 — with
        // capacity 1 the second token of each firing lands on an unread
        // slot.
        let mut g = Graph::new();
        let s = g.add_actor("src", vec![10], ActorKind::Source { period: 50 });
        let f = g.add_actor("f", vec![10], ActorKind::Regular);
        g.add_channel(s, f, vec![2], vec![1], 0).unwrap();
        // Derive on generous capacities so a schedule exists, then run with
        // a deliberately undersized buffer (a design error TT cannot absorb).
        let sched = derive_schedule(&g, &[4], 6).unwrap();
        let r = run_time_triggered(&g, &sched, &[1], &mut WcetTimes).unwrap();
        assert!(r.overwritten > 0);
    }

    #[test]
    fn schedule_shape_validated() {
        let g = pipeline([1, 1, 1], 10);
        let bad = StaticSchedule {
            starts: vec![vec![0]],
        };
        assert!(run_time_triggered(&g, &bad, &[1, 1], &mut WcetTimes).is_err());
        let sched = derive_schedule(&g, &[1, 1], 1).unwrap();
        assert!(run_time_triggered(&g, &sched, &[1], &mut WcetTimes).is_err());
    }

    #[test]
    fn corruption_grows_with_violation_severity() {
        let g = pipeline([5, 80, 5], 100);
        let run = |hi: u64| {
            let mut m = VaryingTimes::new(23, 90, hi);
            let (_s, r) = time_triggered_experiment(&g, &[1, 1], 50, &mut m).unwrap();
            r.total_corruption()
        };
        let mild = run(110);
        let severe = run(220);
        assert!(
            severe > mild,
            "severe ({severe}) should corrupt more than mild ({mild})"
        );
    }
}
