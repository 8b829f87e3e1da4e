//! Self-timed (data-driven) execution.
//!
//! Section III: *"In our data-driven system, the start of the execution of
//! the tasks is triggered by the arrival of data, except for the source and
//! sink tasks which are periodically triggered by a timer."* This module
//! simulates exactly that rule: a [`ActorKind::Regular`] actor fires as soon
//! as its input tokens and output buffer space allow (back-pressure), while
//! sources and sinks are additionally gated by their periods.
//!
//! Because consumers wait for data, a task overrunning its worst-case
//! execution time estimate delays its consumers but can never make them
//! read garbage — the structural robustness property the paper credits
//! data-driven systems with. The simulator therefore reports *timing*
//! deviations (late sinks, blocked sources) but by construction zero data
//! corruption; contrast with [`crate::ttrigger`].

use std::collections::BinaryHeap;

use crate::error::{Error, Result};
use crate::graph::{ActorId, ActorKind, Graph};
use mpsoc_obs::event::{Event, ObsCtx};
use mpsoc_obs::metrics::{Counter, Gauge};

/// Cached `dataflow.*` metric handles (resolved once per run).
struct DataflowMetrics {
    firings: Counter,
    tokens_produced: Counter,
    occupancy: Gauge,
}

/// Supplies actual execution times per firing (the paper's *"varying
/// execution times"*).
pub trait TimeModel {
    /// Duration of the firing `firing` of `actor` whose per-phase WCET
    /// estimate is `wcet`.
    fn duration(&mut self, actor: ActorId, firing: u64, wcet: u64) -> u64;
}

/// Every firing takes exactly its WCET.
#[derive(Clone, Copy, Debug, Default)]
pub struct WcetTimes;

impl TimeModel for WcetTimes {
    fn duration(&mut self, _actor: ActorId, _firing: u64, wcet: u64) -> u64 {
        wcet
    }
}

/// Deterministic pseudo-random execution times in `[lo_pct, hi_pct]` percent
/// of the WCET estimate. `hi_pct > 100` models WCET-estimate *violations*
/// (Section III's *"unreliable worst-case execution time estimate"*).
#[derive(Clone, Copy, Debug)]
pub struct VaryingTimes {
    state: u64,
    /// Lower bound, percent of WCET.
    pub(crate) lo_pct: u64,
    /// Upper bound, percent of WCET.
    pub(crate) hi_pct: u64,
}

impl VaryingTimes {
    /// Creates a model seeded with `seed` producing durations in
    /// `[lo_pct, hi_pct]`% of WCET.
    ///
    /// # Panics
    ///
    /// Panics if `lo_pct > hi_pct`.
    pub fn new(seed: u64, lo_pct: u64, hi_pct: u64) -> Self {
        assert!(lo_pct <= hi_pct, "lo_pct must not exceed hi_pct");
        VaryingTimes {
            state: seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493)
                | 1,
            lo_pct,
            hi_pct,
        }
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl TimeModel for VaryingTimes {
    fn duration(&mut self, _actor: ActorId, _firing: u64, wcet: u64) -> u64 {
        let span = self.hi_pct - self.lo_pct + 1;
        let pct = self.lo_pct + self.next() % span;
        (wcet * pct).div_ceil(100).max(1)
    }
}

/// One completed firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Firing {
    /// The actor.
    pub actor: ActorId,
    /// Its firing index (0-based).
    pub firing: u64,
    /// Start time.
    pub start: u64,
    /// Completion time.
    pub end: u64,
}

/// Self-timed simulation parameters.
#[derive(Clone, Debug)]
pub struct SelfTimedConfig {
    /// Per-channel buffer capacities; `None` = unbounded (analysis mode).
    pub capacities: Option<Vec<u32>>,
    /// Graph iterations to execute.
    pub iterations: u64,
    /// Safety cap on simulation events.
    pub max_events: u64,
}

impl Default for SelfTimedConfig {
    fn default() -> Self {
        SelfTimedConfig {
            capacities: None,
            iterations: 10,
            max_events: 1_000_000,
        }
    }
}

/// Result of a self-timed run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SelfTimedResult {
    /// Every firing, in completion order.
    pub firings: Vec<Firing>,
    /// Completion time of the last firing.
    pub(crate) end_time: u64,
    /// Maximum observed token count per channel (the capacity actually
    /// needed — used by buffer sizing).
    pub(crate) max_occupancy: Vec<u32>,
    /// Completion times of sink firings, per sink actor in id order.
    pub(crate) sink_completions: Vec<Vec<u64>>,
    /// Source firings whose start was delayed past their timer slot —
    /// non-zero means the schedule is *not* wait-free for the sources.
    pub source_blocked: u64,
    /// Sink firings that started later than their timer slot.
    pub sink_late: u64,
}

impl SelfTimedResult {
    /// Average period achieved by the last sink (end-to-end throughput).
    pub fn achieved_period(&self) -> Option<f64> {
        let completions = self.sink_completions.iter().rev().find(|c| c.len() >= 2)?;
        let n = completions.len();
        Some((completions[n - 1] - completions[0]) as f64 / (n - 1) as f64)
    }
}

/// Runs the data-driven executor on `graph`.
///
/// # Errors
///
/// [`Error::Deadlock`] when no actor can ever fire again before the
/// iteration target is met (e.g. undersized buffers on a cycle);
/// [`Error::Config`] for capacity vectors of the wrong length or a zero
/// iteration count.
pub fn run_self_timed(
    graph: &Graph,
    cfg: &SelfTimedConfig,
    times: &mut dyn TimeModel,
) -> Result<SelfTimedResult> {
    run_self_timed_observed(graph, cfg, times, &mut ObsCtx::none())
}

/// [`run_self_timed`] with an observability context: each firing becomes a
/// begin/end span (actor id as the track, category `"dataflow"`), each token
/// arrival emits a per-channel occupancy [`mpsoc_obs::event::EventKind::Counter`]
/// event, and the `dataflow.firings` / `dataflow.tokens_produced` counters
/// plus the `dataflow.occupancy` gauge (high-water = deepest queue seen on
/// any channel) are maintained. Timestamps are the simulator's native time
/// units. Passing [`ObsCtx::none`] is exactly [`run_self_timed`].
///
/// # Errors
///
/// Same conditions as [`run_self_timed`].
pub fn run_self_timed_observed(
    graph: &Graph,
    cfg: &SelfTimedConfig,
    times: &mut dyn TimeModel,
    obs: &mut ObsCtx<'_>,
) -> Result<SelfTimedResult> {
    let metrics = obs.metrics.map(|r| DataflowMetrics {
        firings: r.counter("dataflow.firings"),
        tokens_produced: r.counter("dataflow.tokens_produced"),
        occupancy: r.gauge("dataflow.occupancy"),
    });
    if cfg.iterations == 0 {
        return Err(Error::Config("iterations must be non-zero".into()));
    }
    if let Some(caps) = &cfg.capacities {
        if caps.len() != graph.channels().len() {
            return Err(Error::Config(format!(
                "{} capacities for {} channels",
                caps.len(),
                graph.channels().len()
            )));
        }
    }
    let firings_per_iter = graph.firings_per_iteration()?;
    let target: Vec<u64> = firings_per_iter
        .iter()
        .map(|f| f * cfg.iterations)
        .collect();

    let nch = graph.channels().len();
    let mut tokens: Vec<u32> = graph.channels().iter().map(|c| c.initial).collect();
    let mut reserved: Vec<u32> = vec![0; nch]; // output space reserved by running firings
    let mut max_occ: Vec<u32> = tokens.clone();
    let mut fired: Vec<u64> = vec![0; graph.actors().len()];
    let mut busy: Vec<bool> = vec![false; graph.actors().len()];
    // Completion event heap: (Reverse(end), actor, firing, start).
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize, u64, u64)>> = BinaryHeap::new();
    let mut now = 0u64;
    let mut result = SelfTimedResult {
        max_occupancy: vec![0; nch],
        sink_completions: vec![Vec::new(); graph.actors().len()],
        ..Default::default()
    };
    let mut events = 0u64;

    // First start time of each periodic sink: its local timer is started at
    // the first activation, so firing k of a sink is due at
    // `first_start + k * period` (sinks are phase-shifted by the pipeline
    // latency; sources are anchored at absolute time 0).
    let mut first_start: Vec<Option<u64>> = vec![None; graph.actors().len()];

    let can_start = |a: usize,
                     tokens: &[u32],
                     reserved: &[u32],
                     fired: &[u64],
                     first_start: &[Option<u64>],
                     t: u64|
     -> (bool, Option<u64>) {
        // Returns (eligible_now, wake_time_if_timer_gated).
        let actor = &graph.actors()[a];
        let phase = (fired[a] % actor.phases() as u64) as usize;
        for chid in graph.inputs(ActorId(a)) {
            let c = &graph.channels()[chid.0];
            if tokens[chid.0] < c.cons[phase] {
                return (false, None);
            }
        }
        if let Some(caps) = &cfg.capacities {
            for chid in graph.outputs(ActorId(a)) {
                let c = &graph.channels()[chid.0];
                if tokens[chid.0] + reserved[chid.0] + c.prod[phase] > caps[chid.0] {
                    return (false, None); // back-pressure
                }
            }
        }
        match actor.kind {
            ActorKind::Regular => (true, None),
            ActorKind::Source { period } => {
                let slot = fired[a] * period;
                if t >= slot {
                    (true, None)
                } else {
                    (false, Some(slot))
                }
            }
            ActorKind::Sink { period } => match first_start[a] {
                // First firing is purely data-gated; it starts the timer.
                None => (true, None),
                Some(anchor) => {
                    let slot = anchor + fired[a] * period;
                    if t >= slot {
                        (true, None)
                    } else {
                        (false, Some(slot))
                    }
                }
            },
        }
    };

    loop {
        // Start every actor that can start at `now`.
        let mut progressed = true;
        let mut next_timer: Option<u64> = None;
        while progressed {
            progressed = false;
            for a in 0..graph.actors().len() {
                if busy[a] || fired[a] >= target[a] {
                    continue;
                }
                let (ok, wake) = can_start(a, &tokens, &reserved, &fired, &first_start, now);
                if ok {
                    let actor = &graph.actors()[a];
                    let phase = (fired[a] % actor.phases() as u64) as usize;
                    // Timer accounting.
                    match actor.kind {
                        ActorKind::Source { period } => {
                            if now > fired[a] * period {
                                result.source_blocked += 1;
                            }
                        }
                        ActorKind::Sink { period } => {
                            if let Some(anchor) = first_start[a] {
                                if now > anchor + fired[a] * period {
                                    result.sink_late += 1;
                                }
                            }
                        }
                        ActorKind::Regular => {}
                    }
                    if first_start[a].is_none() {
                        first_start[a] = Some(now);
                    }
                    // Consume inputs, reserve outputs.
                    for chid in graph.inputs(ActorId(a)) {
                        let c = &graph.channels()[chid.0];
                        tokens[chid.0] -= c.cons[phase];
                    }
                    for chid in graph.outputs(ActorId(a)) {
                        let c = &graph.channels()[chid.0];
                        reserved[chid.0] += c.prod[phase];
                    }
                    let d = times
                        .duration(ActorId(a), fired[a], actor.wcet[phase])
                        .max(1);
                    heap.push(std::cmp::Reverse((now + d, a, fired[a], now)));
                    busy[a] = true;
                    progressed = true;
                    obs.emit(|| {
                        Event::begin(now, actor.name.clone(), "dataflow", a as u32)
                            .with_arg("firing", fired[a])
                    });
                } else if let Some(w) = wake {
                    next_timer = Some(next_timer.map_or(w, |t: u64| t.min(w)));
                }
            }
        }

        // Done?
        if fired.iter().zip(&target).all(|(f, t)| f >= t) && heap.is_empty() {
            break;
        }

        // Advance time: next completion or timer wake.
        let next_completion = heap.peek().map(|std::cmp::Reverse((t, ..))| *t);
        match (next_completion, next_timer) {
            (Some(tc), Some(tt)) if tt < tc => {
                now = tt;
                continue;
            }
            (Some(_), _) => {
                let std::cmp::Reverse((end, a, firing, start)) = heap.pop().expect("peeked");
                now = end;
                events += 1;
                if events > cfg.max_events {
                    return Err(Error::Config(format!(
                        "event budget {} exhausted",
                        cfg.max_events
                    )));
                }
                let actor = &graph.actors()[a];
                let phase = (firing % actor.phases() as u64) as usize;
                for chid in graph.outputs(ActorId(a)) {
                    let c = &graph.channels()[chid.0];
                    reserved[chid.0] -= c.prod[phase];
                    tokens[chid.0] += c.prod[phase];
                    max_occ[chid.0] = max_occ[chid.0].max(tokens[chid.0]);
                    if let Some(m) = &metrics {
                        m.tokens_produced.add(c.prod[phase] as u64);
                        m.occupancy.set(tokens[chid.0] as u64);
                    }
                    obs.emit(|| {
                        Event::counter(
                            end,
                            format!("ch{}", chid.0),
                            "dataflow",
                            chid.0 as u32,
                            tokens[chid.0] as u64,
                        )
                    });
                }
                busy[a] = false;
                fired[a] += 1;
                if let Some(m) = &metrics {
                    m.firings.inc();
                }
                obs.emit(|| {
                    Event::end(end, graph.actors()[a].name.clone(), "dataflow", a as u32)
                        .with_arg("firing", firing)
                });
                result.firings.push(Firing {
                    actor: ActorId(a),
                    firing,
                    start,
                    end,
                });
                result.end_time = result.end_time.max(end);
                if matches!(actor.kind, ActorKind::Sink { .. }) {
                    result.sink_completions[a].push(end);
                }
            }
            (None, Some(tt)) => {
                now = tt;
            }
            (None, None) => {
                let done: u64 = fired.iter().sum();
                return Err(Error::Deadlock { fired: done });
            }
        }
    }

    result.max_occupancy = max_occ;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ActorKind;

    /// src -> f -> snk pipeline with the given WCETs and period.
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
    fn pipeline_achieves_source_period() {
        let g = pipeline([5, 20, 5], 100);
        let r = run_self_timed(&g, &SelfTimedConfig::default(), &mut WcetTimes).unwrap();
        assert_eq!(r.source_blocked, 0, "schedule must be wait-free");
        let p = r.achieved_period().unwrap();
        assert!((p - 100.0).abs() < 1e-9, "period {p}");
    }

    #[test]
    fn firing_count_matches_repetition() {
        let g = pipeline([1, 1, 1], 10);
        let cfg = SelfTimedConfig {
            iterations: 7,
            ..Default::default()
        };
        let r = run_self_timed(&g, &cfg, &mut WcetTimes).unwrap();
        assert_eq!(r.firings.len(), 3 * 7);
    }

    #[test]
    fn data_dependencies_order_firings() {
        let g = pipeline([10, 10, 10], 1_000);
        let r = run_self_timed(
            &g,
            &SelfTimedConfig {
                iterations: 1,
                ..Default::default()
            },
            &mut WcetTimes,
        )
        .unwrap();
        // src ends 10, f runs 10..20, snk 20..30.
        assert_eq!(r.firings[0].actor, ActorId(0));
        assert_eq!(
            r.firings[1],
            Firing {
                actor: ActorId(1),
                firing: 0,
                start: 10,
                end: 20
            }
        );
        assert_eq!(r.firings[2].start, 20);
    }

    #[test]
    fn bounded_buffers_apply_back_pressure() {
        // Fast source, slow middle: with cap 1 the source is throttled by
        // back-pressure rather than overflowing.
        let g = pipeline([1, 50, 1], 10);
        let cfg = SelfTimedConfig {
            capacities: Some(vec![1, 1]),
            iterations: 5,
            ..Default::default()
        };
        let r = run_self_timed(&g, &cfg, &mut WcetTimes).unwrap();
        // The source cannot keep its 10-unit period against a 50-unit
        // bottleneck: blocked starts are reported, data is never lost.
        assert!(r.source_blocked > 0);
        assert_eq!(
            r.firings.iter().filter(|f| f.actor == ActorId(0)).count(),
            5
        );
    }

    #[test]
    fn unbounded_run_reports_needed_capacity() {
        let g = pipeline([1, 50, 1], 10);
        let cfg = SelfTimedConfig {
            iterations: 8,
            ..Default::default()
        };
        let r = run_self_timed(&g, &cfg, &mut WcetTimes).unwrap();
        // Fast source queues up in front of the bottleneck.
        assert!(r.max_occupancy[0] >= 3, "occ {:?}", r.max_occupancy);
    }

    #[test]
    fn undersized_cycle_deadlocks() {
        let mut g = Graph::new();
        let a = g.add_actor("a", vec![1], ActorKind::Regular);
        let b = g.add_actor("b", vec![1], ActorKind::Regular);
        g.add_channel(a, b, vec![1], vec![1], 0).unwrap();
        g.add_channel(b, a, vec![1], vec![1], 0).unwrap(); // no initial token
        let r = run_self_timed(&g, &SelfTimedConfig::default(), &mut WcetTimes);
        assert!(matches!(r, Err(Error::Deadlock { .. })));
    }

    #[test]
    fn cycle_with_token_runs() {
        let mut g = Graph::new();
        let a = g.add_actor("a", vec![3], ActorKind::Regular);
        let b = g.add_actor("b", vec![4], ActorKind::Regular);
        g.add_channel(a, b, vec![1], vec![1], 0).unwrap();
        g.add_channel(b, a, vec![1], vec![1], 1).unwrap();
        let r = run_self_timed(
            &g,
            &SelfTimedConfig {
                iterations: 4,
                ..Default::default()
            },
            &mut WcetTimes,
        )
        .unwrap();
        assert_eq!(r.firings.len(), 8);
        // Cycle time = 7 per iteration after the first.
        assert_eq!(r.end_time, 4 * 7);
    }

    #[test]
    fn overruns_delay_but_never_corrupt() {
        let g = pipeline([5, 50, 5], 70);
        let mut times = VaryingTimes::new(42, 50, 160); // violations up to 1.6x WCET
        let r = run_self_timed(
            &g,
            &SelfTimedConfig {
                capacities: Some(vec![2, 2]),
                iterations: 30,
                ..Default::default()
            },
            &mut times,
        )
        .unwrap();
        // All 30 iterations complete, every token accounted for: exactly 30
        // sink firings (nothing lost, nothing duplicated).
        assert_eq!(r.sink_completions[2].len(), 30);
        // Timing, not integrity, absorbs the violations.
        assert!(r.sink_late > 0 || r.achieved_period().unwrap() > 69.0);
    }

    #[test]
    fn varying_times_are_deterministic_per_seed() {
        let mut a = VaryingTimes::new(7, 80, 120);
        let mut b = VaryingTimes::new(7, 80, 120);
        for i in 0..100 {
            assert_eq!(
                a.duration(ActorId(0), i, 100),
                b.duration(ActorId(0), i, 100)
            );
        }
    }

    #[test]
    fn varying_times_respect_bounds() {
        let mut m = VaryingTimes::new(3, 50, 150);
        for i in 0..1000 {
            let d = m.duration(ActorId(0), i, 100);
            assert!((50..=150).contains(&d), "duration {d}");
        }
    }

    #[test]
    fn observed_run_counters_match_result() {
        use mpsoc_obs::event::EventKind;
        use mpsoc_obs::metrics::MetricsRegistry;
        use mpsoc_obs::ring::RingSink;

        let g = pipeline([1, 50, 1], 10);
        let cfg = SelfTimedConfig {
            iterations: 8,
            ..Default::default()
        };
        let reg = MetricsRegistry::new();
        let mut sink = RingSink::new(4096);
        let mut obs = ObsCtx::new(&mut sink, &reg);
        let r = run_self_timed_observed(&g, &cfg, &mut WcetTimes, &mut obs).unwrap();

        assert_eq!(
            reg.counter("dataflow.firings").get(),
            r.firings.len() as u64
        );
        assert_eq!(
            reg.gauge("dataflow.occupancy").high_water(),
            r.max_occupancy.iter().copied().max().unwrap() as u64,
            "gauge high-water is the deepest queue on any channel"
        );

        let evs = sink.events();
        assert!(evs.iter().all(|e| e.cat == "dataflow"));
        let begins = evs.iter().filter(|e| e.kind == EventKind::Begin).count();
        let ends = evs.iter().filter(|e| e.kind == EventKind::End).count();
        assert_eq!(begins, r.firings.len());
        assert_eq!(begins, ends);
        assert!(
            evs.iter()
                .any(|e| matches!(e.kind, EventKind::Counter { .. })),
            "occupancy samples must be present"
        );
    }

    #[test]
    fn unobserved_run_matches_observed_result() {
        let g = pipeline([5, 20, 5], 100);
        let cfg = SelfTimedConfig::default();
        let plain = run_self_timed(&g, &cfg, &mut WcetTimes).unwrap();
        let observed =
            run_self_timed_observed(&g, &cfg, &mut WcetTimes, &mut ObsCtx::none()).unwrap();
        assert_eq!(plain, observed);
    }

    #[test]
    fn capacity_vector_length_checked() {
        let g = pipeline([1, 1, 1], 10);
        let cfg = SelfTimedConfig {
            capacities: Some(vec![1]),
            ..Default::default()
        };
        assert!(run_self_timed(&g, &cfg, &mut WcetTimes).is_err());
    }
}

#[cfg(test)]
mod csdf_tests {
    use super::*;
    use crate::graph::{ActorKind, Graph};

    /// A genuinely cyclo-static consumer: phase 0 takes 1 token in 5 time
    /// units, phase 1 takes 2 tokens in 9 — the data-dependent
    /// "consumption and production behavior" of Section III.
    fn csdf_pair() -> Graph {
        let mut g = Graph::new();
        let src = g.add_actor("src", vec![2], ActorKind::Source { period: 50 });
        let cons = g.add_actor("cons", vec![5, 9], ActorKind::Regular);
        g.add_channel(src, cons, vec![1], vec![1, 2], 0).unwrap();
        g
    }

    #[test]
    fn csdf_repetition_accounts_for_phases() {
        let g = csdf_pair();
        // src produces 1/firing; cons consumes 3 per full iteration (1+2):
        // q = [3, 1] in iterations, firings = [3, 2].
        assert_eq!(g.repetition_vector().unwrap(), vec![3, 1]);
        assert_eq!(g.firings_per_iteration().unwrap(), vec![3, 2]);
    }

    #[test]
    fn csdf_phases_rotate_and_consume_correct_tokens() {
        let g = csdf_pair();
        let r = run_self_timed(
            &g,
            &SelfTimedConfig {
                iterations: 4,
                ..Default::default()
            },
            &mut WcetTimes,
        )
        .unwrap();
        let cons_firings: Vec<&Firing> = r.firings.iter().filter(|f| f.actor.0 == 1).collect();
        assert_eq!(cons_firings.len(), 8); // 2 phases x 4 iterations
                                           // Durations alternate 5, 9 with the phase index.
        for f in &cons_firings {
            let expected = if f.firing % 2 == 0 { 5 } else { 9 };
            assert_eq!(f.end - f.start, expected, "firing {}", f.firing);
        }
        // Phase 1 cannot start before two tokens exist: firing 1 starts at
        // or after the second source completion (2 * 50 period boundary is
        // not needed; tokens at 2 and 52). First phase-1 firing needs
        // tokens #2 and #3 (produced at 52 and 102).
        assert!(cons_firings[1].start >= 102);
    }

    #[test]
    fn csdf_bounded_buffers_still_complete() {
        let g = csdf_pair();
        let caps = crate::buffer::required_capacities(&g, 6).unwrap();
        let r = run_self_timed(
            &g,
            &SelfTimedConfig {
                capacities: Some(caps),
                iterations: 6,
                ..Default::default()
            },
            &mut WcetTimes,
        )
        .unwrap();
        assert_eq!(
            r.firings.iter().filter(|f| f.actor.0 == 0).count(),
            18,
            "3 source firings per iteration"
        );
    }
}
