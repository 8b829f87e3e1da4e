//! Buffer capacity computation with back-pressure.
//!
//! Reference \[5\] of the paper (Wiggers et al., RTAS 2007) computes
//! *"buffer capacities for cyclo-static real-time systems with
//! back-pressure"* such that the periodic source and sink can run
//! *wait-free*. This module provides the same service on our graphs:
//!
//! * [`required_capacities`] — a sound upper bound from an unbounded
//!   worst-case self-timed run (the maximal transient occupancy).
//! * [`minimal_capacities`] — the per-channel minimal capacities that still
//!   let every source firing start exactly on its timer slot (wait-free)
//!   while sustaining the graph's throughput, found by monotone search
//!   under the executor itself.
//!
//! The substitution from the analytic algorithm of \[5\] to an
//! executor-driven search preserves the contract (capacities are exact for
//! the modelled behaviour and conservative under execution-time variation)
//! at the price of analysis time, which is irrelevant at our scales.

use crate::error::{Error, Result};
use crate::graph::Graph;
use crate::selftimed::{run_self_timed, SelfTimedConfig, WcetTimes};

/// Upper-bound capacities: the maximum occupancy each channel reaches in an
/// unbounded worst-case run of `iterations` graph iterations.
///
/// # Errors
///
/// Propagates consistency/deadlock errors from the analysis run.
pub fn required_capacities(graph: &Graph, iterations: u64) -> Result<Vec<u32>> {
    let cfg = SelfTimedConfig {
        capacities: None,
        iterations,
        ..Default::default()
    };
    let r = run_self_timed(graph, &cfg, &mut WcetTimes)?;
    Ok(r.max_occupancy
        .iter()
        .zip(graph.channels())
        .map(|(&occ, c)| occ.max(c.initial).max(1))
        .collect())
}

/// Whether `capacities` admit a wait-free periodic execution: the graph
/// runs to completion, no source firing is delayed past its timer slot,
/// and no sink firing starts late.
///
/// # Errors
///
/// [`Error::Config`] for a capacity vector of the wrong length.
pub fn is_wait_free(graph: &Graph, capacities: &[u32], iterations: u64) -> Result<bool> {
    let cfg = SelfTimedConfig {
        capacities: Some(capacities.to_vec()),
        iterations,
        ..Default::default()
    };
    match run_self_timed(graph, &cfg, &mut WcetTimes) {
        Ok(r) => Ok(r.source_blocked == 0 && r.sink_late == 0),
        Err(Error::Deadlock { .. }) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Computes minimal per-channel capacities that keep the periodic
/// source/sink wait-free over `iterations` iterations.
///
/// Starts from [`required_capacities`] and shrinks each channel in turn to
/// the smallest value that preserves wait-freedom (capacity feasibility is
/// monotone per channel, so binary search is sound).
///
/// # Errors
///
/// [`Error::Config`] if even the upper bound is not wait-free (the WCETs
/// cannot sustain the requested period at all).
pub fn minimal_capacities(graph: &Graph, iterations: u64) -> Result<Vec<u32>> {
    let mut caps = required_capacities(graph, iterations)?;
    if !is_wait_free(graph, &caps, iterations)? {
        return Err(Error::Config(
            "graph cannot run wait-free even with maximal buffering; \
             the source period is infeasible for the WCETs"
                .into(),
        ));
    }
    for ch in 0..caps.len() {
        let mut lo = graph.channels()[ch].initial.max(1);
        let mut hi = caps[ch];
        // Binary search the smallest feasible capacity for this channel.
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut trial = caps.clone();
            trial[ch] = mid;
            if is_wait_free(graph, &trial, iterations)? {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        caps[ch] = lo;
    }
    Ok(caps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ActorKind, Graph};

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
    fn relaxed_pipeline_needs_single_buffers() {
        let g = pipeline([5, 20, 5], 100);
        let caps = minimal_capacities(&g, 20).unwrap();
        assert_eq!(caps, vec![1, 1]);
    }

    /// A blocked-up consumer: `f` needs `cons` tokens per firing, so the
    /// channel must hold a burst of that size for the source to stay
    /// wait-free.
    fn batching(cons: u32) -> Graph {
        let mut g = Graph::new();
        let s = g.add_actor("src", vec![10], ActorKind::Source { period: 100 });
        let f = g.add_actor("f", vec![50], ActorKind::Regular);
        let k = g.add_actor(
            "snk",
            vec![5],
            ActorKind::Sink {
                period: 100 * cons as u64,
            },
        );
        g.add_channel(s, f, vec![1], vec![cons], 0).unwrap();
        g.add_channel(f, k, vec![1], vec![1], 0).unwrap();
        g
    }

    #[test]
    fn batching_consumer_needs_burst_capacity() {
        let g = batching(3);
        let caps = minimal_capacities(&g, 20).unwrap();
        assert!(caps[0] >= 3, "caps {caps:?}");
        assert!(is_wait_free(&g, &caps, 20).unwrap());
    }

    #[test]
    fn minimal_is_minimal() {
        let g = batching(3);
        let caps = minimal_capacities(&g, 20).unwrap();
        // Decreasing any channel breaks wait-freedom.
        for ch in 0..caps.len() {
            if caps[ch] > 1 {
                let mut smaller = caps.clone();
                smaller[ch] -= 1;
                assert!(
                    !is_wait_free(&g, &smaller, 20).unwrap(),
                    "channel {ch} was shrinkable below {caps:?}"
                );
            }
        }
    }

    #[test]
    fn infeasible_period_rejected() {
        // Bottleneck WCET 300 vs period 100: no buffering fixes throughput.
        let g = pipeline([5, 300, 5], 100);
        assert!(minimal_capacities(&g, 20).is_err());
    }

    #[test]
    fn required_bounds_minimal() {
        let g = pipeline([5, 90, 5], 100);
        let req = required_capacities(&g, 20).unwrap();
        let min = minimal_capacities(&g, 20).unwrap();
        for (r, m) in req.iter().zip(&min) {
            assert!(r >= m);
        }
        assert!(min.iter().sum::<u32>() <= req.iter().sum::<u32>());
    }

    #[test]
    fn multirate_capacities_cover_burst() {
        // Source bursts 4 tokens per firing; consumer drains 1 at a time.
        let mut g = Graph::new();
        let s = g.add_actor("src", vec![10], ActorKind::Source { period: 200 });
        let f = g.add_actor("f", vec![40], ActorKind::Regular);
        g.add_channel(s, f, vec![4], vec![1], 0).unwrap();
        let caps = minimal_capacities(&g, 10).unwrap();
        assert!(caps[0] >= 4, "burst of 4 needs >= 4 slots, got {caps:?}");
    }
}
