//! Engine-backed buffer-sizing search with snapshot warm starts.
//!
//! [`crate::buffer::minimal_capacities`] shrinks each channel with a serial
//! binary search under the executor. This module re-expresses that search on
//! the shared [`mpsoc_explore::Sweep`] engine: for each channel, every
//! candidate capacity in `[lo, hi]` is probed as an independent trial and
//! the engine's deterministic early stop ([`mpsoc_explore::Sweep::run_until`])
//! cuts at the **smallest** feasible one. Because wait-free feasibility is
//! monotone in a single channel's capacity (the invariant the binary search
//! already relies on), the result is identical to the serial search at any
//! thread count.
//!
//! [`profile_actor_wcets`] re-costs actor WCETs from profile counters
//! measured on a simulated platform, positioned via an
//! [`mpsoc_explore::Prefix`] — cold (re-simulate the prefix) or warm
//! (restore a snapshot), with bit-identical results either way.

use crate::buffer::{is_wait_free, required_capacities};
use crate::error::{Error, Result};
use crate::graph::{ActorId, Graph};
use mpsoc_explore::{Prefix, Sweep};
use mpsoc_obs::MetricsRegistry;

/// Computes the same minimal wait-free capacities as
/// [`crate::buffer::minimal_capacities`], with each channel's candidate
/// probes fanned out through the shared exploration engine.
///
/// Channels are still shrunk one at a time in id order (each channel's
/// search depends on the previous results), but within a channel all
/// candidate capacities probe in parallel and merge at the smallest
/// feasible one — bit-identical to the serial binary search for any
/// `threads >= 1`. With `metrics`, the engine bumps `explore.trials` /
/// `explore.wall_ns` per channel.
///
/// # Errors
///
/// As [`crate::buffer::minimal_capacities`]: [`Error::Config`] if even the
/// upper bound is not wait-free.
pub fn minimal_capacities_sweep(
    graph: &Graph,
    iterations: u64,
    threads: usize,
    metrics: Option<&MetricsRegistry>,
) -> Result<Vec<u32>> {
    let mut caps = required_capacities(graph, iterations)?;
    if !is_wait_free(graph, &caps, iterations)? {
        return Err(Error::Config(
            "graph cannot run wait-free even with maximal buffering; \
             the source period is infeasible for the WCETs"
                .into(),
        ));
    }
    let mut sweep = Sweep::new(threads);
    if let Some(m) = metrics {
        sweep = sweep.metrics(m);
    }
    for ch in 0..caps.len() {
        let lo = graph.channels()[ch].initial.max(1);
        let hi = caps[ch];
        if lo >= hi {
            caps[ch] = lo;
            continue;
        }
        let caps_ref = &caps;
        // Probe lo, lo+1, ..., hi as independent trials; the engine's
        // deterministic early stop cuts at the smallest feasible capacity
        // (or the first probe error, which outranks any later trial).
        let probes = sweep.run_until(
            (hi - lo + 1) as usize,
            |i| {
                let mut trial = caps_ref.clone();
                trial[ch] = lo + i as u32;
                is_wait_free(graph, &trial, iterations)
            },
            |r| !matches!(r, Ok(false)),
        );
        let n = probes.len();
        match probes.into_iter().next_back() {
            Some(Ok(true)) => caps[ch] = lo + (n as u32 - 1),
            Some(Ok(false)) => {
                // The upper bound `hi` is feasible by construction, so the
                // scan cannot exhaust without a hit; keep it if it somehow
                // does.
                caps[ch] = hi;
            }
            Some(Err(e)) => return Err(e),
            None => caps[ch] = hi,
        }
    }
    Ok(caps)
}

/// Re-costs `graph`'s actor WCETs from measured profile data on a
/// simulated platform.
///
/// The platform is positioned at the region of interest via `prefix` and
/// the word at `profile_addr + a` is read for every actor `a`. A positive
/// word `w` replaces **all** of the actor's phase WCETs with `w` (the
/// profile measures the actor's worst observed firing; the phase count is
/// preserved — see `Graph::set_actor_wcet`). Zero or negative words
/// leave the actor untouched. A snapshot restore is bit-identical to
/// having simulated the prefix, so warm and cold prefixes yield the same
/// re-costed graph.
///
/// # Errors
///
/// [`Error::Config`] when the prefix cannot be materialized or a profile
/// word is outside the platform's address map.
pub fn profile_actor_wcets(graph: &Graph, prefix: &Prefix<'_>, profile_addr: u32) -> Result<Graph> {
    let words = prefix
        .profile_words(profile_addr, graph.actors().len())
        .map_err(|e| Error::Config(format!("actor profile: {e}")))?;
    let mut profiled = graph.clone();
    for (a, &word) in words.iter().enumerate() {
        if word > 0 {
            let phases = graph.actors()[a].phases();
            profiled.set_actor_wcet(ActorId(a), &vec![word as u64; phases])?;
        }
    }
    Ok(profiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::minimal_capacities;
    use crate::graph::ActorKind;

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
    fn sweep_matches_the_serial_binary_search() {
        for cons in [1, 3, 5] {
            let g = batching(cons);
            let serial = minimal_capacities(&g, 20).unwrap();
            for threads in [1, 2, 4, 8] {
                let parallel = minimal_capacities_sweep(&g, 20, threads, None).unwrap();
                assert_eq!(parallel, serial, "cons={cons} threads={threads}");
            }
        }
    }

    #[test]
    fn infeasible_period_still_rejected() {
        // Bottleneck WCET 300 vs period 100: no buffering fixes throughput.
        let mut g = Graph::new();
        let s = g.add_actor("src", vec![5], ActorKind::Source { period: 100 });
        let f = g.add_actor("f", vec![300], ActorKind::Regular);
        let k = g.add_actor("snk", vec![5], ActorKind::Sink { period: 100 });
        g.add_channel(s, f, vec![1], vec![1], 0).unwrap();
        g.add_channel(f, k, vec![1], vec![1], 0).unwrap();
        assert!(minimal_capacities_sweep(&g, 20, 4, None).is_err());
    }

    #[test]
    fn set_actor_wcet_preserves_phase_count() {
        let mut g = batching(2);
        assert!(g.set_actor_wcet(ActorId(1), &[60]).is_ok());
        assert!(g.set_actor_wcet(ActorId(1), &[60, 70]).is_err());
        assert!(g.set_actor_wcet(ActorId(9), &[60]).is_err());
        assert_eq!(g.actors()[1].wcet, vec![60]);
    }
}
