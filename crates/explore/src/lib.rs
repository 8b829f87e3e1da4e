//! Deterministic parallel design-space exploration engine.
//!
//! Every exploration flow in the suite — MAPS multi-start annealing, CIC
//! architecture sweeps, rtkernel scheduling-policy grids, dataflow buffer
//! sizing, and vpdebug fault campaigns — reduces to the same loop: evaluate a
//! candidate, score it, merge. This crate is that loop, written once:
//!
//! * [`split_seeds`] derives per-trial RNG seeds from one master seed via the
//!   obs xorshift splitter, so trial `i` sees the same stream no matter which
//!   worker runs it.
//! * [`Sweep`] fans trials out over chunked [`std::thread::scope`] workers and
//!   merges results **in index order** — output is bit-identical at any
//!   thread count, including the serial path.
//! * [`Prefix`] positions each worker at the region of interest — by
//!   re-simulating ([`Prefix::cold`]) or from a shared [`BaseImage`]
//!   ([`Prefix::base`], hydrate once and roll back with
//!   [`Platform::reset_to_base`]) — without the sweep caring which.
//! * An early-stop hook ([`Sweep::run_until`]) keeps long sweeps bounded
//!   without sacrificing determinism, and an optional [`MetricsRegistry`] receives `explore.trials`,
//!   `explore.warm_hits`, `explore.prefix_steps`, and `explore.wall_ns`.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use mpsoc_obs::{MetricsRegistry, XorShift64Star};
use mpsoc_platform::isa::Word;
use mpsoc_platform::{BaseImage, Platform};

/// Counter bumped once per evaluated trial.
pub const TRIALS_COUNTER: &str = "explore.trials";
/// Counter bumped once per warm start (image restore or delta rollback).
pub const WARM_HITS_COUNTER: &str = "explore.warm_hits";
/// Counter accumulating prefix steps simulated by cold starts.
pub const PREFIX_STEPS_COUNTER: &str = "explore.prefix_steps";
/// Counter accumulating wall-clock nanoseconds spent inside sweeps.
pub(crate) const WALL_NS_COUNTER: &str = "explore.wall_ns";

/// Derives `n` independent trial seeds from one master seed.
///
/// This is the canonical seed-splitting idiom every sweep in the suite used
/// to hand-roll: one [`XorShift64Star`] splitter seeded with the master seed,
/// one [`XorShift64Star::split`] per trial, in trial order. Trial `i` gets
/// the same seed regardless of thread count or which worker evaluates it.
#[must_use]
pub fn split_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut splitter = XorShift64Star::new(seed);
    (0..n).map(|_| splitter.split().next_u64()).collect()
}

/// A deterministic parallel sweep: fan out, evaluate, merge in index order.
///
/// The engine guarantees that for a fixed trial count and evaluator, the
/// returned vector is bit-identical at any `threads` value: trials are
/// assigned to workers in contiguous index chunks and merged by index, and
/// any per-trial randomness must come from [`split_seeds`] (index-keyed), not
/// from worker identity.
#[derive(Clone, Copy)]
pub struct Sweep<'a> {
    threads: usize,
    metrics: Option<&'a MetricsRegistry>,
}

impl<'a> Sweep<'a> {
    /// Creates a sweep that fans out over at most `threads` workers.
    ///
    /// `threads` is clamped to `1..=trials` at run time, so `0` means
    /// serial and oversubscription is harmless.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Sweep {
            threads,
            metrics: None,
        }
    }

    /// Attaches a metrics registry receiving `explore.trials` and
    /// `explore.wall_ns`.
    #[must_use]
    pub fn metrics(mut self, metrics: &'a MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Evaluates trials `0..n` and returns their results in index order.
    pub fn run<R, F>(&self, n: usize, eval: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_inner(n, || Ok(()), |(), idx| eval(idx), None)
    }

    /// Evaluates trials in index order, stopping early once a trial
    /// satisfies `stop`.
    ///
    /// Returns the results for trials `0..=s` where `s` is the **smallest**
    /// index whose result satisfies the predicate (or all `n` results if none
    /// does). Workers race ahead speculatively, but the cut is taken at the
    /// minimum satisfying index, so the returned vector is bit-identical at
    /// any thread count: every trial at or below the cut is always evaluated,
    /// and everything above it is discarded.
    pub fn run_until<R, F, P>(&self, n: usize, eval: F, stop: P) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        P: Fn(&R) -> bool + Sync,
    {
        self.run_inner(n, || Ok(()), |(), idx| eval(idx), Some(&stop))
    }

    /// Evaluates trials with per-worker mutable state (e.g. a [`Platform`]
    /// rewound between trials).
    ///
    /// Each worker chunk lazily calls `init` before its first trial and
    /// reuses the state for the rest of the chunk. If `init` fails, its error
    /// result is emitted for the current trial and the next trial retries the
    /// initialisation. For bit-identical output at any thread count the
    /// evaluator must leave the state equivalent for every trial — rewind it
    /// from a [`Prefix`] rather than accumulating across trials.
    pub fn run_stateful<S, R, I, F>(&self, n: usize, init: I, eval: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> Result<S, R> + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        self.run_inner(n, init, eval, None)
    }

    #[allow(clippy::type_complexity)]
    fn run_inner<S, R, I, F>(
        &self,
        n: usize,
        init: I,
        eval: F,
        stop: Option<&(dyn Fn(&R) -> bool + Sync)>,
    ) -> Vec<R>
    where
        R: Send,
        I: Fn() -> Result<S, R> + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        let start = Instant::now();
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(n, || None);
        // Smallest index (so far) whose result satisfied the stop predicate.
        let stop_at = AtomicUsize::new(usize::MAX);
        let evaluated = AtomicU64::new(0);
        let threads = if n == 0 { 1 } else { self.threads.clamp(1, n) };

        let worker = |out_chunk: &mut [Option<R>], chunk_base: usize| {
            let mut state: Option<S> = None;
            for (off, out) in out_chunk.iter_mut().enumerate() {
                let idx = chunk_base + off;
                // Skip trials already known to lie past the cut. A skipped
                // index satisfies idx > stop_at-at-check >= final cut, so
                // every index at or below the final cut is always evaluated.
                if idx > stop_at.load(Ordering::Relaxed) {
                    continue;
                }
                if state.is_none() {
                    match init() {
                        Ok(s) => state = Some(s),
                        Err(poison) => {
                            evaluated.fetch_add(1, Ordering::Relaxed);
                            *out = Some(poison);
                            continue;
                        }
                    }
                }
                let r = eval(state.as_mut().expect("state initialised above"), idx);
                evaluated.fetch_add(1, Ordering::Relaxed);
                if let Some(pred) = stop {
                    if pred(&r) {
                        stop_at.fetch_min(idx, Ordering::Relaxed);
                    }
                }
                *out = Some(r);
            }
        };

        if threads == 1 {
            worker(&mut results, 0);
        } else {
            let per = n.div_ceil(threads);
            std::thread::scope(|scope| {
                for (chunk_idx, out_chunk) in results.chunks_mut(per).enumerate() {
                    let worker = &worker;
                    scope.spawn(move || worker(out_chunk, chunk_idx * per));
                }
            });
        }

        let cut = stop_at.load(Ordering::Relaxed);
        let mut merged = Vec::with_capacity(n);
        for (idx, slot) in results.into_iter().enumerate() {
            if idx > cut {
                break;
            }
            merged.push(slot.expect("trials at or below the stop cut are always evaluated"));
        }
        if let Some(m) = self.metrics {
            m.counter(TRIALS_COUNTER)
                .add(evaluated.load(Ordering::Relaxed));
            let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            m.counter(WALL_NS_COUNTER).add(elapsed);
        }
        merged
    }
}

impl std::fmt::Debug for Sweep<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("threads", &self.threads)
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

/// The platform factory of a cold prefix.
type BuildPlatform<'a> = &'a (dyn Fn() -> mpsoc_platform::Result<Platform> + Sync);

enum PrefixKind<'a> {
    /// Build a platform and step it `steps` times.
    Cold {
        build: BuildPlatform<'a>,
        steps: u64,
    },
    /// Hydrate from, and roll back to, a validated base image.
    Base(&'a BaseImage),
}

/// A reusable simulation prefix: how a sweep positions a [`Platform`] at the
/// region of interest before (and between) trials.
///
/// Two kinds: [`Prefix::cold`] rebuilds and re-steps, [`Prefix::base`]
/// restores a [`BaseImage`] captured there (the snapshot warm start and the
/// campaign rollback). A restore is bit-identical to having simulated the
/// prefix, so sweeps built on either give identical results.
pub struct Prefix<'a> {
    kind: PrefixKind<'a>,
    metrics: Option<&'a MetricsRegistry>,
}

impl<'a> Prefix<'a> {
    /// A prefix that calls `build` (which must be deterministic for cold and
    /// base prefixes to agree) and steps the platform `steps` times to reach
    /// the region of interest.
    #[must_use]
    pub fn cold(build: BuildPlatform<'a>, steps: u64) -> Self {
        Prefix {
            kind: PrefixKind::Cold { build, steps },
            metrics: None,
        }
    }

    /// A prefix backed by a decoded [`BaseImage`]: platforms are hydrated
    /// from it ([`BaseImage::hydrate`]) and rewound in place via
    /// [`Platform::reset_to_base`] (the O(dirty-state) delta fast path) —
    /// neither hashes or re-decodes the image the base validated. A caller
    /// holding image bytes builds the base once ([`BaseImage::new`]) and
    /// shares it with every worker.
    #[must_use]
    pub fn base(base: &'a BaseImage) -> Self {
        Prefix {
            kind: PrefixKind::Base(base),
            metrics: None,
        }
    }

    /// Attaches a metrics registry receiving `explore.warm_hits` and
    /// `explore.prefix_steps`.
    #[must_use]
    pub fn metrics(mut self, metrics: &'a MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    fn bump(&self, name: &str, amount: u64) {
        if let Some(m) = self.metrics {
            m.counter(name).add(amount);
        }
    }

    /// Produces a platform positioned at the region of interest.
    ///
    /// # Errors
    ///
    /// Whatever the platform factory, prefix simulation, or base hydration
    /// reports.
    pub fn materialize(&self) -> mpsoc_platform::Result<Platform> {
        match self.kind {
            PrefixKind::Cold { build, steps } => {
                let mut p = build()?;
                for _ in 0..steps {
                    p.step()?;
                }
                self.bump(PREFIX_STEPS_COUNTER, steps);
                Ok(p)
            }
            PrefixKind::Base(base) => {
                let p = base.hydrate()?;
                self.bump(WARM_HITS_COUNTER, 1);
                Ok(p)
            }
        }
    }

    /// Returns `platform` to the region of interest after a trial perturbed
    /// it: a base prefix rolls back in place
    /// ([`Platform::reset_to_base`]); a cold prefix has nothing to restore
    /// from and re-materializes from scratch.
    ///
    /// # Errors
    ///
    /// Whatever the underlying restore or rebuild reports.
    pub fn rewind(&self, platform: &mut Platform) -> mpsoc_platform::Result<()> {
        match self.kind {
            PrefixKind::Base(base) => {
                platform.reset_to_base(base)?;
                self.bump(WARM_HITS_COUNTER, 1);
            }
            PrefixKind::Cold { .. } => *platform = self.materialize()?,
        }
        Ok(())
    }

    /// Materializes the prefix and reads the `n` words at `addr..addr + n` —
    /// the measured profile every flow's re-costing step starts from.
    ///
    /// # Errors
    ///
    /// As [`materialize`](Prefix::materialize);
    /// [`mpsoc_platform::Error::UnmappedAddress`] for a word outside the
    /// platform's RAM windows, [`mpsoc_platform::Error::Config`] for a range
    /// running past the 32-bit address space.
    pub fn profile_words(&self, addr: u32, n: usize) -> mpsoc_platform::Result<Vec<Word>> {
        let end = u32::try_from(n)
            .ok()
            .and_then(|n| addr.checked_add(n))
            .ok_or_else(|| {
                mpsoc_platform::Error::Config(format!(
                    "{n} profile words at {addr:#x} run past the address space"
                ))
            })?;
        let platform = self.materialize()?;
        let mut words = Vec::with_capacity(n);
        for a in addr..end {
            words.push(platform.debug_read(a)?);
        }
        Ok(words)
    }
}

impl std::fmt::Debug for Prefix<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            PrefixKind::Cold { .. } => "Cold",
            PrefixKind::Base(_) => "Base",
        };
        f.debug_struct("Prefix")
            .field("kind", &kind)
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap deterministic evaluator: hash the trial seed through a few
    /// xorshift draws.
    fn score(seed: u64) -> u64 {
        let mut rng = XorShift64Star::new(seed);
        (0..8).map(|_| rng.next_u64() % 1000).sum()
    }

    #[test]
    fn split_seeds_matches_the_handrolled_idiom() {
        let mut splitter = XorShift64Star::new(0xFEED);
        let manual: Vec<u64> = (0..6).map(|_| splitter.split().next_u64()).collect();
        assert_eq!(split_seeds(0xFEED, 6), manual);
    }

    #[test]
    fn run_is_thread_count_invariant() {
        let seeds = split_seeds(42, 13);
        let baseline = Sweep::new(1).run(13, |i| score(seeds[i]));
        for threads in [2, 3, 4, 8, 64] {
            let got = Sweep::new(threads).run(13, |i| score(seeds[i]));
            assert_eq!(got, baseline, "threads={threads}");
        }
    }

    #[test]
    fn run_until_cuts_at_the_smallest_satisfying_index() {
        let seeds = split_seeds(7, 32);
        let serial = Sweep::new(1).run_until(32, |i| score(seeds[i]), |s| s % 5 == 0);
        let full = Sweep::new(1).run(32, |i| score(seeds[i]));
        let cut = full.iter().position(|s| s % 5 == 0);
        match cut {
            Some(c) => assert_eq!(serial, full[..=c]),
            None => assert_eq!(serial, full),
        }
        for threads in [2, 4, 8] {
            let got = Sweep::new(threads).run_until(32, |i| score(seeds[i]), |s| s % 5 == 0);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn run_until_without_a_hit_returns_everything() {
        let got = Sweep::new(4).run_until(9, |i| i as u64, |_| false);
        assert_eq!(got, (0..9).collect::<Vec<u64>>());
    }

    #[test]
    fn stateful_runs_are_thread_count_invariant() {
        // State is a counter the evaluator resets each trial, so reuse
        // across a chunk is observable only if the evaluator misbehaves.
        let baseline = Sweep::new(1).run_stateful(
            11,
            || Ok::<u64, u64>(100),
            |state, idx| {
                *state = 100;
                *state + idx as u64
            },
        );
        for threads in [2, 4, 8] {
            let got = Sweep::new(threads).run_stateful(
                11,
                || Ok::<u64, u64>(100),
                |state, idx| {
                    *state = 100;
                    *state + idx as u64
                },
            );
            assert_eq!(got, baseline, "threads={threads}");
        }
    }

    #[test]
    fn failed_init_poisons_the_trial_and_retries() {
        use std::sync::atomic::AtomicUsize;
        let attempts = AtomicUsize::new(0);
        let got = Sweep::new(1).run_stateful(
            3,
            || {
                if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    Err(u64::MAX)
                } else {
                    Ok(5u64)
                }
            },
            |state, idx| *state + idx as u64,
        );
        assert_eq!(got, vec![u64::MAX, 6, 7]);
    }

    #[test]
    fn zero_trials_is_fine() {
        let got: Vec<u64> = Sweep::new(8).run(0, |_| unreachable!("no trials"));
        assert!(got.is_empty());
    }

    #[test]
    fn metrics_count_evaluated_trials_and_wall_time() {
        let reg = MetricsRegistry::new();
        let _ = Sweep::new(2).metrics(&reg).run(10, |i| i);
        assert_eq!(reg.counter(TRIALS_COUNTER).get(), 10);
        // Wall time is monotonically accumulated; it may legitimately be 0ns
        // on a coarse clock, so only check the counter exists.
        let _ = reg.counter(WALL_NS_COUNTER).get();
    }
}
