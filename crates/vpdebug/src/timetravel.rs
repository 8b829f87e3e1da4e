//! Time-travel debugging: periodic checkpoints + deterministic replay.
//!
//! Nothing ever simulates backwards. The platform is a deterministic state
//! machine, so "go back one step" decomposes into two forward operations:
//! restore the nearest checkpoint at or before the target step, then
//! re-execute forward to land exactly on it. Section VII's non-intrusiveness
//! carries over — the simulated software cannot observe that its past was
//! re-executed, because the re-execution is bit-identical to the original.
//!
//! ## The delta ring
//!
//! The ring stores **one base image plus deltas**: the first checkpoint is
//! a full [`Platform::capture`](mpsoc_platform::Platform::capture) (which
//! also clears the RAM dirty bitmaps), and every later checkpoint is a
//! [`capture_delta`](mpsoc_platform::Platform::capture_delta) — only the
//! RAM pages written since the base, plus the small component states. A
//! checkpoint therefore costs O(dirty state), not O(memory), and a rewind
//! restores the base plus at most one delta.
//!
//! Retention is bounded by **bytes, not count** (a delta grows with the
//! pages written since the base, so a count bound says nothing about
//! memory): when the ring exceeds its byte budget the oldest delta is
//! popped, O(1), and the rewind horizon moves forward. The base image and the newest
//! checkpoint are never evicted — the base because every delta needs it,
//! the newest so the budget can never strand the debugger without a recent
//! rewind target. Attach a metrics registry ([`Debugger::attach_metrics`])
//! to watch occupancy on the `vpdebug.ring_bytes` gauge.
//!
//! A step does not search the ring to learn that no checkpoint is due: the
//! last search left the step before which none can be (the nearest
//! checkpoint at or below the current step, plus the interval), and until
//! that step is reached [`Debugger::step`] compares one integer. The rule
//! is still "the nearest checkpoint at or below this step is at least
//! `interval` steps old"; the bound is forgotten by everything that could
//! make it lie — a rewind, a by-hand restore behind
//! [`Debugger::platform_mut`], dropped checkpoints, a fresh ring.
//!
//! What a checkpoint and a rewind cost is the platform's side of the story
//! (`mpsoc_platform::snapshot`): a delta is sealed with a word-wise frame
//! checksum, and a restore decodes into the state the previous restore
//! replaced, so stepping back and forth over one base allocates next to
//! nothing.
//!
//! A step-back replays forward from the nearest state it can: the
//! checkpoint at or before the target, or — nearer, when it may be used —
//! the state the previous rewind left the user on. A rewind never
//! overwrites the state it leaves: it swaps it out and parks it inside the
//! platform ([`Platform::swap_parked`]), and the next rewind swaps it back
//! in and replays from there when it lies on the current timeline, at or
//! before both the target and the user's step, and no earlier than the
//! nearest checkpoint at or before the target. Otherwise the checkpoint
//! is restored into the swapped-in state's buffers, and replayed from.
//! "Overshoot, then step back" — a few steps forward, one back, again and
//! again — therefore replays the few steps since the last step-back
//! instead of half an interval (127.5 steps on average at
//! `monitor time-travel 256 64`), with no restore, copy or allocation: on
//! car_radio a step-back went from ~20 µs to under 1. The parked state is
//! forgotten — its buffers kept, for the next restore to fill — by
//! everything that may take it off the current timeline or make it differ
//! from a replay onto its step: an injection, a change behind
//! [`Debugger::platform_mut`], a change of stop conditions, a fresh ring.
//! The state the user stands on at such a change was reached before it
//! too, so the next rewind parks it as unusable. A session's first
//! step-back swaps with an empty parked state and rebuilds its memory,
//! O(memory) once.
//!
//! Step-backs in a row, like a repeated GDB `reverse-stepi`, find the park
//! ahead of the target and keep the checkpoint's cost: one restore plus
//! the replay from the checkpoint. The checkpoint a step-back needs
//! changes only once every `interval` steps back, so they mostly restore
//! the delta the previous one restored — and the platform remembers the
//! decoded form of the last delta or base it restored and reinstalls it
//! for the same bytes, without hashing or decoding them (about 3 µs on
//! car_radio where a decode is about 20), which leaves the replay the
//! larger part.
//!
//! Each checkpoint also carries the host-side debugger state that must
//! rewind with it, O(signals) at most: the trace buffer's *position* (see
//! [`crate::trace`] for what history survives a rewind), the signal-edge
//! bookkeeping, and the stimulus-log cursor (see [`crate::stimulus`]) — so
//! replay re-applies recorded external injections exactly once, at the
//! steps they originally happened. The parked state carries the same
//! state for its step, and a rewind swaps it with the debugger's.
//!
//! [`Platform::swap_parked`]: mpsoc_platform::Platform::swap_parked

use mpsoc_platform::isa::Word;
use mpsoc_platform::BaseImage;
use std::collections::VecDeque;

use crate::debugger::{Debugger, Stop};
use crate::error::{Error, Result};

/// One checkpoint: the platform image (the ring's base, or a delta against
/// it) plus the debugger-side state that must travel with it.
#[derive(Clone, Debug)]
pub(crate) struct Checkpoint {
    /// Platform step count at capture time (the checkpoint sits *before*
    /// the step with this index executes).
    pub(crate) step: u64,
    /// Platform state as a delta against [`TimeTravel::base`]; `None` for
    /// the base checkpoint, whose state is the base image itself.
    pub(crate) delta: Option<Vec<u8>>,
    /// Trace-buffer position as of the checkpoint
    /// ([`TraceBuffer::position`](crate::trace::TraceBuffer)).
    pub(crate) trace_pos: u64,
    /// Signal-edge bookkeeping as of the checkpoint: last-seen values by
    /// signal id, one flat copy.
    pub(crate) prev_signals: Vec<Word>,
    /// Stimulus-log cursor as of the checkpoint (records applied so far).
    pub(crate) stim_applied: usize,
}

impl Checkpoint {
    /// Ring bytes this checkpoint owns (the base image is counted apart).
    fn delta_bytes(&self) -> usize {
        self.delta.as_ref().map_or(0, Vec::len)
    }
}

/// The platform state the last rewind swapped out — parked inside the
/// platform ([`Platform::swap_parked`]) — with the debugger-side state a
/// [`Checkpoint`] carries for its step.
///
/// [`Platform::swap_parked`]: mpsoc_platform::Platform::swap_parked
#[derive(Debug, Default)]
pub(crate) struct Park {
    /// The parked state's step count while it lies on the current timeline,
    /// so that a rewind may replay from it; `None` before the first rewind
    /// and after anything that may have moved it off
    /// ([`TimeTravel::forget_park`]).
    pub(crate) step: Option<u64>,
    /// As [`Checkpoint::trace_pos`].
    trace_pos: u64,
    /// As [`Checkpoint::prev_signals`].
    prev_signals: Vec<Word>,
    /// As [`Checkpoint::stim_applied`].
    stim_applied: usize,
}

/// Auto-checkpoint configuration and storage, owned by a [`Debugger`] once
/// [`Debugger::enable_time_travel`] is called.
#[derive(Debug)]
pub(crate) struct TimeTravel {
    /// Steps between auto-checkpoints.
    pub(crate) interval: u64,
    /// Maximum retained checkpoint bytes (oldest delta evicted first; the
    /// base and the newest checkpoint are exempt).
    pub(crate) budget_bytes: usize,
    /// The full image every delta is relative to.
    pub(crate) base: BaseImage,
    /// The base checkpoint (`delta` is `None`): the oldest rewind target.
    pub(crate) base_checkpoint: Checkpoint,
    /// Delta checkpoints, sorted ascending by step.
    pub(crate) deltas: VecDeque<Checkpoint>,
    /// Bytes retained: the base ([`BaseImage::len_bytes`]) plus every delta
    /// in `deltas`.
    pub(crate) bytes: usize,
    /// No auto-checkpoint is due while the platform's step count is below
    /// this: what [`Debugger::auto_checkpoint`] learnt the last time it
    /// searched the ring, so that most steps compare one integer instead of
    /// searching. 0 — a bound that holds nothing back — whenever the ring
    /// or the step count may have changed under it (see
    /// [`forget_due_bound`](TimeTravel::forget_due_bound)).
    pub(crate) not_due_before: u64,
    /// The state the last rewind left behind.
    pub(crate) park: Park,
    /// The live state may be off the current timeline, or unequal to a
    /// replay onto its step: set with [`forget_park`](TimeTravel::forget_park)
    /// and consumed by the next rewind, which then parks the state it
    /// leaves as unusable.
    live_off_timeline: bool,
}

/// A [`Checkpoint`] of `$dbg`'s debugger-side state around `$delta`. A macro:
/// it borrows field by field, so `time_travel` may be mutably held meanwhile.
macro_rules! checkpoint_now {
    ($dbg:expr, $delta:expr) => {
        Checkpoint {
            step: $dbg.platform.steps(),
            delta: $delta,
            trace_pos: $dbg.trace.position(),
            prev_signals: $dbg.prev_signals.clone(),
            stim_applied: $dbg.stim_cursor,
        }
    };
}

/// The newest checkpoint at or before `step` among the base checkpoint
/// and the deltas (sorted ascending by step).
fn nearest<'a>(
    base: &'a Checkpoint,
    deltas: &'a VecDeque<Checkpoint>,
    step: u64,
) -> Option<&'a Checkpoint> {
    let after = deltas.partition_point(|c| c.step <= step);
    match after.checked_sub(1) {
        Some(i) => deltas.get(i),
        None => Some(base).filter(|c| c.step <= step),
    }
}

impl TimeTravel {
    /// The retained checkpoints, oldest first.
    fn checkpoints(&self) -> impl Iterator<Item = &Checkpoint> {
        std::iter::once(&self.base_checkpoint).chain(&self.deltas)
    }

    /// The newest retained checkpoint at or before `step`.
    fn at_or_before(&self, step: u64) -> Option<&Checkpoint> {
        nearest(&self.base_checkpoint, &self.deltas, step)
    }

    /// Stops the next rewind from replaying from the parked state, and the
    /// one after it from replaying from the state the next rewind parks:
    /// for everything that may leave both off the current timeline, or
    /// unequal to a replay onto their step — an injection, a by-hand change
    /// behind [`Debugger::platform_mut`], a change of stop conditions. The
    /// live state was reached before the change, so it is no more usable
    /// than the parked one. The platform keeps the parked buffers, which
    /// the next rewind restores a checkpoint into.
    pub(crate) fn forget_park(&mut self) {
        self.park.step = None;
        self.live_off_timeline = true;
    }

    /// Forgets [`not_due_before`](TimeTravel::not_due_before), so the next
    /// step searches the ring again. For everything that can make a
    /// checkpoint due *earlier* than the bound says: the step count moving
    /// backwards (a rewind, a by-hand restore behind
    /// [`Debugger::platform_mut`]) or checkpoints being dropped
    /// ([`drop_checkpoints_after`](TimeTravel::drop_checkpoints_after)).
    /// Taking a checkpoint is not among them: one taken by hand is newer
    /// than the one the bound came from, one taken because it was due finds
    /// the bound already reached, and an eviction never pops the newest.
    pub(crate) fn forget_due_bound(&mut self) {
        self.not_due_before = 0;
    }

    /// Inserts a delta checkpoint in step order, then pops the oldest
    /// deltas until the ring is within budget or only the newest is left.
    fn push_delta(&mut self, cp: Checkpoint) {
        self.bytes += cp.delta_bytes();
        let pos = self.deltas.partition_point(|c| c.step < cp.step);
        self.deltas.insert(pos, cp);
        while self.bytes > self.budget_bytes && self.deltas.len() > 1 {
            if let Some(oldest) = self.deltas.pop_front() {
                self.bytes -= oldest.delta_bytes();
            }
        }
    }

    /// Drops checkpoints describing a future past `step` (they became lies
    /// when state at `step` was mutated). The base is always kept — without
    /// it no future delta is restorable.
    pub(crate) fn drop_checkpoints_after(&mut self, step: u64) {
        self.forget_due_bound();
        let keep = self.deltas.partition_point(|c| c.step <= step);
        for dropped in self.deltas.drain(keep..) {
            self.bytes -= dropped.delta_bytes();
        }
    }
}

impl Debugger {
    /// Enables time travel: a full-image base checkpoint is captured
    /// immediately, and from now on a *delta* auto-checkpoint is captured
    /// every `interval` steps. Retention is byte-bounded at
    /// `max_checkpoints` times the base's [`len_bytes`](BaseImage::len_bytes):
    /// its image plus eight bytes per RAM word, the platform's whole state,
    /// however sparse the base image. A delta carries the small state and
    /// the pages written since the base, so while deltas stay well below
    /// the whole state the ring holds the base and `max_checkpoints`
    /// deltas. Both parameters are clamped to at least 1. For direct
    /// control of the bound use
    /// [`enable_time_travel_bytes`](Debugger::enable_time_travel_bytes).
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] if the platform cannot be captured (a registered
    /// peripheral without snapshot support).
    pub fn enable_time_travel(&mut self, interval: u64, max_checkpoints: usize) -> Result<()> {
        let base = self.platform.capture_base()?;
        let budget = max_checkpoints.max(1).saturating_mul(base.len_bytes());
        self.install_time_travel(interval, budget, base);
        Ok(())
    }

    /// Enables time travel with an explicit byte budget for the checkpoint
    /// ring. The base image and the newest checkpoint are always retained,
    /// even when the budget is smaller than they are.
    ///
    /// # Errors
    ///
    /// As [`enable_time_travel`](Debugger::enable_time_travel).
    pub fn enable_time_travel_bytes(&mut self, interval: u64, budget_bytes: usize) -> Result<()> {
        let base = self.platform.capture_base()?;
        self.install_time_travel(interval, budget_bytes.max(1), base);
        Ok(())
    }

    fn install_time_travel(&mut self, interval: u64, budget_bytes: usize, base: BaseImage) {
        self.time_travel = Some(TimeTravel {
            interval: interval.max(1),
            budget_bytes,
            bytes: base.len_bytes(),
            base,
            base_checkpoint: checkpoint_now!(self, None),
            deltas: VecDeque::new(),
            not_due_before: 0,
            park: Park::default(),
            live_off_timeline: false,
        });
        self.update_ring_gauge();
    }

    /// The retained checkpoints, oldest first; none when time travel is off.
    fn retained(&self) -> impl Iterator<Item = &Checkpoint> {
        self.time_travel.iter().flat_map(TimeTravel::checkpoints)
    }

    /// The step indices of the currently retained checkpoints (ascending).
    /// Empty when time travel is disabled.
    pub fn checkpoint_steps(&self) -> Vec<u64> {
        self.retained().map(|c| c.step).collect()
    }

    /// Bytes currently held by the checkpoint ring (the base — its image and
    /// the RAM words decoded from it — plus deltas); 0 when time travel is
    /// disabled. Also reported on the
    /// `vpdebug.ring_bytes` gauge when a metrics registry is attached.
    pub fn ring_bytes(&self) -> usize {
        self.time_travel.as_ref().map_or(0, |tt| tt.bytes)
    }

    /// Captures a checkpoint now if one is due (called by
    /// [`step`](Debugger::step) before executing): time travel is on and the
    /// nearest checkpoint at or below the current step — replay must not
    /// duplicate one *at* it — is at least `interval` steps old.
    ///
    /// The ring is searched only when the step count reaches the bound the
    /// last search left: while steps only advance and no checkpoint leaves
    /// the ring, the nearest checkpoint at or below a later step is no
    /// older than the one found then, so nothing is due before it is
    /// `interval` steps old.
    pub(crate) fn auto_checkpoint(&mut self) -> Result<()> {
        let Some(tt) = &mut self.time_travel else {
            return Ok(());
        };
        let cur = self.platform.steps();
        if cur < tt.not_due_before {
            return Ok(());
        }
        let due_at = tt
            .at_or_before(cur)
            .map_or(0, |c| c.step.saturating_add(tt.interval));
        if cur < due_at {
            tt.not_due_before = due_at;
        } else {
            self.take_checkpoint()?;
        }
        Ok(())
    }

    /// Captures a delta checkpoint at the current step, keeping the deltas
    /// sorted and the ring within its byte budget.
    fn take_checkpoint(&mut self) -> Result<()> {
        let Some(tt) = &mut self.time_travel else {
            return Err(Error::TimeTravelDisabled);
        };
        let delta = self.platform.capture_delta().map_err(Error::from)?;
        tt.push_delta(checkpoint_now!(self, Some(delta)));
        self.update_ring_gauge();
        Ok(())
    }

    /// Captures a checkpoint at the current step on demand — the debugger
    /// front-end's `monitor checkpoint`. A no-op returning `Ok(false)` when
    /// a checkpoint already exists at this step; `Ok(true)` when one was
    /// captured.
    ///
    /// # Errors
    ///
    /// [`Error::TimeTravelDisabled`] when time travel is not enabled;
    /// [`Error::Platform`] if the platform cannot be captured.
    pub fn take_checkpoint_now(&mut self) -> Result<bool> {
        let cur = self.platform.steps();
        let fresh = !self.retained().any(|c| c.step == cur);
        if fresh {
            self.take_checkpoint()?;
        }
        Ok(fresh)
    }

    /// Travels to the state exactly after `target` platform steps,
    /// deterministically re-executing forward to it from one of two states:
    /// the one the previous rewind left the user on, parked in the
    /// platform, if it lies on the current timeline at or before both
    /// `target` and the current step, and no earlier than the nearest
    /// checkpoint at or before `target`; else that checkpoint (the base
    /// plus at most one delta), restored into the parked state's buffers.
    /// Either way the state the user stands on now is parked in its place
    /// ([`Platform::swap_parked`]).
    /// Returns `false` (platform untouched) when time travel is off or
    /// every retained checkpoint lies beyond `target`.
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] for an unrestorable image (never expected for
    /// images the debugger captured itself); the platform is then untouched.
    ///
    /// [`Platform::swap_parked`]: mpsoc_platform::Platform::swap_parked
    pub fn rewind_to_step(&mut self, target: u64) -> Result<bool> {
        let Some(tt) = &mut self.time_travel else {
            return Ok(false);
        };
        tt.forget_due_bound();
        let TimeTravel {
            base,
            base_checkpoint,
            deltas,
            park,
            live_off_timeline,
            ..
        } = tt;
        let Some(cp) = nearest(base_checkpoint, deltas, target) else {
            return Ok(false);
        };
        // The park must lie between the checkpoint and the target, and
        // behind the user too: from a park ahead of the user, history would
        // restart there.
        let here = self.platform.steps();
        let from_park = park
            .step
            .is_some_and(|at| at >= cp.step && at <= target.min(here));
        self.platform.swap_parked();
        if !from_park {
            let restored = match &cp.delta {
                None => self.platform.reset_to_base(base),
                Some(delta) => self.platform.restore_delta(base, delta),
            };
            if let Err(e) = restored {
                // A failed restore leaves the swapped-in state untouched:
                // swapping back undoes the rewind.
                self.platform.swap_parked();
                return Err(e.into());
            }
        }
        // The state swapped out is the new park, with its debugger side.
        let parked_pos = std::mem::replace(&mut park.trace_pos, self.trace.position());
        std::mem::swap(&mut park.prev_signals, &mut self.prev_signals);
        std::mem::swap(&mut park.stim_applied, &mut self.stim_cursor);
        park.step = (!std::mem::take(live_off_timeline)).then_some(here);
        if from_park {
            self.trace.rewind_to(parked_pos);
        } else {
            self.trace.rewind_to(cp.trace_pos);
            self.prev_signals.clone_from(&cp.prev_signals);
            self.stim_cursor = cp.stim_applied;
        }
        // The swap changed signals without regard to the edge counter.
        self.signals_seen = None;
        let replayed = target.saturating_sub(self.platform.steps());
        while self.platform.steps() < target {
            let _ = self.step_evaluated()?;
        }
        if let Some(m) = &self.metrics {
            m.replayed_steps.add(replayed);
            match from_park {
                true => m.rewinds_from_park.inc(),
                false => m.rewinds_from_checkpoint.inc(),
            }
        }
        Ok(true)
    }

    /// Moves one step into the past: after this the platform is in the
    /// exact state it had before the most recent [`step`](Debugger::step) —
    /// registers, memories, peripheral state, trace, and simulated time all
    /// rewound. Returns `false` if already at step 0 or the rewind horizon
    /// has moved past the previous step.
    ///
    /// # Errors
    ///
    /// As [`rewind_to_step`](Debugger::rewind_to_step).
    pub fn step_back(&mut self) -> Result<bool> {
        let cur = self.platform.steps();
        if cur == 0 {
            return Ok(false);
        }
        self.rewind_to_step(cur - 1)
    }

    /// Runs *backwards* until the previous stop condition: finds the last
    /// breakpoint/watchpoint/fault hit strictly before the current step and
    /// lands on it. Returns `Ok(None)` — with the platform back in its
    /// starting state — when no earlier stop exists within the rewind
    /// horizon.
    ///
    /// Implemented as two deterministic forward passes: replay from the
    /// earliest checkpoint noting the last stop before the current step,
    /// then rewind onto it.
    ///
    /// # Errors
    ///
    /// As [`rewind_to_step`](Debugger::rewind_to_step).
    pub fn reverse_continue(&mut self) -> Result<Option<Stop>> {
        let cur = self.platform.steps();
        let Some(first) = self.retained().next().map(|c| c.step) else {
            return Ok(None);
        };
        if first >= cur || !self.rewind_to_step(first)? {
            return Ok(None);
        }
        let mut last: Option<(u64, Stop)> = None;
        while self.platform.steps() < cur {
            let stop = self.step_evaluated()?;
            let at = self.platform.steps();
            if at >= cur {
                break; // the stop at `cur` is where the user already stands
            }
            match stop {
                Some(Stop::Finished) | Some(Stop::Budget) | None => {}
                Some(s) => last = Some((at, s)),
            }
        }
        // With no earlier stop, pass 1 already replayed back to `cur`.
        if let Some((at, _)) = &last {
            self.rewind_to_step(*at)?;
        }
        Ok(last.map(|(_, stop)| stop))
    }
}

#[cfg(test)]
mod tests {
    use super::Checkpoint;
    use crate::debugger::{Debugger, Stop, Watchpoint};
    use mpsoc_platform::isa::{assemble, Reg};
    use mpsoc_platform::platform::{AccessKind, PlatformBuilder};
    use mpsoc_platform::Frequency;

    fn debugger() -> Debugger {
        let mut p = PlatformBuilder::new()
            .cores(2, Frequency::mhz(100))
            .shared_words(1024)
            .cache(None)
            .build()
            .unwrap();
        let prog = assemble(
            "movi r1, 0\nmovi r3, 40\nloop: addi r1, r1, 1\n\
             movi r2, 0x80\nst r1, r2, 0\nblt r1, r3, loop\nhalt",
        )
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        Debugger::new(p)
    }

    #[test]
    fn step_back_lands_on_exact_prior_state() {
        let mut dbg = debugger();
        dbg.enable_time_travel(7, 64).unwrap();
        // Forward reference: record the state checksum after every step.
        let mut checksums = vec![dbg.platform().state_checksum()];
        for _ in 0..30 {
            dbg.step().unwrap();
            checksums.push(dbg.platform().state_checksum());
        }
        // Walk backwards, comparing against the forward recording.
        for back in 1..=10 {
            assert!(dbg.step_back().unwrap(), "step_back #{back}");
            let steps = dbg.platform().steps() as usize;
            assert_eq!(steps, 30 - back);
            assert_eq!(
                dbg.platform().state_checksum(),
                checksums[steps],
                "state after rewinding to step {steps} must match forward run"
            );
        }
        // And forward again: the future re-executes identically.
        for _ in 0..10 {
            dbg.step().unwrap();
        }
        assert_eq!(dbg.platform().state_checksum(), checksums[30]);
    }

    #[test]
    fn step_back_at_origin_refuses() {
        let mut dbg = debugger();
        dbg.enable_time_travel(5, 8).unwrap();
        assert!(!dbg.step_back().unwrap());
    }

    #[test]
    fn reverse_continue_finds_previous_watchpoint() {
        let mut dbg = debugger();
        dbg.enable_time_travel(5, 64).unwrap();
        dbg.add_watchpoint(Watchpoint::Access {
            lo: 0x80,
            hi: 0x80,
            kind: Some(AccessKind::Write),
            origin: crate::debugger::OriginFilter::Any,
        });
        // Run to the third watchpoint hit.
        let mut hits = Vec::new();
        for _ in 0..3 {
            match dbg.run(10_000).unwrap() {
                Stop::Watchpoint { access, .. } => {
                    hits.push((dbg.platform().steps(), access.unwrap().value));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // reverse-continue: back onto hit #2, then hit #1.
        let stop = dbg.reverse_continue().unwrap().expect("previous stop");
        assert!(matches!(stop, Stop::Watchpoint { .. }));
        assert_eq!(dbg.platform().steps(), hits[1].0);
        assert_eq!(dbg.read_mem(0x80).unwrap(), hits[1].1);
        let stop = dbg.reverse_continue().unwrap().expect("previous stop");
        assert!(matches!(stop, Stop::Watchpoint { .. }));
        assert_eq!(dbg.platform().steps(), hits[0].0);
        assert_eq!(dbg.read_mem(0x80).unwrap(), hits[0].1);
        // No stop before the first hit: state must be preserved.
        let before = dbg.platform().state_checksum();
        assert!(dbg.reverse_continue().unwrap().is_none());
        assert_eq!(dbg.platform().state_checksum(), before);
    }

    #[test]
    fn checkpoint_ring_is_byte_bounded() {
        let mut dbg = debugger();
        // Budget for the base plus roughly two deltas: measure one delta
        // by enabling with a huge budget first.
        dbg.enable_time_travel(3, usize::MAX).unwrap();
        let base_bytes = dbg.ring_bytes();
        let at_base = dbg.platform().capture_delta().unwrap().len();
        for _ in 0..6 {
            dbg.step().unwrap();
        }
        let with_one = dbg.ring_bytes();
        let delta_bytes = with_one - base_bytes;
        assert!(delta_bytes > 0, "a delta checkpoint was captured");
        // The program stores to one word, 0x80: a delta is what one taken
        // at its base costs plus at most one raw page.
        assert!(
            delta_bytes <= at_base + 8 + 8 * 64,
            "delta ({delta_bytes}B) exceeds the small state ({at_base}B) and one page"
        );

        // Re-run with a budget of base + 2.5 deltas: the ring must stay
        // within budget by evicting oldest deltas, never the base.
        let mut dbg = debugger();
        let budget = base_bytes + delta_bytes * 5 / 2;
        dbg.enable_time_travel_bytes(3, budget).unwrap();
        for _ in 0..40 {
            dbg.step().unwrap();
        }
        assert!(
            dbg.ring_bytes() <= budget,
            "ring {}B exceeds budget {budget}B",
            dbg.ring_bytes()
        );
        let steps = dbg.checkpoint_steps();
        assert!(steps.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(steps[0], 0, "the base checkpoint is never evicted");
        assert!(steps.len() >= 2, "newest checkpoint retained: {steps:?}");
        // Rewinding to an evicted step snaps to the nearest retained
        // checkpoint at or before it — including the base.
        assert!(dbg.rewind_to_step(1).unwrap());
        assert_eq!(dbg.platform().steps(), 1);
    }

    /// One core storing at a stride for ever: it dirties one page after
    /// another, so deltas grow with the step count.
    fn strided_store_debugger() -> Debugger {
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(1024)
            .local_words(64)
            .cache(None)
            .build()
            .unwrap();
        let prog = assemble(
            "movi r3, 0x3ff\nloop: addi r1, r1, 7\nand r2, r1, r3\n\
             st r1, r2, 0\njmp loop",
        )
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        Debugger::new(p)
    }

    #[test]
    fn the_rewind_horizon_is_max_checkpoints_deltas() {
        // `monitor time-travel I M` keeps the base and M deltas. The strided
        // store's RAM is all zeros at the base, so its base image is only
        // the small state, and its deltas soon outgrow it: a budget of M
        // base images would evict them. Counted with its RAM words, the base
        // still bounds every delta here.
        const I: u64 = 50;
        const M: u64 = 8;
        let mut dbg = strided_store_debugger();
        dbg.enable_time_travel(I, M as usize).unwrap();
        for _ in 0..=M * I {
            dbg.step().unwrap();
        }
        let want: Vec<u64> = (0..=M).map(|k| k * I).collect();
        assert_eq!(dbg.checkpoint_steps(), want, "nothing evicted");
        let tt = dbg.time_travel.as_ref().unwrap();
        let newest = tt.deltas.back().map_or(0, Checkpoint::delta_bytes);
        assert!(
            tt.base.image().len() < newest && newest < tt.base.len_bytes(),
            "delta {newest}B, base image {}B, base {}B",
            tt.base.image().len(),
            tt.base.len_bytes()
        );
    }

    #[test]
    fn saturated_ring_evicts_oldest_deltas_and_still_rewinds_exactly() {
        // Deltas grow while a checkpoint per step keeps the ring evicting.
        let build = strided_store_debugger;
        const STEPS: u64 = 3000;
        // Size the budget from the first and the (largest) final delta of
        // the run: the base plus about eight final deltas.
        let mut probe = build();
        probe
            .enable_time_travel_bytes(u64::MAX, usize::MAX)
            .unwrap();
        let base_bytes = probe.ring_bytes();
        probe.step().unwrap();
        probe.take_checkpoint_now().unwrap();
        let first_delta = probe.ring_bytes() - base_bytes;
        for _ in 1..STEPS {
            probe.step().unwrap();
        }
        probe.take_checkpoint_now().unwrap();
        let last_delta = probe.ring_bytes() - base_bytes - first_delta;
        assert!(first_delta < last_delta, "deltas grow");
        let budget = base_bytes + last_delta * 17 / 2;

        let mut dbg = build();
        dbg.enable_time_travel_bytes(1, budget).unwrap();
        let mut checksums = vec![dbg.platform().state_checksum()];
        for done in 1..=STEPS {
            dbg.step().unwrap();
            checksums.push(dbg.platform().state_checksum());
            let tt = dbg.time_travel.as_ref().unwrap();
            let held: usize = tt.deltas.iter().map(Checkpoint::delta_bytes).sum();
            assert_eq!(dbg.ring_bytes(), base_bytes + held, "after {done} steps");
            assert!(dbg.ring_bytes() <= budget, "after {done} steps");
            let steps = dbg.checkpoint_steps();
            assert_eq!(steps[0], 0, "the base is never evicted");
            assert_eq!(steps.last(), Some(&(done - 1)), "the newest is retained");
            assert!(steps.windows(2).all(|w| w[0] < w[1]));
        }
        let retained = dbg.checkpoint_steps().len();
        assert!((8..=10).contains(&retained), "retained {retained}");
        // Back through every retained delta and past the horizon, where
        // only the base is left to replay from.
        for back in 1..=12 {
            assert!(dbg.step_back().unwrap(), "step_back #{back}");
            let at = dbg.platform().steps();
            assert_eq!(at, STEPS - back);
            assert_eq!(dbg.platform().state_checksum(), checksums[at as usize]);
        }
    }

    /// [`Debugger::step`] deciding as it did before it kept a bound: search
    /// the ring before every step. The reference the remembered bound is
    /// compared against.
    fn step_searching(dbg: &mut Debugger) -> Option<Stop> {
        if let Some(tt) = &dbg.time_travel {
            let cur = dbg.platform.steps();
            let due = tt
                .at_or_before(cur)
                .is_none_or(|c| cur >= c.step.saturating_add(tt.interval));
            if due {
                dbg.take_checkpoint().unwrap();
            }
        }
        dbg.step_evaluated().unwrap()
    }

    #[test]
    fn remembered_due_bound_takes_the_checkpoints_a_search_every_step_takes() {
        // Strided stores dirty one page after another, so deltas grow, with
        // a signal watchpoint armed so `run` stops early now and then. The
        // ring is enabled over and over with intervals and budgets from
        // "retains everything" down to "evicts all but the newest". A stale
        // bound shows where the ring evicts: after a rewind past the oldest
        // retained delta only the base is at or before the current step, a
        // checkpoint is due at once, and being early, hence small, it fits.
        let build = || {
            let mut dbg = strided_store_debugger();
            dbg.add_watchpoint(Watchpoint::Signal {
                name: "host.flag".into(),
                value: None,
            });
            dbg
        };
        let base_len = {
            let mut probe = build();
            probe.enable_time_travel_bytes(1, usize::MAX).unwrap();
            probe.ring_bytes()
        };
        // One operation on both debuggers — `reference` tells it which one
        // it has — then what must agree: the stop it reported, the retained
        // checkpoints, the ring's bytes, the step count (returned).
        type Op<'a> = &'a mut dyn FnMut(&mut Debugger, bool) -> Option<Stop>;
        fn both(new: &mut Debugger, old: &mut Debugger, op: Op<'_>) -> u64 {
            assert_eq!(op(new, false), op(old, true));
            assert_eq!(new.checkpoint_steps(), old.checkpoint_steps());
            assert_eq!(new.ring_bytes(), old.ring_bytes());
            assert_eq!(new.platform.steps(), old.platform.steps());
            new.platform.steps()
        }
        let searching = |d: &mut Debugger, reference: bool| match reference {
            true => step_searching(d),
            false => d.step().unwrap(),
        };

        // The rewind case by construction, since the draw below meets it
        // only by luck: a budget of two and a half late deltas leaves the
        // ring, 400 steps in, holding its newest two; a rewind to step 100
        // lands in the gap behind them, where the rule wants a checkpoint at
        // once — and an early delta is small enough to stay.
        let late_delta = {
            let mut probe = build();
            probe
                .enable_time_travel_bytes(u64::MAX, usize::MAX)
                .unwrap();
            assert_eq!(probe.run(400).unwrap(), Stop::Budget);
            probe.take_checkpoint_now().unwrap();
            probe.ring_bytes() - base_len
        };
        let (mut new, mut old) = (build(), build());
        both(&mut new, &mut old, &mut |d, _| {
            d.enable_time_travel_bytes(8, base_len + late_delta * 5 / 2)
                .unwrap();
            None
        });
        for _ in 0..400 {
            both(&mut new, &mut old, &mut |d, reference| {
                searching(d, reference)
            });
        }
        assert_eq!(old.checkpoint_steps(), [0, 384, 392]);
        both(&mut new, &mut old, &mut |d, _| {
            assert!(d.rewind_to_step(100).unwrap());
            None
        });
        both(&mut new, &mut old, &mut |d, reference| {
            searching(d, reference)
        });
        assert_eq!(old.checkpoint_steps(), [0, 100, 384, 392]);

        let mut rng = mpsoc_obs::XorShift64Star::new(0xD0E);
        for session in 0..24 {
            let (mut new, mut old) = (build(), build());
            let mut cur = 0;
            for _ in 0..150 {
                // Time travel goes on first; what else happens is drawn.
                let pick = match new.time_travel {
                    None => 99,
                    Some(_) => rng.u64_in(0, 99),
                };
                let arg = rng.u64_in(0, 40);
                let back_to = rng.u64_in(0, cur);
                let interval = [1, 2, 7, 16, u64::MAX][rng.usize_in(0, 4)];
                let budget = [1, base_len + 1500, base_len + 6000, usize::MAX][rng.usize_in(0, 3)];
                let mut quietly = |f: &mut dyn FnMut(&mut Debugger)| {
                    both(&mut new, &mut old, &mut |d, _| {
                        f(d);
                        None
                    })
                };
                cur = match pick {
                    0..=19 => both(&mut new, &mut old, &mut |d, reference| {
                        searching(d, reference)
                    }),
                    20..=49 => both(&mut new, &mut old, &mut |d, reference| match reference {
                        true => Some(
                            (0..arg)
                                .find_map(|_| step_searching(d))
                                .unwrap_or(Stop::Budget),
                        ),
                        false => Some(d.run(arg).unwrap()),
                    }),
                    50..=61 => quietly(&mut |d| assert!(d.step_back().is_ok())),
                    62..=75 => quietly(&mut |d| assert!(d.rewind_to_step(back_to).is_ok())),
                    76..=83 if session % 2 == 0 => quietly(&mut |d| match arg % 3 {
                        0 => d.inject_mem_poke(0x90, arg as i64).unwrap(),
                        1 => d.inject_signal_write("host.flag", arg as i64).unwrap(),
                        _ => d.inject_irq(0, 2).unwrap(),
                    }),
                    // By hand, behind the debugger's back: onto the ring's
                    // own base image, the one by-hand restore that leaves
                    // the deltas restorable. (In sessions of its own: it
                    // does not rewind the stimulus cursor, and an injection
                    // after it would log out of step order.)
                    76..=83 => quietly(&mut |d| {
                        if let Some(tt) = &d.time_travel {
                            let image = tt.base.image().to_vec();
                            d.platform_mut().restore_image(&image).unwrap();
                        }
                    }),
                    84..=93 => quietly(&mut |d| drop(d.take_checkpoint_now())),
                    _ => quietly(&mut |d| d.enable_time_travel_bytes(interval, budget).unwrap()),
                };
            }
        }
    }

    #[test]
    fn checkpoint_footprint_ignores_the_trace() {
        // A checkpoint is its image plus O(signals) of host state, whatever
        // the trace buffer's capacity or fill: it stores a position.
        let footprints = |capacity: usize| -> Vec<(u64, usize, u64, usize)> {
            let mut dbg = debugger();
            dbg.trace = crate::trace::TraceBuffer::new(capacity);
            dbg.enable_time_travel(5, 64).unwrap();
            for _ in 0..60 {
                dbg.step().unwrap();
            }
            let tt = dbg.time_travel.as_ref().unwrap();
            tt.checkpoints()
                .map(|c| {
                    let image = c.delta.as_ref().map_or(tt.base.len_bytes(), Vec::capacity);
                    (c.step, image, c.trace_pos, c.prev_signals.len())
                })
                .collect()
        };
        let small = footprints(4);
        assert_eq!(small.len(), 12);
        assert_eq!(small, footprints(1 << 16));
        assert!(small.iter().all(|&(step, _, pos, _)| pos == step));
        // No room for a trace buffer (ring + counters) beside the rest.
        assert!(std::mem::size_of::<Checkpoint>() <= 96);
    }

    #[test]
    fn taking_a_checkpoint_without_time_travel_is_an_error() {
        let mut dbg = debugger();
        assert_eq!(
            dbg.take_checkpoint_now(),
            Err(crate::Error::TimeTravelDisabled)
        );
        assert!(!dbg.rewind_to_step(0).unwrap());
    }

    #[test]
    fn ring_occupancy_reported_on_gauge() {
        let registry = mpsoc_obs::metrics::MetricsRegistry::new();
        let gauge = registry.gauge("vpdebug.ring_bytes");
        let mut dbg = debugger();
        dbg.attach_metrics(&registry);
        assert_eq!(gauge.get(), 0);
        dbg.enable_time_travel(3, 8).unwrap();
        assert_eq!(gauge.get(), dbg.ring_bytes() as u64);
        for _ in 0..12 {
            dbg.step().unwrap();
        }
        assert_eq!(gauge.get(), dbg.ring_bytes() as u64);
        assert!(gauge.high_water() >= gauge.get());
    }

    #[test]
    fn injected_stimuli_replay_through_rewind() {
        // An interrupt-free spin loop that banks r1 into memory forever;
        // stimuli perturb it from outside.
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(256)
            .cache(None)
            .build()
            .unwrap();
        let mb = p.add_mailbox("host_mb", 8);
        let prog =
            assemble("movi r1, 0\nloop: addi r1, r1, 1\nmovi r2, 0x20\nst r1, r2, 0\njmp loop")
                .unwrap();
        p.load_program(0, prog, 0).unwrap();
        let mut dbg = Debugger::new(p);
        dbg.enable_time_travel(4, 64).unwrap();
        for _ in 0..10 {
            dbg.step().unwrap();
        }
        // Inject: a mailbox push and a signal write at step 10.
        dbg.inject_mailbox_push(mb, 77).unwrap();
        dbg.inject_signal_write("host.flag", 5).unwrap();
        for _ in 0..10 {
            dbg.step().unwrap();
        }
        let end_checksum = dbg.platform().state_checksum();
        let end_sig = dbg.signal("host.flag");
        let end_mb = dbg.peripheral(mb).unwrap();
        // Rewind to before the injections, replay forward across them.
        assert!(dbg.rewind_to_step(5).unwrap());
        assert_eq!(dbg.signal("host.flag"), 0, "rewound before the stimulus");
        for _ in 0..15 {
            dbg.step().unwrap();
        }
        assert_eq!(dbg.platform().state_checksum(), end_checksum);
        assert_eq!(dbg.signal("host.flag"), end_sig);
        assert_eq!(dbg.peripheral(mb).unwrap(), end_mb);
        // Rewind to *after* the injections: their effect is in the
        // checkpoint image and must not be applied twice.
        assert!(dbg.rewind_to_step(12).unwrap());
        for _ in 0..8 {
            dbg.step().unwrap();
        }
        assert_eq!(dbg.platform().state_checksum(), end_checksum);
        assert_eq!(dbg.peripheral(mb).unwrap(), end_mb);
    }

    #[test]
    fn every_stimulus_kind_replays_through_a_rewind() {
        // Record a session with one injection of each kind, rewind behind
        // all of them, and replay: identical end state.
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(256)
            .cache(None)
            .build()
            .unwrap();
        let mb = p.add_mailbox("host_mb", 8);
        let dma = p.add_dma("host_dma");
        p.load_shared(0x30, &[11, 22, 33, 44]).unwrap();
        let prog =
            assemble("movi r1, 0\nloop: addi r1, r1, 1\nmovi r2, 0x20\nst r1, r2, 0\njmp loop")
                .unwrap();
        p.load_program(0, prog, 0).unwrap();
        let mut dbg = Debugger::new(p);
        dbg.enable_time_travel(4, 64).unwrap();
        for _ in 0..6 {
            dbg.step().unwrap();
        }
        dbg.inject_mailbox_push(mb, 42).unwrap();
        dbg.inject_irq(0, 3).unwrap();
        for _ in 0..6 {
            dbg.step().unwrap();
        }
        dbg.inject_signal_write("door.open", 9).unwrap();
        dbg.inject_dma_descriptor(dma, 0x30, 0x50, 4).unwrap();
        dbg.inject_mem_poke(0x60, -5).unwrap();
        dbg.inject_reg_write(0, Some(Reg::new(1)), 1000).unwrap();
        dbg.inject_reg_write(0, None, 1).unwrap();
        for _ in 0..6 {
            dbg.step().unwrap();
        }
        assert_eq!(dbg.stimulus_log().len(), 7);
        let end = dbg.platform().state_checksum();
        let end_mb = dbg.peripheral(mb).unwrap();

        assert!(dbg.rewind_to_step(2).unwrap());
        for _ in 0..16 {
            dbg.step().unwrap();
        }
        assert_eq!(dbg.platform().state_checksum(), end);
        assert_eq!(dbg.peripheral(mb).unwrap(), end_mb);
        assert_eq!(dbg.read_mem(0x60).unwrap(), -5);
    }

    /// `dbg`'s rewinds by where they replayed from: `(park, checkpoint)`.
    fn rewinds(registry: &mpsoc_obs::metrics::MetricsRegistry) -> (u64, u64) {
        let count = |name: &str| registry.counter(name).get();
        (
            count("vpdebug.rewinds_from_park"),
            count("vpdebug.rewinds_from_checkpoint"),
        )
    }

    #[test]
    fn step_backs_after_steps_forward_replay_from_the_park_exactly() {
        let registry = mpsoc_obs::metrics::MetricsRegistry::new();
        let mut dbg = debugger();
        dbg.attach_metrics(&registry);
        dbg.enable_time_travel(1000, 8).unwrap();
        let mut checksums = vec![dbg.platform().state_checksum()];
        // One step forward, recording the state it reached.
        let record = |dbg: &mut Debugger, checksums: &mut Vec<u64>| {
            dbg.step().unwrap();
            checksums.truncate(dbg.platform().steps() as usize);
            checksums.push(dbg.platform().state_checksum());
        };
        for _ in 0..40 {
            record(&mut dbg, &mut checksums);
        }
        // The first step-back has no park to replay from; each later one
        // replays from the state the previous one left, three steps back.
        for round in 0..20 {
            for _ in 0..4 {
                record(&mut dbg, &mut checksums);
            }
            assert!(dbg.step_back().unwrap());
            let at = dbg.platform().steps() as usize;
            assert_eq!(at, 40 + 3 * (round + 1));
            assert_eq!(dbg.platform().state_checksum(), checksums[at]);
        }
        assert_eq!(rewinds(&registry), (19, 1));
        let replayed = registry.counter("vpdebug.rewind_replayed_steps").get();
        assert_eq!(replayed, 43 + 19 * 2, "43 from the base, then 2 each");
        // One step forward and one back: the park is the target's next
        // step, one too far.
        for _ in 0..3 {
            record(&mut dbg, &mut checksums);
            assert!(dbg.step_back().unwrap());
            assert_eq!(dbg.platform().steps(), 100);
            assert_eq!(dbg.platform().state_checksum(), checksums[100]);
        }
        assert_eq!(rewinds(&registry), (19, 4));
        // Twice back in a row: the park is ahead of the second target.
        assert!(dbg.step_back().unwrap());
        assert!(dbg.step_back().unwrap());
        let at = dbg.platform().steps() as usize;
        assert_eq!(dbg.platform().state_checksum(), checksums[at]);
        assert_eq!(rewinds(&registry), (19, 6));
    }

    #[test]
    fn a_change_behind_platform_mut_is_not_undone_by_the_park() {
        let registry = mpsoc_obs::metrics::MetricsRegistry::new();
        let mut dbg = debugger();
        dbg.attach_metrics(&registry);
        dbg.enable_time_travel(64, 8).unwrap();
        dbg.run(30).unwrap();
        // Parks step 30, then a write by hand at step 29, kept by a
        // checkpoint taken there.
        assert!(dbg.step_back().unwrap());
        dbg.platform_mut().debug_write(0x90, 1234).unwrap();
        assert!(dbg.take_checkpoint_now().unwrap());
        dbg.step().unwrap();
        let at_30 = dbg.platform().state_checksum();
        dbg.step().unwrap();
        // Back to 30: the parked step-30 state never saw the write; a
        // replay from the checkpoint at 29 does.
        assert!(dbg.step_back().unwrap());
        assert_eq!(dbg.platform().steps(), 30);
        assert_eq!(dbg.read_mem(0x90).unwrap(), 1234);
        assert_eq!(dbg.platform().state_checksum(), at_30);
        assert_eq!(rewinds(&registry), (0, 2));
    }

    #[test]
    fn a_change_behind_platform_mut_is_not_redone_by_the_park() {
        let mut dbg = debugger();
        dbg.enable_time_travel(64, 8).unwrap();
        dbg.run(30).unwrap();
        // A write by hand at step 30 that no checkpoint keeps: the
        // step-back to 30 replays from the base and undoes it, and parks
        // the step-31 state, which has it.
        dbg.platform_mut().debug_write(0x90, 1234).unwrap();
        dbg.step().unwrap();
        assert!(dbg.step_back().unwrap());
        assert_eq!(dbg.read_mem(0x90).unwrap(), 0);
        let mut checksums = Vec::new();
        for _ in 0..4 {
            dbg.step().unwrap();
            checksums.push(dbg.platform().state_checksum());
        }
        // Back to 33: the undone write must not come back from the park.
        assert!(dbg.step_back().unwrap());
        assert_eq!(dbg.platform().steps(), 33);
        assert_eq!(dbg.read_mem(0x90).unwrap(), 0);
        assert_eq!(dbg.platform().state_checksum(), checksums[2]);
    }

    #[test]
    fn an_injection_is_not_undone_by_the_park() {
        let mut dbg = debugger();
        dbg.enable_time_travel(64, 8).unwrap();
        dbg.run(30).unwrap();
        assert!(dbg.step_back().unwrap()); // parks step 30
        dbg.inject_mem_poke(0x90, 77).unwrap();
        dbg.step().unwrap();
        let at_30 = dbg.platform().state_checksum();
        dbg.step().unwrap();
        assert!(dbg.step_back().unwrap());
        assert_eq!(dbg.read_mem(0x90).unwrap(), 77);
        assert_eq!(dbg.platform().state_checksum(), at_30);
    }

    /// A debugger over a core that pushes into a mailbox and pops it
    /// again, so the mailbox's `avail` signal rises in the very step of the
    /// store; with time travel on and two watchpoints: one on that store
    /// (index 0), one on `avail`. Returns it stopped by the store.
    fn stopped_on_a_mailbox_store() -> Debugger {
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(256)
            .cache(None)
            .build()
            .unwrap();
        let mb = p.add_mailbox("mb", 4);
        let data = mpsoc_platform::mem::periph_addr(mb, mpsoc_platform::periph::mailbox_reg::DATA);
        let prog = assemble(&format!(
            "movi r4, {data}\nloop: addi r1, r1, 1\nst r1, r4, 0\n\
             addi r5, r5, 1\nld r2, r4, 0\njmp loop"
        ))
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        let mut dbg = Debugger::new(p);
        dbg.enable_time_travel(1000, 8).unwrap();
        dbg.add_watchpoint(Watchpoint::Access {
            lo: data,
            hi: data,
            kind: Some(AccessKind::Write),
            origin: crate::debugger::OriginFilter::Any,
        });
        dbg.add_watchpoint(avail());
        assert!(matches!(
            dbg.run(100).unwrap(),
            Stop::Watchpoint { index: 0, .. }
        ));
        assert_eq!(dbg.signal("mb.avail"), 1);
        dbg
    }

    fn avail() -> Watchpoint {
        Watchpoint::Signal {
            name: "mb.avail".into(),
            value: None,
        }
    }

    /// The `avail` watchpoint alone, as index 0, reporting the edge.
    const AVAIL_EDGE: Stop = Stop::Watchpoint {
        index: 0,
        access: None,
    };

    #[test]
    fn new_stop_conditions_are_not_undone_by_the_park() {
        // The store stops the run before the signal bookkeeping, so the
        // state parked by the step-back has not seen `avail` rise.
        let mut dbg = stopped_on_a_mailbox_store();
        let k = dbg.platform().steps();
        assert!(dbg.step_back().unwrap());
        // Without the access watchpoint, stepping over the store reports
        // the edge at once, and the step after it is quiet.
        dbg.clear_conditions();
        dbg.add_watchpoint(avail());
        assert_eq!(dbg.run(1).unwrap(), AVAIL_EDGE);
        assert_eq!(dbg.run(1).unwrap(), Stop::Budget);
        // Back onto the store and over it again: still quiet, as a replay
        // under these conditions has it.
        assert!(dbg.rewind_to_step(k).unwrap());
        assert_eq!(dbg.run(1).unwrap(), Stop::Budget);
    }

    #[test]
    fn a_state_reached_under_old_stop_conditions_is_not_parked_as_usable() {
        // The conditions change while the user stands on the store, whose
        // signal bookkeeping the stop skipped; the step-back parks that
        // state.
        let mut dbg = stopped_on_a_mailbox_store();
        let k = dbg.platform().steps();
        dbg.clear_conditions();
        dbg.add_watchpoint(avail());
        assert!(dbg.step_back().unwrap());
        assert_eq!(dbg.run(1).unwrap(), AVAIL_EDGE);
        assert_eq!(dbg.run(1).unwrap(), Stop::Budget);
        // Back onto the store and over it again: quiet, as a replay under
        // these conditions has it, not the stale edge of the parked state.
        assert!(dbg.step_back().unwrap());
        assert_eq!(dbg.platform().steps(), k);
        assert_eq!(dbg.run(1).unwrap(), Stop::Budget);
    }

    #[test]
    fn a_failed_restore_leaves_the_user_and_the_park_where_they_were() {
        let registry = mpsoc_obs::metrics::MetricsRegistry::new();
        let mut dbg = debugger();
        dbg.attach_metrics(&registry);
        dbg.enable_time_travel(8, 64).unwrap();
        dbg.run(29).unwrap();
        assert!(dbg.step_back().unwrap()); // from the checkpoint at 24
        dbg.step().unwrap();
        let at_29 = dbg.platform().state_checksum();
        dbg.step().unwrap();
        let at_30 = dbg.platform().state_checksum();
        // Corrupt the checkpoint at 24 (its frame checksum), then go back
        // to 26, before the park at 29: from that checkpoint, which fails.
        let flip = |dbg: &mut Debugger| {
            let tt = dbg.time_travel.as_mut().unwrap();
            let cp = tt.deltas.iter_mut().find(|c| c.step == 24).unwrap();
            let delta = cp.delta.as_mut().unwrap();
            let last = delta.len() - 1;
            delta[last] ^= 1;
        };
        flip(&mut dbg);
        assert!(dbg.rewind_to_step(26).is_err());
        assert_eq!(dbg.platform().steps(), 30);
        assert_eq!(dbg.platform().state_checksum(), at_30);
        assert_eq!(rewinds(&registry), (0, 1));
        // The park is still the step-29 state, and still replayed from.
        flip(&mut dbg);
        assert!(dbg.step_back().unwrap());
        assert_eq!(dbg.platform().state_checksum(), at_29);
        assert_eq!(rewinds(&registry), (1, 1));
        dbg.step().unwrap();
        assert_eq!(dbg.platform().state_checksum(), at_30);
    }
}
