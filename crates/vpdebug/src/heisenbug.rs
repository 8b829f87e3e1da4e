//! The Heisenbug demonstration harness.
//!
//! Section VII: *"The so-called 'Heisenbug' is a prominent artefact of
//! intrusive debugging. Those kinds of bugs disappear as soon as debugging
//! is performed, since debugging can impact the sequence of operations
//! within an MPSoC. This is because debuggers typically cannot halt the
//! entire system. While the core under debug is stalled, other cores or
//! timers continue to operate."*
//!
//! The harness constructs the canonical race: two cores increment a shared
//! counter with non-atomic load/add/store sequences and no lock. It then
//! runs the same software under three debugging regimes:
//!
//! * [`DebugMode::Plain`] — no debugger: the race manifests as lost
//!   updates.
//! * [`DebugMode::NonIntrusiveSuspend`] — the virtual platform is
//!   suspended and resumed (simulation simply stops between steps): the
//!   result is **bit-identical** to the plain run, so the defect remains
//!   reproducible under debug.
//! * [`DebugMode::IntrusiveHalt`] — one core is halted while the rest of
//!   the system keeps running (the real-hardware JTAG model): the
//!   interleaving shifts and the lost-update count *changes* — the bug
//!   "moves" under the debugger.

use mpsoc_platform::isa::assemble;
use mpsoc_platform::platform::PlatformBuilder;
use mpsoc_platform::{Frequency, Platform};

use crate::debugger::{Debugger, Stop};
use crate::error::{Error, Result};

/// The shared-counter address used by the race scenario.
pub const COUNTER_ADDR: u32 = 0x40;

/// Debugging regime for [`run_race`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DebugMode {
    /// Free run, no debugger interference.
    Plain,
    /// Whole-platform suspend/resume every `every` steps (host-side pause;
    /// invisible to the simulated software).
    NonIntrusiveSuspend {
        /// Steps between suspensions.
        every: u64,
    },
    /// Halt `core` the first time it reaches `at_pc` (a breakpoint-style
    /// stall) for `for_steps` platform steps while the other core keeps
    /// running.
    IntrusiveHalt {
        /// The core the (intrusive) debugger stalls.
        core: usize,
        /// Stall when the core's program counter first equals this.
        at_pc: u32,
        /// How long the rest of the system runs meanwhile.
        for_steps: u64,
    },
}

/// Result of one race run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// Final value of the shared counter.
    pub final_value: i64,
    /// The value a race-free execution would produce.
    pub expected: i64,
    /// Lost updates (`expected - final_value`).
    pub lost_updates: i64,
}

/// Builds the racy two-core platform: each core increments the shared
/// counter `iters` times with an unprotected load/add/store.
///
/// # Errors
///
/// Propagates platform construction/assembly errors.
pub fn build_race_platform(iters: i64) -> Result<Platform> {
    let mut p = PlatformBuilder::new()
        .cores(2, Frequency::mhz(100))
        .shared_words(1024)
        .cache(None)
        .build()
        .map_err(Error::from)?;
    load_race_programs(&mut p, iters)?;
    Ok(p)
}

/// Loads the two racing increment loops onto cores 0 and 1 of `p`.
///
/// Split out of [`build_race_platform`] so declaratively described
/// platforms (a `.soc` replica of the race hardware) can run the identical
/// software image.
///
/// # Errors
///
/// Propagates assembly/load errors (e.g. fewer than two cores).
pub fn load_race_programs(p: &mut Platform, iters: i64) -> Result<()> {
    let prog = |seed: i64| {
        assemble(&format!(
            "movi r1, {COUNTER_ADDR}\n\
             movi r5, {iters}\n\
             movi r6, {seed}\n\
             loop: ld r2, r1, 0\n\
             addi r2, r2, 1\n\
             st r2, r1, 0\n\
             addi r5, r5, -1\n\
             bne r5, r0, loop\n\
             halt"
        ))
        .map_err(Error::from)
    };
    p.load_program(0, prog(0)?, 0).map_err(Error::from)?;
    p.load_program(1, prog(1)?, 0).map_err(Error::from)?;
    Ok(())
}

/// Runs the race scenario under the given debugging regime.
///
/// # Errors
///
/// [`Error::Platform`] on unexpected platform faults.
pub fn run_race(iters: i64, mode: DebugMode) -> Result<RaceReport> {
    let platform = build_race_platform(iters)?;
    let mut dbg = Debugger::new(platform);
    let mut steps = 0u64;
    let mut halted_at: Option<u64> = None;
    let mut halted_once = false;
    loop {
        match mode {
            DebugMode::IntrusiveHalt {
                core,
                at_pc,
                for_steps,
            } => {
                if !halted_once && halted_at.is_none() && dbg.core_regs(core)?.pc() == at_pc {
                    dbg.halt_core(core)?;
                    halted_at = Some(steps);
                    halted_once = true;
                }
                if let Some(h) = halted_at {
                    if steps == h + for_steps {
                        dbg.resume_core(core)?;
                        halted_at = None;
                    }
                }
            }
            DebugMode::NonIntrusiveSuspend { every } => {
                if every > 0 && steps.is_multiple_of(every) {
                    // The suspension: the host stops calling step() for a
                    // while. No simulated state changes, so there is
                    // nothing to do — which is precisely the point.
                }
            }
            DebugMode::Plain => {}
        }
        match dbg.step()? {
            Some(Stop::Finished) => {
                // If the rest of the system drained while a core was still
                // stalled by the intrusive debugger, release it and keep
                // going (the debugger user eventually resumes).
                if let (Some(_), DebugMode::IntrusiveHalt { core, .. }) = (halted_at, mode) {
                    dbg.resume_core(core)?;
                    halted_at = None;
                } else {
                    break;
                }
            }
            Some(Stop::Fault(msg)) => return Err(Error::Platform(msg)),
            Some(_) => {}
            None => {}
        }
        steps += 1;
        if steps > 10_000_000 {
            return Err(Error::Platform(
                "race scenario did not terminate".to_string(),
            ));
        }
    }
    let final_value = dbg.read_mem(COUNTER_ADDR)?;
    let expected = 2 * iters;
    Ok(RaceReport {
        final_value,
        expected,
        lost_updates: expected - final_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::debugger::{OriginFilter, Watchpoint};
    use mpsoc_platform::platform::AccessKind;

    const ITERS: i64 = 200;

    #[test]
    fn plain_run_manifests_lost_updates() {
        let r = run_race(ITERS, DebugMode::Plain).unwrap();
        assert!(r.lost_updates > 0, "expected lost updates, got {r:?}");
        assert!(r.final_value < r.expected);
    }

    #[test]
    fn non_intrusive_suspend_reproduces_exactly() {
        let plain = run_race(ITERS, DebugMode::Plain).unwrap();
        for every in [1, 7, 100] {
            let suspended = run_race(ITERS, DebugMode::NonIntrusiveSuspend { every }).unwrap();
            assert_eq!(
                suspended, plain,
                "VP suspension must be invisible (every={every})"
            );
        }
    }

    #[test]
    fn intrusive_halt_changes_the_bug() {
        let plain = run_race(ITERS, DebugMode::Plain).unwrap();
        // The debugger stalls core 1 at the loop head (pc 3 = the `ld`)
        // long enough for core 0 to finish alone.
        let intruded = run_race(
            ITERS,
            DebugMode::IntrusiveHalt {
                core: 1,
                at_pc: 3,
                for_steps: 10_000,
            },
        )
        .unwrap();
        assert_ne!(
            intruded.lost_updates, plain.lost_updates,
            "halting one core must perturb the interleaving"
        );
        // While core 1 was stalled, core 0 ran alone and lost nothing; core
        // 1 then ran essentially alone too. The defect all but vanishes
        // under the intrusive debugger — the Heisenbug.
        assert!(intruded.lost_updates < plain.lost_updates / 10);
    }

    #[test]
    fn watchpoint_localises_the_racing_writers() {
        // The structured process of Section VII, phase 3: locate the
        // symptom. A write watchpoint on the counter shows interleaved
        // writers within one read-modify-write window.
        let platform = build_race_platform(50).unwrap();
        let mut dbg = Debugger::new(platform);
        dbg.add_watchpoint(Watchpoint::Access {
            lo: COUNTER_ADDR,
            hi: COUNTER_ADDR,
            kind: Some(AccessKind::Write),
            origin: OriginFilter::Any,
        });
        let mut writers = Vec::new();
        for _ in 0..40 {
            match dbg.run(100_000).unwrap() {
                Stop::Watchpoint {
                    access: Some(a), ..
                } => writers.push(a.originator),
                Stop::Finished => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        let c0 = writers
            .iter()
            .filter(|o| matches!(o, mpsoc_platform::Originator::Core(0)))
            .count();
        let c1 = writers.len() - c0;
        assert!(c0 > 0 && c1 > 0, "both cores must be caught writing");
    }
}
