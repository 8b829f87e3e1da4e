//! Section VII scenario: hunting a Heisenbug with a virtual platform.
//!
//! Follows the paper's four-phase structured debugging process on a
//! two-core lost-update race: (1) trigger the defect, (2) reproduce it —
//! which intrusive debugging fails at and VP suspension nails —
//! (3) localise the symptom with a peripheral/memory access watchpoint,
//! (4) identify the root cause in the access trace, with a system-level
//! script assertion catching the invariant violation.
//!
//! ```text
//! cargo run --example heisenbug_hunt
//! ```

use mpsoc_suite::apps::testrunner::run_script;
use mpsoc_suite::platform::platform::AccessKind;
use mpsoc_suite::vpdebug::debugger::{Debugger, Stop, Watchpoint};
use mpsoc_suite::vpdebug::heisenbug::{build_race_platform, run_race, DebugMode, COUNTER_ADDR};
use mpsoc_suite::vpdebug::OriginFilter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Phase 1: trigger. 200 increments per core, no locking.
    let plain = run_race(200, DebugMode::Plain)?;
    println!(
        "phase 1 (trigger): expected {}, got {} — {} updates lost",
        plain.expected, plain.final_value, plain.lost_updates
    );

    // Phase 2: reproduce.
    let vp = run_race(200, DebugMode::NonIntrusiveSuspend { every: 10 })?;
    let jtag = run_race(
        200,
        DebugMode::IntrusiveHalt {
            core: 1,
            at_pc: 3,
            for_steps: 10_000,
        },
    )?;
    println!("phase 2 (reproduce):");
    println!(
        "  virtual platform suspend: {} lost (bit-identical to free run: {})",
        vp.lost_updates,
        vp == plain
    );
    println!(
        "  intrusive JTAG-style halt: {} lost — the bug walked away (Heisenbug)",
        jtag.lost_updates
    );

    // Phase 3: localise with a write watchpoint on the counter.
    let mut dbg = Debugger::new(build_race_platform(50)?);
    dbg.add_watchpoint(Watchpoint::Access {
        lo: COUNTER_ADDR,
        hi: COUNTER_ADDR,
        kind: Some(AccessKind::Write),
        origin: OriginFilter::Any,
    });
    let mut hits = 0;
    while hits < 12 {
        match dbg.run(1_000_000)? {
            Stop::Watchpoint { .. } => hits += 1,
            Stop::Finished => break,
            other => {
                println!("unexpected stop {other:?}");
                break;
            }
        }
    }
    println!("phase 3 (localise): watchpoint caught {hits} writes to the counter");

    // Phase 4: root cause from the trace history.
    let trace = dbg.trace().accesses_to(COUNTER_ADDR);
    let dup = trace.windows(2).find(|w| {
        w[0].kind == AccessKind::Write
            && w[1].kind == AccessKind::Write
            && w[0].value == w[1].value
            && w[0].originator != w[1].originator
    });
    match dup {
        Some(w) => println!(
            "phase 4 (root cause): {:?} and {:?} both wrote value {} — a lost update:\n  {:?}\n  {:?}",
            w[0].originator, w[1].originator, w[0].value, w[0], w[1]
        ),
        None => println!("phase 4: no duplicate-write window in the retained trace"),
    }

    // Bonus: the invariant checked without touching the software, by a
    // standing system-level assertion in a four-line test script.
    let verdict = run_script(
        "race_invariant",
        "platform race\nassert counter_bounded mem(0x40) <= 400\nrun\nexpect stop exited\n",
    );
    if !verdict.passed() {
        return Err(verdict.failures.join("; ").into());
    }
    println!(
        "script assertion held after every step (counter <= 400: the race *loses* updates, never gains)",
    );

    Ok(())
}
