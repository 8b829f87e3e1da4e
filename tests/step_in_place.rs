//! One step, three ways to take it, one event.
//!
//! [`Platform::step`] hands the event out by value, [`Platform::step_in_place`]
//! leaves it in the platform for [`Platform::last_event`], and
//! [`Platform::run_until_with`] shows it to a visitor. All three are the same
//! in-place step — the platform writes one `StepEvent` it owns and reuses its
//! access buffer — so three copies of a platform driven one way each must
//! report identical events (accesses included), step counts, times and state
//! checksums, and the same fault at the same step with stepping carrying on
//! identically after it.
//!
//! Agreement alone cannot see a fault in what the three share, so every event
//! is also held against the platform it came from: an instruction completes
//! when its core is next ready and only that core accesses memory in it; a
//! peripheral event or DMA completion happens *now*, and a burst is the
//! engine's reads and writes, word by word.

use mpsoc_suite::apps::testbed;
use mpsoc_suite::platform::isa::assemble;
use mpsoc_suite::platform::mem::periph_addr;
use mpsoc_suite::platform::periph::{dma_reg, timer_reg};
use mpsoc_suite::platform::platform::{
    AccessKind, Originator, Platform, PlatformBuilder, StepEvent, StepKind,
};
use mpsoc_suite::platform::{Error, Frequency, Time};

/// What a platform shows of itself between steps.
fn outside(p: &Platform) -> (u64, Time, u64) {
    (p.steps(), p.now(), p.state_checksum())
}

/// Holds `ev` against `p`, the platform that just reported it.
fn check_against_platform(p: &Platform, ev: &StepEvent, what: &str) {
    match ev.kind {
        StepKind::Instr { core, .. } => {
            assert_eq!(ev.at, p.core(core).unwrap().next_ready(), "{what}: {ev:?}");
            let own = |a: &_| matches!(a, Originator::Core(c) if *c == core);
            assert!(ev.accesses.iter().all(|a| own(&a.originator)), "{what}");
            assert!(ev.accesses.len() <= 1, "{what}: {ev:?}");
        }
        StepKind::PeriphEvent { .. } => {
            assert_eq!(ev.at, p.now(), "{what}: {ev:?}");
            assert!(ev.accesses.is_empty(), "{what}: {ev:?}");
        }
        StepKind::DmaComplete { page } => {
            assert_eq!(ev.at, p.now(), "{what}: {ev:?}");
            let engine = |a: &_| matches!(a, Originator::Dma(d) if *d == page);
            assert!(ev.accesses.iter().all(|a| engine(&a.originator)), "{what}");
            // No testbed runs an empty transfer: each word is read, then
            // written.
            assert!(!ev.accesses.is_empty(), "{what}: {ev:?}");
            for pair in ev.accesses.chunks(2) {
                let kinds = [pair[0].kind, pair[1].kind];
                assert_eq!(kinds, [AccessKind::Read, AccessKind::Write], "{what}");
                assert_eq!(pair[0].value, pair[1].value, "{what}");
            }
        }
        StepKind::Idle => panic!("{what}: an idle step among the visited ones"),
    }
}

/// Tallies of one lockstep run.
#[derive(Debug, Default)]
struct Seen {
    steps: u64,
    periph_events: u64,
    dma_completions: u64,
    accesses: u64,
    faults: Vec<Error>,
}

/// Drives three builds of one platform in slices of `slice` simulated time —
/// one through `run_until_with`, whose visitor's events the other two must
/// then reproduce step by step — until `max_steps` or nothing is left to run,
/// and finally into the idle step.
fn lockstep(name: &str, build: &dyn Fn() -> Platform, slice: Time, max_steps: u64) -> Seen {
    let (mut visited, mut by_value, mut in_place) = (build(), build(), build());
    let mut seen = Seen::default();
    let mut events: Vec<StepEvent> = Vec::new();
    let (mut deadline, mut slices) = (Time::ZERO, 0u32);
    while seen.steps < max_steps && !visited.is_finished() {
        deadline = Time::from_ps(deadline.as_ps() + slice.as_ps());
        events.clear();
        let ran = visited.run_until_with(deadline, None, |ev| events.push(ev.clone()));
        for (i, want) in events.iter().enumerate() {
            let what = format!("{name}, step {}", seen.steps + i as u64);
            let got = by_value.step().unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(&got, want, "{what}: step() by value");
            check_against_platform(&by_value, &got, &what);
            by_value.recycle(got);
            in_place
                .step_in_place()
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(in_place.last_event(), want, "{what}: step_in_place()");
            match want.kind {
                StepKind::PeriphEvent { .. } => seen.periph_events += 1,
                StepKind::DmaComplete { .. } => seen.dma_completions += 1,
                _ => {}
            }
            seen.accesses += want.accesses.len() as u64;
        }
        seen.steps += events.len() as u64;
        let what = format!("{name}, after step {}", seen.steps);
        match ran {
            Ok(n) => {
                assert_eq!(n, events.len() as u64, "{what}");
                // Nothing else is due before the deadline on the other two
                // either; this also brings their clocks up to it.
                for p in [&mut by_value, &mut in_place] {
                    let more = p.run_until_with(deadline, None, |ev| panic!("{what}: {ev:?}"));
                    assert_eq!(more, Ok(0), "{what}");
                }
            }
            Err(ref fault) => {
                assert_eq!(by_value.step(), Err(fault.clone()), "{what}");
                assert_eq!(in_place.step_in_place(), Err(fault.clone()), "{what}");
                seen.faults.push(fault.clone());
                seen.steps += 1;
            }
        }
        // The checksum reads all of RAM: every eighth slice, and wherever
        // a fault was.
        slices += 1;
        let view = if slices % 8 == 0 || ran.is_err() {
            outside
        } else {
            |p: &Platform| (p.steps(), p.now(), 0)
        };
        assert_eq!(view(&by_value), view(&visited), "{what}: step()");
        assert_eq!(view(&in_place), view(&visited), "{what}: in place");
    }
    assert_eq!(outside(&by_value), outside(&visited), "{name}: step()");
    assert_eq!(outside(&in_place), outside(&visited), "{name}: in place");
    if visited.is_finished() {
        let idle = by_value.step().expect("the idle step");
        assert!(
            idle.is_idle() && idle.accesses.is_empty(),
            "{name}: {idle:?}"
        );
        assert_eq!(idle.at, by_value.now(), "{name}");
        in_place.step_in_place().expect("the idle step");
        assert_eq!(in_place.last_event(), &idle, "{name}: the idle step");
        assert_eq!(outside(&in_place), outside(&by_value), "{name}: idle");
        let more = visited.run_until_with(Time::from_ps(u64::MAX), None, |_| {});
        assert_eq!(more, Ok(0), "{name}: nothing runs after idle");
    }
    seen
}

#[test]
fn the_testbeds_step_identically_three_ways() {
    for (name, slice_ns, max_steps) in [
        ("car_radio", 2_000, 40_000),
        ("jpeg", 2_000, 20_000),
        ("race", 500, 20_000),
        ("e12", 500, 20_000),
    ] {
        let build = || testbed::by_name(name).expect("a testbed of that name");
        let seen = lockstep(name, &build, Time::from_ns(slice_ns), max_steps);
        assert!(seen.faults.is_empty(), "{name}: {:?}", seen.faults);
        assert!(seen.steps >= 1_000 && seen.accesses > 0, "{name}: {seen:?}");
        if name == "car_radio" {
            assert!(seen.dma_completions >= 100, "{seen:?}");
            assert!(seen.periph_events >= 10, "{seen:?}");
        }
    }
}

/// Two cores, a DMA engine and a timer. Core 0 starts the timer, runs one
/// transfer off the end of RAM, waits for the engine, runs a valid one and
/// halts; core 1 stores, loads and divides by zero.
fn faulting_platform() -> Platform {
    let mut p = PlatformBuilder::new()
        .cores(2, Frequency::mhz(100))
        .shared_words(1024)
        .build()
        .unwrap();
    let dma = p.add_dma("dma0");
    let timer = p.add_timer("timer0");
    p.load_shared(100, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
    let core0 = assemble(&format!(
        "movi r1, {period}\nmovi r2, 300\nst r2, r1, 0\n\
         movi r1, {tctrl}\nmovi r2, 1\nst r2, r1, 0\n\
         movi r1, {src}\nmovi r2, 1000\nst r2, r1, 0\n\
         movi r1, {dst}\nmovi r2, 200\nst r2, r1, 0\n\
         movi r1, {len}\nmovi r2, 64\nst r2, r1, 0\n\
         movi r1, {ctrl}\nmovi r2, 1\nst r2, r1, 0\n\
         movi r3, {busy}\n\
         wait1: ld r2, r3, 0\nbne r2, r0, wait1\n\
         movi r1, {src}\nmovi r2, 100\nst r2, r1, 0\n\
         movi r1, {len}\nmovi r2, 8\nst r2, r1, 0\n\
         movi r1, {ctrl}\nmovi r2, 1\nst r2, r1, 0\n\
         wait2: ld r2, r3, 0\nbne r2, r0, wait2\n\
         movi r1, {tctrl}\nst r0, r1, 0\n\
         halt",
        period = periph_addr(timer, timer_reg::PERIOD),
        tctrl = periph_addr(timer, timer_reg::CTRL),
        src = periph_addr(dma, dma_reg::SRC),
        dst = periph_addr(dma, dma_reg::DST),
        len = periph_addr(dma, dma_reg::LEN),
        ctrl = periph_addr(dma, dma_reg::CTRL),
        busy = periph_addr(dma, dma_reg::BUSY),
    ))
    .unwrap();
    let core1 = assemble(
        "movi r1, 0x20\nmovi r2, 9\nmovi r4, 40\n\
         loop: st r2, r1, 0\nld r3, r1, 0\naddi r4, r4, -1\nbne r4, r0, loop\n\
         div r5, r2, r4\n\
         halt",
    )
    .unwrap();
    p.load_program(0, core0, 0).unwrap();
    p.load_program(1, core1, 0).unwrap();
    p
}

#[test]
fn faults_surface_at_the_same_step_and_stepping_carries_on() {
    let seen = lockstep(
        "faulting",
        &faulting_platform,
        Time::from_ns(400),
        1_000_000,
    );
    assert_eq!(seen.faults.len(), 2, "{:?}", seen.faults);
    let is = |f: fn(&Error) -> bool| seen.faults.iter().any(f);
    assert!(is(|e| matches!(e, Error::DivideByZero { core: 1, .. })));
    assert!(is(|e| matches!(e, Error::UnmappedAddress { addr: 0x400 })));
    assert_eq!(seen.dma_completions, 1, "only the valid transfer completes");
    assert!(seen.periph_events >= 3, "{seen:?}");
}

#[test]
fn an_event_that_is_dropped_or_kept_costs_nothing_but_its_buffer() {
    // Callers may keep events, drop them, or recycle them late and out of
    // order, and may switch between the by-value and in-place calls.
    let mut reference = testbed::by_name("car_radio").unwrap();
    let mut mixed = testbed::by_name("car_radio").unwrap();
    let mut kept = Vec::new();
    for i in 0..6_000u64 {
        reference.step_in_place().unwrap();
        let want = reference.last_event();
        match i % 5 {
            0 => drop(mixed.step().unwrap()),
            1 | 2 => {
                let ev = mixed.step().unwrap();
                assert_eq!(&ev, want, "step {i}");
                kept.push(ev);
            }
            3 => {
                mixed.step_in_place().unwrap();
                assert_eq!(mixed.last_event(), want, "step {i}");
            }
            _ => {
                let ev = mixed.step().unwrap();
                assert_eq!(&ev, want, "step {i}");
                mixed.recycle(ev);
                if let Some(old) = kept.pop() {
                    mixed.recycle(old);
                }
            }
        }
    }
    assert_eq!(outside(&mixed), outside(&reference));
}
