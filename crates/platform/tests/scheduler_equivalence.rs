//! Property test: the calendar scheduler — cores scanned, events heaped —
//! is observationally indistinguishable from the linear-scan reference.
//!
//! Platforms are built from the same seeded random specification —
//! identical cores, peripherals, and programs — one in
//! [`SchedulerMode::Calendar`], one in [`SchedulerMode::ScanReference`], and
//! driven by the same seeded *host script*: slices of `run_until_with`
//! interleaved with single `step()` calls, intrusive `debug_halt` /
//! `debug_resume` of cores between slices and, on a third (calendar)
//! platform, a `capture` → `restore_image` / `from_image` in the middle of
//! the run. The full [`StepEvent`] sequences (actor choice, timestamps,
//! memory accesses), the final state checksums and the signal traces must be
//! identical — the restored run against the *uninterrupted* reference.
//!
//! The workloads mix everything the scheduler has to order: 1–64
//! multi-frequency cores, timer interrupts into user ISRs, a core that
//! sleeps in `wfi` until a timer wakes it, a timer whose IRQ targets the
//! very core that keeps rewriting its registers, mailbox and semaphore
//! register traffic, DMA transfers kicked from core code, and cores halting
//! at different times. Equal-time ties are additionally constructed by hand
//! in [`constructed_ties_resolve_in_class_then_id_order`].

use std::fmt::Write as _;

use mpsoc_obs::rng::XorShift64Star;
use mpsoc_platform::isa::{assemble, Instr};
use mpsoc_platform::periph::{dma_reg, timer_reg};
use mpsoc_platform::platform::{Platform, PlatformBuilder, SchedulerMode, StepKind};
use mpsoc_platform::{Frequency, StepEvent, Time};

/// Word address of register 0 on peripheral page `page`.
fn page_base(page: usize) -> u32 {
    0xF000_0000 + (page as u32) * 0x100
}

/// One randomly generated platform + workload specification. Timer
/// configuration (periods, IRQ targets) is baked into core 0's program.
struct Spec {
    freqs: Vec<Frequency>,
    num_timers: usize,
    mailbox_cap: usize,
    programs: Vec<String>,
}

fn random_spec(rng: &mut XorShift64Star, num_cores: usize) -> Spec {
    let freq_pool = [
        Frequency::mhz(50),
        Frequency::mhz(100),
        Frequency::mhz(200),
        Frequency::khz(333),
    ];
    // Core 0 programs the timers, so it must get that done inside the
    // window: never the 333 kHz clock.
    let freqs: Vec<Frequency> = (0..num_cores)
        .map(|core| freq_pool[rng.usize_in(0, if core == 0 { 2 } else { 3 })])
        .collect();
    let num_timers = rng.usize_in(2, 4);
    let timer_periods_ns: Vec<u64> = (0..num_timers).map(|_| rng.u64_in(500, 3_000)).collect();
    // Timer 0 interrupts core 0 — the core that keeps writing its
    // registers; timer 1 wakes the sleeper (the last core); the rest land
    // anywhere.
    let sleeper = num_cores - 1;
    let timer_cores: Vec<usize> = (0..num_timers)
        .map(|t| match t {
            0 => 0,
            1 => sleeper,
            _ => rng.usize_in(0, num_cores - 1),
        })
        .collect();
    let mailbox_cap = rng.usize_in(1, 8);

    // Peripheral pages by construction order: timers, 2 mailboxes,
    // semaphore, DMA.
    let mb0 = num_timers;
    let sem = num_timers + 2;
    let dma = num_timers + 3;

    let programs = (0..num_cores)
        .map(|core| {
            // ISR at pc 0..2; main entry is pc 2.
            let mut asm = String::from("isr: addi r15, r15, 1\n rti\n");
            let _ = writeln!(asm, "main: movi r9, {}", core * 32);
            let _ = writeln!(asm, " movi r10, {:#x}", page_base(mb0 + (core & 1)));
            let _ = writeln!(asm, " movi r11, {:#x}", page_base(sem));
            let _ = writeln!(asm, " movi r12, {:#x}", page_base(dma));
            let _ = writeln!(asm, " movi r14, {:#x}", page_base(0));
            if core == 0 {
                // Core 0 programs every timer (period, IRQ target, enable)
                // and the DMA transfer registers before entering its loop.
                for (t, (&period, &target)) in timer_periods_ns.iter().zip(&timer_cores).enumerate()
                {
                    let _ = writeln!(asm, " movi r13, {:#x}", page_base(t));
                    let _ = writeln!(asm, " movi r3, {period}\n st r3, r13, 0");
                    let _ = writeln!(asm, " movi r3, {target}\n st r3, r13, 3");
                    let _ = writeln!(asm, " movi r3, {}\n st r3, r13, 4", t % 4);
                    asm.push_str(" movi r3, 1\n st r3, r13, 1\n");
                }
                let src = rng.u64_in(0, 1023);
                let dst = rng.u64_in(0, 1023);
                let len = rng.u64_in(1, 64);
                let _ = writeln!(asm, " movi r3, {src}\n st r3, r12, 0");
                let _ = writeln!(asm, " movi r3, {dst}\n st r3, r12, 1");
                let _ = writeln!(asm, " movi r3, {len}\n st r3, r12, 2");
            }
            let iters = rng.u64_in(2, 40);
            let _ = writeln!(asm, " movi r1, 0\n movi r2, {iters}");
            asm.push_str("loop:\n");
            let body_len = rng.usize_in(10, 30);
            for _ in 0..body_len {
                let a = rng.usize_in(3, 8);
                let b = rng.usize_in(3, 8);
                let c = rng.usize_in(3, 8);
                match rng.usize_in(0, 12) {
                    0 => {
                        let _ = writeln!(asm, " addi r{a}, r{b}, {}", rng.i64_in(-8, 8));
                    }
                    1 => {
                        let _ = writeln!(asm, " add r{a}, r{b}, r{c}");
                    }
                    2 => {
                        let _ = writeln!(asm, " mul r{a}, r{b}, r{c}");
                    }
                    3 => {
                        let _ = writeln!(asm, " xor r{a}, r{b}, r{c}");
                    }
                    // Shared-memory traffic (base r9 = core * 32).
                    4 => {
                        let _ = writeln!(asm, " ld r{a}, r9, {}", rng.u64_in(0, 255));
                    }
                    5 => {
                        let _ = writeln!(asm, " st r{a}, r9, {}", rng.u64_in(0, 255));
                    }
                    // Mailbox push/pop.
                    6 => {
                        let _ = writeln!(asm, " st r{a}, r10, 0");
                    }
                    7 => {
                        let _ = writeln!(asm, " ld r{a}, r10, 0");
                    }
                    // Semaphore acquire/release.
                    8 => {
                        let _ = writeln!(asm, " ld r{a}, r11, 0\n st r{a}, r11, 1");
                    }
                    // DMA kick: starts a transfer when the register value
                    // is odd and the engine is idle; otherwise a no-op.
                    9 => {
                        let _ = writeln!(asm, " st r{a}, r12, 3");
                    }
                    // The sleeper waits for its timer.
                    10 if core == sleeper => asm.push_str(" wfi\n"),
                    // Core 0 re-programs timer 0, whose IRQ it receives: a
                    // new period, or off and on again (re-armed from now).
                    11 if core == 0 => {
                        let _ = writeln!(asm, " movi r{a}, {}", rng.u64_in(400, 2_000));
                        let _ = writeln!(asm, " st r{a}, r14, 0");
                    }
                    12 if core == 0 => {
                        let _ = writeln!(asm, " st r0, r14, 1\n movi r{a}, 1\n st r{a}, r14, 1");
                    }
                    _ => {
                        let _ = writeln!(asm, " slt r{a}, r{b}, r{c}");
                    }
                }
            }
            asm.push_str(" addi r1, r1, 1\n blt r1, r2, loop\n halt\n");
            asm
        })
        .collect();

    Spec {
        freqs,
        num_timers,
        mailbox_cap,
        programs,
    }
}

fn build(spec: &Spec, mode: SchedulerMode) -> Platform {
    let mut p = PlatformBuilder::new()
        .cores_with_freqs(spec.freqs.clone())
        .shared_words(4096)
        .scheduler(mode)
        .build()
        .expect("platform builds");
    for i in 0..spec.num_timers {
        p.add_timer(&format!("t{i}"));
    }
    p.add_mailbox("mb0", spec.mailbox_cap);
    p.add_mailbox("mb1", spec.mailbox_cap);
    p.add_semaphore("sem", 1);
    p.add_dma("dma");
    for (core, asm) in spec.programs.iter().enumerate() {
        let prog = assemble(asm).expect("random program assembles");
        p.load_program(core, prog, 2).expect("program loads");
        p.core_mut(core)
            .expect("core exists")
            .set_irq_vector(Some(0));
    }
    p
}

const SLICES: usize = 8;
const SLICE_US: u64 = 5;

/// What the host does to a platform besides running it, slice by slice.
struct Script {
    /// `step()` calls made before each slice's `run_until_with`.
    single_steps: [usize; SLICES],
    /// `(core, halt before slice, resume before slice)`.
    debug_halts: Vec<(usize, usize, usize)>,
    /// The slice before which the restoring run round-trips through an
    /// image, and whether in place or into a brand-new platform.
    restore_at: usize,
    restore_in_place: bool,
}

fn random_script(rng: &mut XorShift64Star, num_cores: usize) -> Script {
    let mut single_steps = [0; SLICES];
    for n in &mut single_steps {
        *n = rng.usize_in(0, 3);
    }
    let debug_halts = (0..rng.usize_in(1, 3))
        .map(|_| {
            let halt = rng.usize_in(1, SLICES - 2);
            (
                rng.usize_in(0, num_cores - 1),
                halt,
                rng.usize_in(halt + 1, SLICES),
            )
        })
        .collect();
    Script {
        single_steps,
        debug_halts,
        restore_at: rng.usize_in(1, SLICES - 1),
        restore_in_place: rng.chance_pct(50),
    }
}

/// Runs `p` through `script`, returning every event. With `restore`, the
/// platform is additionally captured and restored once on the way.
fn drive(p: &mut Platform, script: &Script, restore: bool) -> Vec<StepEvent> {
    let mut events = Vec::new();
    for slice in 0..SLICES {
        for &(core, halt, resume) in &script.debug_halts {
            let now = p.now();
            let core = p.core_mut(core).expect("core exists");
            if slice == halt {
                core.debug_halt();
            }
            if slice == resume {
                core.debug_resume(now);
            }
        }
        if restore && slice == script.restore_at {
            let image = p.capture().expect("platform captures");
            if script.restore_in_place {
                p.restore_image(&image).expect("own image restores");
            } else {
                *p = Platform::from_image(&image).expect("own image rehydrates");
            }
        }
        for _ in 0..script.single_steps[slice] {
            events.push(p.step().expect("step succeeds"));
        }
        let deadline = Time::from_us(SLICE_US * (slice as u64 + 1));
        p.run_until_with(deadline, None, |ev| events.push(ev.clone()))
            .expect("slice runs");
    }
    events
}

fn assert_same_run(what: &str, got: (&Platform, &[StepEvent]), want: (&Platform, &[StepEvent])) {
    let ((p, ev), (q, ev_ref)) = (got, want);
    assert_eq!(ev.len(), ev_ref.len(), "{what}: step counts diverge");
    for (i, (a, b)) in ev.iter().zip(ev_ref).enumerate() {
        assert_eq!(a, b, "{what}: step {i} diverges");
    }
    assert_eq!(p.now(), q.now(), "{what}: clocks diverge");
    assert_eq!(p.steps(), q.steps(), "{what}: steps diverge");
    assert_eq!(
        p.state_checksum(),
        q.state_checksum(),
        "{what}: final states diverge"
    );
    // The architectural half of the board. (The trace ring is host-side:
    // a platform rehydrated from an image starts with an empty one.)
    let signals = |p: &Platform| -> Vec<_> {
        p.signals()
            .iter()
            .map(|(name, sig)| (name.to_string(), sig.value(), sig.last_change()))
            .collect()
    };
    assert_eq!(signals(p), signals(q), "{what}: signals diverge");
    assert_eq!(
        p.signals().next_seq(),
        q.signals().next_seq(),
        "{what}: edge counts diverge"
    );
}

#[test]
fn calendar_matches_scan_reference_on_random_workloads() {
    // What the generator must keep producing for the comparison to mean
    // anything, summed over all seeds.
    let (mut wfi_wakes, mut self_irqs, mut periph_events, mut dma_done, mut halts) =
        (0, 0, 0, 0, 0);
    let core_counts = [1, 2, 3, 4, 5, 8, 13, 16, 32, 64, 0, 0];
    for (seed, &fixed) in core_counts.iter().enumerate() {
        let mut rng = XorShift64Star::new(seed as u64 + 1);
        let num_cores = if fixed == 0 {
            rng.usize_in(1, 64)
        } else {
            fixed
        };
        let what = format!("seed {seed}, {num_cores} cores");
        let spec = random_spec(&mut rng, num_cores);
        let script = random_script(&mut rng, num_cores);

        let mut scan = build(&spec, SchedulerMode::ScanReference);
        let ev_scan = drive(&mut scan, &script, false);
        let mut cal = build(&spec, SchedulerMode::Calendar);
        let ev_cal = drive(&mut cal, &script, false);
        assert_same_run(&what, (&cal, &ev_cal), (&scan, &ev_scan));
        assert!(
            cal.signals()
                .trace_records()
                .eq(scan.signals().trace_records()),
            "{what}: signal traces diverge"
        );
        // The same run with a capture -> restore in the middle, against the
        // reference that never stopped.
        let mut restored = build(&spec, SchedulerMode::Calendar);
        let ev_restored = drive(&mut restored, &script, true);
        assert_same_run(
            &format!("{what}, restored before slice {}", script.restore_at),
            (&restored, &ev_restored),
            (&scan, &ev_scan),
        );

        let mut asleep = vec![false; num_cores];
        for ev in &ev_scan {
            match ev.kind {
                StepKind::Instr {
                    core,
                    instr,
                    irq_taken,
                    ..
                } => {
                    wfi_wakes += usize::from(asleep[core] && irq_taken.is_some());
                    self_irqs += usize::from(core == 0 && irq_taken == Some(0));
                    asleep[core] = instr == Instr::Wfi;
                    halts += usize::from(instr == Instr::Halt);
                }
                StepKind::PeriphEvent { .. } => periph_events += 1,
                StepKind::DmaComplete { .. } => dma_done += 1,
                StepKind::Idle => {}
            }
        }
    }
    assert!(wfi_wakes > 20, "sleeping cores woken by IRQ: {wfi_wakes}");
    assert!(self_irqs > 20, "timer 0 IRQs taken by core 0: {self_irqs}");
    assert!(periph_events > 200, "timer expiries: {periph_events}");
    assert!(dma_done > 20, "DMA completions: {dma_done}");
    assert!(halts > 20, "cores halting mid-run: {halts}");
}

/// Runs the same hand-built platform under both schedulers to `deadline`
/// and returns the (identical) event sequence.
fn run_both(build: impl Fn(SchedulerMode) -> Platform, deadline: Time) -> Vec<StepEvent> {
    let run = |mode| {
        let mut p = build(mode);
        let mut events = Vec::new();
        p.run_until_with(deadline, None, |ev| events.push(ev.clone()))
            .expect("tie platform runs");
        events
    };
    let events = run(SchedulerMode::Calendar);
    assert_eq!(events, run(SchedulerMode::ScanReference));
    events
}

#[test]
fn constructed_ties_resolve_in_class_then_id_order() {
    let bare = |cores: usize, mode| {
        PlatformBuilder::new()
            .cores(cores, Frequency::mhz(100))
            .shared_words(256)
            .cache(None)
            .scheduler(mode)
            .build()
            .expect("platform builds")
    };
    let spin = || assemble("loop: addi r1, r1, 1\n jmp loop").expect("assembles");

    // Core vs core: three cores in lock-step tie on every cycle; the lowest
    // id goes first, every time.
    let events = run_both(
        |mode| {
            let mut p = bare(3, mode);
            for core in 0..3 {
                p.load_program(core, spin(), 0).expect("program loads");
            }
            p
        },
        Time::from_ns(500),
    );
    assert_eq!(events.len(), 150);
    for (i, ev) in events.iter().enumerate() {
        let StepKind::Instr { core, .. } = ev.kind else {
            panic!("step {i}: {ev:?}");
        };
        assert_eq!(core, i % 3, "step {i}");
        assert_eq!(ev.at, Time::from_ns(10 * (i as u64 / 3 + 1)), "step {i}");
    }

    // Core vs timer: single-cycle instructions keep the core on the 10 ns
    // grid, so it is ready at exactly the instant each 100 ns expiry is due
    // — and runs first: the instruction completing at T + 10 ns is reported
    // before the expiry at T.
    let events = run_both(
        |mode| {
            let mut p = bare(1, mode);
            p.load_program(0, spin(), 0).expect("program loads");
            let timer = p.add_timer("t");
            p.debug_periph_write(timer, timer_reg::PERIOD, 100)
                .expect("period set");
            p.debug_periph_write(timer, timer_reg::CTRL, 1)
                .expect("timer armed");
            p
        },
        Time::from_ns(1_000),
    );
    let expiries: Vec<usize> = (0..events.len())
        .filter(|&i| matches!(events[i].kind, StepKind::PeriphEvent { .. }))
        .collect();
    assert_eq!(expiries.len(), 9);
    for (n, &i) in expiries.iter().enumerate() {
        let due = Time::from_ns(100 * (n as u64 + 1));
        assert_eq!(events[i].at, due);
        assert!(
            matches!(events[i - 1].kind, StepKind::Instr { .. })
                && events[i - 1].at == due + Time::from_ns(10),
            "expiry {n} must follow the instruction that tied with it: {:?}",
            events[i - 1]
        );
    }

    // Timer vs DMA completion: a probe run measures when the transfer
    // finishes; a timer armed at the same instant with that period then
    // expires exactly at the completion — and goes first.
    let with_dma = |mode, period_ns: Option<u64>| {
        let mut p = bare(1, mode);
        let timer = p.add_timer("t");
        let dma = p.add_dma("dma");
        if let Some(period_ns) = period_ns {
            p.debug_periph_write(timer, timer_reg::PERIOD, period_ns as i64)
                .expect("period set");
            p.debug_periph_write(timer, timer_reg::CTRL, 1)
                .expect("timer armed");
        }
        for (reg, value) in [
            (dma_reg::SRC, 0),
            (dma_reg::DST, 64),
            (dma_reg::LEN, 7),
            (dma_reg::CTRL, 1),
        ] {
            p.debug_periph_write(dma, reg, value).expect("dma kicked");
        }
        p
    };
    let probe = run_both(|mode| with_dma(mode, None), Time::from_us(10));
    assert_eq!(probe.len(), 1);
    let finish = probe[0].at;
    assert_eq!(finish.as_ps() % 1_000, 0, "completion on the ns grid");
    let events = run_both(
        |mode| with_dma(mode, Some(finish.as_ns())),
        finish + Time::from_ns(1),
    );
    assert_eq!(events.len(), 2);
    assert!(matches!(events[0].kind, StepKind::PeriphEvent { page: 0 }));
    assert!(matches!(events[1].kind, StepKind::DmaComplete { page: 1 }));
    assert_eq!((events[0].at, events[1].at), (finish, finish));
}
