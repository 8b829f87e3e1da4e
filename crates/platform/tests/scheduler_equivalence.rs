//! Property test: the event-calendar scheduler is observationally
//! indistinguishable from the linear-scan reference.
//!
//! Two platforms are built from the same seeded random specification —
//! identical cores, peripherals, and programs — one in
//! [`SchedulerMode::Calendar`], one in [`SchedulerMode::ScanReference`].
//! Both run the same simulated window; the full [`StepEvent`] sequences
//! (actor choice, timestamps, memory accesses, faults) must be identical.
//!
//! The workloads mix everything that feeds the calendar: multi-frequency
//! cores, timer interrupts into user ISRs, mailbox and semaphore register
//! traffic, DMA transfers kicked from core code, and cores halting at
//! different times.

use std::fmt::Write as _;

use mpsoc_obs::rng::XorShift64Star;
use mpsoc_platform::isa::assemble;
use mpsoc_platform::platform::{Platform, PlatformBuilder, SchedulerMode};
use mpsoc_platform::{Frequency, Time};

/// Word address of register `reg` on peripheral page `page`.
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

fn random_spec(seed: u64) -> Spec {
    let mut rng = XorShift64Star::new(seed);
    let num_cores = rng.usize_in(2, 4);
    let freq_pool = [
        Frequency::mhz(50),
        Frequency::mhz(100),
        Frequency::mhz(200),
        Frequency::khz(333),
    ];
    let freqs: Vec<Frequency> = (0..num_cores)
        .map(|_| freq_pool[rng.usize_in(0, freq_pool.len() - 1)])
        .collect();
    let num_timers = rng.usize_in(1, 3);
    let timer_periods_ns: Vec<u64> = (0..num_timers).map(|_| rng.u64_in(500, 3_000)).collect();
    let timer_cores: Vec<usize> = (0..num_timers)
        .map(|_| rng.usize_in(0, num_cores - 1))
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
            let iters = rng.u64_in(20, 60);
            let _ = writeln!(asm, " movi r1, 0\n movi r2, {iters}");
            asm.push_str("loop:\n");
            let body_len = rng.usize_in(10, 30);
            for _ in 0..body_len {
                let a = rng.usize_in(3, 8);
                let b = rng.usize_in(3, 8);
                let c = rng.usize_in(3, 8);
                match rng.usize_in(0, 9) {
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
                    _ => {
                        let _ = writeln!(asm, " st r{a}, r12, 3");
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
        .shared_words(2048)
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

#[test]
fn calendar_matches_scan_reference_on_random_workloads() {
    for seed in 0..8u64 {
        let spec = random_spec(seed);
        let mut cal = build(&spec, SchedulerMode::Calendar);
        let mut scan = build(&spec, SchedulerMode::ScanReference);
        let deadline = Time::from_us(40);
        let (mut ev_cal, mut ev_scan) = (Vec::new(), Vec::new());
        cal.run_until_with(deadline, None, |ev| ev_cal.push(ev.clone()))
            .expect("calendar run succeeds");
        scan.run_until_with(deadline, None, |ev| ev_scan.push(ev.clone()))
            .expect("scan run succeeds");
        assert_eq!(
            ev_cal.len(),
            ev_scan.len(),
            "seed {seed}: step counts diverge"
        );
        for (i, (a, b)) in ev_cal.iter().zip(&ev_scan).enumerate() {
            assert_eq!(a, b, "seed {seed}: step {i} diverges");
        }
        assert_eq!(cal.now(), scan.now(), "seed {seed}: clocks diverge");
        assert_eq!(cal.steps(), scan.steps(), "seed {seed}: steps diverge");
    }
}
