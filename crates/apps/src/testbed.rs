//! Ready-to-debug virtual platforms for the headless test runner and the
//! GDB server — the workloads the rest of the suite measures, packaged
//! behind one name-based registry.
//!
//! Built here so the `mpsoc-test` runner, the `mpsoc-gdb` server, the
//! experiments and the integration tests all load the same platforms:
//!
//! * [`build_car_radio`] — control-dominated dual-tuner audio chain,
//!   4 heterogeneous cores, 48 peripherals (Section II's VP extreme).
//! * [`build_jpeg`] — compute-dominated DCT-like MAC kernel on 4 cores.
//! * [`build_e12`] — the fault-injection target with redundant
//!   computation, a detect flag at `0x210`, and a DMA stream whose
//!   destination block sums to 848.
//! * `race` (via [`mpsoc_vpdebug::build_race_platform`]) — the Heisenbug
//!   demonstrator: two cores racing an unguarded counter at `0x40`.
//!
//! [`by_name`] maps script-facing names to platforms; [`PLATFORM_NAMES`]
//! is the directory the CLI prints.

use std::fmt::Write as _;

use mpsoc_platform::isa::assemble;
use mpsoc_platform::platform::{Platform, PlatformBuilder, SchedulerMode};
use mpsoc_platform::Frequency;

/// Peripheral page base address helper (see `mpsoc_platform::mem`).
fn page_base(page: usize) -> u32 {
    0xF000_0000 + (page as u32) * 0x100
}

/// The platform names [`by_name`] accepts, in the order the CLI lists them.
pub const PLATFORM_NAMES: [&str; 4] = ["car_radio", "jpeg", "race", "e12"];

/// The software image names [`install_software`] accepts.
pub(crate) const SOFTWARE_NAMES: [&str; 3] = ["car_radio", "jpeg", "race"];

/// Builds the platform registered under `name`, or `None` for an unknown
/// name. All platforms use the calendar scheduler (the production fast
/// path); the race platform runs 200 iterations per core.
pub fn by_name(name: &str) -> Option<Platform> {
    match name {
        "car_radio" => Some(build_car_radio(SchedulerMode::Calendar)),
        "jpeg" => Some(build_jpeg(SchedulerMode::Calendar)),
        "race" => mpsoc_vpdebug::build_race_platform(200).ok(),
        "e12" => Some(build_e12().0),
        _ => None,
    }
}

/// Loads a platform from a declarative `.soc` description file
/// (`mpsoc-pdl`). The platform comes up with empty program memories; use
/// [`install_software`] to load one of the testbed software images.
///
/// # Errors
///
/// I/O failures and source-located compile errors, rendered as strings
/// (`path:line:col: message`).
pub fn load_soc_file(path: &str) -> Result<Platform, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    mpsoc_pdl::compile(&src).map_err(|e| format!("{path}:{e}"))
}

/// Installs a named testbed software image onto `p` (typically a platform
/// built from a `.soc` replica of the matching hardware): the car-radio
/// chain, the JPEG MAC kernel, or the race demonstrator (200 iterations).
///
/// # Errors
///
/// Unknown image names and program-load failures (e.g. the platform has
/// fewer cores or peripherals than the image expects).
pub fn install_software(name: &str, p: &mut Platform) -> Result<(), String> {
    match name {
        "car_radio" => install_car_radio_software(p),
        "jpeg" => install_jpeg_software(p),
        "race" => mpsoc_vpdebug::load_race_programs(p, 200).map_err(|e| e.to_string()),
        _ => Err(format!(
            "unknown software image {name:?} (known: {})",
            SOFTWARE_NAMES.join(", ")
        )),
    }
}

/// Builds the car-radio platform: a dual-tuner (DAB+FM) chain on 4
/// heterogeneous cores with 8 sample/status clocks, 36 inter-stage FIFOs,
/// two hardware locks, and two streaming DMA engines (48 peripherals).
pub fn build_car_radio(mode: SchedulerMode) -> Platform {
    let mut p = car_radio_hardware(mode);
    install_car_radio_software(&mut p).expect("car-radio software installs");
    p
}

/// Builds the car-radio *hardware* only: cores, memories, and the 48
/// peripherals, with no programs loaded. `examples/platforms/car_radio.soc`
/// is the declarative replica of exactly this configuration.
pub(crate) fn car_radio_hardware(mode: SchedulerMode) -> Platform {
    let freqs = vec![
        Frequency::mhz(100),
        Frequency::mhz(100),
        Frequency::mhz(200),
        Frequency::mhz(50),
    ];
    let mut p = PlatformBuilder::new()
        .cores_with_freqs(freqs)
        .shared_words(4096)
        .scheduler(mode)
        .build()
        .expect("car-radio platform builds");
    for i in 0..8 {
        p.add_timer(&format!("tick{i}"));
    }
    for i in 0..36 {
        p.add_mailbox(&format!("fifo{i}"), 16);
    }
    p.add_semaphore("agc_lock", 1);
    p.add_semaphore("tuner_lock", 1);
    p.add_dma("sample_dma");
    p.add_dma("audio_dma");
    p
}

/// Loads the car-radio software image onto `p`. Peripheral pages follow
/// the [`car_radio_hardware`] declaration order: timers at pages 0–7,
/// FIFOs at 8–43, locks at 44–45, DMA engines at 46–47.
///
/// # Errors
///
/// Program-load failures when `p` does not match the expected hardware.
pub(crate) fn install_car_radio_software(p: &mut Platform) -> Result<(), String> {
    let timers: Vec<usize> = (0..8).collect();
    let mboxes: Vec<usize> = (8..44).collect();
    let sems = [44, 45];
    let dmas = [46, 47];

    for core in 0..4 {
        // ISR at pc 0..2, main at pc 2; entry below must match.
        let mut asm = String::from("isr: addi r6, r6, 1\n     rti\n");
        // Clock prologue: each core owns two clocks (sample + status) with
        // staggered periods so interrupts interleave across the chain.
        let mut first = true;
        for (timer, period) in [
            (timers[core], 2_000 + 500 * core),
            (timers[core + 4], 3_700 + 900 * core),
        ] {
            let label = if first { "main: " } else { "     " };
            first = false;
            let _ = writeln!(asm, "{label}movi r10, {:#x}", page_base(timer));
            let _ = writeln!(asm, "     movi r1, {period}");
            asm.push_str("     st r1, r10, 0\n"); // PERIOD (ns)
            let _ = writeln!(asm, "     movi r1, {core}");
            asm.push_str("     st r1, r10, 3\n"); // CORE
            asm.push_str("     movi r1, 0\n     st r1, r10, 4\n"); // IRQ 0
            asm.push_str("     movi r1, 1\n     st r1, r10, 1\n"); // CTRL enable
        }
        if core % 2 == 0 {
            // Cores 0 and 2 each own a DMA engine: configure once, re-kick
            // every iteration (starts are ignored while a transfer flies).
            let (src, dst, len) = if core == 0 {
                (256, 1024, 32)
            } else {
                (512, 1536, 48)
            };
            let _ = writeln!(asm, "     movi r14, {:#x}", page_base(dmas[core / 2]));
            let _ = writeln!(asm, "     movi r1, {src}\n     st r1, r14, 0"); // SRC
            let _ = writeln!(asm, "     movi r1, {dst}\n     st r1, r14, 1"); // DST
            let _ = writeln!(asm, "     movi r1, {len}\n     st r1, r14, 2"); // LEN
        }
        // Sample-processing loop: feed two downstream FIFOs, drain both own
        // inboxes, AGC under the hardware lock, shared-buffer traffic.
        let own_a = page_base(mboxes[core]);
        let own_b = page_base(mboxes[4 + core]);
        let partner_a = page_base(mboxes[(core + 1) % 4]);
        let partner_b = page_base(mboxes[4 + (core + 2) % 4]);
        let _ = writeln!(asm, "     movi r11, {own_a:#x}");
        let _ = writeln!(asm, "     movi r15, {own_b:#x}");
        let _ = writeln!(asm, "     movi r12, {partner_a:#x}");
        let _ = writeln!(asm, "     movi r10, {partner_b:#x}");
        let _ = writeln!(asm, "     movi r13, {:#x}", page_base(sems[core / 2]));
        let _ = writeln!(asm, "     movi r9, {}", core * 64);
        asm.push_str("     movi r1, 0\n     movi r2, 100000000\n");
        asm.push_str("loop: st r1, r12, 0\n"); // push sample downstream
        asm.push_str("     st r1, r10, 0\n"); // push status downstream
        asm.push_str("     ld r3, r11, 0\n"); // pop sample inbox
        asm.push_str("     ld r5, r15, 0\n"); // pop status inbox
        asm.push_str("     add r4, r4, r3\n");
        asm.push_str("     add r4, r4, r5\n");
        asm.push_str("     ld r5, r9, 16\n"); // shared read
        asm.push_str("     st r4, r9, 32\n"); // shared write
        asm.push_str("     ld r7, r13, 0\n"); // lock TRYACQ
        asm.push_str("     st r7, r13, 1\n"); // lock RELEASE
        if core % 2 == 0 {
            asm.push_str("     movi r5, 1\n     st r5, r14, 3\n"); // DMA CTRL
        }
        asm.push_str("     addi r1, r1, 1\n     blt r1, r2, loop\n     halt\n");
        let prog = assemble(&asm).expect("car-radio program assembles");
        p.load_program(core, prog, 2).map_err(|e| e.to_string())?;
        p.core_mut(core)
            .map_err(|e| e.to_string())?
            .set_irq_vector(Some(0));
    }
    Ok(())
}

/// Builds the JPEG platform: 4 cores running a DCT-like MAC kernel, with
/// only a handoff mailbox and a DMA engine attached.
pub fn build_jpeg(mode: SchedulerMode) -> Platform {
    let mut p = jpeg_hardware(mode);
    install_jpeg_software(&mut p).expect("jpeg software installs");
    p
}

/// Builds the JPEG *hardware* only: 4 cores, a handoff mailbox, and a DMA
/// engine, with no programs loaded. `examples/platforms/jpeg.soc` is the
/// declarative replica of exactly this configuration.
pub(crate) fn jpeg_hardware(mode: SchedulerMode) -> Platform {
    let mut p = PlatformBuilder::new()
        .cores(4, Frequency::mhz(100))
        .shared_words(4096)
        .scheduler(mode)
        .build()
        .expect("jpeg platform builds");
    p.add_mailbox("blocks_done", 32);
    p.add_dma("block_dma");
    p
}

/// Loads the JPEG software image onto `p`. Peripheral pages follow the
/// [`jpeg_hardware`] declaration order: the mailbox at page 0, the DMA
/// engine at page 1.
///
/// # Errors
///
/// Program-load failures when `p` does not match the expected hardware.
pub(crate) fn install_jpeg_software(p: &mut Platform) -> Result<(), String> {
    let mb = 0usize;
    let dma = 1usize;

    for core in 0..4 {
        let mut asm = String::new();
        // Each core owns one 64-word block of the frame buffer.
        let _ = writeln!(asm, "     movi r10, {}", core * 64);
        let _ = writeln!(asm, "     movi r11, {:#x}", page_base(mb));
        if core == 0 {
            let _ = writeln!(asm, "     movi r14, {:#x}", page_base(dma));
            asm.push_str("     movi r1, 0\n     st r1, r14, 0\n");
            asm.push_str("     movi r1, 2048\n     st r1, r14, 1\n");
            asm.push_str("     movi r1, 64\n     st r1, r14, 2\n");
        }
        asm.push_str("     movi r1, 0\n     movi r2, 100000000\n     movi r9, 8\n");
        // Inner loop: 8 MAC + shift rounds per block (a row of the 8x8 DCT).
        asm.push_str("outer: movi r3, 0\n");
        asm.push_str("inner: ld r5, r10, 0\n");
        asm.push_str("     ld r6, r10, 1\n");
        asm.push_str("     mul r7, r5, r6\n");
        asm.push_str("     add r4, r4, r7\n");
        asm.push_str("     shr r7, r7, r9\n");
        asm.push_str("     st r7, r10, 2\n");
        asm.push_str("     addi r3, r3, 1\n");
        asm.push_str("     blt r3, r9, inner\n");
        asm.push_str("     st r4, r11, 0\n"); // block-done handoff
        if core == 0 {
            asm.push_str("     movi r5, 1\n     st r5, r14, 3\n");
        }
        asm.push_str("     addi r1, r1, 1\n     blt r1, r2, outer\n     halt\n");
        let prog = assemble(&asm).expect("jpeg program assembles");
        p.load_program(core, prog, 0).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Builds E12's fault-target platform: two cores computing redundantly
/// (duplicate sums compared at the end, mismatch raises a detect flag at
/// `0x210`), a periodic timer interrupting core 0, a handoff mailbox, and
/// a DMA engine streaming a seeded block into the output region — so every
/// fault class in the campaign has a live target. Returns the platform and
/// the (timer, mailbox, dma) peripheral pages.
pub fn build_e12() -> (Platform, usize, usize, usize) {
    let mut p = PlatformBuilder::new()
        .cores(2, Frequency::mhz(100))
        .shared_words(4096)
        .build()
        .expect("e12 platform builds");
    let timer = p.add_timer("tick");
    let mb = p.add_mailbox("handoff", 16);
    let dma = p.add_dma("stream_dma");

    // Core 0: seed the DMA source block (word i holds i+11, so the golden
    // destination sum is 848), start a 32-word stream into the output
    // region, compute a sum twice, compare, then poll the DMA and verify
    // the streamed block against its known sum. The output pointer (r13)
    // and DMA page base (r14) stay live in registers across the fault
    // site, so register flips can send stores to unmapped space — a crash.
    let asm0 = format!(
        "isr: addi r6, r6, 1\n\
         rti\n\
         main: movi r10, {timer:#x}\n\
         movi r1, 5000\n\
         st r1, r10, 0\n\
         movi r1, 0\n\
         st r1, r10, 3\n\
         movi r1, 0\n\
         st r1, r10, 4\n\
         movi r1, 1\n\
         st r1, r10, 1\n\
         movi r13, 0x200\n\
         movi r3, 0\n\
         movi r4, 32\n\
         seed: addi r5, r3, 0x100\n\
         addi r7, r3, 11\n\
         st r7, r5, 0\n\
         addi r3, r3, 1\n\
         blt r3, r4, seed\n\
         movi r14, {dma:#x}\n\
         movi r1, 0x100\n\
         st r1, r14, 0\n\
         movi r1, 0x240\n\
         st r1, r14, 1\n\
         movi r1, 32\n\
         st r1, r14, 2\n\
         movi r1, 1\n\
         st r1, r14, 3\n\
         movi r1, 0\n\
         movi r2, 0\n\
         movi r3, 30\n\
         loop: addi r1, r1, 7\n\
         addi r2, r2, 7\n\
         addi r3, r3, -1\n\
         bne r3, r0, loop\n\
         st r1, r13, 0\n\
         st r6, r13, 2\n\
         seq r7, r1, r2\n\
         movi r8, 1\n\
         sub r7, r8, r7\n\
         ld r9, r13, 16\n\
         or r7, r7, r9\n\
         st r7, r13, 16\n\
         movi r11, {mb:#x}\n\
         st r1, r11, 0\n\
         poll: ld r5, r14, 4\n\
         bne r5, r0, poll\n\
         movi r3, 0\n\
         movi r4, 32\n\
         movi r5, 0\n\
         vrfy: addi r7, r3, 0x240\n\
         ld r8, r7, 0\n\
         add r5, r5, r8\n\
         addi r3, r3, 1\n\
         blt r3, r4, vrfy\n\
         movi r7, 848\n\
         seq r8, r5, r7\n\
         movi r9, 1\n\
         sub r8, r9, r8\n\
         ld r9, r13, 16\n\
         or r8, r8, r9\n\
         st r8, r13, 16\n\
         movi r5, 0\n\
         st r5, r10, 1\n\
         halt\n",
        timer = page_base(timer),
        dma = page_base(dma),
        mb = page_base(mb),
    );
    p.load_program(0, assemble(&asm0).expect("core 0 assembles"), 2)
        .expect("core 0 loads");
    p.core_mut(0)
        .expect("core 0 exists")
        .set_irq_vector(Some(0));

    // Core 1: same redundancy pattern, folding in core 0's mailbox
    // handoff; its output pointer (r12) is likewise live across the fault
    // site. Its loop is long enough that the handoff has arrived by the
    // time it pops.
    let asm1 = format!(
        "movi r11, {mb:#x}\n\
         movi r12, 0x201\n\
         movi r1, 0\n\
         movi r2, 0\n\
         movi r3, 240\n\
         loop: addi r1, r1, 3\n\
         addi r2, r2, 3\n\
         addi r3, r3, -1\n\
         bne r3, r0, loop\n\
         ld r5, r11, 0\n\
         add r1, r1, r5\n\
         add r2, r2, r5\n\
         st r1, r12, 0\n\
         seq r7, r1, r2\n\
         movi r8, 1\n\
         sub r7, r8, r7\n\
         ld r9, r12, 15\n\
         or r7, r7, r9\n\
         st r7, r12, 15\n\
         halt\n",
        mb = page_base(mb),
    );
    p.load_program(1, assemble(&asm1).expect("core 1 assembles"), 0)
        .expect("core 1 loads");
    (p, timer, mb, dma)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_every_name() {
        for name in PLATFORM_NAMES {
            assert!(by_name(name).is_some(), "platform {name} builds");
        }
        assert!(by_name("no_such_platform").is_none());
    }

    #[test]
    fn e12_runs_clean_to_verdict() {
        let (mut p, _, _, _) = build_e12();
        let mut steps = 0u64;
        while !p.is_finished() {
            p.step().expect("e12 steps");
            steps += 1;
            assert!(steps < 100_000, "e12 should halt well within budget");
        }
        // Detect flag clear, streamed block intact.
        assert_eq!(p.debug_read(0x210).expect("flag reads"), 0);
        let sum: i64 = (0..32)
            .map(|i| p.debug_read(0x240 + i).expect("block reads"))
            .sum();
        assert_eq!(sum, 848);
    }
}
