//! Whole-platform checkpoint/restore round-trip properties.
//!
//! The contract under test is the one `mpsoc-platform`'s [`snapshot`]
//! module documents: `restore(capture(p))` yields a platform that
//! continues **bit-identically** — the same [`StepEvent`] stream, the same
//! final state checksum, the same simulated clock — under both scheduler
//! implementations, for real workloads, and from awkward mid-flight states
//! (a DMA transfer half done, an interrupt posted but not yet taken, mesh
//! links still occupied, a checkpoint taken exactly at a watchpoint hit).
//!
//! [`snapshot`]: mpsoc_suite::platform::snapshot

use mpsoc_suite::apps::testbed::{build_car_radio, build_jpeg};
use mpsoc_suite::platform::isa::assemble;
use mpsoc_suite::platform::platform::{
    InterconnectConfig, Platform, PlatformBuilder, SchedulerMode,
};
use mpsoc_suite::platform::{BaseImage, Frequency, Time};
use mpsoc_suite::vpdebug::{Debugger, OriginFilter, Stop, Watchpoint};

/// Restores `image` into a fresh platform — and hydrates a second one from
/// the image's validated [`BaseImage`], the path that neither re-hashes nor
/// RAM-decodes the bytes — and steps both in lockstep with the original for
/// up to `steps` steps, requiring the identical event stream and identical
/// final checksums.
fn assert_identical_continuation(mut original: Platform, image: &[u8], steps: u64) {
    let mut restored = Platform::from_image(image).expect("image restores");
    let mut hydrated = BaseImage::new(image.to_vec())
        .expect("image validates")
        .hydrate()
        .expect("base hydrates");
    assert_eq!(
        original.state_checksum(),
        restored.state_checksum(),
        "restored platform must start from the captured state"
    );
    assert_eq!(
        hydrated.capture().expect("hydrated platform captures"),
        image,
        "a platform hydrated from the base must hold the image's state, byte for byte"
    );
    for i in 0..steps {
        let ea = original.step().expect("original steps");
        let eb = restored.step().expect("restored steps");
        let ec = hydrated.step().expect("hydrated steps");
        assert_eq!(ea, eb, "step {i} diverged after restore");
        assert_eq!(ea, ec, "step {i} diverged after hydrating from the base");
        let done = ea.is_idle();
        original.recycle(ea);
        restored.recycle(eb);
        hydrated.recycle(ec);
        if done {
            break;
        }
    }
    assert_eq!(original.now(), restored.now());
    assert_eq!(original.state_checksum(), restored.state_checksum());
    assert_eq!(original.state_checksum(), hydrated.state_checksum());
}

/// The headline property, over three real workloads — including the
/// 48-peripheral car radio — under both scheduler implementations.
#[test]
fn capture_restore_run_is_bit_identical_across_workloads() {
    for mode in [SchedulerMode::ScanReference, SchedulerMode::Calendar] {
        for (name, build) in [
            (
                "car_radio",
                &build_car_radio as &dyn Fn(SchedulerMode) -> Platform,
            ),
            ("jpeg", &build_jpeg),
        ] {
            let mut p = build(mode);
            for _ in 0..500 {
                let ev = p.step().expect("warmup steps");
                p.recycle(ev);
            }
            let image = p.capture().expect("workload captures");
            assert!(!image.is_empty(), "{name}: empty image");
            assert_identical_continuation(p, &image, 1_500);
        }
    }
    // Third workload: the E9 Heisenbug race pair (unsynchronised
    // read-modify-write on a shared counter).
    let mut p = mpsoc_suite::vpdebug::build_race_platform(200).expect("race platform builds");
    for _ in 0..300 {
        let ev = p.step().expect("race warmup steps");
        p.recycle(ev);
    }
    let image = p.capture().expect("race platform captures");
    assert_identical_continuation(p, &image, 5_000);
}

/// A 3×2-mesh platform with a timer interrupting core 0 and a DMA engine
/// streaming through the NoC — the edge-state testbed.
fn build_mesh_dma_platform() -> (Platform, usize) {
    let mut p = PlatformBuilder::new()
        .cores(4, Frequency::mhz(100))
        .shared_words(2048)
        .interconnect(InterconnectConfig::Mesh {
            w: 3,
            h: 2,
            hop_latency: Time::from_ns(20),
            link_occupancy: Time::from_ns(8),
        })
        .build()
        .expect("mesh platform builds");
    let timer = p.add_timer("tick");
    let dma = p.add_dma("stream");
    let page_base = |page: usize| 0xF000_0000u32 + (page as u32) * 0x100;

    // Core 0: enable a fast periodic timer, kick a long DMA transfer, then
    // hammer shared memory so mesh links stay occupied.
    let asm0 = format!(
        "isr: addi r6, r6, 1\n\
         rti\n\
         main: movi r10, {timer:#x}\n\
         movi r1, 700\n\
         st r1, r10, 0\n\
         movi r1, 0\n\
         st r1, r10, 3\n\
         movi r1, 0\n\
         st r1, r10, 4\n\
         movi r1, 1\n\
         st r1, r10, 1\n\
         movi r14, {dma:#x}\n\
         movi r1, 0x40\n\
         st r1, r14, 0\n\
         movi r1, 0x400\n\
         st r1, r14, 1\n\
         movi r1, 64\n\
         st r1, r14, 2\n\
         movi r1, 1\n\
         st r1, r14, 3\n\
         movi r1, 0\n\
         movi r2, 200000\n\
         loop: ld r3, r1, 0x100\n\
         add r4, r4, r3\n\
         st r4, r1, 0x180\n\
         addi r1, r1, 1\n\
         blt r1, r2, loop\n\
         halt\n",
        timer = page_base(timer),
        dma = page_base(dma),
    );
    p.load_program(0, assemble(&asm0).expect("core 0 assembles"), 2)
        .expect("core 0 loads");
    p.core_mut(0)
        .expect("core 0 exists")
        .set_irq_vector(Some(0));

    // Cores 1–3: contend for shared memory through different mesh routes.
    for core in 1..4 {
        let asm = format!(
            "movi r1, 0\n\
             movi r2, 200000\n\
             movi r9, {}\n\
             loop: ld r3, r9, 0\n\
             add r4, r4, r3\n\
             st r4, r9, 64\n\
             addi r9, r9, 1\n\
             addi r1, r1, 1\n\
             blt r1, r2, loop\n\
             halt\n",
            0x200 + core * 0x40
        );
        p.load_program(core, assemble(&asm).expect("contender assembles"), 0)
            .expect("contender loads");
    }
    (p, dma)
}

/// Capture while a DMA transfer is half done: the pending transfer (and
/// its completion event) must survive the round-trip.
#[test]
fn mid_dma_transfer_roundtrips() {
    let (mut p, dma) = build_mesh_dma_platform();
    let mut guard = 0;
    while !p.dma_in_flight(dma) {
        let ev = p.step().expect("steps to DMA start");
        p.recycle(ev);
        guard += 1;
        assert!(guard < 10_000, "DMA never started");
    }
    for _ in 0..5 {
        let ev = p.step().expect("steps mid-transfer");
        p.recycle(ev);
    }
    assert!(p.dma_in_flight(dma), "transfer must still be in flight");
    let image = p.capture().expect("mid-DMA capture");
    assert_identical_continuation(p, &image, 2_000);
}

/// Capture immediately after a timer fired, while its interrupt is posted
/// on the core but not yet taken.
#[test]
fn pending_interrupt_roundtrips() {
    use mpsoc_suite::platform::platform::StepKind;
    let (mut p, _) = build_mesh_dma_platform();
    let mut guard = 0;
    loop {
        let ev = p.step().expect("steps to timer expiry");
        let fired = matches!(ev.kind, StepKind::PeriphEvent { .. });
        p.recycle(ev);
        if fired && p.core(0).expect("core 0 exists").irq_pending() != 0 {
            break;
        }
        guard += 1;
        assert!(guard < 50_000, "timer interrupt never became pending");
    }
    let image = p.capture().expect("pending-irq capture");
    assert_identical_continuation(p, &image, 2_000);
}

/// Capture at *every* one of the first 40 steps of the contended mesh
/// workload — whatever in-flight link occupancy, posted interrupts, or
/// queued events each step leaves behind must round-trip.
#[test]
fn every_early_state_roundtrips() {
    for k in 0..40 {
        let (mut p, _) = build_mesh_dma_platform();
        for _ in 0..k {
            let ev = p.step().expect("warmup steps");
            p.recycle(ev);
        }
        let image = p.capture().expect("capture at step k");
        assert_identical_continuation(p, &image, 300);
    }
}

/// A checkpoint taken exactly at a watchpoint hit must restore onto the
/// same hit: the debugger rewinds to it and re-runs to the identical stop.
#[test]
fn checkpoint_exactly_at_watchpoint_hit_roundtrips() {
    let (p, _) = build_mesh_dma_platform();
    let mut dbg = Debugger::new(p);
    let wp = dbg.add_watchpoint(Watchpoint::Access {
        lo: 0x180,
        hi: 0x180,
        kind: None,
        origin: OriginFilter::Any,
    });
    let stop = dbg.run(100_000).expect("runs to watchpoint");
    let (hit_index, hit_step) = match stop {
        Stop::Watchpoint { index, .. } => (index, dbg.platform().steps()),
        other => panic!("expected a watchpoint hit, got {other:?}"),
    };
    assert_eq!(hit_index, wp);

    // Checkpoint exactly at the hit, both as a debugger checkpoint and as
    // a raw platform image.
    dbg.enable_time_travel(1_000, 8)
        .expect("time travel enables");
    assert_eq!(dbg.checkpoint_steps(), vec![hit_step]);
    let image = dbg.platform_mut().capture().expect("captures at the hit");
    let checksum_at_hit = dbg.platform().state_checksum();

    // Step past the hit, come back, and re-run to the next stop twice —
    // the two forward runs must agree.
    for _ in 0..25 {
        dbg.step().expect("steps past the hit");
    }
    assert!(dbg.rewind_to_step(hit_step).expect("rewinds to the hit"));
    assert_eq!(dbg.platform().steps(), hit_step);
    assert_eq!(dbg.platform().state_checksum(), checksum_at_hit);

    // And the raw image restores onto the identical continuation.
    let original = Platform::from_image(&image).expect("image restores");
    assert_identical_continuation(original, &image, 1_000);
}
