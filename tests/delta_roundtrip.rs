//! Delta-checkpoint round-trip properties.
//!
//! The contract under test extends `tests/snapshot_roundtrip.rs` to the
//! delta fast path: for any reachable state, restoring *base + delta*
//! ([`Platform::restore_delta`]) must be **bit-identical** to restoring a
//! full image captured at the same instant — same state checksum, same
//! continuation event stream — under both scheduler implementations, for
//! real workloads, from awkward mid-flight states (a DMA transfer half
//! done, an interrupt posted but not taken), and for any dirtying run
//! length a seeded PRNG throws at it. On top sit the two delta consumers:
//! warm-started design-space exploration must equal the cold path at every
//! thread count, and the delta fault campaign must equal the full-image
//! campaign verdict for verdict.

use std::collections::BTreeSet;

use mpsoc_suite::apps::testbed::{build_car_radio, build_jpeg};
use mpsoc_suite::cic::explore::{calibrate_task_work, explore_parallel};
use mpsoc_suite::explore::Prefix;
use mpsoc_suite::maps::mapping::{anneal_multi, profile_task_costs};
use mpsoc_suite::obs::rng::XorShift64Star;
use mpsoc_suite::platform::isa::assemble;
use mpsoc_suite::platform::mem::periph_addr;
use mpsoc_suite::platform::platform::{
    AccessKind, InterconnectConfig, Platform, PlatformBuilder, SchedulerMode,
};
use mpsoc_suite::platform::{BaseImage, Frequency, Time};
use mpsoc_suite::vpdebug::campaign::{
    generate_faults, run_campaign, run_campaign_delta, CampaignConfig, FaultSpace,
};

/// Steps `p` for `n` steps or until idle, recycling events.
fn run_steps(p: &mut Platform, n: u64) {
    for _ in 0..n {
        let ev = p.step().expect("platform steps");
        let done = ev.is_idle();
        p.recycle(ev);
        if done {
            break;
        }
    }
}

/// Steps `p` like [`run_steps`], adding the page (word address / 64) of
/// every RAM word a core or DMA engine writes to `pages`: the set the dirty
/// bitmaps track, seen from outside.
fn run_noting_writes(p: &mut Platform, n: u64, pages: &mut BTreeSet<u32>) {
    for _ in 0..n {
        let ev = p.step().expect("platform steps");
        let done = ev.is_idle();
        pages.extend(
            (ev.accesses.iter())
                .filter(|a| a.kind == AccessKind::Write && a.addr < periph_addr(0, 0))
                .map(|a| a.addr / 64),
        );
        p.recycle(ev);
        if done {
            break;
        }
    }
}

/// The core equivalence: at the current state of `p` (whose dirty bitmaps
/// are relative to `base`), a delta restore must land on the identical
/// state as a full capture/restore — and both must continue identically
/// for `steps` more steps.
fn assert_delta_equals_full(p: &mut Platform, base: &BaseImage, steps: u64) {
    let delta = p.capture_delta().expect("delta captures");
    let full = p.capture().expect("full captures");

    let mut via_full = Platform::from_image(&full).expect("full image restores");
    let mut via_delta = Platform::from_image(base.image()).expect("base restores");
    via_delta
        .restore_delta(base, &delta)
        .expect("delta restores");

    assert_eq!(
        via_full.state_checksum(),
        via_delta.state_checksum(),
        "base + delta must reproduce the full capture exactly"
    );
    for i in 0..steps {
        let ea = via_full.step().expect("full-restored platform steps");
        let eb = via_delta.step().expect("delta-restored platform steps");
        assert_eq!(ea, eb, "step {i} diverged between full and delta restore");
        let done = ea.is_idle();
        via_full.recycle(ea);
        via_delta.recycle(eb);
        if done {
            break;
        }
    }
    assert_eq!(via_full.state_checksum(), via_delta.state_checksum());
}

/// The headline property: on both real workloads, under both schedulers,
/// for seeded-random dirtying run lengths, base + delta equals a full
/// capture taken at the same instant.
#[test]
fn delta_restore_is_bit_identical_for_random_run_lengths() {
    let mut rng = XorShift64Star::new(0xD417A);
    for mode in [SchedulerMode::ScanReference, SchedulerMode::Calendar] {
        for build in [
            &build_car_radio as &dyn Fn(SchedulerMode) -> Platform,
            &build_jpeg,
        ] {
            let mut p = build(mode);
            run_steps(&mut p, 400);
            let mut base =
                BaseImage::new(p.capture().expect("base captures")).expect("base decodes");
            // What makes the delta path worth having: a delta costs what a
            // delta taken at its base costs (the small state) plus at most
            // a raw page, `8 + 8 * 64` bytes, per page written since.
            let at_base = p.capture_delta().expect("delta captures");
            let mut written = BTreeSet::new();
            run_noting_writes(&mut p, 256, &mut written);
            let delta = p.capture_delta().expect("delta captures");
            assert!(
                delta.len() <= at_base.len() + written.len() * (8 + 8 * 64),
                "delta {}B, {} pages written over {}B",
                delta.len(),
                written.len(),
                at_base.len()
            );
            for _ in 0..3 {
                run_steps(&mut p, rng.u64_in(1, 300));
                assert_delta_equals_full(&mut p, &base, 400);
                // The full capture inside assert_delta_equals_full re-based
                // `p`'s dirty bitmaps; anchor a matching BaseImage for the
                // next round.
                base = BaseImage::new(p.capture().expect("re-base captures"))
                    .expect("re-base decodes");
            }
        }
    }
}

/// The complexity claim behind campaign rollback: `reset_to_base` costs
/// O(small state + dirty pages), not O(image). Two platforms that differ
/// only in shared-RAM size (256×) run the same program, dirty the same
/// pages, and must roll back in comparable time. A rollback that hashed,
/// decoded or copied the RAM block again would be ~250× slower on the
/// large one; the 8× bound leaves two orders of magnitude either side, so
/// it holds in debug builds and on a noisy shared host.
#[test]
fn reset_to_base_cost_is_independent_of_ram_size() {
    const SMALL_WORDS: u32 = 4096;
    const RESETS: usize = 300;
    let build = |shared_words: u32| {
        let mut p = PlatformBuilder::new()
            .cores(2, Frequency::mhz(100))
            .shared_words(shared_words)
            .local_words(64)
            .build()
            .expect("platform builds");
        // Stores to two pages, forever.
        let prog = assemble(
            "movi r1, 0x40\nmovi r2, 0x400\n\
             loop: addi r5, r5, 1\nst r5, r1, 0\nst r5, r2, 0\nbne r5, r0, loop",
        )
        .expect("program assembles");
        p.load_program(0, prog, 0).expect("program loads");
        run_steps(&mut p, 50);
        let base = BaseImage::new(p.capture().expect("base captures")).expect("base decodes");
        (p, base)
    };
    let (mut small, small_base) = build(SMALL_WORDS);
    let (mut large, large_base) = build(SMALL_WORDS * 256);
    assert!(large_base.len_bytes() > 200 * small_base.len_bytes());

    // Interleaved, so host noise lands on both sides alike.
    let mut times = [Vec::with_capacity(RESETS), Vec::with_capacity(RESETS)];
    for round in 0..RESETS {
        for (side, (p, base)) in [(&mut small, &small_base), (&mut large, &large_base)]
            .into_iter()
            .enumerate()
        {
            run_steps(p, 40);
            if round == 0 {
                let delta = p.capture_delta().expect("delta captures");
                assert!(
                    (100..4096).contains(&delta.len()),
                    "side {side}: the dirty set must be a few pages, delta is {}B",
                    delta.len()
                );
            }
            let t0 = std::time::Instant::now();
            p.reset_to_base(base).expect("rollback succeeds");
            times[side].push(t0.elapsed());
        }
    }
    let restored = Platform::from_image(large_base.image()).expect("base restores");
    assert_eq!(large.state_checksum(), restored.state_checksum());

    let [small_us, large_us] = times.map(|mut t| {
        t.sort();
        t[RESETS / 2].as_secs_f64() * 1e6
    });
    assert!(
        large_us <= 8.0 * small_us,
        "median reset_to_base: {large_us:.1} us with 256x the RAM vs {small_us:.1} us — \
         rollback cost must not scale with image size"
    );
}

/// A mesh platform with a periodic timer interrupting core 0 and a DMA
/// engine streaming through the NoC — the awkward-state testbed.
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
    let asm0 = format!(
        "isr: addi r6, r6, 1\nrti\n\
         main: movi r10, {timer:#x}\nmovi r1, 700\nst r1, r10, 0\n\
         movi r1, 0\nst r1, r10, 3\nmovi r1, 0\nst r1, r10, 4\n\
         movi r1, 1\nst r1, r10, 1\n\
         movi r14, {dma:#x}\nmovi r1, 0x40\nst r1, r14, 0\n\
         movi r1, 0x400\nst r1, r14, 1\nmovi r1, 64\nst r1, r14, 2\n\
         movi r1, 1\nst r1, r14, 3\n\
         movi r1, 0\nmovi r2, 200000\n\
         loop: ld r3, r1, 0x100\nadd r4, r4, r3\nst r4, r1, 0x180\n\
         addi r1, r1, 1\nblt r1, r2, loop\nhalt\n",
        timer = page_base(timer),
        dma = page_base(dma),
    );
    p.load_program(0, assemble(&asm0).expect("core 0 assembles"), 2)
        .expect("core 0 loads");
    p.core_mut(0)
        .expect("core 0 exists")
        .set_irq_vector(Some(0));
    for core in 1..4 {
        let asm = format!(
            "movi r1, 0\nmovi r2, 200000\nmovi r9, {}\n\
             loop: ld r3, r9, 0\nadd r4, r4, r3\nst r4, r9, 64\n\
             addi r9, r9, 1\naddi r1, r1, 1\nblt r1, r2, loop\nhalt\n",
            0x200 + core * 0x40
        );
        p.load_program(core, assemble(&asm).expect("contender assembles"), 0)
            .expect("contender loads");
    }
    (p, dma)
}

/// Delta captured while a DMA transfer is half done: the pending transfer
/// travels in the delta's small state and must restore exactly.
#[test]
fn mid_dma_delta_roundtrips() {
    let (mut p, dma) = build_mesh_dma_platform();
    let base = BaseImage::new(p.capture().expect("base captures")).expect("base decodes");
    let mut guard = 0;
    while !p.dma_in_flight(dma) {
        run_steps(&mut p, 1);
        guard += 1;
        assert!(guard < 10_000, "DMA never started");
    }
    run_steps(&mut p, 5);
    assert!(p.dma_in_flight(dma), "transfer must still be in flight");
    assert_delta_equals_full(&mut p, &base, 2_000);
}

/// Delta captured while a timer interrupt is posted but not yet taken.
#[test]
fn pending_interrupt_delta_roundtrips() {
    use mpsoc_suite::platform::platform::StepKind;
    let (mut p, _) = build_mesh_dma_platform();
    let base = BaseImage::new(p.capture().expect("base captures")).expect("base decodes");
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
    assert_delta_equals_full(&mut p, &base, 2_000);
}

/// The delta fault campaign is verdict-for-verdict identical to the
/// full-image campaign on a DMA- and peripheral-rich image, at every
/// tested thread count.
#[test]
fn delta_campaign_matches_full_campaign_on_mesh_image() {
    let (mut p, dma) = build_mesh_dma_platform();
    run_steps(&mut p, 300);
    let image = p.capture().expect("fault-site captures");
    let faults = generate_faults(
        0xFA117,
        24,
        &FaultSpace {
            cores: 4,
            periph_pages: vec![],
            dma_pages: vec![dma],
            mem_lo: 0x100,
            mem_hi: 0x400,
        },
    );
    let cfg = |threads| CampaignConfig {
        budget_steps: 800,
        output_addr: 0x180,
        output_words: 32,
        detect_addr: 0x7F0,
        threads,
    };
    let full = run_campaign(&image, &faults, cfg(1), None).expect("full campaign runs");
    for threads in [1, 2, 4] {
        let delta =
            run_campaign_delta(&image, &faults, cfg(threads), None).expect("delta campaign runs");
        assert_eq!(
            full.verdict_table(),
            delta.verdict_table(),
            "delta campaign at {threads} threads diverged"
        );
        assert_eq!(full, delta);
    }
}

/// Snapshot warm-started DSE — both the MAPS annealer and the CIC
/// exploration — equals the cold path bit for bit at 1/2/4/8 threads.
#[test]
fn warm_started_dse_matches_cold_at_every_thread_count() {
    // A measurement run depositing per-task profile words at 0x100.
    let build = || -> mpsoc_suite::platform::Result<Platform> {
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(512)
            .cache(None)
            .build()?;
        let prog = assemble(
            "movi r1, 0x100\nmovi r2, 310\nst r2, r1, 0\nmovi r2, 520\nst r2, r1, 1\n\
             movi r2, 140\nst r2, r1, 2\nmovi r2, 60\nst r2, r1, 3\nhalt",
        )
        .expect("profile program assembles");
        p.load_program(0, prog, 0)?;
        Ok(p)
    };
    let steps = 14;
    let cold = Prefix::cold(&build, steps);
    let mut p = build().expect("profile platform builds");
    run_steps(&mut p, steps);
    let base = BaseImage::new(p.capture().expect("profile platform captures"))
        .expect("profile image decodes");
    let warm = Prefix::base(&base);

    // MAPS: a diamond task graph, re-costed from the profile.
    let graph = mpsoc_suite::maps::taskgraph::TaskGraph {
        tasks: (0..4)
            .map(|i| mpsoc_suite::maps::taskgraph::Task {
                name: format!("t{i}"),
                cost: 50,
                pref: None,
                stmts: vec![i],
            })
            .collect(),
        edges: [(0, 1), (0, 2), (1, 3), (2, 3)]
            .into_iter()
            .map(|(from, to)| mpsoc_suite::maps::taskgraph::TaskEdge {
                from,
                to,
                volume: 1,
            })
            .collect(),
    };
    let arch = mpsoc_suite::maps::arch::ArchModel::homogeneous(3);
    let warm_graph = profile_task_costs(&graph, &warm, 0x100).expect("warm profile reads");
    assert_eq!(
        warm_graph.tasks.iter().map(|t| t.cost).collect::<Vec<_>>(),
        vec![310, 520, 140, 60]
    );
    let cold_graph = profile_task_costs(&graph, &cold, 0x100).expect("cold profile reads");
    let cold_map = anneal_multi(&cold_graph, &arch, 7, 300, 6, 1).expect("cold anneal");
    for threads in [1, 2, 4, 8] {
        let warm_map = anneal_multi(&warm_graph, &arch, 7, 300, 6, threads).expect("warm anneal");
        assert_eq!(cold_map, warm_map, "anneal diverged at {threads} threads");
    }

    // CIC: a 3-task pipeline, work-calibrated from the same profile.
    let unit = mpsoc_suite::minic::parse(
        "void gen(int out[]) { for (k = 0; k < 4; k = k + 1) { out[k] = k; } }\n\
         void work(int in[], int out[]) { for (k = 0; k < 4; k = k + 1) { out[k] = in[k] * 3; } }\n\
         void fin(int in[]) { int x = in[0]; }",
    )
    .expect("cic source parses");
    let task = |name: &str, work| mpsoc_suite::cic::model::CicTask {
        name: name.into(),
        body_fn: name.into(),
        period: None,
        deadline: None,
        work,
    };
    let chan = |name: &str, src, dst| mpsoc_suite::cic::model::CicChannel {
        name: name.into(),
        src,
        dst,
        tokens: 4,
    };
    let model = mpsoc_suite::cic::model::CicModel::new(
        unit,
        vec![task("gen", 200), task("work", 800), task("fin", 100)],
        vec![chan("a", 0, 1), chan("b", 1, 2)],
    )
    .expect("cic model builds");
    let warm_model = calibrate_task_work(&model, &warm, 0x100).expect("warm calibration reads");
    assert_eq!(
        warm_model.tasks.iter().map(|t| t.work).collect::<Vec<_>>(),
        vec![310, 520, 140]
    );
    let cold_model = calibrate_task_work(&model, &cold, 0x100).expect("cold calibration reads");
    let cold_e = explore_parallel(&cold_model, 1_200, 4, 4, 1).expect("cold explore");
    for threads in [1, 2, 4, 8] {
        let warm_e = explore_parallel(&warm_model, 1_200, 4, 4, threads).expect("warm explore");
        assert_eq!(cold_e, warm_e, "explore diverged at {threads} threads");
    }
}
