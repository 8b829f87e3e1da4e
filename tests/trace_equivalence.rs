//! Bounded trace store equivalence: the tiered signal history (in-memory
//! ring + streaming spill) must be pure observability.
//!
//! The contract under test: switching the signal board from the retained
//! unbounded-history oracle mode to the bounded ring changes **nothing**
//! observable about execution — state checksums, captured images (byte for
//! byte), watchpoint stops, fault-campaign verdict tables at every thread
//! count, and time-travel rewinds are all bit-identical — while the ring
//! plus the spill stream still reconstruct the exact history the oracle
//! records, exactly once, even across rewinds.

use std::sync::{Arc, Mutex};

use mpsoc_suite::apps::testbed::{build_car_radio, build_e12};
use mpsoc_suite::obs::rng::XorShift64Star;
use mpsoc_suite::platform::isa::assemble;
use mpsoc_suite::platform::platform::{Platform, PlatformBuilder, SchedulerMode, StepKind};
use mpsoc_suite::platform::{
    BaseImage, Frequency, SignalBoard, SignalChange, Time, TraceMode, TraceSpill,
    TRACE_RECORD_BYTES,
};
use mpsoc_suite::vpdebug::campaign::{generate_faults, run_campaign, CampaignConfig, FaultSpace};
use mpsoc_suite::vpdebug::{Debugger, Stop, Watchpoint};

/// Spill sink that keeps every delivered record; the shared handle lets the
/// test read what the board-owned box received.
#[derive(Clone, Default)]
struct CollectSpill(Arc<Mutex<Vec<(u64, String, SignalChange)>>>);

impl TraceSpill for CollectSpill {
    fn record(&mut self, seq: u64, name: &str, change: SignalChange) {
        self.0.lock().unwrap().push((seq, name.to_string(), change));
    }
}

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

/// Seeded property: for random drive sequences and random (small) budgets,
/// spill followed by the surviving ring reconstructs the oracle's history
/// record for record — same sequence numbers, names, times, and values.
#[test]
fn ring_plus_spill_reconstruct_the_oracle_history() {
    let names = ["irq.core0", "dma.busy", "tick", "agc_lock"];
    for seed in [0xB07_u64, 0x5EED, 0xFACE] {
        let mut rng = XorShift64Star::new(seed);
        let budget = rng.u64_in(2, 16) as usize * TRACE_RECORD_BYTES;

        let mut bounded = SignalBoard::new();
        bounded.set_trace_budget(budget);
        let spill = CollectSpill::default();
        bounded.attach_trace_spill(Box::new(spill.clone()));
        let mut oracle = SignalBoard::new();
        oracle.set_trace_mode(TraceMode::Unbounded);

        for step in 0..rng.u64_in(200, 600) {
            let name = names[rng.u64_in(0, names.len() as u64 - 1) as usize];
            let value = rng.u64_in(0, 3) as i64;
            let at = Time::from_ns(step + 1);
            assert_eq!(
                bounded.drive(name, at, value),
                oracle.drive(name, at, value),
                "seed {seed:#x}: edge detection diverged at step {step}"
            );
        }

        let full: Vec<(u64, String, SignalChange)> = oracle
            .trace_records()
            .map(|(seq, name, c)| (seq, name.to_string(), c))
            .collect();
        let mut rebuilt = spill.0.lock().unwrap().clone();
        rebuilt.extend(
            bounded
                .trace_records()
                .map(|(seq, name, c)| (seq, name.to_string(), c)),
        );
        assert_eq!(
            rebuilt, full,
            "seed {seed:#x}, budget {budget}B: spill + ring must equal the oracle history"
        );
        assert!(
            bounded.trace_stats().evicted > 0,
            "seed {seed:#x}: the budget was sized to force evictions"
        );
    }
}

/// The bounded store is invisible to execution on a real workload: the
/// car-radio platform under the default bounded budget produces the same
/// state checksum, a byte-identical full image, and the same watchpoint
/// stop sequence as the unbounded oracle.
#[test]
fn bounded_store_is_invisible_on_car_radio() {
    let build = |mode: TraceMode| {
        let mut p = build_car_radio(SchedulerMode::Calendar);
        p.set_trace_mode(mode);
        if let TraceMode::Bounded { .. } = mode {
            // Tighten the budget so the run actually overflows the ring.
            p.set_trace_budget(8 * TRACE_RECORD_BYTES);
        }
        let mut dbg = Debugger::new(p);
        dbg.add_watchpoint(Watchpoint::Signal {
            name: "tick0".into(),
            value: None,
        });
        dbg
    };
    let mut bounded = build(TraceMode::default());
    let mut oracle = build(TraceMode::Unbounded);

    let mut first_round_bytes = 0;
    for round in 0..40 {
        let a = bounded.run(500).expect("bounded run");
        let b = oracle.run(500).expect("oracle run");
        assert_eq!(a, b, "round {round}: stop reasons diverged");
        assert_eq!(
            bounded.platform().state_checksum(),
            oracle.platform().state_checksum(),
            "round {round}: state checksums diverged"
        );
        if round == 0 {
            let img = bounded.platform_mut().capture().expect("bounded captures");
            first_round_bytes = img.len();
        }
        if matches!(a, Stop::Finished) {
            break;
        }
    }
    assert!(
        bounded.trace_stats().evicted > 0,
        "the bounded run must have retired history through the ring"
    );
    assert_eq!(bounded.trace_stats().ring_bytes, 8 * TRACE_RECORD_BYTES);
    let img_b = bounded.platform_mut().capture().expect("bounded captures");
    let img_o = oracle.platform_mut().capture().expect("oracle captures");
    assert_eq!(
        img_b, img_o,
        "images must be byte-identical: history is checkpoint-excluded in both modes"
    );
    // Images are O(platform): 40x the history, retired through the ring
    // rather than serialized, must not grow the image.
    assert!(
        img_b.len() <= 2 * first_round_bytes,
        "image grew with history: {first_round_bytes}B after one round, {}B after all",
        img_b.len()
    );
}

/// The E12 fault campaign run from a bounded-store image produces a
/// verdict table bit-identical to the unbounded oracle's at 1/2/4/8
/// worker threads.
#[test]
fn e12_verdicts_match_the_oracle_at_every_thread_count() {
    let fault_site = |mode: TraceMode| {
        let (mut p, timer, mb, dma) = build_e12();
        p.set_trace_mode(mode);
        let mut guard = 0;
        while !p.dma_in_flight(dma) {
            p.step().expect("fault-free run steps");
            guard += 1;
            assert!(guard < 10_000, "DMA never started");
        }
        for _ in 0..8 {
            p.step().expect("fault-free run steps");
        }
        (p.capture().expect("fault site captures"), timer, mb, dma)
    };
    let (oracle_img, timer, mb, dma) = fault_site(TraceMode::Unbounded);
    let (bounded_img, ..) = fault_site(TraceMode::Bounded {
        budget_bytes: 4 * TRACE_RECORD_BYTES,
    });
    assert_eq!(
        bounded_img, oracle_img,
        "both retention policies must checkpoint to the same bytes"
    );

    let faults = generate_faults(
        0xE12,
        48,
        &FaultSpace {
            cores: 2,
            periph_pages: vec![timer, mb],
            dma_pages: vec![dma],
            mem_lo: 0x100,
            mem_hi: 0x2FF,
        },
    );
    let cfg = |threads| CampaignConfig {
        budget_steps: 6_000,
        output_addr: 0x200,
        output_words: 0x60,
        detect_addr: 0x210,
        threads,
    };
    let reference = run_campaign(&oracle_img, &faults, cfg(1), None).expect("oracle campaign");
    for threads in [1, 2, 4, 8] {
        let bounded =
            run_campaign(&bounded_img, &faults, cfg(threads), None).expect("bounded campaign");
        assert_eq!(
            reference.verdict_table(),
            bounded.verdict_table(),
            "verdicts diverged from the oracle at {threads} threads"
        );
    }
}

/// A bus platform with a periodic timer interrupting core 0 and a DMA
/// engine streaming into shared memory — the awkward-state testbed for
/// checkpointing under eviction pressure.
fn build_irq_dma_platform() -> (Platform, usize) {
    let mut p = PlatformBuilder::new()
        .cores(2, Frequency::mhz(100))
        .shared_words(2048)
        .build()
        .expect("irq/dma platform builds");
    let timer = p.add_timer("tick");
    let dma = p.add_dma("stream");
    let page_base = |page: usize| 0xF000_0000u32 + (page as u32) * 0x100;
    let asm0 = format!(
        "isr: addi r6, r6, 1\nrti\n\
         main: movi r10, {timer:#x}\nmovi r1, 900\nst r1, r10, 0\n\
         movi r1, 0\nst r1, r10, 3\nmovi r1, 0\nst r1, r10, 4\n\
         movi r1, 1\nst r1, r10, 1\n\
         movi r14, {dma:#x}\nmovi r1, 0x40\nst r1, r14, 0\n\
         movi r1, 0x400\nst r1, r14, 1\nmovi r1, 96\nst r1, r14, 2\n\
         movi r1, 1\nst r1, r14, 3\n\
         movi r1, 0\nmovi r2, 100000\n\
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
    let asm1 = "movi r1, 0\nmovi r2, 100000\n\
                loop: ld r3, r1, 0x240\nadd r4, r4, r3\nst r4, r1, 0x2C0\n\
                addi r1, r1, 1\nblt r1, r2, loop\nhalt\n";
    p.load_program(1, assemble(asm1).expect("core 1 assembles"), 0)
        .expect("core 1 loads");
    (p, dma)
}

/// Full and delta images taken mid-DMA under heavy eviction pressure must
/// restore bit-identically — the pending transfer is architectural state,
/// the retired history is not.
#[test]
fn mid_dma_roundtrip_survives_eviction_pressure() {
    let (mut p, dma) = build_irq_dma_platform();
    p.set_trace_budget(2 * TRACE_RECORD_BYTES);
    let spill = CollectSpill::default();
    p.attach_trace_spill(Box::new(spill.clone()));
    // Overflow the two-record ring before the awkward state arrives, so the
    // captures below happen under genuine eviction pressure.
    for i in 1..=32 {
        p.debug_drive_signal("stress", i);
    }
    assert!(p.trace_stats().evicted > 0);
    let base = BaseImage::new(p.capture().expect("base captures")).expect("base decodes");
    let mut guard = 0;
    while !p.dma_in_flight(dma) {
        run_steps(&mut p, 1);
        guard += 1;
        assert!(guard < 10_000, "DMA never started");
    }
    run_steps(&mut p, 5);
    assert!(p.dma_in_flight(dma), "transfer must still be in flight");

    let delta = p.capture_delta().expect("delta captures");
    let full = p.capture().expect("full captures");
    let mut via_full = Platform::from_image(&full).expect("full image restores");
    let mut via_delta = Platform::from_image(base.image()).expect("base restores");
    via_delta
        .restore_delta(&base, &delta)
        .expect("delta restores");
    assert_eq!(via_full.state_checksum(), via_delta.state_checksum());
    assert_eq!(via_full.state_checksum(), p.state_checksum());
    for i in 0..2_000 {
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
    assert!(
        p.trace_stats().evicted > 0,
        "the two-record budget must have forced evictions"
    );
}

/// Time-travel rewinds from a pending-IRQ edge state reproduce recorded
/// checksums exactly under a two-record trace budget, and deterministic
/// replay never re-delivers a spilled record (exactly-once across rewinds).
#[test]
fn pending_irq_rewind_is_exact_and_spills_exactly_once() {
    let (mut p, _) = build_irq_dma_platform();
    p.set_trace_budget(2 * TRACE_RECORD_BYTES);
    let spill = CollectSpill::default();
    p.attach_trace_spill(Box::new(spill.clone()));

    // Step to a pending-but-untaken timer interrupt.
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

    let mut dbg = Debugger::new(p);
    dbg.enable_time_travel(16, 64).expect("time travel enables");
    let origin = dbg.platform().steps();
    let mut checksums = vec![dbg.platform().state_checksum()];
    for _ in 0..200 {
        dbg.step().expect("forward step");
        checksums.push(dbg.platform().state_checksum());
    }
    let spilled_high_water = dbg.trace_stats().spilled;

    for target in [origin + 150, origin + 40, origin + 96] {
        assert!(
            dbg.rewind_to_step(target).expect("rewind succeeds"),
            "step {target} is within the retained horizon"
        );
        assert_eq!(
            dbg.platform().state_checksum(),
            checksums[(target - origin) as usize],
            "rewind to step {target} diverged from the forward run"
        );
        assert!(
            dbg.trace_stats().spilled <= spilled_high_water,
            "replay below the eviction frontier must not re-spill"
        );
    }
    assert_eq!(
        dbg.trace_stats().spilled,
        spill.0.lock().unwrap().len() as u64,
        "spill counter and delivered records must agree"
    );
    // Replay past the old frontier resumes spilling new sequence numbers
    // exactly where it left off — no duplicates in the stream.
    for _ in 0..200 {
        dbg.step().expect("re-run forward");
    }
    let delivered = spill.0.lock().unwrap();
    let seqs: Vec<u64> = delivered.iter().map(|(seq, _, _)| *seq).collect();
    let mut deduped = seqs.clone();
    deduped.dedup();
    assert_eq!(seqs, deduped, "a sequence number was spilled twice");
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "spill stream must be strictly ordered"
    );
}
