//! Cross-crate integration tests: each test exercises a complete tool flow
//! spanning several crates, the way the paper's figures chain their boxes.

use mpsoc_suite::cic::archfile::ArchInfo;
use mpsoc_suite::cic::model::from_dataflow;
use mpsoc_suite::cic::translator::{auto_map, execute_translation, translate};
use mpsoc_suite::dataflow::graph::{ActorKind, Graph};
use mpsoc_suite::maps::arch::ArchModel;
use mpsoc_suite::maps::codegen::generate;
use mpsoc_suite::maps::mapping::list_schedule;
use mpsoc_suite::maps::taskgraph::extract_task_graph;
use mpsoc_suite::minic::cost::CostModel;
use mpsoc_suite::platform::isa::assemble;
use mpsoc_suite::platform::mem::periph_addr;
use mpsoc_suite::platform::periph::{mailbox_reg, timer_reg};
use mpsoc_suite::platform::platform::PlatformBuilder;
use mpsoc_suite::platform::Frequency;
use mpsoc_suite::recoder::recoder::Recoder;
use mpsoc_suite::recoder::transforms;
use mpsoc_suite::vpdebug::debugger::{Debugger, Stop, Watchpoint};

/// Figure 1 end to end: sequential C → recoder split → task graph →
/// mapping → per-PE code that still parses as mini-C.
#[test]
fn maps_figure1_flow() {
    let src = mpsoc_suite::apps::jpeg::jpeg_frame_minic_source(32);
    let mut session = Recoder::from_source(&src).unwrap();
    session
        .apply(|u| transforms::split_loop(u, "encode_frame", 0, 4))
        .unwrap();
    let graph = extract_task_graph(session.unit(), "encode_frame", &CostModel::default()).unwrap();
    assert_eq!(graph.tasks.len(), 4);
    assert!(graph.edges.is_empty(), "split blocks are independent");

    let arch = ArchModel::homogeneous(4);
    let mapping = list_schedule(&graph, &arch).unwrap();
    let speedup = graph.total_cost() as f64 / mapping.makespan as f64;
    assert!(speedup > 3.5, "speedup {speedup}");

    let codes = generate(session.unit(), "encode_frame", &graph, &mapping, &arch).unwrap();
    assert_eq!(codes.len(), 4);
    for code in codes {
        mpsoc_suite::minic::parse(&code.source)
            .unwrap_or_else(|e| panic!("generated code for {} invalid: {e}", code.pe));
    }
}

/// Figure 2's automatic front end: dataflow model → CIC → both targets,
/// identical outputs.
#[test]
fn dataflow_to_cic_retargeting() {
    let mut g = Graph::new();
    let src = g.add_actor("sensor", vec![10], ActorKind::Source { period: 500 });
    let f1 = g.add_actor("filter", vec![80], ActorKind::Regular);
    let f2 = g.add_actor("scale", vec![40], ActorKind::Regular);
    let snk = g.add_actor("log", vec![5], ActorKind::Sink { period: 500 });
    g.add_channel(src, f1, vec![4], vec![4], 0).unwrap();
    g.add_channel(f1, f2, vec![4], vec![4], 0).unwrap();
    g.add_channel(f2, snk, vec![4], vec![4], 0).unwrap();

    let model = from_dataflow(&g).unwrap();
    let reference = mpsoc_suite::cic::executor::execute(&model, 4).unwrap();
    assert!(!reference.sinks.is_empty());
    for arch in [ArchInfo::cell_like(2), ArchInfo::smp_like(3)] {
        let mapping = auto_map(&model, &arch).unwrap();
        let t = translate(&model, &arch, &mapping).unwrap();
        let run = execute_translation(&model, &t, 4).unwrap();
        assert_eq!(run.sinks, reference.sinks, "target {}", arch.name);
    }
}

/// Platform + debugger: a timer-driven interrupt handler observed through
/// a signal watchpoint, with non-intrusive peripheral inspection.
#[test]
fn platform_debugger_timer_flow() {
    let mut p = PlatformBuilder::new()
        .cores(1, Frequency::mhz(100))
        .shared_words(512)
        .build()
        .unwrap();
    let page = p.add_timer("tick");
    let period = periph_addr(page, timer_reg::PERIOD);
    let ctrl = periph_addr(page, timer_reg::CTRL);
    let prog = assemble(&format!(
        "movi r1, {period}\nmovi r2, 200\nst r2, r1, 0\n\
         movi r1, {ctrl}\nmovi r2, 1\nst r2, r1, 0\n\
         spin: wfi\njmp spin\n\
         isr: movi r3, 0x40\nld r4, r3, 0\naddi r4, r4, 1\nst r4, r3, 0\nrti"
    ))
    .unwrap();
    let isr = prog.label("isr").unwrap();
    p.load_program(0, prog, 0).unwrap();
    p.core_mut(0).unwrap().set_irq_vector(Some(isr));
    let mut dbg = Debugger::new(p);
    dbg.add_watchpoint(Watchpoint::Signal {
        name: "tick.tick".into(),
        value: None,
    });
    // First tick fires the signal watchpoint.
    assert!(matches!(dbg.run(100_000).unwrap(), Stop::Watchpoint { .. }));
    // Non-intrusive peripheral inspection mid-run.
    let snap = dbg.peripheral(page).unwrap();
    assert!(snap.contains(&(timer_reg::CTRL, 1)));
    // Let several interrupts land; the handler counter grows.
    dbg.clear_conditions();
    for _ in 0..2_000 {
        if dbg.step().unwrap().is_some() {
            break;
        }
    }
    assert!(dbg.read_mem(0x40).unwrap() >= 2);
    // The IRQ trace recorded deliveries.
    assert!(dbg.trace().entries().any(|e| e.irq.is_some()));
}

/// The mailbox-based message-passing style of Section II, on the real
/// platform: producer/consumer through a hardware FIFO with interrupts.
#[test]
fn mailbox_message_passing_flow() {
    let mut p = PlatformBuilder::new()
        .cores(2, Frequency::mhz(100))
        .shared_words(512)
        .build()
        .unwrap();
    let page = p.add_mailbox("mb", 8);
    let data = periph_addr(page, mailbox_reg::DATA);
    let count = periph_addr(page, mailbox_reg::COUNT);
    let producer = assemble(&format!(
        "movi r1, {data}\nmovi r2, 1\n\
         loop: st r2, r1, 0\naddi r2, r2, 1\nmovi r3, 6\nblt r2, r3, loop\nhalt"
    ))
    .unwrap();
    let consumer = assemble(&format!(
        "movi r1, {count}\nmovi r4, 0\nmovi r6, 5\n\
         wait: ld r2, r1, 0\nbeq r2, r0, wait\n\
         movi r3, {data}\nld r5, r3, 0\nadd r4, r4, r5\n\
         movi r7, 0x30\nst r4, r7, 0\n\
         addi r6, r6, -1\nbne r6, r0, wait\nhalt"
    ))
    .unwrap();
    p.load_program(0, producer, 0).unwrap();
    p.load_program(1, consumer, 0).unwrap();
    p.run_to_completion(1_000_000).unwrap();
    // 1+2+3+4+5 = 15 arrived through the FIFO in order.
    assert_eq!(p.debug_read(0x30).unwrap(), 15);
}

/// A mesh-NoC platform runs the same software as the bus platform with
/// identical functional results but different timing — topology is a pure
/// timing concern (§II.A's scalable interconnect).
#[test]
fn mesh_and_bus_platforms_agree_functionally() {
    use mpsoc_suite::platform::platform::InterconnectConfig;
    use mpsoc_suite::platform::Time;
    let run = |ic: InterconnectConfig| {
        let mut p = PlatformBuilder::new()
            .cores(4, Frequency::mhz(100))
            .shared_words(1024)
            .cache(None)
            .interconnect(ic)
            .build()
            .unwrap();
        for c in 0..4 {
            let prog = assemble(&format!(
                "movi r1, {}\nmovi r2, {}\nst r2, r1, 0\nld r3, r1, 0\nhalt",
                0x100 + c,
                (c + 1) * 11
            ))
            .unwrap();
            p.load_program(c, prog, 0).unwrap();
        }
        p.run_to_completion(100_000).unwrap();
        let mem: Vec<i64> = (0..4)
            .map(|c| p.debug_read(0x100 + c as u32).unwrap())
            .collect();
        (mem, p.now())
    };
    let (bus_mem, bus_t) = run(InterconnectConfig::Bus {
        latency: Time::from_ns(50),
        occupancy: Time::from_ns(20),
    });
    let (mesh_mem, mesh_t) = run(InterconnectConfig::Mesh {
        w: 3,
        h: 2,
        hop_latency: Time::from_ns(10),
        link_occupancy: Time::from_ns(5),
    });
    assert_eq!(bus_mem, mesh_mem, "topology must not change function");
    assert_ne!(bus_t, mesh_t, "topology must change timing");
}

/// Fine-grained DVFS mid-run (§II.A): re-clocking a core between
/// instructions accelerates only the remainder of its work.
#[test]
fn dvfs_midrun_boost() {
    let run = |boost: bool| {
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(64)
            .cache(None)
            .build()
            .unwrap();
        let prog = assemble("movi r1, 400\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt").unwrap();
        p.load_program(0, prog, 0).unwrap();
        let mut steps = 0u64;
        loop {
            let ev = p.step().unwrap();
            if ev.is_idle() {
                break;
            }
            steps += 1;
            if boost && steps == 100 {
                p.core_mut(0).unwrap().set_frequency(Frequency::mhz(400));
            }
        }
        p.now()
    };
    let base = run(false);
    let boosted = run(true);
    assert!(
        boosted < base,
        "boost must shorten the run: {boosted} vs {base}"
    );
    // But not by the full 4x: the first 100 steps ran at base clock.
    assert!(boosted.as_ps() * 3 > base.as_ps());
}
