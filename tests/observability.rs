//! Cross-layer observability integration tests (Section VII: keeping the
//! overview during multi-core software development).
//!
//! The heavy lifting — counter semantics, ring eviction, span pairing — is
//! unit-tested inside `mpsoc-obs`; these tests exercise the seams: a real
//! two-core platform run exported as Chrome `trace_event` JSON, and the
//! shared registry spanning several simulator layers at once.

use mpsoc_suite::dataflow::{
    run_self_timed_observed, ActorKind, Graph, SelfTimedConfig, WcetTimes,
};
use mpsoc_suite::obs::event::{EventKind, ObsCtx};
use mpsoc_suite::obs::export::chrome_trace;
use mpsoc_suite::obs::metrics::MetricsRegistry;
use mpsoc_suite::obs::ring::RingSink;
use mpsoc_suite::platform::isa::assemble;
use mpsoc_suite::platform::platform::PlatformBuilder;
use mpsoc_suite::platform::Frequency;
use mpsoc_suite::rtkernel::sched::{simulate_observed, Policy, SimConfig};
use mpsoc_suite::rtkernel::task::{TaskSpec, Workload};

/// Runs a two-core producer/consumer program with a sink attached and
/// returns the exported Chrome trace plus the number of captured events.
fn two_core_trace() -> (String, usize) {
    let mut p = PlatformBuilder::new()
        .cores(2, Frequency::mhz(100))
        .shared_words(512)
        .build()
        .unwrap();
    let producer = assemble("movi r1, 0x40\nmovi r2, 7\nst r2, r1, 0\nhalt").unwrap();
    let consumer = assemble(
        "movi r1, 0x40\n\
         wait: ld r2, r1, 0\nbeq r2, r0, wait\n\
         movi r3, 0x41\nst r2, r3, 0\nhalt",
    )
    .unwrap();
    p.load_program(0, producer, 0).unwrap();
    p.load_program(1, consumer, 0).unwrap();
    let mut sink = RingSink::new(4096);
    p.run_to_completion_observed(10_000, Some(&mut sink))
        .unwrap();
    let n = sink.len();
    (chrome_trace(sink.events()), n)
}

#[test]
fn two_core_run_round_trips_through_chrome_json() {
    let (json, n_events) = two_core_trace();
    assert!(n_events > 0, "a two-core run must produce events");

    let trimmed = json.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'));

    // Both cores (tids 0 and 1) show up on the platform process.
    assert!(json.contains("\"tid\":0"));
    assert!(json.contains("\"tid\":1"));
    assert!(json.contains("\"args\":{\"name\":\"platform\"}"));

    // Every record is well-formed: braces balance and the mandatory
    // name/ph/ts keys are present (metadata records carry no ts).
    let mut records = 0;
    for line in json.lines() {
        let line = line.trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        records += 1;
        assert!(line.ends_with('}'), "unterminated record: {line}");
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "unbalanced braces: {line}"
        );
        assert!(line.contains("\"name\":\""), "record without name: {line}");
        assert!(line.contains("\"ph\":\""), "record without ph: {line}");
        if !line.contains("\"ph\":\"M\"") {
            assert!(line.contains("\"ts\":"), "record without ts: {line}");
            // Both halt instants are per-core point events.
        }
    }
    assert_eq!(
        records,
        n_events + 1,
        "one JSON record per event plus one process_name metadata record"
    );

    // Timestamps are non-decreasing in file order (Perfetto requirement
    // for well-ordered rendering).
    let mut last_ts = 0u64;
    for line in json.lines() {
        if let Some(pos) = line.find("\"ts\":") {
            let rest = &line[pos + 5..];
            let end = rest.find([',', '}']).unwrap();
            let ts: u64 = rest[..end].parse().unwrap();
            assert!(ts >= last_ts, "timestamps out of order: {ts} < {last_ts}");
            last_ts = ts;
        }
    }
}

#[test]
fn one_registry_spans_simulator_layers() {
    let reg = MetricsRegistry::new();

    // Dataflow layer.
    let mut g = Graph::new();
    let s = g.add_actor("src", vec![5], ActorKind::Source { period: 50 });
    let f = g.add_actor("f", vec![20], ActorKind::Regular);
    let k = g.add_actor("snk", vec![5], ActorKind::Sink { period: 50 });
    g.add_channel(s, f, vec![1], vec![1], 0).unwrap();
    g.add_channel(f, k, vec![1], vec![1], 0).unwrap();
    run_self_timed_observed(
        &g,
        &SelfTimedConfig::default(),
        &mut WcetTimes,
        &mut ObsCtx::counters(&reg),
    )
    .unwrap();

    // Rtkernel layer, same registry.
    let mut w = Workload::new();
    w.push(TaskSpec::sequential("job", 50, 200).with_period(100, 5));
    simulate_observed(
        &w,
        &SimConfig {
            cores: 2,
            speed: 10,
            switch_overhead: 1,
            horizon: 1_000,
            policy: Policy::TimeShared,
        },
        &mut ObsCtx::counters(&reg),
    )
    .unwrap();

    let dump = reg.dump();
    assert!(dump.contains("dataflow.firings"));
    assert!(dump.contains("sched.jobs_released"));
    assert!(reg.counter("dataflow.firings").get() > 0);
    assert!(reg.counter("sched.jobs_released").get() > 0);
    // The dump is sorted, so layers group together deterministically.
    let names: Vec<&str> = dump
        .lines()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
}

#[test]
fn sinks_and_counters_compose_across_layers_in_one_stream() {
    let reg = MetricsRegistry::new();
    let mut sink = RingSink::new(8192);

    let mut g = Graph::new();
    let s = g.add_actor("src", vec![2], ActorKind::Source { period: 10 });
    let k = g.add_actor("snk", vec![2], ActorKind::Sink { period: 10 });
    g.add_channel(s, k, vec![1], vec![1], 0).unwrap();
    run_self_timed_observed(
        &g,
        &SelfTimedConfig::default(),
        &mut WcetTimes,
        &mut ObsCtx::new(&mut sink, &reg),
    )
    .unwrap();

    let mut w = Workload::new();
    w.push(TaskSpec::sequential("t", 30, 100).with_period(50, 3));
    simulate_observed(
        &w,
        &SimConfig {
            cores: 1,
            speed: 10,
            switch_overhead: 0,
            horizon: 300,
            policy: Policy::TimeShared,
        },
        &mut ObsCtx::new(&mut sink, &reg),
    )
    .unwrap();

    let evs = sink.events();
    assert!(evs.iter().any(|e| e.cat == "dataflow"));
    assert!(evs.iter().any(|e| e.cat == "rtkernel"));
    let begins = evs.iter().filter(|e| e.kind == EventKind::Begin).count();
    let ends = evs.iter().filter(|e| e.kind == EventKind::End).count();
    assert_eq!(begins, ends, "spans from both layers must pair up");

    let json = chrome_trace(evs);
    assert!(json.contains("\"args\":{\"name\":\"dataflow\"}"));
    assert!(json.contains("\"args\":{\"name\":\"rtkernel\"}"));
}

/// The debugger's rewind counters on `debug_rewind`'s rhythm — car_radio,
/// `monitor time-travel 256 64`, a long run, then four steps forward and
/// one back, 256 times: a step-back replays from the state the previous
/// one parked, two steps, except the first and those whose steps forward
/// took a checkpoint past the park, which restore the nearest checkpoint
/// and replay from there.
#[test]
fn rewind_counters_show_step_backs_replaying_from_the_park() {
    use mpsoc_suite::apps::testbed;
    use mpsoc_suite::vpdebug::{Debugger, Stop};
    let registry = MetricsRegistry::new();
    let mut dbg = Debugger::new(testbed::by_name("car_radio").expect("the testbed"));
    dbg.attach_metrics(&registry);
    dbg.enable_time_travel(256, 64)
        .expect("time travel enables");
    assert_eq!(dbg.run(20_000).expect("runs"), Stop::Budget);
    for _ in 0..256 {
        for _ in 0..4 {
            assert_eq!(dbg.step().expect("steps"), None);
        }
        assert!(dbg.step_back().expect("steps back"));
    }
    let count = |name: &str| registry.counter(name).get();
    let from_park = count("vpdebug.rewinds_from_park");
    let from_checkpoint = count("vpdebug.rewinds_from_checkpoint");
    assert_eq!(from_park + from_checkpoint, 256);
    // 768 steps past 20,000 take three checkpoints at most.
    let taken = dbg
        .checkpoint_steps()
        .iter()
        .filter(|&&s| s > 20_000)
        .count();
    assert!(taken <= 3, "{taken} checkpoints taken");
    assert!(
        from_checkpoint <= 1 + taken as u64,
        "{from_checkpoint} of 256 from a checkpoint, {taken} checkpoints taken"
    );
    let replayed = count("vpdebug.rewind_replayed_steps");
    assert!(
        replayed <= 3 * 256,
        "{replayed} steps replayed by 256 rewinds"
    );
}
