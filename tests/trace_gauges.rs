//! The `trace.*` gauges are written only when a number moved, yet read as if
//! they were written after every step.
//!
//! `Platform::observe_step` used to push the signal-trace store's occupancy
//! onto three gauges on every step (three stores and three `fetch_max`);
//! it now skips the write while the published numbers still hold. The
//! contract that must survive: at every step boundary each gauge equals the
//! corresponding [`TraceStats`](mpsoc_suite::platform::TraceStats) field,
//! and the ring-bytes high-water mark equals the largest occupancy any step
//! boundary saw — with evictions on, a budget change and a restore in the
//! run.

use mpsoc_suite::apps::testbed::build_car_radio;
use mpsoc_suite::obs::metrics::MetricsRegistry;
use mpsoc_suite::platform::platform::SchedulerMode;

#[test]
fn trace_gauges_equal_trace_stats_after_every_step() {
    let registry = MetricsRegistry::new();
    let mut p = build_car_radio(SchedulerMode::Calendar);
    p.set_trace_budget(1024);
    p.attach_metrics(&registry);
    let (ring, spilled, evicted) = (
        registry.gauge("trace.ring_bytes"),
        registry.gauge("trace.spilled"),
        registry.gauge("trace.evicted"),
    );
    let mut high_water = 0;
    let mut image = None;
    for step in 0..2_000u32 {
        match step {
            // Mid-run: a checkpoint, a tighter budget, a rewind onto the
            // checkpoint — everything that moves the ring besides an edge.
            700 => image = Some(p.capture().expect("car_radio captures")),
            1_200 => p.set_trace_budget(256),
            1_500 => p
                .restore_image(image.as_ref().expect("captured at step 700"))
                .expect("own image restores"),
            _ => {}
        }
        let ev = p.step().expect("car_radio steps");
        p.recycle(ev);
        let stats = p.trace_stats();
        assert_eq!(ring.get(), stats.ring_bytes as u64, "step {step}");
        assert_eq!(spilled.get(), stats.spilled, "step {step}");
        assert_eq!(evicted.get(), stats.evicted, "step {step}");
        high_water = high_water.max(stats.ring_bytes as u64);
        assert_eq!(ring.high_water(), high_water, "step {step}");
    }
    let stats = p.trace_stats();
    assert!(stats.evicted > 0, "the budget must have forced evictions");
    assert!(
        stats.ring_bytes <= 256,
        "the tightened budget must have taken effect"
    );
}
