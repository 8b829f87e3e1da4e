//! Span self-time arithmetic and the per-layer table.

use mpsoc_benchmark::trace::{layer_of, layer_table, self_times, Span, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        id: 0,
    }
}

#[test]
fn nested_children_subtract_from_each_level() {
    let spans = [
        span("harness.iteration", 0, 100, None),
        span("pdl.joint_sweep", 10, 70, Some(0)),
        span("maps.anneal", 20, 50, Some(1)),
    ];
    assert_eq!(self_times(&spans), [40, 30, 30]);
}

#[test]
fn adjacent_children_leave_only_the_gaps() {
    let spans = [
        span("harness.iteration", 0, 100, None),
        span("minic.parse", 0, 40, Some(0)),
        span("minic.analysis", 40, 90, Some(0)),
    ];
    assert_eq!(self_times(&spans), [10, 40, 50]);
}

#[test]
fn overlapping_children_are_not_counted_twice() {
    let spans = [
        span("harness.iteration", 0, 100, None),
        span("gdbrsp.round_trip", 10, 60, Some(0)),
        span("gdbrsp.round_trip", 40, 80, Some(0)),
        // Entirely inside an earlier sibling.
        span("vpdebug.step", 20, 30, Some(0)),
        // Sticks out past the parent: clipped to it.
        span("apps.late", 90, 150, Some(0)),
    ];
    // Children cover [10, 80) and [90, 100): 80 of 100.
    assert_eq!(self_times(&spans)[0], 20);
}

#[test]
fn layer_self_times_sum_to_the_root_wall_time() {
    let spans = [
        span("harness.iteration", 0, 1000, None),
        span("pdl.joint_sweep", 100, 700, Some(0)),
        span("maps.anneal", 200, 500, Some(1)),
        span("minic.parse", 700, 900, Some(0)),
        span("harness.iteration", 2000, 2400, None),
        span("minic.parse", 2100, 2300, Some(4)),
    ];
    let table = layer_table(&spans);
    assert_eq!(table.root_ns, 1400);
    assert_eq!(table.self_sum_ns(), table.root_ns);
    assert_eq!(table.self_ns("minic"), 400);
    assert_eq!(table.self_ns("maps"), 300);
    assert_eq!(table.self_ns("pdl"), 300);
    assert_eq!(table.self_ns("harness"), 400);
    assert_eq!(table.self_ns("platform"), 0);
    assert_eq!(layer_of("vpdebug.run_campaign_delta"), "vpdebug");
}

#[test]
fn tracer_records_parents_only_while_enabled() {
    let mut tr = Tracer::new(true);
    tr.id = 7;
    let root = tr.begin("harness.iteration");
    let (value, _) = tr.call("minic.parse", || 42);
    tr.end(root);
    tr.enabled = false;
    tr.call("minic.parse", || ());
    assert_eq!(value, 42);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
    assert!(spans.iter().all(|s| s.id == 7 && s.end_ns >= s.start_ns));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
}

#[test]
fn an_abandoned_inner_span_does_not_corrupt_later_parents() {
    let mut tr = Tracer::new(true);
    let outer = tr.begin("harness.iteration");
    let _abandoned = tr.begin("pdl.joint_sweep"); // error path: never ended
    tr.end(outer);
    tr.call("minic.parse", || ());
    assert_eq!(tr.spans()[2].parent, None);
}
