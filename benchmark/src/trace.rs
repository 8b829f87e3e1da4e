//! In-memory span recorder for the traced run.
//!
//! The benchmark measures every layer **from outside**: a span is recorded
//! around each call the harness makes into a workspace crate, named
//! `<layer>.<operation>` where the layer is the crate the call enters. The
//! same [`Tracer::call`] also returns the call's wall time, so the untraced
//! run times exactly the code the traced run does — with recording off the
//! only cost is the two clock reads the measurement needs anyway.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover, so the per-layer self times of one run
//! sum to the wall time of its root spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Chrome-trace files are capped at this many spans so a packet-level
/// workload (hundreds of thousands of spans) still opens in a viewer.
pub const TRACE_FILE_SPAN_CAP: usize = 50_000;

/// One recorded interval. Times are nanoseconds since the tracer was made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration or session the span belongs to.
    pub id: u64,
}

/// An open span handed out by [`Tracer::begin`].
#[derive(Debug)]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Records spans while enabled; always times.
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans are currently recorded. The harness flips this per
    /// iteration so one traced run also yields its own untraced baseline.
    pub enabled: bool,
    /// Stamped on every span recorded from now on.
    pub id: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer with recording switched `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            id: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span; close it with [`end`](Tracer::end) in LIFO order.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let at = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
                id: self.id,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, index }
    }

    /// Closes `open` and returns its wall time.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = now.duration_since(self.origin).as_nanos() as u64;
            // An error path may have abandoned inner spans: unwind to ours.
            while self.stack.pop().is_some_and(|top| top != i) {}
        }
        now.duration_since(open.start)
    }

    /// Times `f` (and records it as a span while enabled).
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.begin(name);
        let r = f();
        (r, self.end(open))
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The layer a span name belongs to: the text before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span, ns: duration minus the union of the intervals
/// its direct children cover (clipped to the span, so overlapping or
/// out-of-range children never count twice or push self time below zero).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-layer totals of one traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTable {
    /// `(layer, self ns, span count)`, by layer name.
    pub rows: Vec<(String, u64, usize)>,
    /// Wall time of the root spans, ns — what the self times must sum to.
    pub root_ns: u64,
}

impl LayerTable {
    /// Sum of all rows' self time, ns.
    pub fn self_sum_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.1).sum()
    }

    /// Self time of `layer`, ns (0 when the layer never ran).
    pub fn self_ns(&self, layer: &str) -> u64 {
        self.rows.iter().find(|r| r.0 == layer).map_or(0, |r| r.1)
    }
}

/// Folds spans into the per-layer self-time table.
pub fn layer_table(spans: &[Span]) -> LayerTable {
    let selfs = self_times(spans);
    let mut by_layer: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    let mut root_ns = 0;
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = by_layer.entry(layer_of(s.name)).or_default();
        row.0 += self_ns;
        row.1 += 1;
        if s.parent.is_none() {
            root_ns += s.end_ns - s.start_ns;
        }
    }
    LayerTable {
        rows: by_layer
            .into_iter()
            .map(|(l, (ns, n))| (l.to_string(), ns, n))
            .collect(),
        root_ns,
    }
}

/// Median duration, µs, of the spans named `name` (`None` if there are none).
pub fn median_us(spans: &[Span], name: &str) -> Option<f64> {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    crate::stats::sort(&mut d);
    crate::stats::median(&d)
}

/// Total duration, seconds, of the spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

/// Renders the first [`TRACE_FILE_SPAN_CAP`] spans in Chrome trace-event
/// format (complete `X` events, µs timestamps, layer as category).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"traceEvents\":[\n");
    for (i, sp) in spans.iter().take(TRACE_FILE_SPAN_CAP).enumerate() {
        let _ = writeln!(
            s,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{}}}}}",
            if i == 0 { "" } else { "," },
            sp.name,
            layer_of(sp.name),
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
            sp.id,
            sp.parent.map_or(-1, |p| p as i64),
        );
    }
    let _ = writeln!(
        s,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans_recorded\":{},\"spans_written\":{}}}}}",
        spans.len(),
        spans.len().min(TRACE_FILE_SPAN_CAP)
    );
    s
}
