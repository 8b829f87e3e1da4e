//! Named monotonic counters and high-water gauges.
//!
//! A [`MetricsRegistry`] is a flat namespace of metrics created on first
//! use. Handles ([`Counter`], [`Gauge`]) are cheap `Arc<AtomicU64>` clones:
//! the registry lock is taken only at registration, never on the hot path.
//! Incrementing a counter is a single relaxed atomic add, so simulator
//! inner loops can afford to keep handles around and bump them per step.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter (events, cycles, bytes, ...).
#[derive(Clone, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge tracking a current value plus its high-water mark.
#[derive(Clone, Debug)]
pub struct Gauge {
    value: Arc<AtomicU64>,
    high_water: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the current value, updating the high-water mark if exceeded.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever [`set`](Gauge::set).
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// What kind of metric a [`MetricSample`] came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonic [`Counter`].
    Counter,
    /// A [`Gauge`]; the sample's `value` is the current value and
    /// `high_water` the maximum observed.
    Gauge,
}

/// A point-in-time reading of one metric, as returned by
/// [`MetricsRegistry::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSample {
    /// Registered metric name, e.g. `"cache.misses"`.
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Current value.
    pub value: u64,
    /// High-water mark (equals `value` for counters).
    pub high_water: u64,
}

#[derive(Clone)]
enum Entry {
    Counter(Counter),
    Gauge(Gauge),
}

/// A registry of named metrics, shared across simulator layers.
///
/// Names are dotted paths by convention (`"noc.transfers"`,
/// `"sched.deadline_misses"`). Asking for an existing name returns a handle
/// to the same underlying metric; asking for an existing name *of the other
/// kind* panics, since that is always an instrumentation bug — after the
/// registry's lock is released, so the registry stays usable by whoever
/// catches the panic.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<(String, Entry)>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry registered as `name`, of whichever kind, or `new` freshly
    /// registered under it. The lock is held only in here: nothing in here
    /// panics, so no caller can poison it.
    fn entry(&self, name: &str, new: impl FnOnce() -> Entry) -> Entry {
        let mut entries = self.entries.lock().unwrap();
        if let Some((_, entry)) = entries.iter().find(|(n, _)| n == name) {
            return entry.clone();
        }
        let entry = new();
        entries.push((name.to_string(), entry.clone()));
        entry
    }

    /// Returns the counter named `name`, creating it at zero if absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a gauge.
    pub fn counter(&self, name: &str) -> Counter {
        let new = || {
            Entry::Counter(Counter {
                value: Arc::new(AtomicU64::new(0)),
            })
        };
        match self.entry(name, new) {
            Entry::Counter(c) => c,
            Entry::Gauge(_) => panic!("metric {name:?} is a gauge, not a counter"),
        }
    }

    /// Returns the gauge named `name`, creating it at zero if absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a counter.
    pub fn gauge(&self, name: &str) -> Gauge {
        let new = || {
            Entry::Gauge(Gauge {
                value: Arc::new(AtomicU64::new(0)),
                high_water: Arc::new(AtomicU64::new(0)),
            })
        };
        match self.entry(name, new) {
            Entry::Gauge(g) => g,
            Entry::Counter(_) => panic!("metric {name:?} is a counter, not a gauge"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True if no metric has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time reading of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let entries = self.entries.lock().unwrap();
        let mut out: Vec<MetricSample> = entries
            .iter()
            .map(|(name, entry)| match entry {
                Entry::Counter(c) => {
                    let v = c.get();
                    MetricSample {
                        name: name.clone(),
                        kind: MetricKind::Counter,
                        value: v,
                        high_water: v,
                    }
                }
                Entry::Gauge(g) => MetricSample {
                    name: name.clone(),
                    kind: MetricKind::Gauge,
                    value: g.get(),
                    high_water: g.high_water(),
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// A plain-text dump of all metrics, one `name value` line per metric
    /// (gauges also show their high-water mark), sorted by name.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in self.snapshot() {
            match s.kind {
                MetricKind::Counter => {
                    let _ = writeln!(out, "{} {}", s.name, s.value);
                }
                MetricKind::Gauge => {
                    let _ = writeln!(out, "{} {} (hwm {})", s.name, s.value, s.high_water);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        let mut last = c.get();
        for i in 0..100 {
            if i % 3 == 0 {
                c.add(5);
            } else {
                c.inc();
            }
            let now = c.get();
            assert!(now > last, "counter must only increase");
            last = now;
        }
    }

    #[test]
    fn a_kind_conflict_leaves_the_registry_usable() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(2);
        reg.gauge("g").set(5);
        assert!(std::panic::catch_unwind(|| reg.gauge("c")).is_err());
        assert!(std::panic::catch_unwind(|| reg.counter("g")).is_err());
        // Nothing was registered by the refused calls, and every later
        // call — the same names, other names, reads — still works.
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.counter("c").get(), 2);
        assert_eq!(reg.gauge("g").high_water(), 5);
        reg.counter("d").inc();
        let names: Vec<String> = reg.snapshot().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["c", "d", "g"]);
        assert!(reg.dump().contains("g 5 (hwm 5)"));
    }

    #[test]
    fn same_name_shares_storage() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("shared");
        let b = reg.counter("shared");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("occ");
        g.set(4);
        g.set(9);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 9);
    }

    #[test]
    #[should_panic(expected = "is a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("m");
        reg.counter("m");
    }

    #[test]
    fn snapshot_and_dump_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b.count").add(2);
        reg.gauge("a.occ").set(5);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "a.occ");
        assert_eq!(snap[0].kind, MetricKind::Gauge);
        assert_eq!(snap[1].value, 2);
        let dump = reg.dump();
        assert!(dump.contains("a.occ 5 (hwm 5)"));
        assert!(dump.contains("b.count 2"));
    }
}
