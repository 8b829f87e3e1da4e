//! # mpsoc-obs — suite-wide observability (paper Section VII)
//!
//! Section VII of *"Programming MPSoC Platforms: Road Works Ahead!"* argues
//! that *"hardware and software tracing capabilities address another major
//! problem of multi core software development — the ability to keep the
//! overview during debugging"*. This crate is the measurement substrate the
//! whole suite shares: every simulator layer (platform, rtkernel, dataflow,
//! maps, cic, vpdebug) reports into the same counters and the same event
//! stream, so one run can be inspected end to end.
//!
//! The crate is **pure std** — no external dependencies — so the workspace
//! builds hermetically (offline, no crates.io access).
//!
//! | Need | Module |
//! |---|---|
//! | Named monotonic counters and high-water gauges | [`metrics`] |
//! | Structured begin/end/instant/counter events | [`event`] |
//! | Bounded in-memory event history | [`ring`] |
//! | Chrome `trace_event` JSON + plain-text metric dumps | [`export`] |
//! | Deterministic seeded randomness (xorshift64*) | [`rng`] |
//!
//! ## Quickstart
//!
//! ```
//! use mpsoc_obs::event::{Event, EventSink};
//! use mpsoc_obs::metrics::MetricsRegistry;
//! use mpsoc_obs::ring::RingSink;
//!
//! let registry = MetricsRegistry::new();
//! let fires = registry.counter("dataflow.firings");
//! let mut sink = RingSink::new(1024);
//! for t in 0..3u64 {
//!     fires.inc();
//!     sink.emit(Event::begin(t * 10, "fir", "dataflow", 0));
//!     sink.emit(Event::end(t * 10 + 7, "fir", "dataflow", 0));
//! }
//! assert_eq!(fires.get(), 3);
//! let json = mpsoc_obs::export::chrome_trace(sink.events());
//! assert!(json.contains("\"ph\":\"B\""));
//! ```
//!
//! Instrumented code paths take an [`ObsCtx`]: a pair
//! of optional borrows (event sink + metrics registry). Passing
//! [`ObsCtx::none`] makes every hook a predictable
//! branch on `None` — uninstrumented runs pay nothing beyond that.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod ring;
pub mod rng;

pub use crate::event::{Event, EventKind, EventSink, ObsCtx};
pub use crate::export::chrome_trace;
pub use crate::metrics::{Counter, Gauge, MetricsRegistry};
pub use crate::ring::{Ring, RingSink};
pub use crate::rng::XorShift64Star;
