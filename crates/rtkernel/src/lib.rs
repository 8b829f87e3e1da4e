//! # mpsoc-rtkernel — real-time manycore kernel models (paper Section II)
//!
//! Ericsson's position in *"Programming MPSoC Platforms: Road Works Ahead!"*
//! (DATE 2009, Section II) proposes a complete HW/OS/programming-model stack
//! for real-time applications on chips with *"several tens and hundreds of
//! cores"*. This crate implements each layer as an executable model:
//!
//! | Paper principle | Module |
//! |---|---|
//! | Amdahl bottlenecks, heterogeneity penalty, frequency boosting | [`scalability`] |
//! | Time-shared + space-shared reactive scheduling | [`sched`] |
//! | Predictable reactive admission of parallel and sequential tasks | [`admission`] |
//! | Scheduling-policy × boost design-space sweeps | [`sweep`] |
//!
//! Experiments E1 (scalability), E2 (hybrid scheduling) and E10 (admission
//! control) in the root package's `src/experiments.rs` are built from these
//! models. Per-core frequency boosting is a property of the simulated
//! platform itself (`mpsoc-platform`'s `Core::set_frequency`), not a model
//! here.
//!
//! ## Quickstart
//!
//! ```
//! use mpsoc_rtkernel::sched::{simulate, Policy, SimConfig};
//! use mpsoc_rtkernel::task::{TaskSpec, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut w = Workload::new();
//! w.push(TaskSpec::parallel("video", 10, 900, 4, 200).with_period(250, 8));
//! let cfg = SimConfig {
//!     policy: Policy::Hybrid { ts_cores: 2, boost: 1.5 },
//!     ..SimConfig::default()
//! };
//! let result = simulate(&w, &cfg)?;
//! assert_eq!(result.total_missed(), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod error;
pub mod scalability;
pub mod sched;
pub mod sweep;
pub mod task;

pub use crate::admission::{AdmissionConfig, AdmissionController};
pub use crate::error::{Error, Result};
pub use crate::sched::{simulate, Policy, SimConfig};
pub use crate::sweep::{profile_workload, sweep_policies, PolicySweep};
pub use crate::task::{TaskSpec, Workload};
