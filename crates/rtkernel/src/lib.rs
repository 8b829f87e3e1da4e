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
//! | Fine-grained per-core DVFS under a power budget | [`dvfs`] |
//! | Strict memory-locality enforcement, ownership transfer | [`locality`] |
//! | Flat, de-coupled, asynchronously-messaging sequential components | [`msg`] |
//!
//! Experiments E1 (scalability) and E2 (hybrid scheduling) in the workspace
//! `bench` crate are built from these models.
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
pub mod dvfs;
pub mod error;
pub mod locality;
pub mod msg;
pub mod scalability;
pub mod sched;
pub mod sweep;
pub mod task;

pub use crate::admission::{AdmissionConfig, AdmissionController};
pub use crate::error::{Error, Result};
pub use crate::sched::{simulate, Policy, SimConfig, SimResult};
pub use crate::sweep::{
    policy_grid, profile_workload, sweep_policies, PolicyCandidate, PolicySweep,
};
pub use crate::task::{TaskId, TaskSpec, Workload};
