//! # mpsoc-maps — the MAPS semi-automatic parallelization flow (Section IV)
//!
//! RWTH Aachen's MAPS project, as summarised in *"Programming MPSoC
//! Platforms: Road Works Ahead!"* (DATE 2009, Section IV and Figure 1),
//! takes *"sequential C code"* through dataflow analysis, task-graph
//! formation, mapping onto a heterogeneous MPSoC, high-level simulation, and
//! per-PE code generation. This crate implements the stages of that figure
//! that a claim or a tool reaches:
//!
//! | Figure 1 stage | Module |
//! |---|---|
//! | Sequential code → fine-grained task graphs | [`taskgraph`] |
//! | Coarse architecture model (PE classes, comm costs) | [`arch`] |
//! | Task-to-PE mapping (list scheduling, simulated annealing) | [`mapping`] |
//! | Per-PE C code generation with channel primitives | [`codegen`] |
//! | OSIP: hardware task dispatching vs. software RISC | [`osip`] |
//!
//! Experiments E5 (JPEG-style partitioning speedup) and E6 (OSIP
//! utilisation vs. granularity) build on this crate.
//!
//! ## Quickstart
//!
//! ```
//! use mpsoc_maps::arch::ArchModel;
//! use mpsoc_maps::mapping::list_schedule;
//! use mpsoc_maps::taskgraph::{coarsen, extract_task_graph};
//! use mpsoc_minic::cost::CostModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let unit = mpsoc_minic::parse(
//!     "void f(int a[], int b[]) {\n\
//!      for (i = 0; i < 64; i = i + 1) { a[i] = i * 3; }\n\
//!      for (j = 0; j < 64; j = j + 1) { b[j] = j + 7; }\n\
//!      }",
//! )?;
//! let fine = extract_task_graph(&unit, "f", &CostModel::default())?;
//! let graph = coarsen(&fine, 2)?;
//! let mapping = list_schedule(&graph, &ArchModel::homogeneous(2))?;
//! // The two independent loops land on different cores.
//! assert_ne!(mapping.assignment[0], mapping.assignment[1]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod arch;
pub mod codegen;
pub mod error;
pub mod mapping;
pub mod osip;
pub mod taskgraph;

pub use crate::arch::{ArchModel, Pe, PeClass};
pub use crate::error::{Error, Result};
pub use crate::mapping::{
    anneal, anneal_multi, evaluate, list_schedule, profile_task_costs, Mapping, Slot,
};
pub use crate::taskgraph::{coarsen, extract_task_graph, Task, TaskEdge, TaskGraph};
