//! # mpsoc-cic — the HOPES Common Intermediate Code flow (Section V)
//!
//! Seoul National University's HOPES design flow, as presented in
//! *"Programming MPSoC Platforms: Road Works Ahead!"* (DATE 2009,
//! Section V and Figure 2), raises embedded-software design productivity
//! through a *retargetable* parallel programming model: the Common
//! Intermediate Code (CIC). This crate implements the full flow:
//!
//! | Figure 2 stage | Module |
//! |---|---|
//! | KPN/UML/dataflow model → automatic CIC generation | [`model::from_dataflow`] |
//! | Manual CIC (task codes + channels, period/deadline annotations) | [`model`] |
//! | Architecture information (built-in Cell-like and SMP targets) | [`archfile`] |
//! | Task mapping (manual or automatic) | [`translator::auto_map`] |
//! | CIC translation to target-executable code + run-time synthesis | [`translator`] |
//! | Functional reference semantics | [`executor`] |
//!
//! The paper validates CIC by generating an H.264 encoder for the Cell
//! processor and the same spec for an ARM MPCore SMP; experiment E7
//! mirrors that with the built-in [`archfile::ArchInfo::cell_like`] and
//! [`archfile::ArchInfo::smp_like`] targets and proves the two translations
//! produce identical observable output.
//!
//! ## Quickstart
//!
//! ```
//! use mpsoc_cic::archfile::ArchInfo;
//! use mpsoc_cic::executor::execute;
//! use mpsoc_cic::translator::{auto_map, execute_translation, translate};
//! use mpsoc_cic::model::{CicChannel, CicModel, CicTask};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let unit = mpsoc_minic::parse(
//!     "void gen(int out[]) { for (k = 0; k < 4; k = k + 1) { out[k] = k + 1; } }\n\
//!      void sum(int in[]) { int s = in[0] + in[1] + in[2] + in[3]; }",
//! )?;
//! let model = CicModel::new(
//!     unit,
//!     vec![
//!         CicTask { name: "gen".into(), body_fn: "gen".into(), period: Some(100), deadline: None, work: 10 },
//!         CicTask { name: "sum".into(), body_fn: "sum".into(), period: None, deadline: None, work: 5 },
//!     ],
//!     vec![CicChannel { name: "c".into(), src: 0, dst: 1, tokens: 4 }],
//! )?;
//! let reference = execute(&model, 2)?;
//! let arch = ArchInfo::cell_like(1);
//! let translation = translate(&model, &arch, &auto_map(&model, &arch)?)?;
//! assert_eq!(execute_translation(&model, &translation, 2)?.sinks, reference.sinks);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod archfile;
pub mod error;
pub mod executor;
pub mod explore;
pub mod model;
pub mod translator;

pub use crate::archfile::ArchInfo;
pub use crate::error::{Error, Result};
pub use crate::executor::execute;
pub use crate::explore::{calibrate_task_work, explore_parallel, Candidate, Exploration};
pub use crate::model::{from_dataflow, CicChannel, CicModel, CicTask};
pub use crate::translator::{auto_map, execute_translation, translate, Op};
