//! # mpsoc-suite — reproduction of *"Programming MPSoC Platforms: Road Works Ahead!"* (DATE 2009)
//!
//! This umbrella crate re-exports the crates of the reproduction so
//! examples and downstream users can depend on a single package:
//!
//! | Crate | Paper section | Contents |
//! |---|---|---|
//! | [`obs`] | VII | metrics registry, event sinks, Chrome-trace export, PRNG |
//! | [`platform`] | substrate | cycle-approximate MPSoC virtual platform |
//! | [`minic`] | substrate | mini-C front end + interpreter oracle |
//! | [`rtkernel`] | II | hybrid time/space scheduling, admission control, scalability models |
//! | [`dataflow`] | III | CSDF graphs, buffer sizing, TT vs DD executors |
//! | [`maps`] | IV | partitioning, mapping, code generation, OSIP |
//! | [`cic`] | V | Common Intermediate Code + retargetable translator |
//! | [`explore`] | IV/V/VII | deterministic parallel sweep engine + snapshot warm starts |
//! | [`pdl`] | I/IV | declarative `.soc` platform language, topology generator, joint mapping×topology DSE |
//! | [`recoder`] | VI | designer-controlled source recoding |
//! | [`snapshot`] | VII | versioned binary checkpoint images for capture/restore |
//! | [`vpdebug`] | VII | virtual-platform debugger, time travel, fault campaigns |
//! | [`gdbrsp`] | VII | GDB Remote Serial Protocol server over `vpdebug` |
//! | [`apps`] | workloads | JPEG-like, H.264-like, car-radio, testbeds, test runner |
//!
//! [`experiments`] holds the paper's claims, one experiment each (E1–E13),
//! and decides a verdict per claim. See `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the per-claim index (regenerate with
//! `cargo run --release --bin experiments`).

#![warn(missing_docs)]

pub mod experiments;

pub use mpsoc_apps as apps;
pub use mpsoc_cic as cic;
pub use mpsoc_dataflow as dataflow;
pub use mpsoc_explore as explore;
pub use mpsoc_gdbrsp as gdbrsp;
pub use mpsoc_maps as maps;
pub use mpsoc_minic as minic;
pub use mpsoc_obs as obs;
pub use mpsoc_pdl as pdl;
pub use mpsoc_platform as platform;
pub use mpsoc_recoder as recoder;
pub use mpsoc_rtkernel as rtkernel;
pub use mpsoc_snapshot as snapshot;
pub use mpsoc_vpdebug as vpdebug;
