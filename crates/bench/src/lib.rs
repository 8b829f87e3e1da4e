//! # mpsoc-bench — the experiment harness of the reproduction
//!
//! One function (and one binary) per experiment E1–E12 of `EXPERIMENTS.md`,
//! plus microbenchmarks of the underlying kernels built on the std-only
//! [`microbench`] harness (a Criterion-compatible shim, so the workspace
//! builds offline). Run everything with
//! `cargo run -p mpsoc-bench --bin run_all`, or a single experiment with
//! e.g. `cargo run -p mpsoc-bench --bin e5`.

#![warn(missing_docs)]

pub mod experiments;
pub mod microbench;
