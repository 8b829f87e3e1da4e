//! # mpsoc-bench — the experiment harness of the reproduction
//!
//! One function (and one binary) per experiment E1–E13 of `EXPERIMENTS.md`.
//! Run everything with
//! `cargo run -p mpsoc-bench --bin run_all`, or a single experiment with
//! e.g. `cargo run -p mpsoc-bench --bin e5`.

#![warn(missing_docs)]

pub mod experiments;
