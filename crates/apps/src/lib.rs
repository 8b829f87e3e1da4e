//! # mpsoc-apps — realistic workloads for the MPSoC tool-flow experiments
//!
//! The paper's sections each name the application domain they were built
//! for: MAPS partitions a *JPEG encoder* (Section IV), HOPES generates an
//! *H.264 encoder* for Cell and MPCore (Section V), and the Hijdra
//! dataflow work targets *car radios and mobile phones* (Section III).
//! This crate implements those workloads:
//!
//! * [`jpeg`] — 8×8 integer DCT, quantisation, zigzag, RLE; as a Rust
//!   reference **and** as sequential mini-C for the partitioning and
//!   recoding experiments (the two agree bit-exactly).
//! * [`h264`] — motion estimation, the H.264 4×4 core transform,
//!   quantisation, exp-Golomb entropy sizing; plus a ready-made CIC model
//!   for the retargeting experiment.
//! * [`audio`] — FIR/biquad/AGC car-radio chain and its CSDF graph.
//! * [`testbed`] — the ready-to-debug virtual platforms (car-radio, JPEG,
//!   race, E12) behind a name registry for `mpsoc-test` and `mpsoc-gdb`.
//! * [`testrunner`] — the declarative headless test engine: scripts drive
//!   a platform through the debug stack and emit JSON + JUnit verdicts.

#![warn(missing_docs)]

pub mod audio;
pub mod h264;
pub mod jpeg;
pub mod testbed;
pub mod testrunner;
