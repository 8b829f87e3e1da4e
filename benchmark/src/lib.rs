//! # mpsoc-benchmark — one layered benchmark for the whole stack
//!
//! A standalone crate that measures the mpsoc-suite workspace **from
//! outside**, by timing calls into its public functions: seven workloads,
//! five end-to-end metrics every workload reports, and a per-layer table
//! from a separate traced run. See `README.md` for the method and
//! `../BENCHMARK.json` for the contract the acceptance driver runs.

#![warn(missing_docs)]

pub mod gen;
pub mod harness;
pub mod json;
pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use harness::{Outcome, RunConfig};
use layers::Res;

/// Runs the workload called `name` under `cfg`.
///
/// # Errors
///
/// An unknown workload name, or a set-up failure.
pub fn run_workload(name: &str, cfg: RunConfig) -> Res<Outcome> {
    use workloads::{debug, regress, sim, toolflow};
    match name {
        "toolflow_dse" => harness::run::<toolflow::Toolflow>(cfg),
        "sim_compute" => harness::run::<sim::Sim<sim::Compute>>(cfg),
        "sim_control" => harness::run::<sim::Sim<sim::Control>>(cfg),
        "debug_interactive" => harness::run::<debug::Interactive>(cfg),
        "debug_rewind" => harness::run::<debug::Rewind>(cfg),
        "regress_scripts" => harness::run::<regress::Scripts>(cfg),
        "regress_campaign" => harness::run::<regress::Campaign>(cfg),
        _ => Err(format!(
            "unknown workload {name:?} (known: {})",
            harness::WORKLOADS.join(", ")
        )),
    }
}
