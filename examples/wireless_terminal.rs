//! Section IV scenario: the MAPS flow on a wireless multimedia terminal.
//!
//! A sequential JPEG-like frame encoder enters the flow; one recoder loop
//! split exposes block parallelism; the task graph is mapped onto a
//! heterogeneous RISC+DSP platform; finally per-PE C code is generated.
//!
//! ```text
//! cargo run --example wireless_terminal
//! ```

use mpsoc_suite::maps::arch::ArchModel;
use mpsoc_suite::maps::codegen::generate;
use mpsoc_suite::maps::mapping::{anneal, list_schedule};
use mpsoc_suite::maps::taskgraph::extract_task_graph;
use mpsoc_suite::minic::cost::CostModel;
use mpsoc_suite::recoder::recoder::Recoder;
use mpsoc_suite::recoder::transforms;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Sequential input + one semi-automatic partitioning action.
    let src = mpsoc_suite::apps::jpeg::jpeg_frame_minic_source(64);
    let mut session = Recoder::from_source(&src)?;
    session.apply(|u| transforms::split_loop(u, "encode_frame", 0, 4))?;
    println!(
        "recoder: {} designer action(s), {} lines rewritten",
        session.stats().automated_steps,
        session.stats().lines_changed_by_transforms
    );

    // 2. Task graph.
    let graph = extract_task_graph(session.unit(), "encode_frame", &CostModel::default())?;
    println!(
        "task graph: {} tasks, parallelism {:.2}",
        graph.tasks.len(),
        graph.parallelism()
    );

    // 3. Map onto the terminal platform (2 RISC + 2 DSP + accelerator).
    let arch = ArchModel::wireless_terminal(2, 2);
    let ls = list_schedule(&graph, &arch)?;
    let sa = anneal(&graph, &arch, 11, 500)?;
    println!(
        "mapping: list schedule {} cy, annealed {} cy on {} PEs",
        ls.makespan,
        sa.makespan,
        arch.len()
    );

    // 4. Code generation for the chosen mapping.
    let codes = generate(session.unit(), "encode_frame", &graph, &sa, &arch)?;
    println!("\ngenerated {} per-PE sources; first one:", codes.len());
    let first = &codes[0];
    for line in first.source.lines().take(12) {
        println!("  | {line}");
    }
    println!(
        "  | ... ({} lines total for PE `{}`)",
        first.source.lines().count(),
        first.pe
    );
    Ok(())
}
