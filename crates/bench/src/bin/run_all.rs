//! Regenerates every experiment of EXPERIMENTS.md in order (`--smoke`
//! shrinks the E13 sweep to its CI size).
use mpsoc_bench::experiments as e;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("{}", e::e1_scalability());
    println!("{}", e::e2_sched());
    println!("{}", e::e3_corruption());
    println!("{}", e::e4_buffers());
    println!("{}", e::e5_maps());
    println!("{}", e::e6_osip());
    println!("{}", e::e7_cic());
    println!("{}", e::e8_recoder());
    println!("{}", e::e9_heisenbug());
    println!("{}", e::e10_admission());
    println!("{}", e::e11_explore());
    let e12 = e::e12_faults();
    println!("{e12}");
    std::fs::create_dir_all("target").expect("target dir exists");
    std::fs::write("target/E12_faults.json", e12.to_json()).expect("writes fault-coverage report");
    let e13 = e::e13_joint_dse(smoke);
    println!("{e13}");
    std::fs::write("target/E13_joint_dse.json", e13.to_json()).expect("writes Pareto artifact");
}
