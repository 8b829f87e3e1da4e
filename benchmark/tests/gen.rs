//! The seeded generators: every generated input is one the program
//! accepts, and the same seed always yields the same input.

use mpsoc_benchmark::gen;
use mpsoc_benchmark::layers;

#[test]
fn every_generated_minic_source_parses_and_analyses() {
    for seed in 0..64 {
        let src = gen::minic_source(&mut gen::rng(seed, 1, 0));
        let lines = src.lines().count();
        assert!(
            (gen::MINIC_TARGET_LINES..gen::MINIC_TARGET_LINES + 40).contains(&lines),
            "seed {seed}: {lines} lines"
        );
        let unit = layers::minic_parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        assert!(unit.functions.len() >= 8, "seed {seed}");
        assert!(
            layers::minic_analysis(&unit) > 0,
            "seed {seed}: no dependences found"
        );
    }
}

#[test]
fn every_toolflow_input_runs_its_engine_flows_without_error() {
    for seed in 0..48 {
        let input = gen::toolflow_input(seed, seed % 5).expect("input generates");
        let (_, rt_trials) =
            layers::rt_sweep(&input.rt).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(rt_trials, 10, "1 time-shared + 3 x 3 hybrid policies");
        let (caps, probes) =
            layers::df_sizing(&input.df).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(caps.len(), 2);
        assert!(
            probes > 0 || caps.iter().all(|&c| c == 1),
            "seed {seed}: {caps:?}"
        );
    }
}

#[test]
fn generators_are_deterministic_and_seed_sensitive() {
    let a = gen::toolflow_input(9, 3).unwrap();
    let b = gen::toolflow_input(9, 3).unwrap();
    assert_eq!(a.minic, b.minic);
    assert_eq!(
        (a.anneal_seed, a.joint_seed, a.cic_deadline),
        (b.anneal_seed, b.joint_seed, b.cic_deadline)
    );
    assert_ne!(a.minic, gen::toolflow_input(9, 4).unwrap().minic);
    assert_ne!(a.joint_seed, gen::toolflow_input(10, 3).unwrap().joint_seed);
    assert_eq!(
        gen::inspect_schedule(5, 32, 4),
        gen::inspect_schedule(5, 32, 4)
    );
    assert_ne!(
        gen::inspect_schedule(5, 32, 4),
        gen::inspect_schedule(6, 32, 4)
    );
    assert_ne!(gen::fault_seed(1, 0), gen::fault_seed(1, 1));
}

#[test]
fn inspect_schedule_stays_inside_the_platform() {
    for r in gen::inspect_schedule(77, 1000, 4) {
        assert!((1..=4).contains(&r.thread));
        // car_radio has 4096 shared words.
        assert!(r.addr + r.len <= 4096, "{r:?}");
        assert!((16..=64).contains(&r.len));
    }
    assert!(gen::warmup_offset_us(3) < 1000);
    assert!(gen::rewind_offset_steps(3) < 1000);
}
