//! Cross-layer determinism contract of the shared exploration engine.
//!
//! Every parallel sweep in the suite — multi-start annealing (`maps`),
//! architecture exploration (`cic`), scheduling-policy sweeps
//! (`rtkernel`), buffer-sizing search (`dataflow`), and fault-injection
//! campaigns (`vpdebug`) — now fans out through
//! [`mpsoc_suite::explore::Sweep`]. The engine promises bit-identical
//! results at any thread count and promises that a snapshot warm start
//! ([`Prefix::base`]) equals re-simulating the prefix cold
//! ([`Prefix::cold`]). This test pins both promises **for all five flows at once**, so a
//! change to the engine's seed splitting, chunking, or merge order cannot
//! silently de-synchronise one layer from the others.

use mpsoc_suite::explore::{Prefix, PREFIX_STEPS_COUNTER, WARM_HITS_COUNTER};
use mpsoc_suite::obs::MetricsRegistry;
use mpsoc_suite::platform::isa::assemble;
use mpsoc_suite::platform::platform::{Platform, PlatformBuilder};
use mpsoc_suite::platform::time::Frequency;
use mpsoc_suite::platform::BaseImage;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A 1-core measurement platform whose program deposits the given profile
/// words at `0x100 + i`, plus the step count needed to finish depositing.
fn profile_platform(
    words: &[i64],
) -> (
    impl Fn() -> mpsoc_suite::platform::Result<Platform> + '_,
    u64,
) {
    let steps = 1 + 2 * words.len() as u64 + 1;
    let build = move || -> mpsoc_suite::platform::Result<Platform> {
        let mut src = String::from("movi r1, 0x100\n");
        for (i, w) in words.iter().enumerate() {
            src.push_str(&format!("movi r2, {w}\nst r2, r1, {i}\n"));
        }
        src.push_str("halt");
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(512)
            .cache(None)
            .build()?;
        p.load_program(0, assemble(&src).unwrap(), 0)?;
        Ok(p)
    };
    (build, steps)
}

/// Captures a base image at `steps` for the warm counterpart of a cold
/// prefix.
fn warm_base(build: &dyn Fn() -> mpsoc_suite::platform::Result<Platform>, steps: u64) -> BaseImage {
    let mut p = build().unwrap();
    for _ in 0..steps {
        p.step().unwrap();
    }
    BaseImage::new(p.capture().unwrap()).unwrap()
}

/// The engine's own counters must prove what each prefix did: the cold one
/// re-simulated its `steps`, the warm one restored and simulated nothing.
fn assert_prefix_counters(cold: &MetricsRegistry, warm: &MetricsRegistry, steps: u64) {
    assert!(cold.counter(PREFIX_STEPS_COUNTER).get() >= steps);
    assert_eq!(warm.counter(PREFIX_STEPS_COUNTER).get(), 0);
    assert!(warm.counter(WARM_HITS_COUNTER).get() > 0);
}

// ---------------------------------------------------------------------------
// maps: multi-start annealing
// ---------------------------------------------------------------------------

mod maps_flow {
    use super::*;
    use mpsoc_suite::maps::arch::ArchModel;
    use mpsoc_suite::maps::mapping::{anneal_multi, profile_task_costs};
    use mpsoc_suite::maps::taskgraph::{Task, TaskEdge, TaskGraph};

    fn diamond(costs: [u64; 4]) -> TaskGraph {
        TaskGraph {
            tasks: costs
                .iter()
                .enumerate()
                .map(|(i, &c)| Task {
                    name: format!("t{i}"),
                    cost: c,
                    pref: None,
                    stmts: vec![i],
                })
                .collect(),
            edges: [(0, 1), (0, 2), (1, 3), (2, 3)]
                .iter()
                .map(|&(from, to)| TaskEdge {
                    from,
                    to,
                    volume: 2,
                })
                .collect(),
        }
    }

    #[test]
    fn anneal_multi_is_thread_count_invariant() {
        let g = diamond([37, 91, 64, 22]);
        let arch = ArchModel::homogeneous(3);
        let reference = anneal_multi(&g, &arch, 0xA11, 300, 6, 1).unwrap();
        for threads in THREADS {
            let m = anneal_multi(&g, &arch, 0xA11, 300, 6, threads).unwrap();
            assert_eq!(m, reference, "maps anneal_multi at {threads} threads");
        }
    }

    #[test]
    fn profiled_anneal_warm_equals_cold() {
        let (build, steps) = profile_platform(&[55, 40, 90, 15]);
        let base = warm_base(&build, steps);
        let cold = Prefix::cold(&build, steps);
        let warm = Prefix::base(&base);
        let g = diamond([37, 91, 64, 22]);
        let arch = ArchModel::homogeneous(3);
        let cold_g = profile_task_costs(&g, &cold, 0x100).unwrap();
        let warm_g = profile_task_costs(&g, &warm, 0x100).unwrap();
        let reference = anneal_multi(&cold_g, &arch, 7, 200, 6, 1).unwrap();
        for threads in THREADS {
            let m = anneal_multi(&warm_g, &arch, 7, 200, 6, threads).unwrap();
            assert_eq!(m, reference, "maps warm start at {threads} threads");
        }
    }
}

// ---------------------------------------------------------------------------
// cic: architecture exploration
// ---------------------------------------------------------------------------

mod cic_flow {
    use super::*;
    use mpsoc_suite::cic::{calibrate_task_work, explore_parallel, CicChannel, CicModel, CicTask};

    fn model() -> CicModel {
        let unit = mpsoc_suite::minic::parse(
            "void gen(int out[]) { for (k = 0; k < 4; k = k + 1) { out[k] = k; } }\n\
             void work(int in[], int out[]) { for (k = 0; k < 4; k = k + 1) { out[k] = in[k] * 3; } }\n\
             void fin(int in[]) { int x = in[0]; }",
        )
        .unwrap();
        let task = |name: &str, period, deadline, work| CicTask {
            name: name.into(),
            body_fn: name.into(),
            period,
            deadline,
            work,
        };
        let chan = |name: &str, src, dst| CicChannel {
            name: name.into(),
            src,
            dst,
            tokens: 4,
        };
        CicModel::new(
            unit,
            vec![
                task("gen", Some(100), None, 200),
                task("work", None, None, 800),
                task("fin", None, Some(1_000), 100),
            ],
            vec![chan("a", 0, 1), chan("b", 1, 2)],
        )
        .unwrap()
    }

    #[test]
    fn explore_parallel_is_thread_count_invariant() {
        let m = model();
        let reference = explore_parallel(&m, 1_200, 4, 4, 1).unwrap();
        for threads in THREADS {
            let e = explore_parallel(&m, 1_200, 4, 4, threads).unwrap();
            assert_eq!(e, reference, "cic explore at {threads} threads");
        }
    }

    #[test]
    fn profiled_explore_warm_equals_cold() {
        let (build, steps) = profile_platform(&[300, 500, 150]);
        let base = warm_base(&build, steps);
        let cold = Prefix::cold(&build, steps);
        let warm = Prefix::base(&base);
        let m = model();
        let cold_m = calibrate_task_work(&m, &cold, 0x100).unwrap();
        let warm_m = calibrate_task_work(&m, &warm, 0x100).unwrap();
        let reference = explore_parallel(&cold_m, 1_200, 4, 4, 1).unwrap();
        for threads in THREADS {
            let e = explore_parallel(&warm_m, 1_200, 4, 4, threads).unwrap();
            assert_eq!(e, reference, "cic warm start at {threads} threads");
        }
    }
}

// ---------------------------------------------------------------------------
// rtkernel: scheduling-policy sweep
// ---------------------------------------------------------------------------

mod rtkernel_flow {
    use super::*;
    use mpsoc_suite::rtkernel::sched::{Policy, SimConfig};
    use mpsoc_suite::rtkernel::task::{TaskSpec, Workload};
    use mpsoc_suite::rtkernel::{profile_workload, sweep_policies};

    fn workload() -> Workload {
        let mut w = Workload::new();
        w.push(TaskSpec::parallel("video", 10, 900, 4, 200).with_period(250, 8));
        w.push(TaskSpec::sequential("control", 40, 80).with_period(100, 20));
        w.push(TaskSpec::sequential("ui", 25, 200).with_priority(3));
        w
    }

    fn base_cfg() -> SimConfig {
        SimConfig {
            cores: 4,
            speed: 10,
            switch_overhead: 2,
            horizon: 4_000,
            policy: Policy::TimeShared,
        }
    }

    #[test]
    fn policy_sweep_is_thread_count_invariant() {
        let w = workload();
        let cfg = base_cfg();
        let boosts = [1.2, 1.5, 2.0];
        let reference = sweep_policies(&w, &cfg, &boosts, 1, None).unwrap();
        for threads in THREADS {
            let s = sweep_policies(&w, &cfg, &boosts, threads, None).unwrap();
            assert_eq!(s, reference, "rtkernel sweep at {threads} threads");
        }
    }

    #[test]
    fn profiled_policy_sweep_warm_equals_cold() {
        let (build, steps) = profile_platform(&[120, 35, 60]);
        let base = warm_base(&build, steps);
        let (cold_reg, warm_reg) = (MetricsRegistry::new(), MetricsRegistry::new());
        let cold = Prefix::cold(&build, steps).metrics(&cold_reg);
        let warm = Prefix::base(&base).metrics(&warm_reg);
        let w = workload();
        let cfg = base_cfg();
        let boosts = [1.2, 1.5];
        let cold_w = profile_workload(&w, &cold, 0x100).unwrap();
        let warm_w = profile_workload(&w, &warm, 0x100).unwrap();
        let reference = sweep_policies(&cold_w, &cfg, &boosts, 1, None).unwrap();
        for threads in THREADS {
            let s = sweep_policies(&warm_w, &cfg, &boosts, threads, None).unwrap();
            assert_eq!(s, reference, "rtkernel warm start at {threads} threads");
        }
        assert_prefix_counters(&cold_reg, &warm_reg, steps);
    }
}

// ---------------------------------------------------------------------------
// dataflow: buffer-sizing search
// ---------------------------------------------------------------------------

mod dataflow_flow {
    use super::*;
    use mpsoc_suite::dataflow::buffer::minimal_capacities;
    use mpsoc_suite::dataflow::graph::{ActorKind, Graph};
    use mpsoc_suite::dataflow::{minimal_capacities_sweep, profile_actor_wcets};

    fn batching(cons: u32) -> Graph {
        let mut g = Graph::new();
        let s = g.add_actor("src", vec![10], ActorKind::Source { period: 100 });
        let f = g.add_actor("f", vec![50], ActorKind::Regular);
        let k = g.add_actor(
            "snk",
            vec![5],
            ActorKind::Sink {
                period: 100 * cons as u64,
            },
        );
        g.add_channel(s, f, vec![1], vec![cons], 0).unwrap();
        g.add_channel(f, k, vec![1], vec![1], 0).unwrap();
        g
    }

    #[test]
    fn sizing_sweep_matches_serial_at_every_thread_count() {
        for cons in [1, 3, 5] {
            let g = batching(cons);
            let serial = minimal_capacities(&g, 20).unwrap();
            for threads in THREADS {
                let caps = minimal_capacities_sweep(&g, 20, threads, None).unwrap();
                assert_eq!(
                    caps, serial,
                    "dataflow sizing cons={cons} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn profiled_sizing_warm_equals_cold() {
        // Profile words re-cost src/f/snk; 0 leaves the sink untouched.
        let (build, steps) = profile_platform(&[10, 35, 0]);
        let base = warm_base(&build, steps);
        let (cold_reg, warm_reg) = (MetricsRegistry::new(), MetricsRegistry::new());
        let cold = Prefix::cold(&build, steps).metrics(&cold_reg);
        let warm = Prefix::base(&base).metrics(&warm_reg);
        let g = batching(3);
        let cold_g = profile_actor_wcets(&g, &cold, 0x100).unwrap();
        let warm_g = profile_actor_wcets(&g, &warm, 0x100).unwrap();
        let reference = minimal_capacities_sweep(&cold_g, 20, 1, None).unwrap();
        for threads in THREADS {
            let caps = minimal_capacities_sweep(&warm_g, 20, threads, None).unwrap();
            assert_eq!(caps, reference, "dataflow warm start at {threads} threads");
        }
        assert_prefix_counters(&cold_reg, &warm_reg, steps);
    }
}

// ---------------------------------------------------------------------------
// pdl: joint mapping×topology DSE
// ---------------------------------------------------------------------------

mod pdl_flow {
    use super::*;
    use mpsoc_suite::pdl::{joint_sweep, JointConfig};

    #[test]
    fn joint_sweep_front_and_json_are_thread_count_invariant() {
        let base = JointConfig::smoke();
        let reference = joint_sweep(&JointConfig { threads: 1, ..base }).unwrap();
        assert!(!reference.front.is_empty());
        for threads in THREADS {
            let r = joint_sweep(&JointConfig { threads, ..base }).unwrap();
            assert_eq!(
                r.front, reference.front,
                "pdl joint DSE at {threads} threads"
            );
            // The CI artifact is byte-identical, not just structurally equal.
            assert_eq!(
                r.to_json(),
                reference.to_json(),
                "pdl Pareto JSON at {threads} threads"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// vpdebug: fault-injection campaign
// ---------------------------------------------------------------------------

mod campaign_flow {
    use super::*;
    use mpsoc_suite::vpdebug::campaign::{
        generate_faults, run_campaign, run_campaign_delta, CampaignConfig, FaultSpace,
    };

    /// The redundant-sum workload from the campaign tests: output at 0x200,
    /// detect flag at 0x210, captured mid-loop so faults land in flight.
    fn fault_site_image() -> Vec<u8> {
        let mut p = PlatformBuilder::new()
            .cores(2, Frequency::mhz(100))
            .shared_words(2048)
            .cache(None)
            .build()
            .unwrap();
        let prog = assemble(
            "movi r1, 0\nmovi r2, 0\nmovi r3, 25\n\
             loop: addi r1, r1, 3\naddi r2, r2, 3\naddi r3, r3, -1\n\
             bne r3, r0, loop\n\
             movi r4, 0x200\nst r1, r4, 0\n\
             movi r5, 0x210\nseq r6, r1, r2\nmovi r7, 1\n\
             sub r6, r7, r6\nst r6, r5, 0\nhalt",
        )
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        for _ in 0..10 {
            p.step().unwrap();
        }
        p.capture().unwrap()
    }

    fn config(threads: usize) -> CampaignConfig {
        CampaignConfig {
            budget_steps: 2_000,
            output_addr: 0x200,
            output_words: 1,
            detect_addr: 0x210,
            threads,
        }
    }

    fn faults() -> Vec<mpsoc_suite::vpdebug::campaign::FaultSpec> {
        generate_faults(
            0xFA_17,
            24,
            &FaultSpace {
                cores: 2,
                periph_pages: vec![],
                dma_pages: vec![],
                mem_lo: 0x0,
                mem_hi: 0x3FF,
            },
        )
    }

    /// E12's fault target stepped to its fault site, eight steps into the
    /// DMA stream, and the fault space over its components.
    fn e12_fault_site() -> (Vec<u8>, FaultSpace) {
        let (mut p, timer, mailbox, dma) = mpsoc_suite::apps::testbed::build_e12();
        while !p.dma_in_flight(dma) {
            p.step().unwrap();
        }
        for _ in 0..8 {
            p.step().unwrap();
        }
        let space = FaultSpace {
            cores: 2,
            periph_pages: vec![timer, mailbox],
            dma_pages: vec![dma],
            mem_lo: 0x100,
            mem_hi: 0x2FF,
        };
        (p.capture().unwrap(), space)
    }

    /// The delta runner skips dead faults and repeats; over a population of
    /// E12 faults its whole report must still be the oracle's, at every
    /// thread count, and the skipping must have happened.
    #[test]
    fn pruned_campaign_report_equals_the_oracle_over_a_fault_population() {
        let (image, space) = e12_fault_site();
        let cfg = |threads| CampaignConfig {
            budget_steps: 20_000,
            output_addr: 0x200,
            output_words: 0x60,
            detect_addr: 0x210,
            threads,
        };
        let registry = MetricsRegistry::new();
        for seed in 1..=20u64 {
            let faults = generate_faults(seed, 100, &space);
            let oracle = run_campaign(&image, &faults, cfg(1), None).unwrap();
            for threads in [1, 2, 4] {
                let m = (threads == 1).then_some(&registry);
                let delta = run_campaign_delta(&image, &faults, cfg(threads), m).unwrap();
                assert_eq!(delta, oracle, "seed {seed}, {threads} threads");
            }
        }
        let count = |name| registry.counter(name).get();
        assert_eq!(
            count("campaign.simulated") + count("campaign.dead") + count("campaign.duplicate"),
            2_000
        );
        assert!(count("campaign.dead") > 0 && count("campaign.duplicate") > 0);
    }

    #[test]
    fn campaign_is_thread_count_invariant_and_delta_agrees() {
        let image = fault_site_image();
        let faults = faults();
        let reference = run_campaign(&image, &faults, config(1), None).unwrap();
        for threads in THREADS {
            let full = run_campaign(&image, &faults, config(threads), None).unwrap();
            assert_eq!(
                full.outcomes, reference.outcomes,
                "campaign at {threads} threads"
            );
            // Delta rollback (the warm path: one materialization + in-place
            // rewinds) classifies every fault identically.
            let delta = run_campaign_delta(&image, &faults, config(threads), None).unwrap();
            assert_eq!(
                delta.outcomes, reference.outcomes,
                "delta campaign at {threads} threads"
            );
        }
    }
}
