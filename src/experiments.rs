//! The experiment suite: one experiment per paper claim (E1–E13).
//!
//! The paper is a position paper with no numeric tables, so each experiment
//! reproduces a *claim* (see `DESIGN.md` and `EXPERIMENTS.md`). An
//! experiment runs its setup, renders the table the claim corresponds to,
//! and decides the claim's [`Outcome`]: the pass condition is written once,
//! in the experiment that measures it. The `experiments` binary prints every
//! table with its verdict, and `tests/docs.rs` keeps EXPERIMENTS.md's
//! generated blocks equal to what the claims render.

use std::fmt::{self, Write as _};

use mpsoc_apps::audio::car_radio_graph;
use mpsoc_apps::h264::h264_cic_model;
use mpsoc_cic::archfile::ArchInfo;
use mpsoc_cic::executor::execute as cic_execute;
use mpsoc_cic::translator::{auto_map, execute_translation, translate};
use mpsoc_dataflow::buffer::{minimal_capacities, required_capacities};
use mpsoc_dataflow::selftimed::{run_self_timed, SelfTimedConfig, VaryingTimes};
use mpsoc_dataflow::ttrigger::time_triggered_experiment;
use mpsoc_maps::arch::ArchModel;
use mpsoc_maps::mapping::{anneal, list_schedule};
use mpsoc_maps::osip::{dispatch, SchedulerKind};
use mpsoc_maps::taskgraph::extract_task_graph;
use mpsoc_minic::cost::CostModel;
use mpsoc_platform::platform::AccessKind;
use mpsoc_recoder::recoder::Recoder;
use mpsoc_recoder::transforms;
use mpsoc_rtkernel::scalability::{amdahl_speedup, boosted_amdahl_speedup, heterogeneous_speedup};
use mpsoc_rtkernel::sched::{simulate, Policy, SimConfig};
use mpsoc_vpdebug::heisenbug::{build_race_platform, run_race, DebugMode, COUNTER_ADDR};
use mpsoc_vpdebug::{Debugger, Stop};

/// What an experiment concluded about its paper claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The claimed shape holds on the simulated substrate.
    Reproduced,
    /// Direction and mechanism hold, but the paper's headline figure comes
    /// from models far larger than ours.
    Qualitative,
    /// The claimed shape does not hold.
    NotReproduced,
}

impl Outcome {
    fn of(holds: bool) -> Self {
        if holds {
            Outcome::Reproduced
        } else {
            Outcome::NotReproduced
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::Reproduced => "reproduced",
            Outcome::Qualitative => "qualitatively reproduced",
            Outcome::NotReproduced => "not reproduced",
        })
    }
}

/// One paper claim, measured.
#[derive(Clone, Debug)]
pub struct Claim {
    /// Experiment id, `e1` … `e13`.
    pub id: &'static str,
    /// The paper section the claim comes from.
    pub section: &'static str,
    /// Whether the measured table shows the claimed shape.
    pub verdict: Outcome,
    /// The measured table, one line per row, newline-terminated.
    pub table: String,
}

/// An experiment that could not run to a verdict.
pub type Error = Box<dyn std::error::Error>;

/// Every experiment id, in run order.
pub const IDS: [&str; 13] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
];

/// Runs experiment `id` (one of [`IDS`]). `smoke` selects E13's
/// seconds-scale profile; the other experiments have one size.
pub fn run(id: &str, smoke: bool) -> Result<Claim, Error> {
    match id {
        "e1" => e1_scalability(),
        "e2" => e2_sched(),
        "e3" => e3_corruption(),
        "e4" => e4_buffers(),
        "e5" => e5_maps(),
        "e6" => e6_osip(),
        "e7" => e7_cic(),
        "e8" => e8_recoder(),
        "e9" => e9_heisenbug(),
        "e10" => e10_admission(),
        "e11" => e11_explore(),
        "e12" => e12_faults(),
        "e13" => e13_joint_dse(smoke),
        _ => Err(format!("unknown experiment `{id}`").into()),
    }
}

/// E1 — Section II.A: homogeneous-ISA scalability, heterogeneity penalty,
/// sequential-phase frequency boosting.
fn e1_scalability() -> Result<Claim, Error> {
    let s = 0.05;
    let rows: Vec<(usize, f64, f64, f64)> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .iter()
        .map(|&n| {
            (
                n,
                amdahl_speedup(s, n),
                heterogeneous_speedup(s, n, 0.5, 0.85),
                boosted_amdahl_speedup(s, n, 2.0),
            )
        })
        .collect();
    let mut t = String::new();
    writeln!(t, "E1: speedup vs cores (serial fraction {s:.2})")?;
    writeln!(
        t,
        "{:>6} {:>12} {:>14} {:>12}",
        "cores", "homogeneous", "heterogeneous", "boosted 2x"
    )?;
    for (n, hom, het, boost) in &rows {
        writeln!(t, "{n:>6} {hom:>12.2} {het:>14.2} {boost:>12.2}")?;
    }
    // At the largest size homogeneous beats skewed heterogeneous and
    // boosting beats both; homogeneous speedup never falls with more cores.
    let holds = rows
        .last()
        .is_some_and(|&(_, hom, het, boost)| hom > het && boost > hom)
        && rows.windows(2).all(|w| w[1].1 >= w[0].1);
    Ok(Claim {
        id: "e1",
        section: "§II.A",
        verdict: Outcome::of(holds),
        table: t,
    })
}

/// E2 — Section II.B: hybrid time/space-shared scheduling vs. pure
/// time-sharing under noisy multi-application load.
fn e2_sched() -> Result<Claim, Error> {
    let mut w = mpsoc_rtkernel::Workload::new();
    w.push(
        mpsoc_rtkernel::TaskSpec::parallel("stream", 0, 1_800, 6, 260)
            .with_period(300, 6)
            .with_priority(1),
    );
    for i in 0..12 {
        w.push(
            mpsoc_rtkernel::TaskSpec::sequential(format!("noise{i}"), 260, 2_000)
                .with_period(40, 45)
                .with_priority(2),
        );
    }
    let base = SimConfig {
        cores: 8,
        speed: 10,
        switch_overhead: 2,
        horizon: 2_000,
        policy: Policy::TimeShared,
    };
    let ts = simulate(&w, &base)?;
    let hy = simulate(
        &w,
        &SimConfig {
            policy: Policy::Hybrid {
                ts_cores: 2,
                boost: 1.0,
            },
            ..base
        },
    )?;
    let (ts_missed, hybrid_missed) = (ts.tasks[0].missed, hy.tasks[0].missed);
    let mut t = String::new();
    writeln!(
        t,
        "E2: parallel-stream deadline misses out of {} jobs",
        ts.tasks[0].released
    )?;
    writeln!(t, "  time-shared : {ts_missed}")?;
    writeln!(t, "  hybrid      : {hybrid_missed}")?;
    Ok(Claim {
        id: "e2",
        section: "§II.B",
        verdict: Outcome::of(hybrid_missed == 0 && hybrid_missed < ts_missed),
        table: t,
    })
}

/// E3 — Section III: data corruption under WCET violation, time-triggered
/// vs. data-driven, on the car-radio chain.
fn e3_corruption() -> Result<Claim, Error> {
    let g = car_radio_graph(1_000, 4);
    let caps = minimal_capacities(&g, 20)?;
    let iterations = 50;
    // `(overrun %, tt corrupted tokens, dd corrupted tokens, dd late sink starts)`;
    // the data-driven executor waits for data, so it has no corruption to count.
    let mut rows = Vec::new();
    for hi in [100u64, 120, 150, 200] {
        let mut tt_times = VaryingTimes::new(2024, 80, hi);
        let (_s, tt) = time_triggered_experiment(&g, &caps, iterations, &mut tt_times)?;
        let mut dd_times = VaryingTimes::new(2024, 80, hi);
        let dd = run_self_timed(
            &g,
            &SelfTimedConfig {
                capacities: Some(caps.clone()),
                iterations,
                ..Default::default()
            },
            &mut dd_times,
        )?;
        rows.push((hi, tt.total_corruption(), 0u64, dd.sink_late));
    }
    let mut t = String::new();
    writeln!(
        t,
        "E3: corrupted tokens over {iterations} iterations (car-radio chain)"
    )?;
    writeln!(
        t,
        "{:>10} {:>14} {:>14} {:>14}",
        "overrun%", "TT corrupted", "DD corrupted", "DD late sinks"
    )?;
    for (hi, tt, dd, late) in &rows {
        writeln!(
            t,
            "{:>9}% {tt:>14} {dd:>14} {late:>14}",
            hi.saturating_sub(100)
        )?;
    }
    // Nothing is corrupted without overruns; with the worst overrun TT
    // corrupts and DD does not.
    let holds =
        rows.first().is_some_and(|r| r.1 == 0) && rows.last().is_some_and(|r| r.1 > 0 && r.2 == 0);
    Ok(Claim {
        id: "e3",
        section: "§III",
        verdict: Outcome::of(holds),
        table: t,
    })
}

/// E4 — Section III / ref \[5\]: back-pressure buffer capacities.
fn e4_buffers() -> Result<Claim, Error> {
    let g = car_radio_graph(1_000, 8);
    let req = required_capacities(&g, 20)?;
    let min = minimal_capacities(&g, 20)?;
    let wait_free = mpsoc_dataflow::buffer::is_wait_free(&g, &min, 20)?;
    let mut t = String::new();
    writeln!(t, "E4: buffer capacities (tokens), car-radio chain")?;
    writeln!(
        t,
        "{:>8} {:>12} {:>10}",
        "channel", "upper bound", "minimal"
    )?;
    for (i, (r, m)) in req.iter().zip(&min).enumerate() {
        writeln!(t, "{i:>8} {r:>12} {m:>10}")?;
    }
    writeln!(t, "  minimal capacities wait-free: {wait_free}")?;
    let holds = wait_free && req.iter().zip(&min).all(|(r, m)| (1..=*r).contains(m));
    Ok(Claim {
        id: "e4",
        section: "§III",
        verdict: Outcome::of(holds),
        table: t,
    })
}

/// E5 — Section IV: MAPS semi-automatic partitioning of the JPEG-like
/// encoder. The sequential frame encoder enters the flow; *one* designer
/// action (a loop split in the recoder) exposes the block parallelism;
/// the range-refined dependence analysis proves the split tasks
/// independent; list scheduling / annealing map them onto the platform.
fn e5_maps() -> Result<Claim, Error> {
    let blocks = 64;
    let src = mpsoc_apps::jpeg::jpeg_frame_minic_source(blocks);
    // Sequential baseline: the unsplit loop is a single task.
    let seq_unit = mpsoc_minic::parse(&src)?;
    let seq_graph = extract_task_graph(&seq_unit, "encode_frame", &CostModel::default())?;
    let sequential = list_schedule(&seq_graph, &ArchModel::homogeneous(1))?.makespan;
    // `(cores, tasks, list-schedule speedup, annealed speedup)`.
    let mut rows = Vec::new();
    for &cores in &[2usize, 4, 8] {
        // One designer action: split the block loop into `cores` parts.
        let mut session = Recoder::from_source(&src)?;
        session.apply(|u| transforms::split_loop(u, "encode_frame", 0, cores))?;
        let graph = extract_task_graph(session.unit(), "encode_frame", &CostModel::default())?;
        let arch = ArchModel::homogeneous(cores);
        let ls = list_schedule(&graph, &arch)?;
        let sa = anneal(&graph, &arch, 7, 400)?;
        rows.push((
            cores,
            graph.tasks.len(),
            sequential as f64 / ls.makespan as f64,
            sequential as f64 / sa.makespan as f64,
        ));
    }
    let mut t = String::new();
    writeln!(
        t,
        "E5: JPEG-like frame encoder through the MAPS flow \
         (sequential makespan {sequential} cy, 1 designer action per mapping)"
    )?;
    writeln!(
        t,
        "{:>6} {:>6} {:>14} {:>14}",
        "cores", "tasks", "list speedup", "SA speedup"
    )?;
    for (c, n, ls, sa) in &rows {
        writeln!(t, "{c:>6} {n:>6} {ls:>14.2} {sa:>14.2}")?;
    }
    // Two cores beat sequential, and more cores do not hurt.
    let holds = match (rows.first(), rows.last()) {
        (Some(two), Some(most)) => two.2 > 1.2 && most.3 >= two.3,
        _ => false,
    };
    Ok(Claim {
        id: "e5",
        section: "§IV",
        verdict: Outcome::of(holds),
        table: t,
    })
}

/// E6 — Section IV: OSIP vs. software scheduling, utilisation vs. task
/// granularity.
fn e6_osip() -> Result<Claim, Error> {
    let pes = 4;
    let mut rows = Vec::new();
    for g in [100u64, 500, 1_000, 5_000, 10_000, 50_000, 200_000] {
        let osip = dispatch(2_000, g, pes, SchedulerKind::typical_osip())?;
        let sw = dispatch(2_000, g, pes, SchedulerKind::typical_software())?;
        rows.push((g, osip.utilization, sw.utilization));
    }
    let mut t = String::new();
    writeln!(t, "E6: PE utilisation vs task granularity ({pes} PEs)")?;
    writeln!(t, "{:>12} {:>8} {:>10}", "task cycles", "OSIP", "SW-RISC")?;
    for (g, o, s) in &rows {
        writeln!(t, "{g:>12} {o:>8.3} {s:>10.3}")?;
    }
    // OSIP more than doubles software utilisation at the finest grain;
    // the coarsest tasks saturate even the software scheduler.
    let holds = rows.first().is_some_and(|&(_, osip, sw)| osip > 2.0 * sw)
        && rows.last().is_some_and(|&(_, _, sw)| sw > 0.9);
    Ok(Claim {
        id: "e6",
        section: "§IV",
        verdict: Outcome::of(holds),
        table: t,
    })
}

/// E7 — Section V: CIC retargetability of the H.264-like encoder.
fn e7_cic() -> Result<Claim, Error> {
    let model = h264_cic_model()?;
    let reference = cic_execute(&model, 3)?;
    // `(target, PEs used, estimated cycles/iteration, output matches)`.
    let mut rows = Vec::new();
    for arch in [
        ArchInfo::cell_like(3),
        ArchInfo::smp_like(4),
        ArchInfo::smp_like(1),
    ] {
        let mapping = auto_map(&model, &arch)?;
        let tr = translate(&model, &arch, &mapping)?;
        let run = execute_translation(&model, &tr, 3)?;
        rows.push((
            format!("{} ({:?})", arch.name, arch.memory),
            tr.pe_programs.len(),
            tr.est_cycles,
            run.sinks == reference.sinks,
        ));
    }
    let mut t = String::new();
    writeln!(t, "E7: one CIC spec, three targets (H.264-like encoder)")?;
    writeln!(
        t,
        "{:>28} {:>5} {:>12} {:>8}",
        "target", "PEs", "est cy/iter", "match"
    )?;
    for (target, pes, cy, ok) in &rows {
        writeln!(t, "{target:>28} {pes:>5} {cy:>12} {ok:>8}")?;
    }
    // Every target computes the reference output; distinct targets have
    // distinct cost estimates.
    let holds = rows.len() == 3 && rows.iter().all(|r| r.3) && rows[0].2 != rows[2].2;
    Ok(Claim {
        id: "e7",
        section: "§V",
        verdict: Outcome::of(holds),
        table: t,
    })
}

/// E8 — Section VI: recoder productivity on a small reference model.
fn e8_recoder() -> Result<Claim, Error> {
    // A reference model with the classic analyzability obstacles.
    let src = "void model(int n, int out[]) {\n\
         int tmp[64];\n\
         int *p = &out[0];\n\
         *p = 0;\n\
         if (1) { out[1] = 1; } else { out[1] = 2; }\n\
         for (i = 0; i < 64; i = i + 1) { tmp[i] = i * 3 + 1; }\n\
         for (i = 0; i < 64; i = i + 1) { out[i] = tmp[i] * tmp[i]; }\n\
         }";
    let mut session = Recoder::from_source(src)?;
    let pointer_derefs = |u: &mpsoc_minic::Unit| {
        u.functions
            .first()
            .map(|f| mpsoc_minic::analysis::analyzability(u, f).pointer_derefs)
    };
    let before = pointer_derefs(session.unit()).ok_or("model has no function")?;
    session.apply(|u| transforms::recode_pointers(u, "model"))?;
    session.apply(|u| transforms::prune_control(u, "model"))?;
    session.apply(|u| transforms::split_loop(u, "model", 0, 4))?;
    session.apply(|u| transforms::split_loop(u, "model", 4, 4))?;
    let after = pointer_derefs(session.unit()).ok_or("model has no function")?;
    let stats = session.stats();
    let productivity = stats.productivity_factor();
    let mut t = String::new();
    writeln!(t, "E8: designer-controlled recoding productivity")?;
    writeln!(t, "  designer actions      : {}", stats.automated_steps)?;
    writeln!(
        t,
        "  lines rewritten       : {}",
        stats.lines_changed_by_transforms
    )?;
    writeln!(t, "  lines per action      : {productivity:.1}")?;
    writeln!(t, "  pointer derefs        : {before} -> {after}")?;
    // The paper's "two orders of magnitude" comes from industrial-size
    // models; on ours the mechanism shows: several lines per action, and
    // every pointer gone.
    let verdict = if productivity > 3.0 && after == 0 {
        Outcome::Qualitative
    } else {
        Outcome::NotReproduced
    };
    Ok(Claim {
        id: "e8",
        section: "§VI",
        verdict,
        table: t,
    })
}

/// E9 — Section VII: Heisenbug reproduction under three debugging regimes.
fn e9_heisenbug() -> Result<Claim, Error> {
    let iters = 200;
    let plain = run_race(iters, DebugMode::Plain)?;
    let vp = run_race(iters, DebugMode::NonIntrusiveSuspend { every: 13 })?;
    let intrusive = run_race(
        iters,
        DebugMode::IntrusiveHalt {
            core: 1,
            at_pc: 3,
            for_steps: 10_000,
        },
    )?;
    let vp_identical = vp == plain;
    // Section VII's trace history localises the defect: in the counter's
    // access stream, two cores write the same value back to back — the
    // second store overwrote an increment it never read.
    let mut dbg = Debugger::new(build_race_platform(iters)?);
    if dbg.run(10_000_000)? != Stop::Finished {
        return Err("the race did not run to completion".into());
    }
    let stream = dbg.trace().accesses_to(COUNTER_ADDR);
    let duplicate_writes = stream
        .windows(2)
        .filter(|w| {
            w.iter().all(|a| a.kind == AccessKind::Write)
                && w[0].value == w[1].value
                && w[0].originator != w[1].originator
        })
        .count();
    let mut t = String::new();
    writeln!(
        t,
        "E9: lost updates of the shared-counter race (400 expected increments)"
    )?;
    writeln!(t, "  plain run                 : {}", plain.lost_updates)?;
    writeln!(
        t,
        "  VP non-intrusive suspend  : {} (identical: {vp_identical})",
        vp.lost_updates
    )?;
    writeln!(
        t,
        "  intrusive core halt       : {}",
        intrusive.lost_updates
    )?;
    writeln!(
        t,
        "  same-value write pairs    : {duplicate_writes} (trace history)"
    )?;
    // The race loses updates, the VP suspension leaves the run bit-identical,
    // the intrusive halt all but hides the bug, and the trace shows where
    // the updates were lost.
    let holds = plain.lost_updates > 0
        && vp_identical
        && intrusive.lost_updates < plain.lost_updates / 10
        && duplicate_writes > 0;
    Ok(Claim {
        id: "e9",
        section: "§VII",
        verdict: Outcome::of(holds),
        table: t,
    })
}

/// E10 (extension) — Section II.B's missing piece: predictable reactive
/// admission control. Drives a request stream through the controller and
/// replays the admitted set in the simulator.
fn e10_admission() -> Result<Claim, Error> {
    use mpsoc_rtkernel::admission::{AdmissionConfig, AdmissionController};
    let mut ac = AdmissionController::new(AdmissionConfig::default())?;
    let mut offered_wl = mpsoc_rtkernel::Workload::new();
    let offered = 24u64;
    for i in 0..offered {
        let spec = if i % 2 == 0 {
            mpsoc_rtkernel::TaskSpec::parallel(
                format!("p{i}"),
                10 + (i % 5) * 20,
                600 + (i % 7) * 150,
                2 + (i as usize % 4),
                150 + (i % 4) * 40,
            )
            .with_period(200 + (i % 5) * 40, 8)
        } else {
            mpsoc_rtkernel::TaskSpec::sequential(format!("s{i}"), 80 + (i % 6) * 40, 300)
                .with_period(150 + (i % 9) * 30, 10)
        };
        offered_wl.push(spec.clone());
        // A rejection is the controller's answer, not a failure.
        let _ = ac.try_admit(spec);
    }
    let cfg = SimConfig {
        cores: 8,
        speed: 10,
        switch_overhead: 2,
        horizon: 4_000,
        policy: Policy::Hybrid {
            ts_cores: 2,
            boost: 1.0,
        },
    };
    let missed = simulate(&ac.workload(), &cfg)?.total_missed();
    let unfiltered_missed = simulate(&offered_wl, &cfg)?.total_missed();
    let admitted = ac.admitted().count() as u64;
    let mut t = String::new();
    writeln!(
        t,
        "E10 (ext): reactive admission control on the hybrid machine"
    )?;
    writeln!(t, "  requests offered            : {offered}")?;
    writeln!(t, "  admitted                    : {admitted}")?;
    writeln!(t, "  misses, admitted set        : {missed}")?;
    writeln!(t, "  misses, without admission   : {unfiltered_missed}")?;
    // Admission is useful (it rejects some, admits some), sound (the
    // admitted set misses nothing) and needed (the offered set overloads).
    let holds = admitted > 0 && admitted < offered && missed == 0 && unfiltered_missed > 0;
    Ok(Claim {
        id: "e10",
        section: "§II.B",
        verdict: Outcome::of(holds),
        table: t,
    })
}

/// E11 (extension) — Section V's future work: exploration of the optimal
/// target architecture for the H.264-like CIC model.
fn e11_explore() -> Result<Claim, Error> {
    use mpsoc_cic::explore::explore_parallel;
    let model = h264_cic_model()?;
    let deadline = 1_600;
    // The parallel sweep is bit-identical to the serial one for any thread
    // count, so E11's published rows do not depend on the machine.
    let e = explore_parallel(&model, deadline, 4, 4, 4)?;
    let mut t = String::new();
    writeln!(
        t,
        "E11 (ext): architecture exploration, H.264-like encoder, deadline {deadline} cy"
    )?;
    writeln!(
        t,
        "{:>10} {:>5} {:>10} {:>7} {:>6}",
        "target", "PEs", "est cy", "cost", "meets"
    )?;
    for c in &e.candidates {
        writeln!(
            t,
            "{:>10} {:>5} {:>10} {:>7.1} {:>6}",
            c.arch.name,
            c.arch.pes.len(),
            c.est_cycles,
            c.cost,
            c.meets_deadline
        )?;
    }
    let winner = e.best_candidate();
    match winner {
        Some(c) => writeln!(
            t,
            "  winner: {} with {} PEs (cost {:.1})",
            c.arch.name,
            c.arch.pes.len(),
            c.cost
        )?,
        None => writeln!(t, "  winner: none")?,
    }
    // The deadline separates the candidates, and the sweep picks a winner.
    let holds = winner.is_some()
        && e.candidates.iter().any(|c| c.meets_deadline)
        && e.candidates.iter().any(|c| !c.meets_deadline);
    Ok(Claim {
        id: "e11",
        section: "§V",
        verdict: Outcome::of(holds),
        table: t,
    })
}

/// E12 (extension) — Section VII: checkpoint the fault-target platform
/// mid-flight (DMA transfer in progress, computation under way), sweep a
/// 240-fault campaign at 1, 2 and 4 worker threads through
/// `run_campaign_delta` — the runner the layered benchmark measures — and
/// require the verdict tables to be bit-identical, to each other and to one
/// single-thread pass of the full-restore oracle `run_campaign`.
fn e12_faults() -> Result<Claim, Error> {
    use mpsoc_obs::MetricsRegistry;
    use mpsoc_vpdebug::campaign::{
        generate_faults, run_campaign, run_campaign_delta, CampaignConfig, FaultSpace, Verdict,
    };

    let (mut p, timer, mb, dma) = mpsoc_apps::testbed::build_e12();
    // Step to the fault site: the DMA stream must be in flight so
    // dropped-flit and wire-corruption faults have a target.
    let mut guard = 0;
    while !p.dma_in_flight(dma) {
        p.step()?;
        guard += 1;
        if guard == 10_000 {
            return Err("the DMA never started".into());
        }
    }
    for _ in 0..8 {
        p.step()?;
    }
    let image = p.capture()?;

    let seed = 0xE12;
    let space = FaultSpace {
        cores: 2,
        periph_pages: vec![timer, mb],
        dma_pages: vec![dma],
        mem_lo: 0x100,
        mem_hi: 0x2FF,
    };
    let faults = generate_faults(seed, 240, &space);
    let cfg = |threads| CampaignConfig {
        budget_steps: 20_000,
        output_addr: 0x200,
        output_words: 0x60,
        detect_addr: 0x210,
        threads,
    };
    let registry = MetricsRegistry::new();
    let t1 = run_campaign_delta(&image, &faults, cfg(1), Some(&registry))?;
    let sweep = |threads| run_campaign_delta(&image, &faults, cfg(threads), None);
    let (t2, t4) = (sweep(2)?, sweep(4)?);
    let oracle = run_campaign(&image, &faults, cfg(1), None)?;
    let table = t1.verdict_table();
    let thread_invariant = table == t2.verdict_table() && table == t4.verdict_table();
    // `reset_to_base` rollback must classify exactly like a full restore per trial.
    let matches_oracle = table == oracle.verdict_table();

    let total = t1.outcomes.len();
    let mut t = String::new();
    writeln!(
        t,
        "E12 (ext): fault-injection campaign, {total} faults (seed {seed:#x}), budget {} steps",
        t1.budget_steps
    )?;
    writeln!(
        t,
        "  {:>9} {:>7} {:>18} {:>6}",
        "detected", "masked", "silent_corruption", "crash"
    )?;
    writeln!(
        t,
        "  {:>9} {:>7} {:>18} {:>6}   (applied {}/{total})",
        t1.count(Verdict::Detected),
        t1.count(Verdict::Masked),
        t1.count(Verdict::SilentCorruption),
        t1.count(Verdict::Crash),
        t1.outcomes.iter().filter(|o| o.applied).count(),
    )?;
    writeln!(
        t,
        "  coverage of effective faults: {:.1}%",
        t1.coverage() * 100.0
    )?;
    let count = |name| registry.counter(name).get();
    writeln!(
        t,
        "  simulated {} of {total} trials ({} dead, {} repeats)",
        count("campaign.simulated"),
        count("campaign.dead"),
        count("campaign.duplicate")
    )?;
    writeln!(
        t,
        "  verdict table identical at 1/2/4 threads: {thread_invariant}"
    )?;
    Ok(Claim {
        id: "e12",
        section: "§VII",
        verdict: Outcome::of(thread_invariant && matches_oracle),
        table: t,
    })
}

/// E13 (extension) — joint mapping×topology DSE over the declarative
/// platform generator (see `crates/pdl`): the sweep at 1, 2, 4 and 8
/// worker threads, requiring the Pareto front and the JSON report to be
/// bit-identical across all four runs.
fn e13_joint_dse(smoke: bool) -> Result<Claim, Error> {
    use mpsoc_pdl::{joint_sweep, JointConfig};

    let base = if smoke {
        JointConfig::smoke()
    } else {
        JointConfig::full()
    };
    let reports = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| joint_sweep(&JointConfig { threads, ..base }))
        .collect::<Result<Vec<_>, _>>()?;
    let (first, rest) = reports.split_first().ok_or("no sweep ran")?;
    let json = first.to_json();
    let thread_invariant = rest
        .iter()
        .all(|r| r.front == first.front && r.to_json() == json);
    let mut t = String::new();
    writeln!(
        t,
        "E13 (ext): joint mapping x topology DSE ({} profile, master seed {:#x})",
        if smoke { "smoke" } else { "full" },
        first.master_seed
    )?;
    write!(t, "{first}")?;
    writeln!(
        t,
        "  Pareto front and JSON identical at 1/2/4/8 threads: {thread_invariant}"
    )?;
    Ok(Claim {
        id: "e13",
        section: "§IV/§V",
        verdict: Outcome::of(thread_invariant),
        table: t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(id: &str) -> Outcome {
        run(id, true)
            .unwrap_or_else(|e| panic!("{id}: {e}"))
            .verdict
    }

    macro_rules! claim_tests {
        ($($id:ident => $outcome:ident),* $(,)?) => {$(
            #[test]
            fn $id() {
                assert_eq!(verdict(stringify!($id)), Outcome::$outcome);
            }
        )*};
    }

    claim_tests!(
        e1 => Reproduced,
        e2 => Reproduced,
        e3 => Reproduced,
        e4 => Reproduced,
        e5 => Reproduced,
        e6 => Reproduced,
        e7 => Reproduced,
        e8 => Qualitative,
        e9 => Reproduced,
        e10 => Reproduced,
        e11 => Reproduced,
        e12 => Reproduced,
        e13 => Reproduced,
    );

    #[test]
    fn unknown_id_is_an_error() {
        assert!(run("e14", true).is_err());
    }
}
