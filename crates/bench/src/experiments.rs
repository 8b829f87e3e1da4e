//! The experiment suite: one function per paper claim (E1–E9).
//!
//! The paper is a position paper with no numeric tables, so each experiment
//! reproduces a *claim* (see `DESIGN.md` and `EXPERIMENTS.md` at the
//! workspace root). Every function returns a structured result whose
//! `Display` renders the table/series the claim corresponds to; the `e*`
//! binaries print them, and the integration tests assert the claimed
//! *shape* (who wins, where the knees are).

use std::fmt;

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
use mpsoc_recoder::recoder::Recoder;
use mpsoc_recoder::transforms;
use mpsoc_rtkernel::scalability::{amdahl_speedup, boosted_amdahl_speedup, heterogeneous_speedup};
use mpsoc_rtkernel::sched::{simulate, Policy, SimConfig};
use mpsoc_vpdebug::heisenbug::{run_race, DebugMode};

/// E1 — Section II.A: homogeneous-ISA scalability, heterogeneity penalty,
/// sequential-phase frequency boosting.
#[derive(Clone, Debug)]
pub struct E1Scalability {
    /// `(cores, homogeneous, heterogeneous(skewed), boosted)` speedups.
    pub rows: Vec<(usize, f64, f64, f64)>,
    /// Serial fraction used.
    pub serial_frac: f64,
}

/// Runs E1.
pub fn e1_scalability() -> E1Scalability {
    let s = 0.05;
    let rows = [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
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
    E1Scalability {
        rows,
        serial_frac: s,
    }
}

impl fmt::Display for E1Scalability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E1: speedup vs cores (serial fraction {:.2})",
            self.serial_frac
        )?;
        writeln!(
            f,
            "{:>6} {:>12} {:>14} {:>12}",
            "cores", "homogeneous", "heterogeneous", "boosted 2x"
        )?;
        for (n, hom, het, boost) in &self.rows {
            writeln!(f, "{n:>6} {hom:>12.2} {het:>14.2} {boost:>12.2}")?;
        }
        Ok(())
    }
}

/// E2 — Section II.B: hybrid time/space-shared scheduling vs. pure
/// time-sharing under noisy multi-application load.
#[derive(Clone, Debug)]
pub struct E2Sched {
    /// Deadline misses of the parallel stream under time-sharing.
    pub ts_missed: usize,
    /// Deadline misses under the hybrid policy.
    pub hybrid_missed: usize,
    /// Jobs released.
    pub released: usize,
}

/// Runs E2.
pub fn e2_sched() -> E2Sched {
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
    let ts = simulate(&w, &base).expect("valid config");
    let hy = simulate(
        &w,
        &SimConfig {
            policy: Policy::Hybrid {
                ts_cores: 2,
                boost: 1.0,
            },
            ..base
        },
    )
    .expect("valid config");
    E2Sched {
        ts_missed: ts.tasks[0].missed,
        hybrid_missed: hy.tasks[0].missed,
        released: ts.tasks[0].released,
    }
}

impl fmt::Display for E2Sched {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E2: parallel-stream deadline misses out of {} jobs",
            self.released
        )?;
        writeln!(f, "  time-shared : {}", self.ts_missed)?;
        writeln!(f, "  hybrid      : {}", self.hybrid_missed)
    }
}

/// E3 — Section III: data corruption under WCET violation, time-triggered
/// vs. data-driven, on the car-radio chain.
#[derive(Clone, Debug)]
pub struct E3Corruption {
    /// `(overrun %, tt corrupted tokens, dd corrupted tokens, dd late sink starts)`.
    pub rows: Vec<(u64, u64, u64, u64)>,
    /// Iterations per run.
    pub iterations: u64,
}

/// Runs E3.
pub fn e3_corruption() -> E3Corruption {
    let g = car_radio_graph(1_000, 4);
    let caps = minimal_capacities(&g, 20).expect("feasible chain");
    let iterations = 50;
    let mut rows = Vec::new();
    for hi in [100u64, 120, 150, 200] {
        let mut tt_times = VaryingTimes::new(2024, 80, hi);
        let (_s, tt) = time_triggered_experiment(&g, &caps, iterations, &mut tt_times)
            .expect("schedule derivable");
        let mut dd_times = VaryingTimes::new(2024, 80, hi);
        let dd = run_self_timed(
            &g,
            &SelfTimedConfig {
                capacities: Some(caps.clone()),
                iterations,
                ..Default::default()
            },
            &mut dd_times,
        )
        .expect("self-timed runs");
        rows.push((hi, tt.total_corruption(), 0u64, dd.sink_late));
    }
    E3Corruption { rows, iterations }
}

impl fmt::Display for E3Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E3: corrupted tokens over {} iterations (car-radio chain)",
            self.iterations
        )?;
        writeln!(
            f,
            "{:>10} {:>14} {:>14} {:>14}",
            "overrun%", "TT corrupted", "DD corrupted", "DD late sinks"
        )?;
        for (hi, tt, dd, late) in &self.rows {
            writeln!(
                f,
                "{:>9}% {tt:>14} {dd:>14} {late:>14}",
                hi.saturating_sub(100)
            )?;
        }
        Ok(())
    }
}

/// E4 — Section III / ref \[5\]: back-pressure buffer capacities.
#[derive(Clone, Debug)]
pub struct E4Buffers {
    /// Per-channel `(upper bound, minimal)` capacities.
    pub channels: Vec<(u32, u32)>,
    /// Whether the minimal capacities sustain the period wait-free.
    pub wait_free: bool,
}

/// Runs E4.
pub fn e4_buffers() -> E4Buffers {
    let g = car_radio_graph(1_000, 8);
    let req = required_capacities(&g, 20).expect("consistent");
    let min = minimal_capacities(&g, 20).expect("feasible");
    let wait_free = mpsoc_dataflow::buffer::is_wait_free(&g, &min, 20).expect("runs");
    E4Buffers {
        channels: req.into_iter().zip(min).collect(),
        wait_free,
    }
}

impl fmt::Display for E4Buffers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E4: buffer capacities (tokens), car-radio chain")?;
        writeln!(
            f,
            "{:>8} {:>12} {:>10}",
            "channel", "upper bound", "minimal"
        )?;
        for (i, (r, m)) in self.channels.iter().enumerate() {
            writeln!(f, "{i:>8} {r:>12} {m:>10}")?;
        }
        writeln!(f, "  minimal capacities wait-free: {}", self.wait_free)
    }
}

/// E5 — Section IV: MAPS semi-automatic partitioning of the JPEG-like
/// encoder. The sequential frame encoder enters the flow; *one* designer
/// action (a loop split in the recoder) exposes the block parallelism;
/// the range-refined dependence analysis proves the split tasks
/// independent; list scheduling / annealing map them onto the platform.
#[derive(Clone, Debug)]
pub struct E5Maps {
    /// `(cores, tasks, list-schedule speedup, annealed speedup)`.
    pub rows: Vec<(usize, usize, f64, f64)>,
    /// Sequential makespan (1 core).
    pub sequential: u64,
    /// Designer actions required per row (the "considerably reduced manual
    /// parallelization effort").
    pub designer_actions: u64,
}

/// Runs E5.
pub fn e5_maps() -> E5Maps {
    let blocks = 64;
    let src = mpsoc_apps::jpeg::jpeg_frame_minic_source(blocks);
    // Sequential baseline: the unsplit loop is a single task.
    let seq_unit = mpsoc_minic::parse(&src).expect("jpeg frame source parses");
    let seq_graph = extract_task_graph(&seq_unit, "encode_frame", &CostModel::default())
        .expect("function exists");
    let sequential = list_schedule(&seq_graph, &ArchModel::homogeneous(1))
        .expect("maps")
        .makespan;
    let mut rows = Vec::new();
    for &cores in &[2usize, 4, 8] {
        // One designer action: split the block loop into `cores` parts.
        let mut session = Recoder::from_source(&src).expect("parses");
        session
            .apply(|u| transforms::split_loop(u, "encode_frame", 0, cores))
            .expect("splittable");
        let graph = extract_task_graph(session.unit(), "encode_frame", &CostModel::default())
            .expect("function exists");
        let arch = ArchModel::homogeneous(cores);
        let ls = list_schedule(&graph, &arch).expect("maps");
        let sa = anneal(&graph, &arch, 7, 400).expect("maps");
        rows.push((
            cores,
            graph.tasks.len(),
            sequential as f64 / ls.makespan as f64,
            sequential as f64 / sa.makespan as f64,
        ));
    }
    E5Maps {
        rows,
        sequential,
        designer_actions: 1,
    }
}

impl fmt::Display for E5Maps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E5: JPEG-like frame encoder through the MAPS flow \
             (sequential makespan {} cy, {} designer action per mapping)",
            self.sequential, self.designer_actions
        )?;
        writeln!(
            f,
            "{:>6} {:>6} {:>14} {:>14}",
            "cores", "tasks", "list speedup", "SA speedup"
        )?;
        for (c, t, ls, sa) in &self.rows {
            writeln!(f, "{c:>6} {t:>6} {ls:>14.2} {sa:>14.2}")?;
        }
        Ok(())
    }
}

/// E6 — Section IV: OSIP vs. software scheduling, utilisation vs. task
/// granularity.
#[derive(Clone, Debug)]
pub struct E6Osip {
    /// `(task cycles, osip utilisation, software utilisation)`.
    pub rows: Vec<(u64, f64, f64)>,
    /// PEs used.
    pub pes: usize,
}

/// Runs E6.
pub fn e6_osip() -> E6Osip {
    let pes = 4;
    let rows = [100u64, 500, 1_000, 5_000, 10_000, 50_000, 200_000]
        .iter()
        .map(|&g| {
            let osip = dispatch(2_000, g, pes, SchedulerKind::typical_osip()).expect("valid");
            let sw = dispatch(2_000, g, pes, SchedulerKind::typical_software()).expect("valid");
            (g, osip.utilization, sw.utilization)
        })
        .collect();
    E6Osip { rows, pes }
}

impl fmt::Display for E6Osip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E6: PE utilisation vs task granularity ({} PEs)",
            self.pes
        )?;
        writeln!(f, "{:>12} {:>8} {:>10}", "task cycles", "OSIP", "SW-RISC")?;
        for (g, o, s) in &self.rows {
            writeln!(f, "{g:>12} {o:>8.3} {s:>10.3}")?;
        }
        Ok(())
    }
}

/// E7 — Section V: CIC retargetability of the H.264-like encoder.
#[derive(Clone, Debug)]
pub struct E7Cic {
    /// `(target, PEs used, estimated cycles/iteration, output matches)`.
    pub rows: Vec<(String, usize, u64, bool)>,
}

/// Runs E7.
pub fn e7_cic() -> E7Cic {
    let model = h264_cic_model().expect("model builds");
    let reference = cic_execute(&model, 3).expect("reference runs");
    let mut rows = Vec::new();
    for arch in [
        ArchInfo::cell_like(3),
        ArchInfo::smp_like(4),
        ArchInfo::smp_like(1),
    ] {
        let mapping = auto_map(&model, &arch).expect("mappable");
        let t = translate(&model, &arch, &mapping).expect("translates");
        let run = execute_translation(&model, &t, 3).expect("executes");
        rows.push((
            format!("{} ({:?})", arch.name, arch.memory),
            t.pe_programs.len(),
            t.est_cycles,
            run.sinks == reference.sinks,
        ));
    }
    E7Cic { rows }
}

impl fmt::Display for E7Cic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E7: one CIC spec, three targets (H.264-like encoder)")?;
        writeln!(
            f,
            "{:>28} {:>5} {:>12} {:>8}",
            "target", "PEs", "est cy/iter", "match"
        )?;
        for (t, pes, cy, ok) in &self.rows {
            writeln!(f, "{t:>28} {pes:>5} {cy:>12} {ok:>8}")?;
        }
        Ok(())
    }
}

/// E8 — Section VI: recoder productivity on the JPEG-like model.
#[derive(Clone, Debug)]
pub struct E8Recoder {
    /// Designer actions (transform invocations).
    pub actions: u64,
    /// Source lines the transforms rewrote.
    pub lines_changed: u64,
    /// Lines-per-action productivity factor.
    pub productivity: f64,
    /// Analyzability before/after (pointer derefs, while loops).
    pub before: (usize, usize),
    /// After.
    pub after: (usize, usize),
}

/// Runs E8.
pub fn e8_recoder() -> E8Recoder {
    // A reference model with the classic analyzability obstacles.
    let src = "void model(int n, int out[]) {\n\
         int tmp[64];\n\
         int *p = &out[0];\n\
         *p = 0;\n\
         if (1) { out[1] = 1; } else { out[1] = 2; }\n\
         for (i = 0; i < 64; i = i + 1) { tmp[i] = i * 3 + 1; }\n\
         for (i = 0; i < 64; i = i + 1) { out[i] = tmp[i] * tmp[i]; }\n\
         }";
    let mut session = Recoder::from_source(src).expect("parses");
    let score = |u: &mpsoc_minic::Unit| {
        let f = &u.functions[0];
        let a = mpsoc_minic::analysis::analyzability(u, f);
        (a.pointer_derefs, a.while_loops)
    };
    let before = score(session.unit());
    session
        .apply(|u| transforms::recode_pointers(u, "model"))
        .expect("recodes");
    session
        .apply(|u| transforms::prune_control(u, "model"))
        .expect("prunes");
    session
        .apply(|u| transforms::split_loop(u, "model", 0, 4))
        .expect("splits");
    session
        .apply(|u| transforms::split_loop(u, "model", 4, 4))
        .expect("splits");
    let after = score(session.unit());
    let stats = session.stats();
    E8Recoder {
        actions: stats.automated_steps,
        lines_changed: stats.lines_changed_by_transforms,
        productivity: stats.productivity_factor(),
        before,
        after,
    }
}

impl fmt::Display for E8Recoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E8: designer-controlled recoding productivity")?;
        writeln!(f, "  designer actions      : {}", self.actions)?;
        writeln!(f, "  lines rewritten       : {}", self.lines_changed)?;
        writeln!(f, "  lines per action      : {:.1}", self.productivity)?;
        writeln!(
            f,
            "  pointer derefs        : {} -> {}",
            self.before.0, self.after.0
        )
    }
}

/// E9 — Section VII: Heisenbug reproduction under three debugging regimes.
#[derive(Clone, Debug)]
pub struct E9Heisenbug {
    /// Lost updates under plain execution.
    pub plain_lost: i64,
    /// Lost updates with the non-intrusive VP suspension.
    pub vp_lost: i64,
    /// Whether the VP run is bit-identical to the plain run.
    pub vp_identical: bool,
    /// Lost updates under the intrusive single-core halt.
    pub intrusive_lost: i64,
}

/// Runs E9.
pub fn e9_heisenbug() -> E9Heisenbug {
    let iters = 200;
    let plain = run_race(iters, DebugMode::Plain).expect("runs");
    let vp = run_race(iters, DebugMode::NonIntrusiveSuspend { every: 13 }).expect("runs");
    let intrusive = run_race(
        iters,
        DebugMode::IntrusiveHalt {
            core: 1,
            at_pc: 3,
            for_steps: 10_000,
        },
    )
    .expect("runs");
    E9Heisenbug {
        plain_lost: plain.lost_updates,
        vp_lost: vp.lost_updates,
        vp_identical: vp == plain,
        intrusive_lost: intrusive.lost_updates,
    }
}

impl fmt::Display for E9Heisenbug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E9: lost updates of the shared-counter race (400 expected increments)"
        )?;
        writeln!(f, "  plain run                 : {}", self.plain_lost)?;
        writeln!(
            f,
            "  VP non-intrusive suspend  : {} (identical: {})",
            self.vp_lost, self.vp_identical
        )?;
        writeln!(f, "  intrusive core halt       : {}", self.intrusive_lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shapes() {
        let r = e1_scalability();
        let last = r.rows.last().unwrap();
        // Homogeneous beats skewed heterogeneous; boosting beats both.
        assert!(last.1 > last.2);
        assert!(last.3 > last.1);
        // Speedups grow monotonically with cores.
        for w in r.rows.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn e2_hybrid_wins() {
        let r = e2_sched();
        assert!(r.hybrid_missed < r.ts_missed);
        assert_eq!(r.hybrid_missed, 0);
    }

    #[test]
    fn e3_tt_corrupts_dd_does_not() {
        let r = e3_corruption();
        // No corruption anywhere without overruns.
        assert_eq!(r.rows[0].1, 0);
        // With overruns TT corrupts, DD never does.
        let worst = r.rows.last().unwrap();
        assert!(worst.1 > 0);
        assert_eq!(worst.2, 0);
    }

    #[test]
    fn e4_minimal_at_most_required() {
        let r = e4_buffers();
        assert!(r.wait_free);
        for (req, min) in &r.channels {
            assert!(min <= req);
            assert!(*min >= 1);
        }
    }

    #[test]
    fn e5_speedup_grows_with_cores() {
        let r = e5_maps();
        assert!(r.rows[0].2 > 1.2, "2 cores should beat sequential: {r}");
        assert!(
            r.rows.last().unwrap().3 >= r.rows[0].3,
            "more cores should not hurt: {r}"
        );
    }

    #[test]
    fn e6_osip_dominates_at_fine_granularity() {
        let r = e6_osip();
        let fine = r.rows[0];
        assert!(fine.1 > 2.0 * fine.2, "OSIP {} vs SW {}", fine.1, fine.2);
        let coarse = r.rows.last().unwrap();
        assert!(coarse.2 > 0.9, "coarse tasks should saturate even SW");
    }

    #[test]
    fn e7_all_targets_match() {
        let r = e7_cic();
        assert_eq!(r.rows.len(), 3);
        assert!(r.rows.iter().all(|(_, _, _, ok)| *ok));
        // Distinct targets have distinct cost estimates.
        assert_ne!(r.rows[0].2, r.rows[2].2);
    }

    #[test]
    fn e8_productivity_exceeds_manual() {
        let r = e8_recoder();
        assert!(r.productivity > 3.0, "{r}");
        assert_eq!(r.after.0, 0, "pointers eliminated");
    }

    #[test]
    fn e10_admission_sound_and_useful() {
        let r = e10_admission();
        assert!(r.admitted > 0 && r.admitted < r.offered);
        assert_eq!(r.missed, 0, "admitted set must be schedulable");
        assert!(r.unfiltered_missed > 0, "unfiltered load must overload");
    }

    #[test]
    fn e11_exploration_finds_winner() {
        let r = e11_explore();
        assert!(r.winner.is_some());
        assert!(r.rows.iter().any(|(_, _, _, _, ok)| *ok));
        assert!(r.rows.iter().any(|(_, _, _, _, ok)| !*ok));
    }

    #[test]
    fn e9_vp_reproduces_intrusive_hides() {
        let r = e9_heisenbug();
        assert!(r.plain_lost > 0);
        assert!(r.vp_identical);
        assert!(r.intrusive_lost < r.plain_lost / 10);
    }
}

/// E10 (extension) — Section II.B's missing piece: predictable reactive
/// admission control. Drives a request stream through the controller and
/// replays the admitted set in the simulator.
#[derive(Clone, Debug)]
pub struct E10Admission {
    /// Requests offered.
    pub offered: usize,
    /// Requests admitted.
    pub admitted: usize,
    /// Deadline misses of the admitted set under the hybrid scheduler.
    pub missed: usize,
    /// Deadline misses when the same *offered* set bypasses admission.
    pub unfiltered_missed: usize,
}

/// Runs E10.
pub fn e10_admission() -> E10Admission {
    use mpsoc_rtkernel::admission::{AdmissionConfig, AdmissionController};
    let mut ac = AdmissionController::new(AdmissionConfig::default()).expect("valid config");
    let mut offered_wl = mpsoc_rtkernel::Workload::new();
    let mut offered = 0usize;
    for i in 0..24u64 {
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
        offered += 1;
        offered_wl.push(spec.clone());
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
    let admitted_run = simulate(&ac.workload(), &cfg).expect("valid");
    let unfiltered_run = simulate(&offered_wl, &cfg).expect("valid");
    E10Admission {
        offered,
        admitted: ac.admitted().count(),
        missed: admitted_run.total_missed(),
        unfiltered_missed: unfiltered_run.total_missed(),
    }
}

impl fmt::Display for E10Admission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E10 (ext): reactive admission control on the hybrid machine"
        )?;
        writeln!(f, "  requests offered            : {}", self.offered)?;
        writeln!(f, "  admitted                    : {}", self.admitted)?;
        writeln!(f, "  misses, admitted set        : {}", self.missed)?;
        writeln!(
            f,
            "  misses, without admission   : {}",
            self.unfiltered_missed
        )
    }
}

/// E11 (extension) — Section V's future work: exploration of the optimal
/// target architecture for the H.264-like CIC model.
#[derive(Clone, Debug)]
pub struct E11Explore {
    /// `(target, PEs, est cycles, cost, meets)` rows.
    pub rows: Vec<(String, usize, u64, f64, bool)>,
    /// The winner's description.
    pub winner: Option<String>,
    /// Deadline used.
    pub deadline: u64,
}

/// Runs E11.
pub fn e11_explore() -> E11Explore {
    use mpsoc_cic::explore::explore_parallel;
    let model = h264_cic_model().expect("model builds");
    let deadline = 1_600;
    // The parallel sweep is bit-identical to the serial one for any thread
    // count, so E11's published rows are unchanged.
    let e = explore_parallel(&model, deadline, 4, 4, 4).expect("explores");
    let rows = e
        .candidates
        .iter()
        .map(|c| {
            (
                c.arch.name.clone(),
                c.arch.pes.len(),
                c.est_cycles,
                c.cost,
                c.meets_deadline,
            )
        })
        .collect();
    let winner = e.best_candidate().map(|c| {
        format!(
            "{} with {} PEs (cost {:.1})",
            c.arch.name,
            c.arch.pes.len(),
            c.cost
        )
    });
    E11Explore {
        rows,
        winner,
        deadline,
    }
}

impl fmt::Display for E11Explore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E11 (ext): architecture exploration, H.264-like encoder, deadline {} cy",
            self.deadline
        )?;
        writeln!(
            f,
            "{:>10} {:>5} {:>10} {:>7} {:>6}",
            "target", "PEs", "est cy", "cost", "meets"
        )?;
        for (t, pes, cy, cost, ok) in &self.rows {
            writeln!(f, "{t:>10} {pes:>5} {cy:>10} {cost:>7.1} {ok:>6}")?;
        }
        writeln!(f, "  winner: {}", self.winner.as_deref().unwrap_or("none"))
    }
}

/// E12 — Section VII (ext): deterministic fault-injection campaign over a
/// whole-platform checkpoint.
#[derive(Clone, Debug)]
pub struct E12Faults {
    /// Faults swept.
    pub total: usize,
    /// Faults the workload's own checking code caught.
    pub detected: usize,
    /// Faults with no observable effect.
    pub masked: usize,
    /// Faults that corrupted the output region undetected.
    pub silent: usize,
    /// Faults that crashed the platform.
    pub crash: usize,
    /// Faults that found a target (e.g. a DMA transfer actually in flight).
    pub applied: usize,
    /// Detected / (applied and not masked).
    pub coverage: f64,
    /// Whether the verdict table was bit-identical at 1, 2 and 4 worker
    /// threads.
    pub thread_invariant: bool,
    /// Fault-free checksum of the output region.
    pub golden_checksum: u64,
    /// Step budget per trial.
    pub budget_steps: u64,
    /// RNG seed the fault list was generated from.
    pub seed: u64,
}

impl E12Faults {
    /// Hand-rolled JSON for the CI fault-coverage artifact
    /// (`target/E12_faults.json`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"experiment\": \"e12_faults\",");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"budget_steps\": {},", self.budget_steps);
        let _ = writeln!(s, "  \"golden_checksum\": {},", self.golden_checksum);
        let _ = writeln!(s, "  \"total\": {},", self.total);
        let _ = writeln!(s, "  \"applied\": {},", self.applied);
        let _ = writeln!(s, "  \"detected\": {},", self.detected);
        let _ = writeln!(s, "  \"masked\": {},", self.masked);
        let _ = writeln!(s, "  \"silent_corruption\": {},", self.silent);
        let _ = writeln!(s, "  \"crash\": {},", self.crash);
        let _ = writeln!(s, "  \"coverage\": {:.4},", self.coverage);
        let _ = writeln!(s, "  \"thread_invariant\": {}", self.thread_invariant);
        s.push_str("}\n");
        s
    }
}

// E12's fault-target platform builder moved to `mpsoc_apps::testbed`
// (shared with the `mpsoc-test` headless runner); the experiment keeps a
// local alias so the call sites below read unchanged.
use mpsoc_apps::testbed::build_e12 as e12_platform;

/// Runs E12: checkpoint the fault-target platform mid-flight (DMA transfer
/// in progress, computation under way), sweep a 240-fault campaign at 1, 2
/// and 4 worker threads through `run_campaign_delta` — the runner the
/// layered benchmark measures — and require the verdict tables to be
/// bit-identical, to each other and to one single-thread pass of the
/// full-restore oracle `run_campaign`.
pub fn e12_faults() -> E12Faults {
    use mpsoc_vpdebug::campaign::{
        generate_faults, run_campaign, run_campaign_delta, CampaignConfig, FaultSpace, Verdict,
    };

    let (mut p, timer, mb, dma) = e12_platform();
    // Step to the fault site: the DMA stream must be in flight so
    // dropped-flit and wire-corruption faults have a target.
    let mut guard = 0;
    while !p.dma_in_flight(dma) {
        p.step().expect("fault-free run steps");
        guard += 1;
        assert!(guard < 10_000, "DMA never started");
    }
    for _ in 0..8 {
        p.step().expect("fault-free run steps");
    }
    let image = p.capture().expect("fault site captures");

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
    let sweep =
        |threads| run_campaign_delta(&image, &faults, cfg(threads), None).expect("campaign runs");
    let (t1, t2, t4) = (sweep(1), sweep(2), sweep(4));
    let oracle = run_campaign(&image, &faults, cfg(1), None).expect("oracle campaign runs");
    assert_eq!(
        t1.verdict_table(),
        oracle.verdict_table(),
        "reset_to_base rollback must classify exactly like a full restore per trial"
    );
    let thread_invariant =
        t1.verdict_table() == t2.verdict_table() && t1.verdict_table() == t4.verdict_table();

    E12Faults {
        total: t1.outcomes.len(),
        detected: t1.count(Verdict::Detected),
        masked: t1.count(Verdict::Masked),
        silent: t1.count(Verdict::SilentCorruption),
        crash: t1.count(Verdict::Crash),
        applied: t1.outcomes.iter().filter(|o| o.applied).count(),
        coverage: t1.coverage(),
        thread_invariant,
        golden_checksum: t1.golden_checksum,
        budget_steps: t1.budget_steps,
        seed,
    }
}

impl fmt::Display for E12Faults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E12 (ext): fault-injection campaign, {} faults (seed {:#x}), budget {} steps",
            self.total, self.seed, self.budget_steps
        )?;
        writeln!(
            f,
            "  {:>9} {:>7} {:>18} {:>6}",
            "detected", "masked", "silent_corruption", "crash"
        )?;
        writeln!(
            f,
            "  {:>9} {:>7} {:>18} {:>6}   (applied {}/{})",
            self.detected, self.masked, self.silent, self.crash, self.applied, self.total
        )?;
        writeln!(
            f,
            "  coverage of effective faults: {:.1}%",
            self.coverage * 100.0
        )?;
        writeln!(
            f,
            "  verdict table identical at 1/2/4 threads: {}",
            self.thread_invariant
        )
    }
}

/// E13 — joint mapping×topology DSE over the declarative platform
/// generator (see `crates/pdl`).
#[derive(Clone, Debug)]
pub struct E13JointDse {
    /// The sweep report (trials, Pareto front) at one thread count.
    pub report: mpsoc_pdl::JointReport,
    /// Whether the Pareto front *and* the serialized JSON artifact were
    /// bit-identical at 1, 2, 4 and 8 worker threads.
    pub thread_invariant: bool,
    /// Whether the smoke profile (CI) or the full profile ran.
    pub smoke: bool,
}

impl E13JointDse {
    /// The CI artifact (`target/E13_joint_dse.json`): the report JSON is
    /// thread-count-free by construction, so the artifact is byte-identical
    /// regardless of the machine's parallelism.
    pub fn to_json(&self) -> String {
        self.report.to_json()
    }
}

/// Runs E13: the joint sweep at 1, 2, 4 and 8 worker threads, requiring
/// the Pareto front and the JSON artifact to be bit-identical across all
/// four runs.
pub fn e13_joint_dse(smoke: bool) -> E13JointDse {
    use mpsoc_pdl::{joint_sweep, JointConfig};

    let base = if smoke {
        JointConfig::smoke()
    } else {
        JointConfig::full()
    };
    let reports: Vec<mpsoc_pdl::JointReport> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| joint_sweep(&JointConfig { threads, ..base }).expect("joint sweep runs"))
        .collect();
    let thread_invariant = reports[1..]
        .iter()
        .all(|r| r.front == reports[0].front && r.to_json() == reports[0].to_json());
    E13JointDse {
        report: reports.into_iter().next().expect("four reports"),
        thread_invariant,
        smoke,
    }
}

impl fmt::Display for E13JointDse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E13 (ext): joint mapping x topology DSE ({} profile, master seed {:#x})",
            if self.smoke { "smoke" } else { "full" },
            self.report.master_seed
        )?;
        write!(f, "{}", self.report)?;
        writeln!(
            f,
            "  Pareto front and JSON identical at 1/2/4/8 threads: {}",
            self.thread_invariant
        )
    }
}
