//! Hybrid time-shared / space-shared scheduling — the Section II.B proposal.
//!
//! The paper argues that manycore operating systems *"will have to make the
//! shift to a more space-sharing approach, while retaining some of the
//! characteristics of time-sharing systems"*, and calls for *"scheduling
//! algorithms that can in a reactive way mitigate multiple requests for
//! parallel computing resources as well \[as\] sequential computing
//! resources"*. This module provides a deterministic tick-quantised
//! simulator of exactly that design space:
//!
//! * [`Policy::TimeShared`] — the conventional baseline: every core is
//!   preemptively multiplexed over all runnable jobs; migrating or switching
//!   a core between jobs costs [`SimConfig::switch_overhead`] work units.
//! * [`Policy::Hybrid`] — the paper's proposal: parallel phases receive a
//!   *gang reservation* of dedicated space-shared cores and run to
//!   completion without preemption; sequential phases run on a small
//!   time-shared pool whose cores may be frequency-boosted.
//!
//! Experiment E2 compares deadline-miss behaviour of the two policies on
//! mixed workloads.
//!
//! Time advances tick by tick while any core runs a job, and straight to the
//! next release (or the horizon) after a tick in which none did. That is
//! exact, not an approximation. A tick that assigns no core retires no work,
//! so it changes no job's phase, gang or deadline and no core's affinity; the
//! only jobs it retires are zero-work ones released in that very tick, which
//! no policy ever gives a core. The next tick therefore sees the same
//! runnable set, in the same order, and assigns nothing again — until a
//! release, and releases fire only on the tick a task's `next` names. The
//! skipped ticks would have produced no statistic, counter or event.

use crate::error::{Error, Result};
use crate::task::{TaskId, Workload};
use mpsoc_obs::event::{Event, ObsCtx};
use mpsoc_obs::metrics::Counter;

/// Cached `sched.*` counter handles (resolved once per simulation).
struct SchedMetrics {
    jobs_released: Counter,
    jobs_completed: Counter,
    deadline_misses: Counter,
    context_switches: Counter,
}

/// Scheduling policy under simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// All cores preemptively time-shared among all runnable strands.
    TimeShared,
    /// `ts_cores` time-shared cores (optionally boosted `boost`×) for
    /// sequential phases; the remaining cores are space-shared gangs
    /// dedicated to one parallel phase each, run-to-completion.
    Hybrid {
        /// Number of cores in the time-shared pool.
        ts_cores: usize,
        /// Speed multiplier applied to the time-shared pool (the paper's
        /// scarce "high speed processor resources").
        boost: f64,
    },
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of cores.
    pub cores: usize,
    /// Work units a base-speed core retires per tick.
    pub speed: u64,
    /// Work units lost when a core switches to a different job.
    pub switch_overhead: u64,
    /// Simulation horizon in ticks.
    pub horizon: u64,
    /// The policy.
    pub policy: Policy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cores: 8,
            speed: 10,
            switch_overhead: 2,
            horizon: 10_000,
            policy: Policy::TimeShared,
        }
    }
}

/// Outcome statistics for one task.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Jobs released within the horizon.
    pub released: usize,
    /// Jobs completed by their deadline.
    pub met: usize,
    /// Jobs that missed their deadline (late or unfinished).
    pub missed: usize,
    /// Sum of response times of completed jobs (ticks).
    pub(crate) total_response: u64,
    /// Worst observed response time (ticks).
    pub(crate) worst_response: u64,
}

/// Aggregate simulation result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Per-task statistics, indexed by [`TaskId`].
    pub tasks: Vec<TaskStats>,
    /// Core-ticks spent executing useful work.
    pub busy_ticks: u64,
    /// Number of job switches on cores.
    pub switches: u64,
    /// Work units burned on switch overhead.
    pub(crate) overhead_work: u64,
    /// Final simulation tick (== horizon).
    pub(crate) end_tick: u64,
}

impl SimResult {
    /// Total deadline misses across tasks.
    pub fn total_missed(&self) -> usize {
        self.tasks.iter().map(|t| t.missed).sum()
    }

    /// Total jobs meeting deadlines.
    pub fn total_met(&self) -> usize {
        self.tasks.iter().map(|t| t.met).sum()
    }

    /// Average core utilisation in `[0, 1]` given the config used.
    pub fn utilization(&self, cfg: &SimConfig) -> f64 {
        if cfg.horizon == 0 || cfg.cores == 0 {
            return 0.0;
        }
        self.busy_ticks as f64 / (cfg.horizon * cfg.cores as u64) as f64
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    Serial,
    Parallel,
    Done,
}

#[derive(Clone, Debug)]
struct Job {
    task: TaskId,
    release: u64,
    abs_deadline: u64,
    serial_left: u64,
    parallel_left: u64,
    width: usize,
    priority: u8,
    phase: Phase,
    /// Space-shared reservation (core indices) while in a hybrid gang.
    gang: Vec<usize>,
    seq: usize,
}

impl Job {
    fn phase_now(&self) -> Phase {
        if self.serial_left > 0 {
            Phase::Serial
        } else if self.parallel_left > 0 {
            Phase::Parallel
        } else {
            Phase::Done
        }
    }
}

/// Runs the scheduler simulation of `workload` under `cfg`.
///
/// The simulation is tick-quantised and fully deterministic: runnable jobs
/// are ordered by `(priority desc, absolute deadline asc, release seq)`.
///
/// # Errors
///
/// Returns [`Error::Config`] for zero cores/speed/horizon, or a hybrid pool
/// larger than the machine.
pub fn simulate(workload: &Workload, cfg: &SimConfig) -> Result<SimResult> {
    simulate_observed(workload, cfg, &mut ObsCtx::none())
}

/// [`simulate`] with an observability context: bumps the `sched.*` counters
/// (jobs released/completed, deadline misses, context switches) and emits
/// one span per job (begin at release, end at retirement, task id as the
/// track) plus `deadline_miss` instants, all under category `"rtkernel"`
/// with the tick count as the timestamp. Passing [`ObsCtx::none`] is
/// exactly [`simulate`].
///
/// # Errors
///
/// Returns [`Error::Config`] for zero cores/speed/horizon, or a hybrid pool
/// larger than the machine.
pub fn simulate_observed(
    workload: &Workload,
    cfg: &SimConfig,
    obs: &mut ObsCtx<'_>,
) -> Result<SimResult> {
    let mut sim = Sim::new(workload, cfg, obs)?;
    let mut now = 0;
    while now < cfg.horizon {
        now = if sim.tick(now, obs) {
            now + 1
        } else {
            // No core ran: every tick before the next release repeats this
            // one (see the module documentation).
            sim.next_release_after(now).unwrap_or(cfg.horizon)
        };
    }
    Ok(sim.finish(obs))
}

/// The state of one simulation: what ticks carry from one to the next, and
/// the per-tick buffers, cleared rather than reallocated.
struct Sim<'a> {
    workload: &'a Workload,
    cfg: &'a SimConfig,
    ts_cores: usize,
    boost: f64,
    metrics: Option<SchedMetrics>,
    result: SimResult,
    jobs: Vec<Job>,
    /// Per task: the tick of its next release and the jobs released so far.
    next_release: Vec<(u64, usize)>,
    /// Last job `(task, seq)` seen by each core, for switch accounting.
    core_last: Vec<Option<(usize, usize)>>,
    seq_counter: usize,
    /// `assignment[core]` = index into `jobs` of the job it runs this tick.
    assignment: Vec<Option<usize>>,
    /// Indices into `jobs` in scheduling order.
    order: Vec<usize>,
    /// Candidate cores of the pool being handed out.
    free: Vec<usize>,
    space_free: Vec<bool>,
    /// Per job: work retired this tick, and the cores that retired it.
    progress: Vec<u64>,
    strands: Vec<u32>,
}

impl<'a> Sim<'a> {
    fn new(workload: &'a Workload, cfg: &'a SimConfig, obs: &ObsCtx<'_>) -> Result<Self> {
        let metrics = obs.metrics.map(|r| SchedMetrics {
            jobs_released: r.counter("sched.jobs_released"),
            jobs_completed: r.counter("sched.jobs_completed"),
            deadline_misses: r.counter("sched.deadline_misses"),
            context_switches: r.counter("sched.context_switches"),
        });
        if cfg.cores == 0 {
            return Err(Error::Config("need at least one core".into()));
        }
        if cfg.speed == 0 {
            return Err(Error::Config("core speed must be non-zero".into()));
        }
        if cfg.horizon == 0 {
            return Err(Error::Config("horizon must be non-zero".into()));
        }
        let (ts_cores, boost) = match cfg.policy {
            Policy::TimeShared => (cfg.cores, 1.0),
            Policy::Hybrid { ts_cores, boost } => {
                if ts_cores == 0 || ts_cores > cfg.cores {
                    return Err(Error::Config(format!(
                        "hybrid time-shared pool of {ts_cores} cores does not fit {} cores",
                        cfg.cores
                    )));
                }
                if boost < 1.0 {
                    return Err(Error::Config("boost must be >= 1.0".into()));
                }
                (ts_cores, boost)
            }
        };
        Ok(Sim {
            workload,
            cfg,
            ts_cores,
            boost,
            metrics,
            result: SimResult {
                tasks: vec![TaskStats::default(); workload.len()],
                ..SimResult::default()
            },
            jobs: Vec::new(),
            next_release: workload
                .tasks()
                .iter()
                .map(|t| (t.arrival, 0usize))
                .collect(),
            core_last: vec![None; cfg.cores],
            seq_counter: 0,
            assignment: vec![None; cfg.cores],
            order: Vec::new(),
            free: Vec::new(),
            space_free: Vec::new(),
            progress: Vec::new(),
            strands: Vec::new(),
        })
    }

    /// The earliest release still pending after tick `now`, if any. A task
    /// whose `next` is not after `now` has stopped releasing: releases fire
    /// on `next == now` only, and only a periodic task moves `next` on.
    fn next_release_after(&self, now: u64) -> Option<u64> {
        self.workload
            .tasks()
            .iter()
            .zip(&self.next_release)
            .filter(|(spec, &(next, count))| count < spec.jobs && next > now)
            .map(|(_, &(next, _))| next)
            .min()
    }

    /// Simulates tick `now`. Returns whether any core ran a job.
    fn tick(&mut self, now: u64, obs: &mut ObsCtx<'_>) -> bool {
        let Sim {
            workload,
            cfg,
            ts_cores,
            boost,
            ref metrics,
            ref mut result,
            ref mut jobs,
            ref mut next_release,
            ref mut core_last,
            ref mut seq_counter,
            ref mut assignment,
            ref mut order,
            ref mut free,
            ref mut space_free,
            ref mut progress,
            ref mut strands,
        } = *self;

        // 1. Release jobs.
        for (tid, spec) in workload.tasks().iter().enumerate() {
            let (ref mut next, ref mut count) = next_release[tid];
            while *count < spec.jobs && *next == now {
                jobs.push(Job {
                    task: TaskId(tid),
                    release: now,
                    abs_deadline: now + spec.deadline,
                    serial_left: spec.serial_work,
                    parallel_left: spec.parallel_work,
                    width: spec.width,
                    priority: spec.priority,
                    phase: Phase::Serial,
                    gang: Vec::new(),
                    seq: *seq_counter,
                });
                *seq_counter += 1;
                result.tasks[tid].released += 1;
                if let Some(m) = metrics {
                    m.jobs_released.inc();
                }
                obs.emit(|| {
                    Event::begin(now, spec.name.clone(), "rtkernel", tid as u32)
                        .with_arg("deadline", now + spec.deadline)
                });
                *count += 1;
                match spec.period {
                    Some(p) => *next += p,
                    None => break,
                }
            }
        }

        // 2. Build this tick's core assignment.
        assignment.fill(None);
        // Deterministic job order; `seq` is unique, so the key is a total
        // order and the in-place sort is as deterministic as a stable one.
        order.clear();
        order.extend(0..jobs.len());
        order.sort_unstable_by_key(|&i| {
            (
                std::cmp::Reverse(jobs[i].priority),
                jobs[i].abs_deadline,
                jobs[i].seq,
            )
        });

        match cfg.policy {
            Policy::TimeShared => {
                free.clear();
                free.extend(0..cfg.cores);
                for &ji in order.iter() {
                    let want = match jobs[ji].phase_now() {
                        Phase::Serial => 1,
                        Phase::Parallel => jobs[ji].width,
                        Phase::Done => 0,
                    };
                    for _ in 0..want {
                        match free.pop() {
                            Some(c) => assignment[c] = Some(ji),
                            None => break,
                        }
                    }
                    if free.is_empty() {
                        break;
                    }
                }
            }
            Policy::Hybrid { .. } => {
                // Space pool: cores [ts_cores..). Keep existing gangs.
                space_free.clear();
                space_free.resize(cfg.cores, true);
                for (ji, job) in jobs.iter_mut().enumerate() {
                    if job.phase_now() == Phase::Parallel && !job.gang.is_empty() {
                        for &c in &job.gang {
                            assignment[c] = Some(ji);
                            space_free[c] = false;
                        }
                    } else if job.phase_now() != Phase::Parallel {
                        job.gang.clear();
                    }
                }
                // Grant new gangs reactively, in priority order.
                for &ji in order.iter() {
                    if jobs[ji].phase_now() == Phase::Parallel && jobs[ji].gang.is_empty() {
                        free.clear();
                        free.extend((ts_cores..cfg.cores).filter(|&c| space_free[c]));
                        if free.len() >= jobs[ji].width {
                            let gang = free[..jobs[ji].width].to_vec();
                            for &c in &gang {
                                assignment[c] = Some(ji);
                                space_free[c] = false;
                            }
                            jobs[ji].gang = gang;
                        }
                    }
                }
                // Time-shared pool runs serial phases (and parallel jobs
                // still waiting for a gang make no progress — the cost of
                // space sharing, also modelled).
                free.clear();
                free.extend((0..ts_cores).filter(|&c| assignment[c].is_none()));
                for &ji in order.iter() {
                    if jobs[ji].phase_now() == Phase::Serial {
                        if let Some(c) = free.pop() {
                            assignment[c] = Some(ji);
                        } else {
                            break;
                        }
                    }
                }
            }
        }

        // 3. Execute the tick.
        progress.clear();
        progress.resize(jobs.len(), 0);
        strands.clear();
        strands.resize(jobs.len(), 0);
        let mut ran = false;
        for c in 0..cfg.cores {
            let Some(ji) = assignment[c] else { continue };
            ran = true;
            let key = (jobs[ji].task.0, jobs[ji].seq);
            let mut budget = if c < ts_cores {
                (cfg.speed as f64 * boost) as u64
            } else {
                cfg.speed
            };
            if core_last[c] != Some(key) {
                result.switches += 1;
                if let Some(m) = metrics {
                    m.context_switches.inc();
                }
                let pay = cfg.switch_overhead.min(budget);
                result.overhead_work += pay;
                budget -= pay;
                core_last[c] = Some(key);
            }
            result.busy_ticks += 1;
            progress[ji] += budget;
            strands[ji] += 1;
        }
        // Apply progress: serial phase consumes only one strand's worth.
        for ji in 0..jobs.len() {
            if strands[ji] == 0 {
                continue;
            }
            match jobs[ji].phase_now() {
                Phase::Serial => {
                    // Only one core can help the serial phase; if several
                    // were assigned (time-shared over-allocation), the rest
                    // idle-spin: charge only the max single budget.
                    let per = progress[ji] / strands[ji] as u64;
                    jobs[ji].serial_left = jobs[ji].serial_left.saturating_sub(per);
                }
                Phase::Parallel => {
                    jobs[ji].parallel_left = jobs[ji].parallel_left.saturating_sub(progress[ji]);
                }
                Phase::Done => {}
            }
            jobs[ji].phase = jobs[ji].phase_now();
        }

        // 4. Retire completed jobs.
        let mut i = 0;
        while i < jobs.len() {
            if jobs[i].phase_now() == Phase::Done {
                let j = jobs.remove(i);
                let stats = &mut result.tasks[j.task.0];
                let response = now + 1 - j.release;
                stats.total_response += response;
                stats.worst_response = stats.worst_response.max(response);
                if now < j.abs_deadline {
                    stats.met += 1;
                } else {
                    stats.missed += 1;
                    if let Some(m) = metrics {
                        m.deadline_misses.inc();
                    }
                    obs.emit(|| {
                        Event::instant(now + 1, "deadline_miss", "rtkernel", j.task.0 as u32)
                    });
                }
                if let Some(m) = metrics {
                    m.jobs_completed.inc();
                }
                obs.emit(|| {
                    Event::end(
                        now + 1,
                        workload.tasks()[j.task.0].name.clone(),
                        "rtkernel",
                        j.task.0 as u32,
                    )
                    .with_arg("response", response)
                });
                // Invalidate stale core affinity records.
                for cl in core_last.iter_mut() {
                    if *cl == Some((j.task.0, j.seq)) {
                        *cl = None;
                    }
                }
            } else {
                i += 1;
            }
        }
        ran
    }

    /// Closes the books at the horizon.
    fn finish(mut self, obs: &mut ObsCtx<'_>) -> SimResult {
        // Jobs unfinished at the horizon with expired deadlines have missed.
        // Their spans are closed at the horizon so every Begin has an End.
        for j in &self.jobs {
            if j.abs_deadline < self.cfg.horizon {
                self.result.tasks[j.task.0].missed += 1;
                if let Some(m) = &self.metrics {
                    m.deadline_misses.inc();
                }
            }
            obs.emit(|| {
                Event::end(
                    self.cfg.horizon,
                    self.workload.tasks()[j.task.0].name.clone(),
                    "rtkernel",
                    j.task.0 as u32,
                )
                .with_arg("unfinished", 1)
            });
        }
        self.result.end_tick = self.cfg.horizon;
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;
    use mpsoc_obs::XorShift64Star;

    fn cfg(policy: Policy) -> SimConfig {
        SimConfig {
            cores: 8,
            speed: 10,
            switch_overhead: 2,
            horizon: 2_000,
            policy,
        }
    }

    #[test]
    fn single_sequential_job_completes_on_time() {
        let mut w = Workload::new();
        w.push(TaskSpec::sequential("s", 100, 100));
        let r = simulate(&w, &cfg(Policy::TimeShared)).unwrap();
        assert_eq!(r.tasks[0].met, 1);
        assert_eq!(r.tasks[0].missed, 0);
        // 100 units at 10/tick minus one switch (2): ~11 ticks.
        assert!(r.tasks[0].worst_response <= 12);
    }

    #[test]
    fn parallel_job_uses_gang_speedup() {
        let mut w = Workload::new();
        w.push(TaskSpec::parallel("p", 0, 800, 4, 1_000));
        let r = simulate(&w, &cfg(Policy::TimeShared)).unwrap();
        // 800 units over 4 cores at 10/tick ≈ 20+ ticks, far less than 80.
        assert!(r.tasks[0].worst_response < 30);
    }

    #[test]
    fn impossible_deadline_is_missed() {
        let mut w = Workload::new();
        w.push(TaskSpec::sequential("tight", 1_000, 5));
        let r = simulate(&w, &cfg(Policy::TimeShared)).unwrap();
        assert_eq!(r.tasks[0].missed, 1);
        assert_eq!(r.total_met(), 0);
    }

    #[test]
    fn observed_run_counters_match_sim_result() {
        use mpsoc_obs::event::EventKind;
        use mpsoc_obs::metrics::MetricsRegistry;
        use mpsoc_obs::ring::RingSink;

        let mut w = Workload::new();
        w.push(TaskSpec::sequential("per", 10, 50).with_period(100, 10));
        w.push(TaskSpec::sequential("tight", 1_000, 5));
        let reg = MetricsRegistry::new();
        let mut sink = RingSink::new(1024);
        let mut obs = ObsCtx::new(&mut sink, &reg);
        let r = simulate_observed(&w, &cfg(Policy::TimeShared), &mut obs).unwrap();

        let released: usize = r.tasks.iter().map(|t| t.released).sum();
        assert_eq!(reg.counter("sched.jobs_released").get(), released as u64);
        assert_eq!(
            reg.counter("sched.deadline_misses").get(),
            r.total_missed() as u64
        );
        assert_eq!(
            reg.counter("sched.context_switches").get(),
            r.switches as u64
        );
        assert_eq!(
            reg.counter("sched.jobs_completed").get(),
            (r.total_met() + r.total_missed()) as u64
        );

        // Every span begin has a matching end, all under cat "rtkernel".
        let evs = sink.events();
        assert!(!evs.is_empty());
        assert!(evs.iter().all(|e| e.cat == "rtkernel"));
        let begins = evs.iter().filter(|e| e.kind == EventKind::Begin).count();
        let ends = evs.iter().filter(|e| e.kind == EventKind::End).count();
        assert_eq!(begins, released);
        assert_eq!(begins, ends, "every job span must be closed");
        assert!(evs
            .iter()
            .any(|e| e.kind == EventKind::Instant && e.name == "deadline_miss"));
    }

    #[test]
    fn unobserved_simulate_matches_observed_result() {
        let mut w = Workload::new();
        w.push(TaskSpec::sequential("s", 100, 100).with_period(150, 5));
        let plain = simulate(&w, &cfg(Policy::TimeShared)).unwrap();
        let observed =
            simulate_observed(&w, &cfg(Policy::TimeShared), &mut ObsCtx::none()).unwrap();
        assert_eq!(plain, observed);
    }

    #[test]
    fn periodic_release_counts() {
        let mut w = Workload::new();
        w.push(TaskSpec::sequential("per", 10, 50).with_period(100, 10));
        let r = simulate(&w, &cfg(Policy::TimeShared)).unwrap();
        assert_eq!(r.tasks[0].released, 10);
        assert_eq!(r.tasks[0].met, 10);
    }

    #[test]
    fn hybrid_reserves_gangs_run_to_completion() {
        let mut w = Workload::new();
        w.push(TaskSpec::parallel("enc", 20, 2_000, 4, 300).with_period(400, 4));
        let r = simulate(
            &w,
            &cfg(Policy::Hybrid {
                ts_cores: 2,
                boost: 1.0,
            }),
        )
        .unwrap();
        assert_eq!(r.tasks[0].released, 4);
        assert_eq!(r.tasks[0].missed, 0, "stats: {:?}", r.tasks[0]);
    }

    #[test]
    fn hybrid_beats_time_shared_under_interference() {
        // One hard parallel streaming task + a near-saturating storm of
        // best-effort sequential noise. Under time-sharing the noise
        // (higher priority — the adversarial case) steals the gang's
        // cores; the hybrid space pool is reserved for parallel phases,
        // so the stream is isolated from the noise by construction.
        let mut w = Workload::new();
        w.push(
            TaskSpec::parallel("stream", 0, 1_800, 6, 260)
                .with_period(300, 6)
                .with_priority(1),
        );
        for i in 0..12 {
            w.push(
                TaskSpec::sequential(format!("noise{i}"), 260, 2_000)
                    .with_period(40, 45)
                    .with_priority(2), // noise outranks: the worst case
            );
        }
        let ts = simulate(&w, &cfg(Policy::TimeShared)).unwrap();
        let hy = simulate(
            &w,
            &cfg(Policy::Hybrid {
                ts_cores: 2,
                boost: 1.0,
            }),
        )
        .unwrap();
        assert!(
            hy.tasks[0].missed < ts.tasks[0].missed,
            "hybrid {:?} vs time-shared {:?}",
            hy.tasks[0],
            ts.tasks[0]
        );
    }

    #[test]
    fn boost_reduces_sequential_response() {
        let mut w = Workload::new();
        w.push(TaskSpec::sequential("seq", 2_000, 100_000));
        let base = simulate(
            &w,
            &cfg(Policy::Hybrid {
                ts_cores: 2,
                boost: 1.0,
            }),
        )
        .unwrap();
        let boosted = simulate(
            &w,
            &cfg(Policy::Hybrid {
                ts_cores: 2,
                boost: 2.0,
            }),
        )
        .unwrap();
        assert!(
            boosted.tasks[0].worst_response * 2 <= base.tasks[0].worst_response + 2,
            "boosted {} vs base {}",
            boosted.tasks[0].worst_response,
            base.tasks[0].worst_response
        );
    }

    #[test]
    fn switch_overhead_is_accounted() {
        let mut w = Workload::new();
        for i in 0..4 {
            w.push(TaskSpec::sequential(format!("t{i}"), 50, 1_000).with_period(50, 10));
        }
        let r = simulate(&w, &cfg(Policy::TimeShared)).unwrap();
        assert!(r.switches > 0);
        assert!(r.overhead_work > 0);
    }

    #[test]
    fn determinism() {
        let mut w = Workload::new();
        for i in 0..6 {
            w.push(
                TaskSpec::parallel(format!("t{i}"), 10, 100, 2, 150).with_period(37 + i as u64, 20),
            );
        }
        let a = simulate(&w, &cfg(Policy::TimeShared)).unwrap();
        let b = simulate(&w, &cfg(Policy::TimeShared)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn config_validation() {
        let w = Workload::new();
        assert!(simulate(
            &w,
            &SimConfig {
                cores: 0,
                ..SimConfig::default()
            }
        )
        .is_err());
        assert!(simulate(
            &w,
            &SimConfig {
                speed: 0,
                ..SimConfig::default()
            }
        )
        .is_err());
        assert!(simulate(
            &w,
            &SimConfig {
                policy: Policy::Hybrid {
                    ts_cores: 99,
                    boost: 1.0
                },
                ..SimConfig::default()
            }
        )
        .is_err());
        assert!(simulate(
            &w,
            &SimConfig {
                policy: Policy::Hybrid {
                    ts_cores: 2,
                    boost: 0.5
                },
                ..SimConfig::default()
            }
        )
        .is_err());
    }

    /// The parent commit's driver, kept as the oracle: the same tick body
    /// for every tick of the horizon, no jump. The parent allocated the
    /// per-tick buffers afresh; here each tick finds them full of values no
    /// tick leaves behind, so one the body forgot to clear shows.
    fn simulate_every_tick(
        workload: &Workload,
        cfg: &SimConfig,
        obs: &mut ObsCtx<'_>,
    ) -> Result<SimResult> {
        let mut sim = Sim::new(workload, cfg, obs)?;
        for now in 0..cfg.horizon {
            sim.assignment.fill(Some(usize::MAX));
            sim.order = vec![usize::MAX; 3];
            sim.free = vec![usize::MAX; 3];
            sim.space_free = vec![false; cfg.cores + 3];
            sim.progress = vec![u64::MAX / 2; sim.jobs.len() + 3];
            sim.strands = vec![1_000; sim.jobs.len() + 3];
            sim.tick(now, obs);
        }
        Ok(sim.finish(obs))
    }

    /// A seeded workload for [`skipping_idle_ticks_changes_nothing`]: every
    /// shape of task the jump has to get right, then random ones.
    fn jump_workload(rng: &mut XorShift64Star, cores: usize, horizon: u64) -> Workload {
        let mut w = Workload::new();
        // One-shot, late arrival: nothing runs before it.
        w.push(TaskSpec::sequential("late", rng.u64_in(1, 300), 60).with_arrival(horizon / 2));
        // A zero-work job retires in its release tick, on no core.
        w.push(
            TaskSpec::sequential("empty", 0, 5)
                .with_period(rng.u64_in(1, 40), 4)
                .with_arrival(rng.u64_in(0, horizon)),
        );
        // Never runs: no core can help it. Not periodic, so the second job
        // never comes and the task's `next` stays at the arrival tick.
        let mut stuck =
            TaskSpec::parallel("width0", 0, 50, 1, 30).with_arrival(rng.u64_in(0, horizon));
        stuck.width = 0;
        stuck.jobs = 2;
        w.push(stuck);
        // Wider than the machine (never gets a hybrid gang).
        w.push(TaskSpec::parallel("wide", 20, 400, cores + 1, 90).with_period(70, 3));
        // The same, for a job that does run.
        let mut once = TaskSpec::sequential("once", 40, 50).with_arrival(rng.u64_in(0, 20));
        once.jobs = 3;
        w.push(once);
        // A release in the very last tick.
        w.push(TaskSpec::sequential("last", 15, 10).with_arrival(horizon - 1));
        for i in 0..rng.usize_in(0, 4) {
            let mut t = TaskSpec::parallel(
                format!("r{i}"),
                rng.u64_in(0, 120),
                rng.u64_in(0, 600),
                rng.usize_in(1, cores + 1),
                rng.u64_in(1, 150),
            )
            .with_arrival(rng.u64_in(0, horizon))
            .with_priority(rng.u64_in(0, 3) as u8);
            if rng.chance_pct(60) {
                t = t.with_period(rng.u64_in(1, 200), rng.usize_in(0, 6));
            }
            w.push(t);
        }
        w
    }

    #[test]
    fn zero_work_job_retires_in_its_release_tick() {
        let mut w = Workload::new();
        w.push(
            TaskSpec::sequential("empty", 0, 5)
                .with_arrival(40)
                .with_period(10, 3),
        );
        for policy in [
            Policy::TimeShared,
            Policy::Hybrid {
                ts_cores: 2,
                boost: 1.0,
            },
        ] {
            let r = simulate(&w, &cfg(policy)).unwrap();
            assert_eq!(
                r.tasks[0],
                TaskStats {
                    released: 3,
                    met: 3,
                    missed: 0,
                    total_response: 3,
                    worst_response: 1,
                }
            );
            assert_eq!((r.busy_ticks, r.switches), (0, 0));
        }
    }

    #[test]
    fn skipping_idle_ticks_changes_nothing() {
        use mpsoc_obs::metrics::MetricsRegistry;
        use mpsoc_obs::ring::RingSink;

        let observe = |run: &dyn Fn(&mut ObsCtx<'_>) -> Result<SimResult>| {
            let reg = MetricsRegistry::new();
            let mut sink = RingSink::new(1 << 14);
            let result = run(&mut ObsCtx::new(&mut sink, &reg)).unwrap();
            assert_eq!(sink.dropped(), 0);
            let counters = [
                "sched.jobs_released",
                "sched.jobs_completed",
                "sched.deadline_misses",
                "sched.context_switches",
            ]
            .map(|name| reg.counter(name).get());
            (result, counters, sink.events().to_vec())
        };
        let mut rng = XorShift64Star::new(0x71C4_0017);
        for case in 0..60 {
            let cores = rng.usize_in(1, 5);
            let horizon = if case % 10 == 0 {
                1
            } else {
                rng.u64_in(2, 700)
            };
            let w = jump_workload(&mut rng, cores, horizon);
            let mut policies = vec![Policy::TimeShared];
            for ts_cores in 1..=cores {
                for boost in [1.0, 1.5, 2.0] {
                    policies.push(Policy::Hybrid { ts_cores, boost });
                }
            }
            for policy in policies {
                let cfg = SimConfig {
                    cores,
                    speed: rng.u64_in(1, 12),
                    switch_overhead: rng.u64_in(0, 3),
                    horizon,
                    policy,
                };
                let jumping = observe(&|obs| simulate_observed(&w, &cfg, obs));
                let every_tick = observe(&|obs| simulate_every_tick(&w, &cfg, obs));
                assert_eq!(jumping, every_tick, "case {case}, {cfg:?}");
                assert_eq!(simulate(&w, &cfg).unwrap(), every_tick.0);
            }
        }
    }

    #[test]
    fn utilization_bounded() {
        let mut w = Workload::new();
        w.push(TaskSpec::sequential("s", 100_000, 1_000_000));
        let c = cfg(Policy::TimeShared);
        let r = simulate(&w, &c).unwrap();
        let u = r.utilization(&c);
        assert!(u > 0.0 && u <= 1.0);
    }
}
