//! The one adapter file: every call the benchmark makes into a workspace
//! crate lives here, one thin `pub fn` per measured operation.
//!
//! Only entry points the ROADMAP keeps are used (see `README.md` for the
//! pinned signatures), so a refactor that renames or merges an entry point
//! touches this file and nothing else in the benchmark. Nothing here times
//! or records anything — the harness wraps these calls in spans.

use std::fmt::Write as _;

pub use mpsoc_cic::{CicModel, Exploration};
pub use mpsoc_dataflow::Graph;
pub use mpsoc_gdbrsp::{DebugTarget, DuplexEnd, RspClient};
pub use mpsoc_maps::{ArchModel, Mapping, TaskGraph};
pub use mpsoc_minic::Unit;
pub use mpsoc_obs::rng::XorShift64Star;
pub use mpsoc_obs::MetricsRegistry;
pub use mpsoc_pdl::JointReport;
pub use mpsoc_platform::snapshot::BaseImage;
pub use mpsoc_platform::{Platform, Time};
pub use mpsoc_rtkernel::{PolicySweep, SimConfig, TaskSpec, Workload};
pub use mpsoc_vpdebug::campaign::{CampaignConfig, CampaignReport, FaultSpace, FaultSpec};
pub use mpsoc_vpdebug::Debugger;

use mpsoc_apps::testrunner::SuiteReport;
use mpsoc_dataflow::graph::ActorKind;
use mpsoc_gdbrsp::{Session, Target};

/// Any layer error, rendered: the harness only counts and prints failures.
pub type Res<T> = Result<T, String>;

fn s<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// FNV-1a digest (the snapshot crate's), for pinning outputs.
pub fn fnv(bytes: &[u8]) -> u64 {
    mpsoc_snapshot::fnv1a64(bytes)
}

// ---------------------------------------------------------------- minic

/// The two application sources every tool-flow iteration parses: the
/// frame-level encoder MAPS partitions and the 8x8 block pipeline.
pub fn app_sources() -> (String, String) {
    (
        mpsoc_apps::jpeg::jpeg_frame_minic_source(32),
        mpsoc_apps::jpeg::jpeg_minic_source(),
    )
}

/// `minic::parse`.
pub fn minic_parse(src: &str) -> Res<Unit> {
    mpsoc_minic::parse(src).map_err(s)
}

/// Dependence analysis plus the analyzability score of every function;
/// returns the dependence count.
pub fn minic_analysis(unit: &Unit) -> usize {
    unit.functions
        .iter()
        .map(|f| {
            std::hint::black_box(mpsoc_minic::analysis::analyzability(unit, f));
            mpsoc_minic::analysis::dependences(&f.body).len()
        })
        .sum()
}

// -------------------------------------------------------- recoder / maps

/// Recoder `split_loop`: splits loop `loop_index` of `func` into `parts`.
pub fn recoder_split_loop(unit: &mut Unit, func: &str, loop_index: usize, parts: usize) -> Res<()> {
    mpsoc_recoder::transforms::split_loop(unit, func, loop_index, parts).map_err(s)
}

/// MAPS `extract_task_graph` under the default cost model.
pub fn maps_extract(unit: &Unit, func: &str) -> Res<TaskGraph> {
    mpsoc_maps::extract_task_graph(unit, func, &mpsoc_minic::cost::CostModel::default()).map_err(s)
}

/// MAPS `anneal_multi`, single-threaded.
pub fn maps_anneal_multi(
    graph: &TaskGraph,
    arch: &ArchModel,
    seed: u64,
    iters: u64,
    starts: usize,
) -> Res<Mapping> {
    mpsoc_maps::anneal_multi(graph, arch, seed, iters, starts, 1).map_err(s)
}

// ------------------------------------------------------------------ pdl

/// `.soc` source to the coarse MAPS architecture model.
pub fn pdl_arch_model(soc_src: &str) -> Res<ArchModel> {
    Ok(mpsoc_pdl::parse(soc_src).map_err(s)?.arch_model())
}

/// `pdl::compile`: `.soc` source to a built platform.
pub fn pdl_compile(soc_src: &str) -> Res<Platform> {
    mpsoc_pdl::compile(soc_src).map_err(s)
}

/// `pdl::generate`: topology seed to `.soc` source.
pub fn pdl_generate(seed: u64) -> String {
    mpsoc_pdl::generate(seed)
}

/// `pdl::joint_sweep` at the given size and thread count.
pub fn pdl_joint_sweep(
    master_seed: u64,
    topologies: usize,
    mappings_per_topology: usize,
    anneal_iters: u64,
    threads: usize,
) -> Res<JointReport> {
    mpsoc_pdl::joint_sweep(&mpsoc_pdl::JointConfig {
        master_seed,
        topologies,
        mappings_per_topology,
        anneal_iters,
        threads,
    })
    .map_err(s)
}

/// The Pareto-front artifact a designer receives.
pub fn pdl_front_json(report: &JointReport) -> String {
    report.to_json()
}

/// `(makespan, area, power)` of every front point, for the harness's own
/// non-dominance check.
pub fn pdl_front_scores(report: &JointReport) -> Vec<(u64, u64, u64)> {
    report
        .front
        .iter()
        .map(|t| (t.makespan, t.area_mmm2, t.power_uw))
        .collect()
}

// ------------------------------------------------- cic / rtkernel / dataflow

/// The H.264-like CIC model every exploration retargets.
pub fn cic_model() -> Res<CicModel> {
    mpsoc_apps::h264::h264_cic_model().map_err(s)
}

/// `cic::explore_parallel` over 8 SMP and 8 Cell-like candidates,
/// single-threaded. Returns the exploration and its trial count.
pub fn cic_explore(model: &CicModel, deadline_cycles: u64) -> Res<(Exploration, u64)> {
    let ex = mpsoc_cic::explore_parallel(model, deadline_cycles, 8, 8, 1).map_err(s)?;
    let trials = ex.candidates.len() as u64;
    Ok((ex, trials))
}

/// Stable text of an exploration's winner, for digests.
pub fn cic_winner(ex: &Exploration) -> String {
    ex.best_candidate().map_or_else(
        || "none".into(),
        |c| format!("{}:{}", c.arch.name, c.est_cycles),
    )
}

/// One CIC retargeting: auto-map and translate onto a 3-SPE Cell-like
/// target; returns the estimated cycles per iteration.
pub fn cic_translate(model: &CicModel) -> Res<u64> {
    let arch = mpsoc_cic::ArchInfo::cell_like(3);
    let mapping = mpsoc_cic::auto_map(model, &arch).map_err(s)?;
    Ok(mpsoc_cic::translate(model, &arch, &mapping)
        .map_err(s)?
        .est_cycles)
}

/// A three-task rtkernel workload (parallel video, periodic control,
/// prioritised UI) with the given work figures.
pub fn rt_workload(video: (u64, u64), control: u64, ui: u64) -> Workload {
    let mut w = Workload::new();
    w.push(TaskSpec::parallel("video", video.0, video.1, 4, 200).with_period(250, 8));
    w.push(TaskSpec::sequential("control", control, 80).with_period(100, 20));
    w.push(TaskSpec::sequential("ui", ui, 200).with_priority(3));
    w
}

/// `rtkernel::sweep_policies` on a 4-core base config, single-threaded.
/// Returns the sweep and the engine's own trial count.
pub fn rt_sweep(w: &Workload) -> Res<(PolicySweep, u64)> {
    let base = SimConfig {
        cores: 4,
        speed: 10,
        switch_overhead: 2,
        horizon: 4_000,
        policy: mpsoc_rtkernel::Policy::TimeShared,
    };
    let reg = MetricsRegistry::new();
    let sweep =
        mpsoc_rtkernel::sweep_policies(w, &base, &[1.2, 1.5, 2.0], 1, Some(&reg)).map_err(s)?;
    Ok((sweep, reg.counter(mpsoc_explore::TRIALS_COUNTER).get()))
}

/// Stable text of a policy sweep's winner, for digests.
pub fn rt_winner(sweep: &PolicySweep) -> String {
    let c = sweep.best_candidate();
    format!(
        "{:?}:{}:{}",
        c.policy,
        c.result.total_missed(),
        c.result.busy_ticks
    )
}

/// A source -> filter -> sink dataflow chain: the filter consumes `window`
/// samples per firing, the sink drains at the matching rate.
pub fn df_chain(period: u64, filter_wcet: u64, window: u32) -> Res<Graph> {
    let mut g = Graph::new();
    let src = g.add_actor("src", vec![10], ActorKind::Source { period });
    let fir = g.add_actor("fir", vec![filter_wcet], ActorKind::Regular);
    let snk = g.add_actor(
        "snk",
        vec![5],
        ActorKind::Sink {
            period: period * u64::from(window),
        },
    );
    g.add_channel(src, fir, vec![1], vec![window], 0)
        .map_err(s)?;
    g.add_channel(fir, snk, vec![1], vec![1], 0).map_err(s)?;
    Ok(g)
}

/// `dataflow::minimal_capacities_sweep` over 20 iterations,
/// single-threaded. Returns the capacities and the engine's probe count.
pub fn df_sizing(g: &Graph) -> Res<(Vec<u32>, u64)> {
    let reg = MetricsRegistry::new();
    let caps = mpsoc_dataflow::minimal_capacities_sweep(g, 20, 1, Some(&reg)).map_err(s)?;
    Ok((caps, reg.counter(mpsoc_explore::TRIALS_COUNTER).get()))
}

// ------------------------------------------------------- apps (testbeds)

/// `load_soc_file` + `install_software`: the platform a user gets from a
/// `.soc` file and a named software image.
pub fn load_platform(soc_path: &str, software: &str) -> Res<Platform> {
    let mut p = mpsoc_apps::testbed::load_soc_file(soc_path)?;
    mpsoc_apps::testbed::install_software(software, &mut p)?;
    Ok(p)
}

/// `load_soc_file` alone.
pub fn load_soc(soc_path: &str) -> Res<Platform> {
    mpsoc_apps::testbed::load_soc_file(soc_path)
}

/// The hand-built twin of a `.soc` platform — the independent reference
/// the simulation workloads check their final state against.
pub fn handbuilt_twin(name: &str) -> Res<Platform> {
    mpsoc_apps::testbed::by_name(name).ok_or_else(|| format!("no hand-built platform {name:?}"))
}

/// The E12 fault target stepped to its fault site (DMA stream in flight):
/// returns the captured image and the fault space over its components.
pub fn e12_fault_site() -> Res<(Vec<u8>, FaultSpace)> {
    let (mut p, timer, mailbox, dma) = mpsoc_apps::testbed::build_e12();
    let mut guard = 0;
    while !p.dma_in_flight(dma) {
        let ev = p.step().map_err(s)?;
        p.recycle(ev);
        guard += 1;
        if guard > 10_000 {
            return Err("e12: DMA never started".into());
        }
    }
    for _ in 0..8 {
        let ev = p.step().map_err(s)?;
        p.recycle(ev);
    }
    let space = FaultSpace {
        cores: 2,
        periph_pages: vec![timer, mailbox],
        dma_pages: vec![dma],
        mem_lo: 0x100,
        mem_hi: 0x2FF,
    };
    Ok((p.capture().map_err(s)?, space))
}

/// Campaign parameters of the E12 target (20 000-step budget, one thread).
pub fn e12_campaign_config() -> CampaignConfig {
    CampaignConfig {
        budget_steps: 20_000,
        output_addr: 0x200,
        output_words: 0x60,
        detect_addr: 0x210,
        threads: 1,
    }
}

// ------------------------------------------------------------- platform

/// `Platform::run_until_with` to `deadline`; returns the steps executed.
pub fn platform_run_until(p: &mut Platform, deadline: Time) -> Res<u64> {
    p.run_until_with(deadline, None, |ev| {
        std::hint::black_box(ev);
    })
    .map_err(s)
}

/// `n` single `Platform::step` + `recycle` calls.
pub fn platform_step_n(p: &mut Platform, n: u64) -> Res<()> {
    for _ in 0..n {
        let ev = p.step().map_err(s)?;
        p.recycle(ev);
    }
    Ok(())
}

/// Attaches a fresh obs `MetricsRegistry` (returned so it outlives the run).
pub fn platform_attach_metrics(p: &mut Platform) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    p.attach_metrics(&reg);
    reg
}

/// Detaches whatever registry is attached.
pub fn platform_detach_metrics(p: &mut Platform) {
    p.detach_metrics();
}

/// `Platform::state_checksum`.
pub fn platform_checksum(p: &Platform) -> u64 {
    p.state_checksum()
}

/// Simulated statistics a simulator-only speed-up must leave identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimStats {
    /// Steps executed since the platform was built.
    pub steps: u64,
    /// Simulated time, ps.
    pub sim_time_ps: u64,
    /// Cache hits and misses, summed over cores.
    pub cache: (u64, u64),
    /// Interconnect transfers.
    pub transfers: u64,
}

/// The simulated statistics of `p`.
pub fn platform_sim_stats(p: &Platform) -> SimStats {
    let mut cache = (0, 0);
    for core in 0..p.num_cores() {
        if let Some((hits, misses)) = p.cache_stats(core) {
            cache = (cache.0 + hits, cache.1 + misses);
        }
    }
    SimStats {
        steps: p.steps(),
        sim_time_ps: p.now().as_ps(),
        cache,
        transfers: p.interconnect_stats().0,
    }
}

// ------------------------------------------------------------- snapshot

/// `Platform::capture`: a full image.
pub fn snap_capture(p: &mut Platform) -> Res<Vec<u8>> {
    p.capture().map_err(s)
}

/// Validates a full image as a delta base.
pub fn snap_base(image: Vec<u8>) -> Res<BaseImage> {
    BaseImage::new(image).map_err(s)
}

/// `Platform::capture_delta` against the last full capture.
pub fn snap_capture_delta(p: &Platform) -> Res<Vec<u8>> {
    p.capture_delta().map_err(s)
}

/// `Platform::from_image`: a platform rehydrated from a full image.
pub fn snap_from_image(image: &[u8]) -> Res<Platform> {
    Platform::from_image(image).map_err(s)
}

/// `Platform::restore_image`.
pub fn snap_restore_image(p: &mut Platform, image: &[u8]) -> Res<()> {
    p.restore_image(image).map_err(s)
}

/// `Platform::restore_delta`.
pub fn snap_restore_delta(p: &mut Platform, base: &BaseImage, delta: &[u8]) -> Res<()> {
    p.restore_delta(base, delta).map_err(s)
}

/// `Platform::reset_to_base`.
pub fn snap_reset_to_base(p: &mut Platform, base: &BaseImage) -> Res<()> {
    p.reset_to_base(base).map_err(s)
}

// -------------------------------------------------------------- vpdebug

/// `Debugger::new`.
pub fn debugger(p: Platform) -> Debugger {
    Debugger::new(p)
}

/// `Debugger::run` for at most `steps`; true iff the budget was the stop.
pub fn debugger_run(dbg: &mut Debugger, steps: u64) -> Res<bool> {
    Ok(dbg.run(steps).map_err(s)? == mpsoc_vpdebug::Stop::Budget)
}

/// One `Debugger::step`.
pub fn debugger_step(dbg: &mut Debugger) -> Res<()> {
    dbg.step().map(drop).map_err(s)
}

/// `Debugger::step_back`; false at the rewind horizon.
pub fn debugger_step_back(dbg: &mut Debugger) -> Res<bool> {
    dbg.step_back().map_err(s)
}

/// `Debugger::enable_time_travel_bytes` with the budget `monitor
/// time-travel <interval> <max>` would give: `max` full images.
pub fn debugger_time_travel(dbg: &mut Debugger, interval: u64, max: usize) -> Res<()> {
    let image_len = dbg.platform_mut().capture().map_err(s)?.len();
    dbg.enable_time_travel_bytes(interval, max * image_len)
        .map_err(s)
}

/// `(steps, retained checkpoint steps, ring bytes)` of a debugger.
pub fn debugger_ring(dbg: &Debugger) -> (u64, Vec<u64>, usize) {
    (
        dbg.platform().steps(),
        dbg.checkpoint_steps(),
        dbg.ring_bytes(),
    )
}

/// `run_campaign_delta` (reset-to-base rollback).
pub fn campaign_delta(
    image: &[u8],
    faults: &[FaultSpec],
    cfg: CampaignConfig,
) -> Res<CampaignReport> {
    mpsoc_vpdebug::campaign::run_campaign_delta(image, faults, cfg, None).map_err(s)
}

/// `run_campaign` (full-image restore per trial) — the reference the
/// sampled re-run goes through.
pub fn campaign_full(
    image: &[u8],
    faults: &[FaultSpec],
    cfg: CampaignConfig,
) -> Res<CampaignReport> {
    mpsoc_vpdebug::campaign::run_campaign(image, faults, cfg, None).map_err(s)
}

/// `generate_faults`.
pub fn campaign_faults(seed: u64, n: usize, space: &FaultSpace) -> Vec<FaultSpec> {
    mpsoc_vpdebug::campaign::generate_faults(seed, n, space)
}

/// One stable line per outcome: `verdict applied steps kind`.
pub fn campaign_lines(report: &CampaignReport) -> Vec<String> {
    report
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{} applied={} steps={} {:?}",
                o.verdict.as_str(),
                u8::from(o.applied),
                o.steps,
                o.spec.kind
            )
        })
        .collect()
}

// --------------------------------------------------------------- gdbrsp

/// A debug target over `p`, as the GDB server and the test runner build it.
pub fn debug_target(p: Platform) -> DebugTarget {
    DebugTarget::new(Debugger::new(p))
}

/// A protocol session over the virtual-platform debug target.
pub type RspSession = Session<DebugTarget>;

/// A protocol session over `target` whose `c` stops after `cont_budget`
/// steps.
pub fn rsp_session(target: DebugTarget, cont_budget: u64) -> RspSession {
    let mut session = Session::new(target);
    session.set_cont_budget(cont_budget);
    session
}

/// `Session::handle_bytes` on one framed command — dispatch with no
/// transport. Returns the raw reply bytes.
pub fn rsp_dispatch(session: &mut RspSession, cmd: &str) -> Vec<u8> {
    session.handle_bytes(&mpsoc_gdbrsp::encode_packet(cmd.as_bytes()))
}

/// The payload of the first packet in raw reply bytes (acks skipped) — the
/// client side of the framing, kept out of the timed dispatch.
pub fn rsp_reply_payload(reply: &[u8]) -> Res<String> {
    for item in mpsoc_gdbrsp::Framer::new().push_bytes(reply) {
        if let mpsoc_gdbrsp::Item::Packet(payload) = item.map_err(s)? {
            return Ok(String::from_utf8_lossy(&payload).into_owned());
        }
    }
    Err("no reply packet".into())
}

/// `duplex_pair` + `serve` on a server thread + `RspClient`: spawns a
/// server that builds its target with `make_target` (so platform load is
/// part of attach, as in `mpsoc-gdb`), and returns the connected client.
/// Join the handle after `D`.
pub fn rsp_connect(
    make_target: impl FnOnce() -> Res<DebugTarget> + Send + 'static,
    cont_budget: u64,
) -> (RspClient<DuplexEnd>, std::thread::JoinHandle<Res<()>>) {
    let (mut server_end, client_end) = mpsoc_gdbrsp::duplex_pair();
    let server = std::thread::spawn(move || {
        let mut session = rsp_session(make_target()?, cont_budget);
        mpsoc_gdbrsp::serve(&mut session, &mut server_end).map_err(s)
    });
    (RspClient::new(client_end), server)
}

/// One command round trip; the reply payload as text.
pub fn rsp_command(client: &mut RspClient<DuplexEnd>, cmd: &str) -> Res<String> {
    client.command(cmd).map_err(s)
}

/// The `qRcmd` packet for a `monitor` command.
pub fn rsp_monitor_packet(cmd: &str) -> String {
    format!("qRcmd,{}", mpsoc_gdbrsp::packet::to_hex(cmd.as_bytes()))
}

/// Decodes a hex-encoded `monitor` console reply.
pub fn rsp_monitor_text(reply: &str) -> Res<String> {
    let bytes = mpsoc_gdbrsp::packet::from_hex(reply).map_err(s)?;
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

/// The hex payload a `g` packet returns for these register words.
pub fn rsp_regs_hex(regs: &[u64]) -> String {
    let bytes: Vec<u8> = regs.iter().flat_map(|r| r.to_le_bytes()).collect();
    mpsoc_gdbrsp::packet::to_hex(&bytes)
}

/// Direct `Target` calls, for the level below `Session::handle_bytes`.
pub fn target_read_registers(t: &DebugTarget, core: usize) -> Res<Vec<u64>> {
    t.read_registers(core).map_err(s)
}

/// Direct `Target::read_mem`.
pub fn target_read_mem(t: &DebugTarget, addr: u32, len: u32) -> Res<Vec<u64>> {
    t.read_mem(addr, len).map_err(s)
}

/// Direct `Target::step`.
pub fn target_step(t: &mut DebugTarget) -> Res<()> {
    t.step().map(drop).map_err(s)
}

/// Direct `Target::cont` with a step budget.
pub fn target_cont(t: &mut DebugTarget, budget: u64) -> Res<()> {
    t.cont(budget).map(drop).map_err(s)
}

/// State checksum of the platform under a target, as `monitor
/// state-checksum` prints it.
pub fn target_checksum(t: &DebugTarget) -> String {
    format!("{:#018x}", t.debugger().platform().state_checksum())
}

// ----------------------------------------------------------- testrunner

/// `testrunner::run_suite` over `(name, script text)` pairs. Returns one
/// stable line per verdict (`name commands checks failures`) and the
/// number of failed scripts.
pub fn run_suite(scripts: &[(String, String)]) -> (SuiteReport, Vec<String>, usize) {
    let report = mpsoc_apps::testrunner::run_suite(scripts);
    let lines = report
        .verdicts
        .iter()
        .map(|v| {
            let mut line = format!("{} commands={} checks={}", v.name, v.commands, v.checks);
            for f in &v.failures {
                let _ = write!(line, " FAIL[{f}]");
            }
            line
        })
        .collect();
    let failed = report.failed();
    (report, lines, failed)
}

/// Commands a suite report executed.
pub fn suite_commands(report: &SuiteReport) -> u64 {
    report.verdicts.iter().map(|v| v.commands as u64).sum()
}

/// Renders the JUnit XML and JSON verdict documents CI uploads; returns
/// their combined length.
pub fn suite_render(report: &SuiteReport) -> usize {
    report.to_junit_xml().len() + report.to_json().len()
}
