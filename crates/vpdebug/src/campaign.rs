//! Deterministic fault-injection campaigns over checkpoint images.
//!
//! A campaign answers Section VII's "what would the system do if this bit
//! flipped?" at scale: take one whole-platform checkpoint at the fault
//! site, then for every fault in a generated list rehydrate a private
//! platform from the image ([`Platform::from_image`]), inject the fault,
//! run to a verdict, and classify the outcome. Rollback is free — the next
//! trial just rehydrates the image again. That is [`run_campaign`], the
//! oracle.
//!
//! [`run_campaign_delta`] is the fast path over the same contract, and
//! simulates each distinct fault the workload can observe exactly once:
//!
//! * The image is validated — hashed and decoded — once per call, into a
//!   [`BaseImage`]. The golden (fault-free) run hydrates from it and records
//!   the first use of every core register (from each retired instruction's
//!   read and write sets, [`Instr::reg_use`](mpsoc_platform::isa::Instr::reg_use))
//!   and the first access to every word it touches (from
//!   [`StepEvent::accesses`], core and DMA accesses in order).
//! * A register or RAM flip whose target the golden run writes before it
//!   reads, or never uses, is **dead**: the trial would retire the same
//!   instructions and make the same accesses as the golden run, so it
//!   takes the golden run's steps and final state. Its verdict is
//!   `Masked`, except that a flip of a word the run never touches is still
//!   in place at the end — the verdict reads the golden final state with
//!   that one word flipped, so a flip of the detect flag is `Detected` and
//!   one inside the output region is `SilentCorruption` when the region's
//!   checksum moves. A fault whose injection could fail (a core or address
//!   that does not exist) is never dead, so it errors exactly as in
//!   [`run_campaign`].
//! * Of the remaining faults, only the first occurrence of each
//!   [`FaultKind`] in the call is simulated; a repeat takes that outcome
//!   under its own [`FaultSpec`]. A trial is a pure function of the base
//!   image and the fault, so the copy is what simulating it again gives.
//! * The simulated trials fan out over the workers, each of which hydrates
//!   **one** platform and rolls it back between trials with
//!   [`Platform::reset_to_base`], which re-decodes the small component
//!   state, rewrites only the RAM pages the previous trial dirtied, and
//!   hashes nothing — O(dirty state) per trial instead of O(memory).
//!
//! Both runners produce bit-identical reports for the same inputs.
//!
//! Either runner first checks that [`CampaignConfig::detect_addr`] and the
//! output region are readable RAM on the hydrated platform
//! ([`Error::CampaignAddress`] otherwise), so a mistyped address is an
//! error, not a campaign that reports every fault undetected.
//!
//! Everything is deterministic by construction:
//!
//! * the fault list comes from a seeded [`XorShift64Star`]
//!   ([`generate_faults`]);
//! * every trial starts from the same image;
//! * the parallel sweep partitions its trials into contiguous chunks, one
//!   scoped thread each, and the report is assembled **in fault-list
//!   order** — so the verdict table is bit-identical at any thread count.
//!
//! Verdicts follow the standard fault-injection taxonomy: a fault is
//! [`Detected`](Verdict::Detected) when the workload's own checking code
//! flags it, a [`Crash`](Verdict::Crash) when the platform traps,
//! [`SilentCorruption`](Verdict::SilentCorruption) when the output region
//! differs from the golden run without detection, and
//! [`Masked`](Verdict::Masked) when the fault had no observable effect.

use std::collections::HashMap;

use mpsoc_obs::metrics::MetricsRegistry;
use mpsoc_obs::rng::XorShift64Star;
use mpsoc_platform::isa::Reg;
use mpsoc_platform::platform::{AccessKind, StepEvent, StepKind};
use mpsoc_platform::{BaseImage, Platform};

use crate::error::{Error, Result};

/// One parameterized fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Single-event upset in a register file.
    RegFlip {
        /// Target core.
        core: usize,
        /// Register index (taken modulo 16).
        reg: u8,
        /// Bit to flip (taken modulo 64).
        bit: u32,
    },
    /// Single-event upset in RAM.
    MemFlip {
        /// Word address.
        addr: u32,
        /// Bit to flip (taken modulo 64).
        bit: u32,
    },
    /// The NoC loses one flit of an in-flight DMA transfer.
    DroppedFlit {
        /// DMA peripheral page.
        page: usize,
    },
    /// A peripheral gets stuck and stops reacting.
    StuckPeriph {
        /// Peripheral page.
        page: usize,
    },
    /// One word of an in-flight DMA transfer is corrupted on the wire.
    DmaCorrupt {
        /// DMA peripheral page.
        page: usize,
        /// Word index within the transfer (taken modulo its length).
        word: u32,
        /// Bit to flip (taken modulo 64).
        bit: u32,
    },
}

/// A fault with its campaign-stable identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Stable id (index in generation order).
    pub id: u32,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// Outcome classification of one trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The workload's own checking code flagged the fault.
    Detected,
    /// No observable effect: output matches the golden run.
    Masked,
    /// Output differs from the golden run and nothing noticed.
    SilentCorruption,
    /// The platform trapped (unmapped access, division by zero, …).
    Crash,
}

impl Verdict {
    /// Stable lower-case name, used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Detected => "detected",
            Verdict::Masked => "masked",
            Verdict::SilentCorruption => "silent_corruption",
            Verdict::Crash => "crash",
        }
    }
}

/// The result of one fault trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The injected fault.
    pub spec: FaultSpec,
    /// Classification.
    pub verdict: Verdict,
    /// Steps executed after injection (≤ the campaign budget).
    pub steps: u64,
    /// Whether the fault found a target (e.g. `DroppedFlit` with no DMA in
    /// flight leaves the platform untouched and is reported un-applied).
    pub applied: bool,
}

/// Campaign parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Step budget per trial (and for the golden run).
    pub budget_steps: u64,
    /// Word address of the workload's output region.
    pub output_addr: u32,
    /// Length of the output region in words.
    pub output_words: u32,
    /// Word address the workload writes non-zero when its own checking
    /// detects an error.
    pub detect_addr: u32,
    /// Worker threads for the sweep (clamped to at least 1). The verdict
    /// table is identical for every value.
    pub threads: usize,
}

/// A full campaign result: per-fault outcomes in fault-list order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignReport {
    /// One outcome per fault, in the order the faults were supplied.
    pub outcomes: Vec<FaultOutcome>,
    /// Golden (fault-free) checksum of the output region.
    pub golden_checksum: u64,
    /// Step budget that was applied per trial.
    pub budget_steps: u64,
}

impl CampaignReport {
    /// Number of outcomes with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.outcomes.iter().filter(|o| o.verdict == v).count()
    }

    /// Fraction of *effective* faults (applied and not masked) that were
    /// detected — the campaign's headline fault-coverage number. Returns
    /// 1.0 when no fault had any effect.
    pub fn coverage(&self) -> f64 {
        let effective = self
            .outcomes
            .iter()
            .filter(|o| o.applied && o.verdict != Verdict::Masked)
            .count();
        if effective == 0 {
            return 1.0;
        }
        self.count(Verdict::Detected) as f64 / effective as f64
    }

    /// Deterministic text rendering of the verdict table — one line per
    /// fault. Equal strings ⇔ bit-identical campaigns, which is exactly how
    /// the thread-count determinism tests compare runs.
    pub fn verdict_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for o in &self.outcomes {
            let _ = writeln!(
                s,
                "{:>5} {:<17} applied={} steps={} {:?}",
                o.spec.id,
                o.verdict.as_str(),
                o.applied as u8,
                o.steps,
                o.spec.kind
            );
        }
        s
    }
}

/// The space [`generate_faults`] draws from.
#[derive(Clone, Debug)]
pub struct FaultSpace {
    /// Number of cores eligible for register flips.
    pub cores: usize,
    /// Peripheral pages eligible for stuck-at faults.
    pub periph_pages: Vec<usize>,
    /// DMA pages eligible for dropped-flit / wire-corruption faults.
    pub dma_pages: Vec<usize>,
    /// Lowest word address eligible for memory flips.
    pub mem_lo: u32,
    /// Highest word address eligible for memory flips (inclusive).
    pub mem_hi: u32,
}

/// Generates `n` faults from `space`, deterministically from `seed`: the
/// same arguments always yield the same list on every host. A space in
/// which no fault class has a target (no cores, an empty memory range, no
/// DMA and no peripheral pages) yields an empty list, whatever `n` is.
pub fn generate_faults(seed: u64, n: usize, space: &FaultSpace) -> Vec<FaultSpec> {
    if space.cores == 0
        && space.mem_lo > space.mem_hi
        && space.dma_pages.is_empty()
        && space.periph_pages.is_empty()
    {
        return Vec::new();
    }
    let mut rng = XorShift64Star::new(seed);
    let mut faults = Vec::with_capacity(n);
    for id in 0..n {
        let kind = loop {
            match rng.u64_in(0, 4) {
                0 if space.cores > 0 => {
                    break FaultKind::RegFlip {
                        core: rng.usize_in(0, space.cores - 1),
                        reg: rng.u64_in(0, 15) as u8,
                        bit: rng.u64_in(0, 63) as u32,
                    }
                }
                1 if space.mem_lo <= space.mem_hi => {
                    break FaultKind::MemFlip {
                        addr: rng.u64_in(space.mem_lo as u64, space.mem_hi as u64) as u32,
                        bit: rng.u64_in(0, 63) as u32,
                    }
                }
                2 if !space.dma_pages.is_empty() => {
                    break FaultKind::DroppedFlit {
                        page: space.dma_pages[rng.usize_in(0, space.dma_pages.len() - 1)],
                    }
                }
                3 if !space.periph_pages.is_empty() => {
                    break FaultKind::StuckPeriph {
                        page: space.periph_pages[rng.usize_in(0, space.periph_pages.len() - 1)],
                    }
                }
                4 if !space.dma_pages.is_empty() => {
                    break FaultKind::DmaCorrupt {
                        page: space.dma_pages[rng.usize_in(0, space.dma_pages.len() - 1)],
                        word: rng.u64_in(0, 255) as u32,
                        bit: rng.u64_in(0, 63) as u32,
                    }
                }
                _ => {} // that fault class has no targets; redraw
            }
        };
        faults.push(FaultSpec {
            id: id as u32,
            kind,
        });
    }
    faults
}

/// Injects `kind` into `p`; returns whether it found a target.
fn apply_fault(p: &mut Platform, kind: FaultKind) -> mpsoc_platform::Result<bool> {
    match kind {
        FaultKind::RegFlip { core, reg, bit } => p.inject_reg_flip(core, reg, bit).map(|()| true),
        FaultKind::MemFlip { addr, bit } => p.inject_mem_flip(addr, bit).map(|()| true),
        FaultKind::DroppedFlit { page } => Ok(p.inject_dma_drop_flit(page)),
        FaultKind::StuckPeriph { page } => p.inject_periph_stick(page).map(|()| true),
        FaultKind::DmaCorrupt { page, word, bit } => p.inject_dma_corrupt_word(page, word, bit),
    }
}

/// Runs `p` for up to `budget` steps or until idle, showing every non-idle
/// step to `observe`; `Ok(false)` means the platform trapped (a crash
/// verdict), with the step count either way.
fn run_budget(p: &mut Platform, budget: u64, mut observe: impl FnMut(&StepEvent)) -> (u64, bool) {
    let mut steps = 0;
    while steps < budget {
        if p.step_in_place().is_err() {
            return (steps, false);
        }
        let ev = p.last_event();
        if ev.is_idle() {
            break;
        }
        observe(ev);
        steps += 1;
    }
    (steps, true)
}

/// Classifies the state a trial left `p` in; `clean` is false when the
/// trial trapped.
fn classify(p: &Platform, cfg: CampaignConfig, golden: u64, clean: bool) -> Result<Verdict> {
    Ok(if !clean {
        Verdict::Crash
    } else if p.debug_read(cfg.detect_addr).map_err(Error::from)? != 0 {
        Verdict::Detected
    } else if p
        .region_checksum(cfg.output_addr, cfg.output_words)
        .map_err(Error::from)?
        != golden
    {
        Verdict::SilentCorruption
    } else {
        Verdict::Masked
    })
}

/// Shared tail of a trial on an already-positioned platform: inject, run
/// to budget, classify.
fn finish_trial(
    p: &mut Platform,
    spec: FaultSpec,
    cfg: CampaignConfig,
    golden: u64,
) -> Result<FaultOutcome> {
    let applied = apply_fault(p, spec.kind).map_err(Error::from)?;
    let (steps, clean) = run_budget(p, cfg.budget_steps, |_| {});
    Ok(FaultOutcome {
        spec,
        verdict: classify(p, cfg, golden, clean)?,
        steps,
        applied,
    })
}

/// One trial: rehydrate, inject, run, classify.
fn run_trial(
    image: &[u8],
    spec: FaultSpec,
    cfg: CampaignConfig,
    golden: u64,
) -> Result<FaultOutcome> {
    let mut p = Platform::from_image(image).map_err(Error::from)?;
    finish_trial(&mut p, spec, cfg, golden)
}

/// Checks that every address `cfg` reads verdicts from is readable RAM on
/// `p`. The memory map is fixed for a platform's lifetime, so once per
/// campaign covers every trial.
fn check_addresses(p: &Platform, cfg: CampaignConfig) -> Result<()> {
    let readable = |what, addr: u32| match p.debug_read(addr) {
        Ok(_) => Ok(()),
        Err(_) => Err(Error::CampaignAddress { what, addr }),
    };
    readable("detect_addr", cfg.detect_addr)?;
    // A region running off the address space fails at the peripheral
    // window on the way there, so the saturated address is never reached.
    (0..cfg.output_words)
        .try_for_each(|i| readable("output region", cfg.output_addr.saturating_add(i)))
}

/// Validates the campaign addresses and the fault-free baseline on `p`, a
/// platform freshly hydrated from the campaign image, showing every step of
/// the run to `observe`. Returns the golden output checksum and the steps
/// the run took.
fn golden_run(
    p: &mut Platform,
    cfg: CampaignConfig,
    observe: impl FnMut(&StepEvent),
) -> Result<(u64, u64)> {
    check_addresses(p, cfg)?;
    let (steps, clean) = run_budget(p, cfg.budget_steps, observe);
    if !clean {
        return Err(Error::Platform("golden run crashed".into()));
    }
    if p.debug_read(cfg.detect_addr).map_err(Error::from)? != 0 {
        return Err(Error::Platform(
            "golden run self-detected an error; baseline is unhealthy".into(),
        ));
    }
    let checksum = p
        .region_checksum(cfg.output_addr, cfg.output_words)
        .map_err(Error::from)?;
    Ok((checksum, steps))
}

/// [`golden_run`] for the oracle, which keeps nothing but the checksum.
fn golden_baseline(mut golden_p: Platform, cfg: CampaignConfig) -> Result<u64> {
    golden_run(&mut golden_p, cfg, |_| {}).map(|(checksum, _)| checksum)
}

/// What the golden run of [`run_campaign_delta`] used: per core, the
/// registers whose first use reads them; per word it accessed, whether the
/// first access reads it. O(words touched + 16 × cores), not O(memory).
struct GoldenUse {
    /// Per core, the registers read before they are written.
    live_regs: Vec<u16>,
    /// Per core, the registers used at all so far.
    used_regs: Vec<u16>,
    /// Every word the run accessed: `true` when its first access reads it.
    first_read: HashMap<u32, bool>,
}

impl GoldenUse {
    fn new(cores: usize) -> Self {
        GoldenUse {
            live_regs: vec![0; cores],
            used_regs: vec![0; cores],
            first_read: HashMap::new(),
        }
    }

    fn record(&mut self, ev: &StepEvent) {
        if let StepKind::Instr { core, instr, .. } = ev.kind {
            let u = instr.reg_use();
            self.live_regs[core] |= u.reads & !self.used_regs[core];
            self.used_regs[core] |= u.reads | u.writes;
        }
        for a in &ev.accesses {
            self.first_read
                .entry(a.addr)
                .or_insert(a.kind == AccessKind::Read);
        }
    }

    /// The outcome of `spec` without a simulation, when it flips a register
    /// or RAM word the golden run never reads before overwriting it; `None`
    /// when the fault must be simulated. `p` is the platform the golden run
    /// (`steps` long, output checksum `golden`) finished on, and is left as
    /// it was found.
    fn dead_outcome(
        &self,
        p: &mut Platform,
        spec: FaultSpec,
        cfg: CampaignConfig,
        golden: u64,
        steps: u64,
    ) -> Result<Option<FaultOutcome>> {
        let verdict = match spec.kind {
            FaultKind::RegFlip { core, reg, .. } => match self.live_regs.get(core) {
                Some(live) if live >> (reg % Reg::COUNT as u8) & 1 == 0 => Verdict::Masked,
                _ => return Ok(None),
            },
            // Only mapped RAM: anything else fails to inject, and must fail
            // where the oracle does.
            FaultKind::MemFlip { addr, bit } if p.debug_read(addr).is_ok() => {
                match self.first_read.get(&addr) {
                    Some(true) => return Ok(None),
                    Some(false) => Verdict::Masked,
                    // Never accessed: the trial ends in the golden final
                    // state with this one word still flipped.
                    None => {
                        p.inject_mem_flip(addr, bit).map_err(Error::from)?;
                        let v = classify(p, cfg, golden, true);
                        p.inject_mem_flip(addr, bit).map_err(Error::from)?;
                        v?
                    }
                }
            }
            _ => return Ok(None),
        };
        Ok(Some(FaultOutcome {
            spec,
            verdict,
            steps,
            applied: true,
        }))
    }
}

/// Bumps the `campaign.*` counters for a finished report.
fn bump_counters(m: &MetricsRegistry, report: &CampaignReport) {
    m.counter("campaign.trials")
        .add(report.outcomes.len() as u64);
    m.counter("campaign.detected")
        .add(report.count(Verdict::Detected) as u64);
    m.counter("campaign.masked")
        .add(report.count(Verdict::Masked) as u64);
    m.counter("campaign.silent_corruption")
        .add(report.count(Verdict::SilentCorruption) as u64);
    m.counter("campaign.crash")
        .add(report.count(Verdict::Crash) as u64);
}

/// Runs a full campaign: golden run first, then every fault in `faults`
/// (optionally across scoped worker threads), merging outcomes in
/// fault-list order. With `metrics`, bumps `campaign.*` counters
/// (`trials`, `detected`, `masked`, `silent_corruption`, `crash`).
///
/// # Errors
///
/// [`Error::Platform`] if the image is corrupt, a fault targets a
/// non-existent component, or the golden (fault-free) run itself crashes or
/// self-detects — the campaign is only meaningful over a healthy baseline.
/// [`Error::CampaignAddress`] if `cfg.detect_addr` or a word of the output
/// region is not readable RAM on the image's platform.
pub fn run_campaign(
    image: &[u8],
    faults: &[FaultSpec],
    cfg: CampaignConfig,
    metrics: Option<&MetricsRegistry>,
) -> Result<CampaignReport> {
    let golden = golden_baseline(Platform::from_image(image).map_err(Error::from)?, cfg)?;
    let outcomes: Vec<FaultOutcome> = mpsoc_explore::Sweep::new(cfg.threads)
        .run(faults.len(), |i| run_trial(image, faults[i], cfg, golden))
        .into_iter()
        .collect::<Result<_>>()?;

    let report = CampaignReport {
        outcomes,
        golden_checksum: golden,
        budget_steps: cfg.budget_steps,
    };
    if let Some(m) = metrics {
        bump_counters(m, &report);
    }
    Ok(report)
}

/// How [`run_campaign_delta`] gets one fault's outcome.
enum Plan {
    /// From the golden run: the fault is dead.
    Dead(FaultOutcome),
    /// From the sweep's trial with this index, which simulated the first
    /// occurrence of the fault's kind.
    Trial(usize),
}

/// Runs a full campaign exactly like [`run_campaign`] — same golden run,
/// same verdicts, bit-identical [`CampaignReport`] at any thread count —
/// but simulates only what the report depends on (see the
/// [module docs](self)): `image` is hashed and decoded once, into a
/// [`BaseImage`]; the golden run records which registers and words it
/// reads first; a flip it never reads gets its outcome from the golden run,
/// and of the other faults each distinct [`FaultKind`] is simulated once.
/// Simulated trials run on one platform per engine worker, which the
/// shared [`mpsoc_explore::Prefix`] resets to the base between trials
/// ([`Platform::reset_to_base`]), rewriting only the RAM pages the previous
/// trial touched.
///
/// With `metrics`, bumps the `campaign.*` counters of [`run_campaign`]
/// plus `simulated` (trials run), `dead` (outcomes taken from the golden
/// run) and `duplicate` (outcomes copied from an earlier identical fault);
/// the three sum to the fault count. `explore.warm_hits` counts one
/// rollback per *simulated* trial plus one hydration per worker.
///
/// # Errors
///
/// As [`run_campaign`], and for the same fault: the first in list order.
pub fn run_campaign_delta(
    image: &[u8],
    faults: &[FaultSpec],
    cfg: CampaignConfig,
    metrics: Option<&MetricsRegistry>,
) -> Result<CampaignReport> {
    let mut plans = Vec::with_capacity(faults.len());
    let mut trials: Vec<FaultSpec> = Vec::with_capacity(faults.len());
    let mut first_trial: HashMap<FaultKind, usize> = HashMap::with_capacity(faults.len());
    let base = BaseImage::new(image.to_vec()).map_err(Error::from)?;
    // The plan is made on the platform the golden run finished on, which
    // goes out of scope before the sweep.
    let golden = {
        let mut p = base.hydrate().map_err(Error::from)?;
        let mut uses = GoldenUse::new(p.num_cores());
        let (golden, steps) = golden_run(&mut p, cfg, |ev| uses.record(ev))?;
        for &spec in faults {
            plans.push(match uses.dead_outcome(&mut p, spec, cfg, golden, steps)? {
                Some(outcome) => Plan::Dead(outcome),
                None => Plan::Trial(*first_trial.entry(spec.kind).or_insert_with(|| {
                    trials.push(spec);
                    trials.len() - 1
                })),
            });
        }
        golden
    };

    let mut prefix = mpsoc_explore::Prefix::base(&base);
    if let Some(m) = metrics {
        prefix = prefix.metrics(m);
    }
    let prefix = &prefix;
    let results: Vec<Result<FaultOutcome>> = mpsoc_explore::Sweep::new(cfg.threads).run_stateful(
        trials.len(),
        || prefix.materialize().map_err(|e| Err(Error::from(e))),
        |p, i| {
            prefix.rewind(p).map_err(Error::from)?;
            finish_trial(p, trials[i], cfg, golden)
        },
    );
    let dead = plans.iter().filter(|p| matches!(p, Plan::Dead(_))).count();
    // In fault order, so the error returned is the oracle's: a dead fault
    // cannot fail, and a repeat fails as its first occurrence did.
    let outcomes: Vec<FaultOutcome> = faults
        .iter()
        .zip(plans)
        .map(|(&spec, plan)| match plan {
            Plan::Dead(outcome) => Ok(outcome),
            Plan::Trial(i) => results[i].clone().map(|o| FaultOutcome { spec, ..o }),
        })
        .collect::<Result<_>>()?;

    let report = CampaignReport {
        outcomes,
        golden_checksum: golden,
        budget_steps: cfg.budget_steps,
    };
    if let Some(m) = metrics {
        bump_counters(m, &report);
        m.counter("campaign.simulated").add(trials.len() as u64);
        m.counter("campaign.dead").add(dead as u64);
        m.counter("campaign.duplicate")
            .add((faults.len() - trials.len() - dead) as u64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_platform::isa::assemble;
    use mpsoc_platform::platform::PlatformBuilder;
    use mpsoc_platform::Frequency;

    /// A workload with built-in redundancy: computes a sum twice, compares,
    /// and writes a detect flag on mismatch. Output at 0x200, detect at
    /// 0x210.
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
        // Advance into the loop so register faults land mid-computation.
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

    #[test]
    fn campaign_classifies_hand_picked_faults() {
        let image = fault_site_image();
        let faults = [
            // r1 bit flip: duplicate-compute mismatch -> detected.
            FaultSpec {
                id: 0,
                kind: FaultKind::RegFlip {
                    core: 0,
                    reg: 1,
                    bit: 2,
                },
            },
            // Untouched memory word: masked.
            FaultSpec {
                id: 1,
                kind: FaultKind::MemFlip {
                    addr: 0x300,
                    bit: 0,
                },
            },
            // Corrupt the output cell after both copies agree? No — flip a
            // bit in the *output address register* r4 path is complex;
            // instead corrupt r2 and r1 identically is impossible per
            // trial, so use the pc-adjacent r3 loop counter: diverging trip
            // counts break both sums equally -> still detected or crash.
            FaultSpec {
                id: 2,
                kind: FaultKind::RegFlip {
                    core: 0,
                    reg: 3,
                    bit: 40,
                },
            },
        ];
        let report = run_campaign(&image, &faults, config(1), None).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.outcomes[0].verdict, Verdict::Detected);
        assert_eq!(report.outcomes[1].verdict, Verdict::Masked);
        assert!(report.outcomes.iter().all(|o| o.applied));
    }

    #[test]
    fn verdict_table_is_thread_count_invariant() {
        let image = fault_site_image();
        let space = FaultSpace {
            cores: 1,
            periph_pages: vec![],
            dma_pages: vec![],
            mem_lo: 0x200,
            mem_hi: 0x280,
            // (register flips and memory flips only on this platform)
        };
        let faults = generate_faults(0xC0FFEE, 24, &space);
        let t1 = run_campaign(&image, &faults, config(1), None).unwrap();
        let t2 = run_campaign(&image, &faults, config(2), None).unwrap();
        let t4 = run_campaign(&image, &faults, config(4), None).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(t1, t4);
        assert_eq!(t1.verdict_table(), t4.verdict_table());
    }

    #[test]
    fn delta_campaign_matches_full_campaign() {
        let image = fault_site_image();
        let space = FaultSpace {
            cores: 2,
            periph_pages: vec![],
            dma_pages: vec![],
            mem_lo: 0x0,
            mem_hi: 0x280,
        };
        let faults = generate_faults(0xDECADE, 24, &space);
        let full = run_campaign(&image, &faults, config(1), None).unwrap();
        for threads in [1, 2, 4] {
            let delta = run_campaign_delta(&image, &faults, config(threads), None).unwrap();
            assert_eq!(
                full, delta,
                "delta campaign at {threads} threads must match the full runner"
            );
            assert_eq!(full.verdict_table(), delta.verdict_table());
        }
    }

    #[test]
    fn unmapped_campaign_addresses_are_typed_errors() {
        // 2048 shared words: 0x800 is the first unmapped word. A mistyped
        // detect flag used to read as "never detected" (coverage 0 %).
        let image = fault_site_image();
        let faults = [FaultSpec {
            id: 0,
            kind: FaultKind::RegFlip {
                core: 0,
                reg: 1,
                bit: 2,
            },
        }];
        let bad_detect = CampaignConfig {
            detect_addr: 0x800,
            ..config(1)
        };
        let bad_output = CampaignConfig {
            output_addr: 0x7F8,
            output_words: 16,
            ..config(1)
        };
        let wrapping_output = CampaignConfig {
            output_addr: u32::MAX - 1,
            output_words: 4,
            ..config(1)
        };
        for runner in [run_campaign, run_campaign_delta] {
            assert_eq!(
                runner(&image, &faults, bad_detect, None),
                Err(Error::CampaignAddress {
                    what: "detect_addr",
                    addr: 0x800
                })
            );
            assert_eq!(
                runner(&image, &faults, bad_output, None),
                Err(Error::CampaignAddress {
                    what: "output region",
                    addr: 0x800
                })
            );
            assert!(matches!(
                runner(&image, &faults, wrapping_output, None),
                Err(Error::CampaignAddress {
                    what: "output region",
                    ..
                })
            ));
            // No faults: still an error, not a vacuous report.
            assert!(runner(&image, &[], bad_detect, None).is_err());
            assert!(runner(&image, &faults, config(1), None).is_ok());
        }
    }

    #[test]
    fn generated_faults_are_deterministic() {
        let space = FaultSpace {
            cores: 4,
            periph_pages: vec![0, 1],
            dma_pages: vec![2],
            mem_lo: 0,
            mem_hi: 1023,
        };
        assert_eq!(
            generate_faults(42, 50, &space),
            generate_faults(42, 50, &space)
        );
        assert_ne!(
            generate_faults(42, 50, &space),
            generate_faults(43, 50, &space)
        );
    }

    #[test]
    fn generate_faults_on_an_empty_space_returns_no_faults() {
        let empty = FaultSpace {
            cores: 0,
            periph_pages: vec![],
            dma_pages: vec![],
            mem_lo: 1,
            mem_hi: 0,
        };
        assert_eq!(generate_faults(7, 10, &empty), vec![]);
    }

    #[test]
    fn campaign_counters_feed_obs() {
        let image = fault_site_image();
        let faults = [FaultSpec {
            id: 0,
            kind: FaultKind::MemFlip {
                addr: 0x300,
                bit: 1,
            },
        }];
        let registry = MetricsRegistry::new();
        run_campaign(&image, &faults, config(1), Some(&registry)).unwrap();
        assert_eq!(registry.counter("campaign.trials").get(), 1);
        assert_eq!(registry.counter("campaign.masked").get(), 1);

        // The delta runner also says how it got each outcome: 0x300 is never
        // touched (dead), the second r1 flip repeats the first.
        let r1 = FaultKind::RegFlip {
            core: 0,
            reg: 1,
            bit: 2,
        };
        let faults = specs(&[faults[0].kind, r1, r1]);
        let registry = MetricsRegistry::new();
        run_campaign_delta(&image, &faults, config(2), Some(&registry)).unwrap();
        let count = |name| registry.counter(name).get();
        assert_eq!(count("campaign.trials"), 3);
        assert_eq!(count("campaign.masked"), 1);
        assert_eq!(count("campaign.detected"), 2);
        assert_eq!(count("campaign.simulated"), 1);
        assert_eq!(count("campaign.dead"), 1);
        assert_eq!(count("campaign.duplicate"), 1);
    }

    fn specs(kinds: &[FaultKind]) -> Vec<FaultSpec> {
        (0..)
            .zip(kinds)
            .map(|(id, &kind)| FaultSpec { id, kind })
            .collect()
    }

    /// Runs `kinds` through both runners on `fault_site_image` and checks
    /// that the reports are equal; returns the delta runner's report and its
    /// `simulated` / `dead` / `duplicate` counters.
    fn pruned(kinds: &[FaultKind], cfg: CampaignConfig) -> (CampaignReport, [u64; 3]) {
        let image = fault_site_image();
        let faults = specs(kinds);
        let registry = MetricsRegistry::new();
        let delta = run_campaign_delta(&image, &faults, cfg, Some(&registry)).unwrap();
        assert_eq!(delta, run_campaign(&image, &faults, cfg, None).unwrap());
        let count = |name| registry.counter(name).get();
        let counts = [
            count("campaign.simulated"),
            count("campaign.dead"),
            count("campaign.duplicate"),
        ];
        (delta, counts)
    }

    /// The steps of the fault-free run from `fault_site_image`.
    fn golden_steps(cfg: CampaignConfig) -> u64 {
        let mut p = Platform::from_image(&fault_site_image()).unwrap();
        golden_run(&mut p, cfg, |_| {}).unwrap().1
    }

    #[test]
    fn a_register_written_before_it_is_read_is_not_simulated() {
        // The rest of the program starts with `movi r4, 0x200`.
        let (report, counts) = pruned(
            &[FaultKind::RegFlip {
                core: 0,
                reg: 4,
                bit: 3,
            }],
            config(1),
        );
        assert_eq!(counts, [0, 1, 0]);
        let o = report.outcomes[0];
        assert_eq!(o.verdict, Verdict::Masked);
        assert!(o.applied);
        assert_eq!(o.steps, golden_steps(config(1)));
    }

    #[test]
    fn a_register_read_before_it_is_written_is_simulated() {
        // The loop's `addi r1, r1, 3` reads r1 before writing it.
        let (report, counts) = pruned(
            &[FaultKind::RegFlip {
                core: 0,
                reg: 1,
                bit: 2,
            }],
            config(1),
        );
        assert_eq!(counts, [1, 0, 0]);
        assert_eq!(report.outcomes[0].verdict, Verdict::Detected);
    }

    #[test]
    fn an_untouched_word_in_the_output_region_is_computed_not_assumed() {
        // Only 0x200 of the four output words is ever written.
        let cfg = CampaignConfig {
            output_words: 4,
            ..config(1)
        };
        let (report, counts) = pruned(
            &[
                FaultKind::MemFlip {
                    addr: 0x202,
                    bit: 5,
                },
                FaultKind::MemFlip {
                    addr: 0x200,
                    bit: 5,
                },
            ],
            cfg,
        );
        assert_eq!(counts, [0, 2, 0]);
        assert_eq!(report.outcomes[0].verdict, Verdict::SilentCorruption);
        assert_eq!(report.outcomes[1].verdict, Verdict::Masked);
        assert!(report.outcomes.iter().all(|o| o.applied));
    }

    #[test]
    fn a_flip_of_an_untouched_detect_flag_is_detected() {
        // 0x220 is never accessed; 0x210, the program's own flag, is
        // written before it is read.
        let cfg = CampaignConfig {
            detect_addr: 0x220,
            ..config(1)
        };
        let flip = |addr| FaultKind::MemFlip { addr, bit: 0 };
        let (report, counts) = pruned(&[flip(0x220)], cfg);
        assert_eq!(counts, [0, 1, 0]);
        assert_eq!(report.outcomes[0].verdict, Verdict::Detected);
        let (report, counts) = pruned(&[flip(0x210)], config(1));
        assert_eq!(counts, [0, 1, 0]);
        assert_eq!(report.outcomes[0].verdict, Verdict::Masked);
    }

    #[test]
    fn a_fault_that_cannot_be_injected_is_still_an_error() {
        // 2048 shared words: 0x800 is unmapped, and there is no core 7.
        // The first failing fault in list order is the one reported.
        let image = fault_site_image();
        let bad_word = FaultKind::MemFlip {
            addr: 0x800,
            bit: 0,
        };
        let bad_core = FaultKind::RegFlip {
            core: 7,
            reg: 4,
            bit: 0,
        };
        let dead = FaultKind::MemFlip {
            addr: 0x300,
            bit: 0,
        };
        for kinds in [[dead, bad_word, bad_core], [dead, bad_core, bad_word]] {
            let faults = specs(&kinds);
            let oracle = run_campaign(&image, &faults, config(1), None);
            assert!(oracle.is_err());
            for threads in [1, 2] {
                assert_eq!(
                    run_campaign_delta(&image, &faults, config(threads), None),
                    oracle
                );
            }
        }
    }

    #[test]
    fn a_repeated_fault_is_simulated_once() {
        let r1 = FaultKind::RegFlip {
            core: 0,
            reg: 1,
            bit: 2,
        };
        let r3 = FaultKind::RegFlip {
            core: 0,
            reg: 3,
            bit: 40,
        };
        let (report, counts) = pruned(&[r1, r3, r1, r1, r3], config(2));
        assert_eq!(counts, [2, 0, 3]);
        let ids: Vec<u32> = report.outcomes.iter().map(|o| o.spec.id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
    }
}
