//! Run control, breakpoints, and watchpoints over a virtual platform.
//!
//! Section VII's capability list, reproduced one for one:
//!
//! * *"the entire system can be synchronously suspended from execution"* —
//!   the [`Debugger`] steps the deterministic platform and simply stops
//!   between steps; resuming continues the identical interleaving
//!   ([`Debugger::run`] / the `Stop` events).
//! * *"a consistent view into the state of all cores and peripherals"* —
//!   the inspection API ([`Debugger::core_regs`], [`Debugger::read_mem`],
//!   [`Debugger::peripheral`], [`Debugger::signal`]) has no simulated side
//!   effects.
//! * *"A watchpoint can be set on a signal, such as the interrupt line of a
//!   peripheral"* — [`Watchpoint::Signal`].
//! * *"Peripheral access watchpoints allow suspending execution when a
//!   specific core or DMA is writing to a shared resource"* —
//!   [`Watchpoint::Access`] with an [`OriginFilter`].
//! * Intrusive debugging for contrast: `Debugger::halt_core` stops one
//!   core while *"other cores or timers continue to operate"*, which is
//!   exactly how Heisenbugs escape (see [`crate::heisenbug`]).

use mpsoc_obs::metrics::{Counter, Gauge, MetricsRegistry};
use mpsoc_platform::isa::{Reg, Word};
use mpsoc_platform::periph::mailbox_reg;
use mpsoc_platform::platform::{Access, AccessKind, Originator, StepKind};
use mpsoc_platform::{Core, Platform, StepEvent, Time};

use crate::error::{Error, Result};
use crate::stimulus::{StimulusKind, StimulusLog, StimulusRecord};
use crate::trace::TraceBuffer;

/// Which initiators an access watchpoint observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OriginFilter {
    /// Any core or DMA.
    Any,
    /// A specific core.
    Core(usize),
    /// A specific DMA engine (by peripheral page).
    Dma(usize),
}

impl OriginFilter {
    fn matches(self, o: Originator) -> bool {
        match (self, o) {
            (OriginFilter::Any, _) => true,
            (OriginFilter::Core(c), Originator::Core(x)) => c == x,
            (OriginFilter::Dma(d), Originator::Dma(x)) => d == x,
            _ => false,
        }
    }
}

/// A watchpoint condition.
#[derive(Clone, Debug, PartialEq)]
pub enum Watchpoint {
    /// Stop when an access in `[lo, hi]` of the given kind by a matching
    /// initiator completes.
    Access {
        /// Lowest watched word address.
        lo: u32,
        /// Highest watched word address (inclusive).
        hi: u32,
        /// Reads, writes, or both (`None`).
        kind: Option<AccessKind>,
        /// Initiator filter.
        origin: OriginFilter,
    },
    /// Stop when the named signal changes to `value` (or changes at all if
    /// `value` is `None`).
    Signal {
        /// Signal name.
        name: String,
        /// Target value.
        value: Option<Word>,
    },
}

impl Watchpoint {
    /// Whether this is an access watchpoint that `a` trips.
    fn hit_by(&self, a: &Access) -> bool {
        matches!(self, Watchpoint::Access { lo, hi, kind, origin }
            if (*lo..=*hi).contains(&a.addr)
                && kind.is_none_or(|k| k == a.kind)
                && origin.matches(a.originator))
    }
}

/// A breakpoint: core reaches a program counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Breakpoint {
    /// Watched core.
    pub core: usize,
    /// Program counter.
    pub pc: u32,
}

/// Why the debugger stopped.
#[derive(Clone, Debug, PartialEq)]
pub enum Stop {
    /// Breakpoint `index` hit.
    Breakpoint {
        /// Index into the breakpoint table.
        index: usize,
        /// Core that hit it.
        core: usize,
        /// The program counter.
        pc: u32,
    },
    /// Watchpoint `index` hit.
    Watchpoint {
        /// Index into the watchpoint table.
        index: usize,
        /// The access that triggered it, if an access watchpoint.
        access: Option<Access>,
    },
    /// Every core halted; nothing left to run.
    Finished,
    /// The step budget was exhausted without a stop condition.
    Budget,
    /// A core faulted (the platform error is preserved as text).
    Fault(String),
}

/// A source-level debugger for the simulated MPSoC.
#[derive(Debug)]
pub struct Debugger {
    pub(crate) platform: Platform,
    pub(crate) breakpoints: Vec<Breakpoint>,
    pub(crate) watchpoints: Vec<Watchpoint>,
    pub(crate) trace: TraceBuffer,
    /// Signal values as of the last signal-edge bookkeeping, indexed by the
    /// platform board's signal id (a missing id reads 0): what signal
    /// watchpoints compare against.
    pub(crate) prev_signals: Vec<Word>,
    /// The board's edge counter at that bookkeeping; while it reads the
    /// same a step skips the bookkeeping. `None` after anything that can
    /// change signals without advancing it (a restore).
    pub(crate) signals_seen: Option<u64>,
    /// Auto-checkpoint state for time travel; `None` until
    /// [`enable_time_travel`](Debugger::enable_time_travel).
    pub(crate) time_travel: Option<crate::timetravel::TimeTravel>,
    /// Every external injection made through the `inject_*` hooks, in step
    /// order — the replay script for time travel.
    pub(crate) stimulus: StimulusLog,
    /// How many stimulus records have been applied to the platform's
    /// current timeline. Checkpoints store it; rewinds restore it — the
    /// invariant that makes replay apply each record exactly once.
    pub(crate) stim_cursor: usize,
    /// Handles into the attached metrics registry, if any.
    pub(crate) metrics: Option<Box<DebuggerMetrics>>,
}

/// A debugger's handles into an attached metrics registry
/// ([`Debugger::attach_metrics`]).
#[derive(Debug)]
pub(crate) struct DebuggerMetrics {
    /// `vpdebug.ring_bytes`: checkpoint-ring occupancy.
    pub(crate) ring_bytes: Gauge,
    /// `vpdebug.rewind_replayed_steps`: steps re-executed by rewinds.
    pub(crate) replayed_steps: Counter,
    /// `vpdebug.rewinds_from_park`: rewinds that replayed from the state
    /// the previous rewind parked.
    pub(crate) rewinds_from_park: Counter,
    /// `vpdebug.rewinds_from_checkpoint`: rewinds that restored a
    /// checkpoint.
    pub(crate) rewinds_from_checkpoint: Counter,
}

impl Debugger {
    /// Attaches to a platform.
    pub fn new(platform: Platform) -> Self {
        Debugger {
            platform,
            breakpoints: Vec::new(),
            watchpoints: Vec::new(),
            trace: TraceBuffer::new(4096),
            prev_signals: Vec::new(),
            signals_seen: None,
            time_travel: None,
            stimulus: StimulusLog::new(),
            stim_cursor: 0,
            metrics: None,
        }
    }

    /// Attaches `registry` to the debugger: the checkpoint ring's byte
    /// occupancy is reported on the `vpdebug.ring_bytes` gauge (current
    /// value plus high-water mark), and what rewinds replay on three
    /// counters — `vpdebug.rewind_replayed_steps`, the steps re-executed,
    /// and `vpdebug.rewinds_from_park` / `vpdebug.rewinds_from_checkpoint`,
    /// where each rewind replayed from (see [`crate::timetravel`]). The
    /// platform's own counters are a separate concern — attach the registry
    /// to the platform too if you want both.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        let metrics = DebuggerMetrics {
            ring_bytes: registry.gauge("vpdebug.ring_bytes"),
            replayed_steps: registry.counter("vpdebug.rewind_replayed_steps"),
            rewinds_from_park: registry.counter("vpdebug.rewinds_from_park"),
            rewinds_from_checkpoint: registry.counter("vpdebug.rewinds_from_checkpoint"),
        };
        metrics.ring_bytes.set(self.ring_bytes() as u64);
        self.metrics = Some(Box::new(metrics));
    }

    /// Pushes the current ring occupancy to the attached gauge, if any.
    pub(crate) fn update_ring_gauge(&self) {
        if let Some(m) = &self.metrics {
            m.ring_bytes.set(self.ring_bytes() as u64);
        }
    }

    /// The underlying platform (mutable, e.g. for program loading, a by-hand
    /// `restore_image`, fault hooks). The caller may change signals — or the
    /// step count — behind the debugger's back, so the next step
    /// re-evaluates every signal watchpoint instead of trusting the edge
    /// counter, searches the checkpoint ring for whether one is due, and
    /// the next rewind does not replay from the state the last one parked.
    pub fn platform_mut(&mut self) -> &mut Platform {
        self.signals_seen = None;
        if let Some(tt) = &mut self.time_travel {
            tt.forget_due_bound();
            tt.forget_park();
        }
        &mut self.platform
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The execution/access trace history.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Adds a breakpoint; returns its index.
    pub fn add_breakpoint(&mut self, core: usize, pc: u32) -> usize {
        self.conditions_changed();
        self.breakpoints.push(Breakpoint { core, pc });
        self.breakpoints.len() - 1
    }

    /// Adds a watchpoint; returns its index.
    pub fn add_watchpoint(&mut self, wp: Watchpoint) -> usize {
        self.conditions_changed();
        self.watchpoints.push(wp);
        self.watchpoints.len() - 1
    }

    /// Removes every breakpoint and watchpoint.
    pub fn clear_conditions(&mut self) {
        self.conditions_changed();
        self.breakpoints.clear();
        self.watchpoints.clear();
    }

    /// The stop conditions are about to change, and with them what a replay
    /// records as it goes (a stop skips the signal-edge bookkeeping), so
    /// the state the last rewind parked no longer equals a replay onto its
    /// step.
    fn conditions_changed(&mut self) {
        if let Some(tt) = &mut self.time_travel {
            tt.forget_park();
        }
    }

    /// Non-intrusive inspection: registers of `core`.
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] for a bad core id.
    pub fn core_regs(&self, core: usize) -> Result<&Core> {
        self.platform.core(core).map_err(Error::from)
    }

    /// Non-intrusive memory read (no cache/timing side effects).
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] for unmapped addresses.
    pub fn read_mem(&self, addr: u32) -> Result<Word> {
        self.platform.debug_read(addr).map_err(Error::from)
    }

    /// Non-intrusive peripheral register dump.
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] for an unoccupied page.
    pub fn peripheral(&self, page: usize) -> Result<Vec<(u32, Word)>> {
        self.platform.peripheral_snapshot(page).map_err(Error::from)
    }

    /// Current value of a signal.
    pub fn signal(&self, name: &str) -> Word {
        self.platform.signals().value(name)
    }

    /// Edges of `name` still held in the bounded trace ring, oldest first.
    /// Older edges may have been evicted into the spill tier; see
    /// [`Debugger::trace_stats`] for how much has spilled.
    pub fn signal_edges(&self, name: &str) -> Vec<mpsoc_platform::SignalChange> {
        self.platform.signals().recent(name)
    }

    /// Occupancy and counters of the platform's signal-trace store.
    pub fn trace_stats(&self) -> mpsoc_platform::TraceStats {
        self.platform.trace_stats()
    }

    /// Intrusively halts one core: the rest of the platform keeps running —
    /// the real-hardware debugging model whose perturbation Section VII
    /// blames for Heisenbugs.
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] for a bad core id.
    pub(crate) fn halt_core(&mut self, core: usize) -> Result<()> {
        self.platform.core_mut(core)?.debug_halt();
        Ok(())
    }

    /// Resumes an intrusively halted core at the current platform time.
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] for a bad core id.
    pub(crate) fn resume_core(&mut self, core: usize) -> Result<()> {
        let now = self.platform.now();
        self.platform.core_mut(core)?.debug_resume(now);
        Ok(())
    }

    /// Executes one platform step, evaluating stop conditions.
    ///
    /// Returns `Ok(None)` to continue, `Ok(Some(stop))` when a condition
    /// hit. When time travel is enabled, a due auto-checkpoint is captured
    /// *before* the step executes, so every checkpoint sits exactly at a
    /// step boundary.
    ///
    /// # Errors
    ///
    /// Never — platform faults are converted into [`Stop::Fault`].
    pub fn step(&mut self) -> Result<Option<Stop>> {
        self.auto_checkpoint()?;
        self.step_evaluated()
    }

    /// One platform step with full stop-condition evaluation but **without**
    /// the auto-checkpoint hook — the replay primitive of time travel
    /// (replay must reproduce the original run's evaluation order exactly,
    /// including the early returns that skip the signal-edge bookkeeping,
    /// without re-capturing checkpoints that already exist). Host cost: the
    /// platform step in place, O(accesses) to copy it into the trace rings
    /// and try the access watchpoints, O(edges) of signal bookkeeping; no
    /// allocation.
    pub(crate) fn step_evaluated(&mut self) -> Result<Option<Stop>> {
        self.apply_due_stimuli()?;
        if let Err(e) = self.platform.step_in_place() {
            return Ok(Some(Stop::Fault(e.to_string())));
        }
        let event = self.platform.last_event();
        if event.is_idle() {
            return Ok(Some(Stop::Finished));
        }
        let stop = self.access_stop(event);
        self.trace.record(event);
        // A breakpoint or access watchpoint returns before the signal-edge
        // bookkeeping: an edge driven in this step is reported by the next.
        Ok(stop?.or_else(|| self.signal_stop()))
    }

    /// The breakpoint or access watchpoint `event` hits, if any.
    fn access_stop(&self, event: &StepEvent) -> Result<Option<Stop>> {
        // Breakpoints: the *next* pc of the executing core.
        if let StepKind::Instr { core, .. } = event.kind {
            let pc = self.platform.core(core).map_err(Error::from)?.pc();
            let hit = |b: &Breakpoint| b.core == core && b.pc == pc;
            if let Some(index) = self.breakpoints.iter().position(hit) {
                return Ok(Some(Stop::Breakpoint { index, core, pc }));
            }
        }
        // Access watchpoints, in *access* order: a step can perform several
        // accesses (a DMA completion hundreds — each word a read then a
        // write), and the stop must report the temporally first faulting
        // access, not the lowest-numbered watchpoint — a GDB stop reply
        // (`T05watch:ADDR;` vs `rwatch:`) makes the difference user-visible.
        for a in &event.accesses {
            if let Some(index) = self.watchpoints.iter().position(|wp| wp.hit_by(a)) {
                let access = Some(*a);
                return Ok(Some(Stop::Watchpoint { index, access }));
            }
        }
        Ok(None)
    }

    /// Signal watchpoints, edge-triggered against the values seen at the
    /// last bookkeeping, then that bookkeeping: the signals that changed are
    /// refreshed in place. Skipped while the board's edge counter has not
    /// moved — no edge, nothing to compare or refresh.
    fn signal_stop(&mut self) -> Option<Stop> {
        let board = self.platform.signals();
        let seq = board.next_seq();
        if self.signals_seen == Some(seq) {
            return None;
        }
        // The highest-numbered watchpoint whose signal changed wins.
        let prev = &mut self.prev_signals;
        let fires = |wp: &Watchpoint| match wp {
            Watchpoint::Signal { name, value } => {
                // A name the board has never met was never driven: 0 -> 0.
                board.id(name).is_some_and(|id| {
                    let cur = board.value_at(id);
                    let was = prev.get(id as usize).copied().unwrap_or(0);
                    cur != was && value.is_none_or(|v| v == cur)
                })
            }
            Watchpoint::Access { .. } => false,
        };
        let hit = self.watchpoints.iter().rposition(fires);
        match self.signals_seen.and_then(|seen| board.changed_since(seen)) {
            Some(changed) => {
                for id in changed {
                    let slot = id as usize;
                    if prev.len() <= slot {
                        prev.resize(slot + 1, 0);
                    }
                    prev[slot] = board.value_at(id);
                }
            }
            // After a restore, or when the board's trace ring has already
            // evicted some of the edges: every signal, from scratch.
            None => {
                prev.clear();
                prev.extend(board.values());
            }
        }
        self.signals_seen = Some(seq);
        hit.map(|index| Stop::Watchpoint {
            index,
            access: None,
        })
    }

    /// Replays stimulus records due at the current step: every unapplied
    /// record whose step equals the platform's step count, in log order.
    /// Called before each step executes, so replay perturbs the platform at
    /// exactly the point the original injection did.
    fn apply_due_stimuli(&mut self) -> Result<()> {
        let cur = self.platform.steps();
        while let Some(rec) = self.stimulus.records().get(self.stim_cursor) {
            if rec.step != cur {
                break;
            }
            let kind = rec.kind.clone();
            self.apply_stimulus(&kind)?;
            self.stim_cursor += 1;
        }
        Ok(())
    }

    /// Applies one stimulus to the platform (shared by live injection and
    /// replay, so both perturb the platform identically).
    fn apply_stimulus(&mut self, kind: &StimulusKind) -> Result<()> {
        let p = &mut self.platform;
        match *kind {
            StimulusKind::MailboxPush { page, value } => {
                p.debug_periph_write(page, mailbox_reg::DATA, value)?
            }
            StimulusKind::SignalWrite { ref name, value } => p.debug_drive_signal(name, value),
            StimulusKind::IrqPost { core, irq } => p.debug_post_irq(core, irq)?,
            StimulusKind::DmaDescriptor {
                page,
                src,
                dst,
                len,
            } => {
                use mpsoc_platform::periph::dma_reg::{CTRL, DST, LEN, SRC};
                for (reg, value) in [(SRC, src), (DST, dst), (LEN, len), (CTRL, 1)] {
                    p.debug_periph_write(page, reg, value)?;
                }
            }
            StimulusKind::MemPoke { addr, value } => p.debug_write(addr, value)?,
            StimulusKind::RegWrite { core, reg, value } => {
                let c = p.core_mut(core)?;
                match reg {
                    Some(r) => c.set_reg(r, value),
                    None => c.debug_set_pc(value as u32),
                }
            }
        }
        Ok(())
    }

    /// Applies a stimulus now and records it: drops any not-yet-applied
    /// future records and any checkpoints ahead of the current step, and
    /// forgets the state the last rewind parked (all describe a timeline
    /// this injection just diverged from), then appends the record with the
    /// current step and marks it applied.
    fn inject(&mut self, kind: StimulusKind) -> Result<()> {
        self.apply_stimulus(&kind)?;
        let step = self.platform.steps();
        self.stimulus.truncate(self.stim_cursor);
        if let Some(tt) = &mut self.time_travel {
            tt.drop_checkpoints_after(step);
            tt.forget_park();
        }
        self.update_ring_gauge();
        self.stimulus.push(StimulusRecord { step, kind });
        self.stim_cursor = self.stimulus.len();
        Ok(())
    }

    /// Pushes `value` into the mailbox at peripheral page `page` as an
    /// external stimulus (full side effects: avail signal, notify IRQ), and
    /// records it for replay.
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] if `page` is not a peripheral or rejects the
    /// write.
    pub fn inject_mailbox_push(&mut self, page: usize, value: Word) -> Result<()> {
        self.inject(StimulusKind::MailboxPush { page, value })
    }

    /// Drives signal `name` to `value` as an external stimulus and records
    /// it for replay.
    ///
    /// # Errors
    ///
    /// Never today (signals are created on demand); fallible for symmetry.
    pub fn inject_signal_write(&mut self, name: &str, value: Word) -> Result<()> {
        self.inject(StimulusKind::SignalWrite {
            name: name.to_string(),
            value,
        })
    }

    /// Posts interrupt `irq` to core `core` as an external stimulus and
    /// records it for replay.
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] for a bad core id.
    pub fn inject_irq(&mut self, core: usize, irq: u32) -> Result<()> {
        self.inject(StimulusKind::IrqPost { core, irq })
    }

    /// Programs the SRC/DST/LEN registers of the DMA engine at peripheral
    /// page `page` and starts the transfer (CTRL kick) as an external
    /// stimulus, recording the whole descriptor for replay.
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] if `page` is not a DMA engine or rejects a
    /// register write.
    pub fn inject_dma_descriptor(
        &mut self,
        page: usize,
        src: Word,
        dst: Word,
        len: Word,
    ) -> Result<()> {
        self.inject(StimulusKind::DmaDescriptor {
            page,
            src,
            dst,
            len,
        })
    }

    /// Pokes one memory word (`mem[addr] = value`) as an external stimulus
    /// and records it for replay.
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] for an unmapped address.
    pub fn inject_mem_poke(&mut self, addr: u32, value: Word) -> Result<()> {
        self.inject(StimulusKind::MemPoke { addr, value })
    }

    /// Writes register `reg` of core `core` (`None`: its pc) as an external
    /// stimulus and records it for replay.
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] for a bad core id.
    pub fn inject_reg_write(&mut self, core: usize, reg: Option<Reg>, value: Word) -> Result<()> {
        self.inject(StimulusKind::RegWrite { core, reg, value })
    }

    /// The stimulus log recorded so far.
    pub fn stimulus_log(&self) -> &StimulusLog {
        &self.stimulus
    }

    /// Runs until a stop condition or `max_steps`.
    ///
    /// # Errors
    ///
    /// Propagates internal inspection failures (never expected).
    pub fn run(&mut self, max_steps: u64) -> Result<Stop> {
        for _ in 0..max_steps {
            if let Some(stop) = self.step()? {
                return Ok(stop);
            }
        }
        Ok(Stop::Budget)
    }

    /// The current simulation time (meaningful across suspensions: the
    /// platform cannot observe that it was stopped).
    pub fn now(&self) -> Time {
        self.platform.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_platform::isa::assemble;
    use mpsoc_platform::mem::periph_addr;
    use mpsoc_platform::periph::timer_reg;
    use mpsoc_platform::platform::PlatformBuilder;
    use mpsoc_platform::Frequency;

    fn platform() -> Platform {
        PlatformBuilder::new()
            .cores(2, Frequency::mhz(100))
            .shared_words(1024)
            .cache(None)
            .build()
            .unwrap()
    }

    #[test]
    fn breakpoint_stops_at_pc() {
        let mut dbg = Debugger::new(platform());
        let prog = assemble("movi r1, 1\nmovi r2, 2\nadd r3, r1, r2\nhalt").unwrap();
        dbg.platform_mut().load_program(0, prog, 0).unwrap();
        dbg.add_breakpoint(0, 2);
        let stop = dbg.run(100).unwrap();
        assert_eq!(
            stop,
            Stop::Breakpoint {
                index: 0,
                core: 0,
                pc: 2
            }
        );
        // r2 written, r3 not yet.
        let core = dbg.core_regs(0).unwrap();
        assert_eq!(core.reg(mpsoc_platform::isa::Reg::new(2)), 2);
        assert_eq!(core.reg(mpsoc_platform::isa::Reg::new(3)), 0);
        // Resume to completion.
        assert_eq!(dbg.run(100).unwrap(), Stop::Finished);
        assert_eq!(
            dbg.core_regs(0)
                .unwrap()
                .reg(mpsoc_platform::isa::Reg::new(3)),
            3
        );
    }

    #[test]
    fn write_watchpoint_catches_store() {
        let mut dbg = Debugger::new(platform());
        let prog = assemble("movi r1, 0x50\nmovi r2, 99\nst r2, r1, 0\nhalt").unwrap();
        dbg.platform_mut().load_program(0, prog, 0).unwrap();
        dbg.add_watchpoint(Watchpoint::Access {
            lo: 0x50,
            hi: 0x50,
            kind: Some(AccessKind::Write),
            origin: OriginFilter::Any,
        });
        match dbg.run(100).unwrap() {
            Stop::Watchpoint {
                index: 0,
                access: Some(a),
            } => {
                assert_eq!(a.addr, 0x50);
                assert_eq!(a.value, 99);
            }
            other => panic!("unexpected stop {other:?}"),
        }
    }

    #[test]
    fn origin_filter_selects_core() {
        let mut dbg = Debugger::new(platform());
        let store =
            |v: i64| assemble(&format!("movi r1, 0x60\nmovi r2, {v}\nst r2, r1, 0\nhalt")).unwrap();
        dbg.platform_mut().load_program(0, store(1), 0).unwrap();
        dbg.platform_mut().load_program(1, store(2), 0).unwrap();
        dbg.add_watchpoint(Watchpoint::Access {
            lo: 0x60,
            hi: 0x60,
            kind: Some(AccessKind::Write),
            origin: OriginFilter::Core(1),
        });
        match dbg.run(100).unwrap() {
            Stop::Watchpoint {
                access: Some(a), ..
            } => {
                assert_eq!(a.originator, Originator::Core(1));
                assert_eq!(a.value, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn signal_watchpoint_fires_on_timer_tick() {
        let mut p = platform();
        let page = p.add_timer("timer0");
        let ctrl = periph_addr(page, timer_reg::CTRL);
        let period = periph_addr(page, timer_reg::PERIOD);
        let prog = assemble(&format!(
            "movi r1, {period}\nmovi r2, 100\nst r2, r1, 0\n\
             movi r1, {ctrl}\nmovi r2, 1\nst r2, r1, 0\n\
             spin: jmp spin"
        ))
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        let mut dbg = Debugger::new(p);
        dbg.add_watchpoint(Watchpoint::Signal {
            name: "timer0.tick".into(),
            value: None,
        });
        match dbg.run(10_000).unwrap() {
            Stop::Watchpoint {
                index: 0,
                access: None,
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(dbg.signal("timer0.tick"), 1);
    }

    /// A platform whose core 0 spins forever, for tests that drive signals
    /// from outside.
    fn spinning() -> Debugger {
        let mut dbg = Debugger::new(platform());
        let prog = assemble("spin: addi r1, r1, 1\njmp spin").unwrap();
        dbg.platform_mut().load_program(0, prog, 0).unwrap();
        dbg
    }

    fn signal_watch(dbg: &mut Debugger, name: &str) -> usize {
        dbg.add_watchpoint(Watchpoint::Signal {
            name: name.into(),
            value: None,
        })
    }

    #[test]
    fn by_hand_restore_onto_the_same_edge_count_still_fires() {
        // Two timelines with one edge each: "x" went to 1 in the image, to 2
        // in the live session. The edge counter reads the same on both.
        let mut donor = spinning();
        donor.inject_signal_write("x", 1).unwrap();
        let image = donor.platform_mut().capture().unwrap();

        let mut dbg = spinning();
        dbg.inject_signal_write("x", 2).unwrap();
        assert_eq!(dbg.step().unwrap(), None); // bookkeeping now holds x = 2
        let seq = dbg.trace_stats().next_seq;
        dbg.platform_mut().restore_image(&image).unwrap();
        assert_eq!(dbg.trace_stats().next_seq, seq, "same edge count");
        assert_eq!(dbg.signal("x"), 1, "different value");
        let wp = signal_watch(&mut dbg, "x");
        assert_eq!(
            dbg.step().unwrap(),
            Some(Stop::Watchpoint {
                index: wp,
                access: None
            }),
            "the restore changed x behind the debugger's back"
        );
        assert_eq!(dbg.step().unwrap(), None, "reported once");
    }

    #[test]
    fn edge_in_a_step_that_stops_early_is_reported_by_the_next() {
        // The breakpoint step returns before the signal-edge bookkeeping,
        // so an edge that lands in it surfaces one step late — including for
        // a watchpoint added while stopped there.
        let mut dbg = spinning();
        dbg.add_breakpoint(0, 0); // the jmp's target: hit by every 2nd step
        assert_eq!(dbg.step().unwrap(), None);
        dbg.inject_signal_write("x", 7).unwrap();
        assert!(matches!(
            dbg.step().unwrap(),
            Some(Stop::Breakpoint { index: 0, .. })
        ));
        let wp = signal_watch(&mut dbg, "x");
        assert_eq!(
            dbg.step().unwrap(),
            Some(Stop::Watchpoint {
                index: wp,
                access: None
            })
        );
        assert!(
            matches!(dbg.step().unwrap(), Some(Stop::Breakpoint { .. })),
            "the edge is reported once"
        );
    }

    #[test]
    fn bookkeeping_survives_an_evicted_signal_ring() {
        // With no room in the platform's signal-trace ring the debugger
        // cannot ask which signals changed and falls back to all of them.
        let mut dbg = spinning();
        dbg.platform_mut().set_trace_budget(0);
        let wp = signal_watch(&mut dbg, "x");
        assert_eq!(dbg.step().unwrap(), None);
        dbg.inject_signal_write("y", 1).unwrap();
        assert_eq!(dbg.step().unwrap(), None, "y is not watched");
        dbg.inject_signal_write("x", 1).unwrap();
        assert_eq!(
            dbg.step().unwrap(),
            Some(Stop::Watchpoint {
                index: wp,
                access: None
            })
        );
        assert_eq!(dbg.step().unwrap(), None);
    }

    #[test]
    fn suspension_is_invisible_to_software() {
        // Run the same program straight vs. with 1000 suspend/resume pauses
        // (a pause is simply not stepping): final state must be identical.
        let run = |pauses: bool| {
            let mut dbg = Debugger::new(platform());
            let prog = assemble(
                "movi r1, 0\nmovi r3, 500\nloop: addi r1, r1, 1\nblt r1, r3, loop\n\
                 movi r2, 0x70\nst r1, r2, 0\nhalt",
            )
            .unwrap();
            dbg.platform_mut().load_program(0, prog, 0).unwrap();
            loop {
                match dbg.step().unwrap() {
                    Some(Stop::Finished) => break,
                    Some(other) => panic!("unexpected {other:?}"),
                    None => {
                        if pauses {
                            // a suspension: arbitrary host-time delay,
                            // nothing stepped.
                        }
                    }
                }
            }
            (dbg.read_mem(0x70).unwrap(), dbg.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn intrusive_halt_perturbs_timing() {
        let prog_src = "movi r1, 0\nmovi r3, 100\nloop: addi r1, r1, 1\nblt r1, r3, loop\nhalt";
        let straight = {
            let mut dbg = Debugger::new(platform());
            dbg.platform_mut()
                .load_program(0, assemble(prog_src).unwrap(), 0)
                .unwrap();
            dbg.run(10_000).unwrap();
            dbg.now()
        };
        let halted = {
            let mut dbg = Debugger::new(platform());
            dbg.platform_mut()
                .load_program(0, assemble(prog_src).unwrap(), 0)
                .unwrap();
            // Keep a second core busy so time advances while core 0 is
            // halted by the intrusive debugger.
            dbg.platform_mut()
                .load_program(
                    1,
                    assemble("movi r1, 0\nmovi r3, 2000\nl: addi r1, r1, 1\nblt r1, r3, l\nhalt")
                        .unwrap(),
                    0,
                )
                .unwrap();
            for _ in 0..50 {
                dbg.step().unwrap();
            }
            dbg.halt_core(0).unwrap();
            for _ in 0..500 {
                dbg.step().unwrap();
            }
            dbg.resume_core(0).unwrap();
            dbg.run(100_000).unwrap();
            dbg.now()
        };
        assert!(halted > straight, "intrusive halt must delay core 0");
    }

    #[test]
    fn dma_writes_caught_by_origin_filter() {
        // Section VII verbatim: "Peripheral access watchpoints allow
        // suspending execution when a specific core or DMA is writing to a
        // shared resource."
        let mut p = platform();
        let page = p.add_dma("dma0");
        p.load_shared(100, &[7, 8, 9]).unwrap();
        use mpsoc_platform::mem::periph_addr;
        use mpsoc_platform::periph::dma_reg;
        let prog = assemble(&format!(
            "movi r1, {}\nmovi r2, 100\nst r2, r1, 0\n\
             movi r1, {}\nmovi r2, 300\nst r2, r1, 0\n\
             movi r1, {}\nmovi r2, 3\nst r2, r1, 0\n\
             movi r1, {}\nmovi r2, 1\nst r2, r1, 0\n\
             halt",
            periph_addr(page, dma_reg::SRC),
            periph_addr(page, dma_reg::DST),
            periph_addr(page, dma_reg::LEN),
            periph_addr(page, dma_reg::CTRL),
        ))
        .unwrap();
        let mut dbg = Debugger::new(p);
        dbg.platform_mut().load_program(0, prog, 0).unwrap();
        dbg.add_watchpoint(Watchpoint::Access {
            lo: 300,
            hi: 302,
            kind: Some(AccessKind::Write),
            origin: OriginFilter::Dma(page),
        });
        match dbg.run(100_000).unwrap() {
            Stop::Watchpoint {
                access: Some(a), ..
            } => {
                assert_eq!(a.originator, Originator::Dma(page));
                assert_eq!(a.addr, 300);
                assert_eq!(a.value, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn earliest_access_wins_over_watchpoint_index() {
        // One DMA word copy performs a read from src then a write to dst in
        // the same step. With a *write* watchpoint registered first (index
        // 0, on dst) and a *read* watchpoint second (index 1, on src), the
        // stop must report the read: it is the temporally first faulting
        // access, regardless of watchpoint registration order.
        let mut p = platform();
        let page = p.add_dma("dma0");
        p.load_shared(100, &[7]).unwrap();
        use mpsoc_platform::mem::periph_addr;
        use mpsoc_platform::periph::dma_reg;
        let prog = assemble(&format!(
            "movi r1, {}\nmovi r2, 100\nst r2, r1, 0\n\
             movi r1, {}\nmovi r2, 300\nst r2, r1, 0\n\
             movi r1, {}\nmovi r2, 1\nst r2, r1, 0\n\
             movi r1, {}\nmovi r2, 1\nst r2, r1, 0\n\
             halt",
            periph_addr(page, dma_reg::SRC),
            periph_addr(page, dma_reg::DST),
            periph_addr(page, dma_reg::LEN),
            periph_addr(page, dma_reg::CTRL),
        ))
        .unwrap();
        let mut dbg = Debugger::new(p);
        dbg.platform_mut().load_program(0, prog, 0).unwrap();
        dbg.add_watchpoint(Watchpoint::Access {
            lo: 300,
            hi: 300,
            kind: Some(AccessKind::Write),
            origin: OriginFilter::Any,
        });
        dbg.add_watchpoint(Watchpoint::Access {
            lo: 100,
            hi: 100,
            kind: Some(AccessKind::Read),
            origin: OriginFilter::Dma(page),
        });
        match dbg.run(100_000).unwrap() {
            Stop::Watchpoint {
                index,
                access: Some(a),
            } => {
                assert_eq!(index, 1, "the read watchpoint fired");
                assert_eq!(a.kind, AccessKind::Read);
                assert_eq!(a.addr, 100, "faulting address is the read's");
                assert_eq!(a.value, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fault_reported_as_stop() {
        let mut dbg = Debugger::new(platform());
        let prog = assemble("movi r1, 1\nmovi r2, 0\ndiv r3, r1, r2\nhalt").unwrap();
        dbg.platform_mut().load_program(0, prog, 0).unwrap();
        match dbg.run(100).unwrap() {
            Stop::Fault(msg) => assert!(msg.contains("divided by zero")),
            other => panic!("unexpected {other:?}"),
        }
    }
}
