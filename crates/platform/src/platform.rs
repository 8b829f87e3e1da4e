//! The MPSoC platform: cores + memories + interconnect + peripherals under a
//! deterministic discrete-event simulation loop.
//!
//! The platform is *functionally accurate and cycle-approximate*: it executes
//! real [`Program`]s on the homogeneous ISA and charges realistic latencies
//! (pipeline base cost, cache hit/miss, interconnect contention, peripheral
//! round trips), the modelling level Section VII attributes to virtual
//! platforms that *"execute exactly the same binary software that the real
//! hardware executes"*.
//!
//! Determinism is load-bearing: [`Platform::step`] has no hidden state and
//! consumes no entropy, so a given configuration and program always yields
//! the identical interleaving. Stopping between steps and resuming is
//! invisible to the simulated software — the non-intrusive *"synchronous
//! system suspension"* the paper contrasts with intrusive JTAG debugging.

use crate::cache::{Cache, CacheOutcome};
use crate::core::{Core, CoreStatus};
use crate::error::{Error, Result};
use crate::interconnect::{Bus, Interconnect, Mesh};
use crate::isa::{Instr, Program, Reg, Word};
use crate::mem::{decode, Ram, Region, LOCAL_BASE, LOCAL_STRIDE};
use crate::periph::{Dma, Effect, Mailbox, Periph, Semaphore, Timer};
use crate::signal::{SignalBoard, TraceMode, TraceSpill, TraceStats};
use crate::time::{Cycles, Frequency, Time};
use mpsoc_obs::event::{Event, EventSink};
use mpsoc_obs::metrics::{Counter, Gauge, MetricsRegistry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cached handles into a [`MetricsRegistry`] for the platform's hot-path
/// counters, so the per-step cost of metrics is an atomic add, not a name
/// lookup. Created by [`Platform::attach_metrics`].
#[derive(Clone, Debug)]
pub(crate) struct PlatformMetrics {
    instr_retired: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    noc_transfers: Counter,
    dma_words: Counter,
    irq_delivered: Counter,
    periph_events: Counter,
    trace_ring_bytes: Gauge,
    trace_spilled: Gauge,
    trace_evicted: Gauge,
    /// What the three `trace.*` gauges currently hold, as
    /// `(ring_bytes, spilled, evicted)`.
    trace_published: Option<(u64, u64, u64)>,
}

impl PlatformMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        PlatformMetrics {
            instr_retired: registry.counter("platform.instr_retired"),
            cache_hits: registry.counter("platform.cache_hits"),
            cache_misses: registry.counter("platform.cache_misses"),
            noc_transfers: registry.counter("platform.noc_transfers"),
            dma_words: registry.counter("platform.dma_words"),
            irq_delivered: registry.counter("platform.irq_delivered"),
            periph_events: registry.counter("platform.periph_events"),
            trace_ring_bytes: registry.gauge("trace.ring_bytes"),
            trace_spilled: registry.gauge("trace.spilled"),
            trace_evicted: registry.gauge("trace.evicted"),
            trace_published: None,
        }
    }

    /// Pushes the signal-trace store's occupancy and counters onto the
    /// `trace.*` gauges — the same numbers the gdbrsp `trace-stats`
    /// monitor command reports. Called after every step, but the gauges
    /// (a store and a `fetch_max` each) are only written when a number
    /// moved: an edge was driven, a record evicted, a restore truncated the
    /// ring. Re-setting a gauge to what it holds changes neither its value
    /// nor its high-water mark.
    fn publish_trace(&mut self, stats: &TraceStats) {
        let now = (stats.ring_bytes as u64, stats.spilled, stats.evicted);
        if self.trace_published != Some(now) {
            self.trace_published = Some(now);
            self.trace_ring_bytes.set(now.0);
            self.trace_spilled.set(now.1);
            self.trace_evicted.set(now.2);
        }
    }
}

/// Who performed a memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Originator {
    /// A processor core.
    Core(usize),
    /// A DMA engine, identified by its peripheral page.
    Dma(usize),
}

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One observed memory or peripheral access — the raw material for
/// Section VII's access watchpoints and trace history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Initiator of the access.
    pub originator: Originator,
    /// Load or store.
    pub kind: AccessKind,
    /// Word address.
    pub addr: u32,
    /// Value read or written.
    pub value: Word,
    /// Completion time of the access.
    pub at: Time,
}

/// What a single simulation step did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// A core executed one instruction.
    Instr {
        /// The executing core.
        core: usize,
        /// Program counter of the executed instruction.
        pc: u32,
        /// The instruction.
        instr: Instr,
        /// Interrupt taken *instead of* the fetch, if any.
        irq_taken: Option<u32>,
    },
    /// A peripheral's internal event (e.g. timer expiry) ran.
    PeriphEvent {
        /// Peripheral page.
        page: usize,
    },
    /// A DMA transfer completed.
    DmaComplete {
        /// DMA peripheral page.
        page: usize,
    },
    /// Nothing can run: all cores halted/sleeping and no events pending.
    Idle,
}

/// The result of one [`Platform::step`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepEvent {
    /// Completion time of the step.
    pub at: Time,
    /// What happened.
    pub kind: StepKind,
    /// Memory/peripheral accesses performed during the step.
    pub accesses: Vec<Access>,
}

impl StepEvent {
    /// Whether this event indicates the platform has nothing left to do.
    pub fn is_idle(&self) -> bool {
        matches!(self.kind, StepKind::Idle)
    }
}

/// Cache geometry for per-core L1s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub assoc: u32,
    /// Words per line (power of two).
    pub line_words: u32,
    /// Cycles charged for a hit.
    pub hit_cycles: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            sets: 64,
            assoc: 2,
            line_words: 8,
            hit_cycles: 1,
        }
    }
}

/// Interconnect topology selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterconnectConfig {
    /// One shared bus: `latency` end-to-end, `occupancy` serialization per
    /// transfer.
    Bus {
        /// End-to-end latency of an uncontended transfer.
        latency: Time,
        /// Bus occupancy per transfer (arbitration bottleneck).
        occupancy: Time,
    },
    /// A `w × h` mesh with XY routing. Cores map to nodes in index order;
    /// the shared-memory controller sits at the last node.
    Mesh {
        /// Mesh width.
        w: usize,
        /// Mesh height.
        h: usize,
        /// Per-hop latency.
        hop_latency: Time,
        /// Per-link occupancy.
        link_occupancy: Time,
    },
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        InterconnectConfig::Bus {
            latency: Time::from_ns(50),
            occupancy: Time::from_ns(10),
        }
    }
}

/// Which scheduler implementation picks the next actor each step.
///
/// Both produce bit-identical simulations — the linear scan is kept as the
/// executable specification of the tie-break order (cores before
/// peripherals before DMA, lower ids first) and serves as the oracle in the
/// scheduler-equivalence tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Cores are scanned, events are heaped: the earliest running core is
    /// found by reading every core's status and ready time in id order
    /// (a step changes them in place, so there is nothing to keep in
    /// sync); peripheral events and DMA completions — many actors, few of
    /// them due — sit in a binary heap with lazy invalidation, keyed by
    /// per-page generation counters.
    #[default]
    Calendar,
    /// The original O(cores + peripherals + DMA) scan over all actors.
    ScanReference,
}

// Event classes in calendar keys; their numeric order *is* the documented
// tie-break order at equal times.
const CLASS_PERIPH: u8 = 0;
const CLASS_DMA: u8 = 1;

/// One heap entry: ordered by `(at, class, id)` so popping the minimum
/// reproduces exactly the linear scan's "earliest time, peripherals before
/// DMA, lower ids first" decision among events. `gen` identifies the
/// calendar generation that pushed the entry; entries from older
/// generations are stale and skipped on pop (lazy invalidation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct CalKey {
    at: Time,
    class: u8,
    id: u64,
    gen: u64,
}

/// The event calendar: a min-heap of the times at which peripheral events
/// and DMA completions are due, plus the bookkeeping for lazy invalidation.
/// Cores are not in it — [`Platform::calendar_peek`] scans them.
///
/// Instead of removing an entry when a peripheral's state changes (which a
/// binary heap cannot do cheaply), the page is marked *dirty*; before the
/// next scheduling decision every dirty page gets its generation counter
/// bumped (invalidating all of its existing entries) and one fresh entry
/// pushed. Stale entries surface at the heap top eventually and are popped
/// without effect.
#[derive(Debug, Default)]
pub(crate) struct Calendar {
    heap: BinaryHeap<Reverse<CalKey>>,
    periph_gen: Vec<u64>,
    periph_dirty: Vec<bool>,
    dirty_periphs: Vec<u32>,
}

impl Calendar {
    /// Marks peripheral `page` stale, growing the per-page bookkeeping on
    /// first sight of a new page.
    fn mark_periph(&mut self, page: usize) {
        if page >= self.periph_gen.len() {
            self.periph_gen.resize(page + 1, 0);
            self.periph_dirty.resize(page + 1, false);
        }
        if !self.periph_dirty[page] {
            self.periph_dirty[page] = true;
            self.dirty_periphs.push(page as u32);
        }
    }
}

/// Builder for a [`Platform`].
///
/// # Examples
///
/// ```
/// use mpsoc_platform::platform::PlatformBuilder;
/// use mpsoc_platform::time::Frequency;
///
/// let mut p = PlatformBuilder::new()
///     .cores(4, Frequency::mhz(200))
///     .shared_words(4096)
///     .build()
///     .unwrap();
/// assert_eq!(p.num_cores(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct PlatformBuilder {
    core_freqs: Vec<Frequency>,
    shared_words: u32,
    local_words: u32,
    cache: Option<CacheConfig>,
    interconnect: InterconnectConfig,
    local_latency_cycles: u64,
    scheduler: SchedulerMode,
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        PlatformBuilder {
            core_freqs: vec![Frequency::default(); 2],
            shared_words: 64 * 1024,
            local_words: 16 * 1024,
            cache: Some(CacheConfig::default()),
            interconnect: InterconnectConfig::default(),
            local_latency_cycles: 2,
            scheduler: SchedulerMode::default(),
        }
    }
}

impl PlatformBuilder {
    /// Starts from the default 2-core, bus-based configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `n` cores, all clocked at `freq`.
    pub fn cores(mut self, n: usize, freq: Frequency) -> Self {
        self.core_freqs = vec![freq; n];
        self
    }

    /// Sets cores with individual frequencies.
    pub fn cores_with_freqs(mut self, freqs: Vec<Frequency>) -> Self {
        self.core_freqs = freqs;
        self
    }

    /// Sets the shared RAM size in words.
    pub fn shared_words(mut self, words: u32) -> Self {
        self.shared_words = words;
        self
    }

    /// Sets each core's local-store size in words.
    pub fn local_words(mut self, words: u32) -> Self {
        self.local_words = words;
        self
    }

    /// Configures per-core L1 caches (`None` disables caching).
    pub fn cache(mut self, cfg: Option<CacheConfig>) -> Self {
        self.cache = cfg;
        self
    }

    /// Selects the interconnect topology.
    pub fn interconnect(mut self, cfg: InterconnectConfig) -> Self {
        self.interconnect = cfg;
        self
    }

    /// Selects the scheduler implementation (defaults to
    /// [`SchedulerMode::Calendar`]; both modes simulate identically).
    pub fn scheduler(mut self, mode: SchedulerMode) -> Self {
        self.scheduler = mode;
        self
    }

    /// Builds the platform.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for zero cores, oversized local stores, an
    /// undersized mesh, zero shared memory, or a cache geometry the
    /// bit-sliced indexing cannot serve — each error names the offending
    /// component and the value that broke it.
    pub fn build(self) -> Result<Platform> {
        if self.core_freqs.is_empty() {
            return Err(Error::Config("platform needs at least one core".into()));
        }
        if self.shared_words == 0 {
            return Err(Error::Config("shared memory must be non-empty".into()));
        }
        if self.shared_words > LOCAL_BASE {
            return Err(Error::Config(format!(
                "shared memory of {} words overlaps the local-store window at {LOCAL_BASE:#x}",
                self.shared_words
            )));
        }
        if self.local_words > LOCAL_STRIDE {
            return Err(Error::Config(format!(
                "local store of {} words exceeds the {} word window",
                self.local_words, LOCAL_STRIDE
            )));
        }
        if let Some(c) = self.cache {
            // `Cache::new` would panic on these; reject them as named
            // configuration errors instead.
            if c.sets == 0 || c.assoc == 0 || c.line_words == 0 {
                return Err(Error::Config(format!(
                    "cache geometry {} sets x {} ways x {} line words: every \
                     dimension must be non-zero",
                    c.sets, c.assoc, c.line_words
                )));
            }
            if !c.sets.is_power_of_two() {
                return Err(Error::Config(format!(
                    "cache with {} sets: set count must be a power of two",
                    c.sets
                )));
            }
            if !c.line_words.is_power_of_two() {
                return Err(Error::Config(format!(
                    "cache line of {} words: line size must be a power of two",
                    c.line_words
                )));
            }
        }
        let n = self.core_freqs.len();
        let interconnect = match self.interconnect {
            InterconnectConfig::Bus { latency, occupancy } => {
                Interconnect::Bus(Bus::new(latency, occupancy))
            }
            InterconnectConfig::Mesh {
                w,
                h,
                hop_latency,
                link_occupancy,
            } => {
                if w * h < n + 1 {
                    return Err(Error::Config(format!(
                        "{w}x{h} mesh too small for {n} cores + memory controller"
                    )));
                }
                Interconnect::Mesh(Mesh::new(w, h, hop_latency, link_occupancy))
            }
        };
        Ok(Platform {
            now: Time::ZERO,
            cores: self
                .core_freqs
                .iter()
                .enumerate()
                .map(|(i, &f)| Core::new(i, f))
                .collect(),
            shared: Ram::new(self.shared_words),
            locals: (0..n).map(|_| Ram::new(self.local_words)).collect(),
            caches: (0..n)
                .map(|_| {
                    self.cache
                        .map(|c| Cache::new(c.sets, c.assoc, c.line_words))
                })
                .collect(),
            cache_hit_cycles: self.cache.map_or(1, |c| c.hit_cycles),
            interconnect,
            periphs: Vec::new(),
            signals: SignalBoard::new(),
            pending_dma: Vec::new(),
            local_latency_cycles: self.local_latency_cycles,
            shared_words: self.shared_words,
            steps: 0,
            metrics: None,
            scheduler: self.scheduler,
            calendar: Calendar::default(),
            dma_seq: 0,
            event: StepEvent {
                at: Time::ZERO,
                kind: StepKind::Idle,
                accesses: Vec::new(),
            },
            base_mark: None,
            base_rams: Vec::new(),
            restore_scratch: None,
            restore_slot: None,
            parked: None,
        })
    }
}

#[derive(Clone, Debug)]
pub(crate) struct PendingDma {
    pub(crate) finish: Time,
    pub(crate) page: usize,
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) len: u32,
    /// Monotonic schedule order; doubles as the calendar id. Because
    /// transfers enter `pending_dma` in `seq` order and are removed on
    /// completion, ordering by `seq` equals the old ordering by vector
    /// index.
    pub(crate) seq: u64,
}

/// A complete simulated MPSoC.
///
/// Built by [`PlatformBuilder`]; driven by [`step`](Platform::step) or the
/// `run_*` helpers; inspected non-intrusively through the accessor methods
/// (every one of them takes `&self` or is side-effect free on simulated
/// state).
#[derive(Debug)]
pub struct Platform {
    // Fields are `pub(crate)` so the sibling `snapshot` module can capture
    // and restore whole-platform state without widening the public API.
    pub(crate) now: Time,
    pub(crate) cores: Vec<Core>,
    pub(crate) shared: Ram,
    pub(crate) locals: Vec<Ram>,
    pub(crate) caches: Vec<Option<Cache>>,
    pub(crate) cache_hit_cycles: u64,
    pub(crate) interconnect: Interconnect,
    pub(crate) periphs: Vec<Periph>,
    pub(crate) signals: SignalBoard,
    pub(crate) pending_dma: Vec<PendingDma>,
    pub(crate) local_latency_cycles: u64,
    pub(crate) shared_words: u32,
    pub(crate) steps: u64,
    pub(crate) metrics: Option<PlatformMetrics>,
    pub(crate) scheduler: SchedulerMode,
    pub(crate) calendar: Calendar,
    /// Next DMA schedule sequence number (see [`PendingDma::seq`]).
    pub(crate) dma_seq: u64,
    /// What the last step did, written in place by the step itself: host-side
    /// scratch, never captured, hashed or restored. Its `accesses` buffer is
    /// reused from step to step ([`step`](Platform::step) moves it out,
    /// [`recycle`](Platform::recycle) moves it back).
    pub(crate) event: StepEvent,
    /// Payload checksum of the base image the RAM dirty bitmaps are
    /// relative to (set by `capture`/`restore_image`, `None` before the
    /// first capture). `restore_delta` uses it to prove its in-place RAM
    /// fast path is rolling back from the right baseline.
    pub(crate) base_mark: Option<u64>,
    /// The base image's RAM words, shared RAM first and then each local
    /// store — the XOR baseline for delta pages. Empty before the first
    /// capture.
    pub(crate) base_rams: Vec<Vec<crate::isa::Word>>,
    /// The cores, caches, peripherals, … the last restore replaced: the
    /// next restore decodes into their buffers (see the `snapshot` module).
    /// `None` until the first restore; boxed so a platform that never
    /// restores carries one pointer.
    pub(crate) restore_scratch: Option<Box<crate::snapshot::SmallState>>,
    /// The decoded form of the image the last `restore_delta` or
    /// `reset_to_base` installed, which a restore of the same bytes
    /// reinstalls without decoding them (see the `snapshot` module). `None`
    /// until the first such restore; boxed like `restore_scratch`.
    pub(crate) restore_slot: Option<Box<crate::snapshot::Remembered>>,
    /// The simulated state [`swap_parked`](Platform::swap_parked) exchanges
    /// with the live one (see the `snapshot` module). `None` until the
    /// first swap; boxed like `restore_scratch`.
    pub(crate) parked: Option<Box<crate::snapshot::Parked>>,
}

impl Platform {
    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total steps executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Attaches `registry` to the platform: from now on the hot paths bump
    /// the `platform.*` counters (instructions retired, cache hits/misses,
    /// interconnect transfers, DMA words, IRQs delivered, peripheral
    /// events). Handles are resolved once here, so the steady-state cost is
    /// one relaxed atomic add per counted event.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        let mut m = PlatformMetrics::new(registry);
        m.publish_trace(&self.signals.trace_stats());
        self.metrics = Some(m);
    }

    /// Detaches a previously attached metrics registry.
    pub fn detach_metrics(&mut self) {
        self.metrics = None;
    }

    /// Immutable access to core `id`.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchCore`] if `id` is out of range.
    pub fn core(&self, id: usize) -> Result<&Core> {
        self.cores.get(id).ok_or(Error::NoSuchCore(id))
    }

    /// Mutable access to core `id` (program loading, DVFS, debug halt).
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchCore`] if `id` is out of range.
    pub fn core_mut(&mut self, id: usize) -> Result<&mut Core> {
        self.cores.get_mut(id).ok_or(Error::NoSuchCore(id))
    }

    /// Loads `program` onto core `id`, starting at instruction `entry` at
    /// the current simulation time.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchCore`] if `id` is out of range.
    pub fn load_program(&mut self, id: usize, program: Program, entry: u32) -> Result<()> {
        let now = self.now;
        self.core_mut(id)?.load_program(program, entry, now);
        Ok(())
    }

    /// The signal board (for debuggers and trace tools).
    pub fn signals(&self) -> &SignalBoard {
        &self.signals
    }

    /// Occupancy and counters of the signal-trace store (the bounded ring
    /// plus spill tier — see [`crate::signal`]). The same numbers surface
    /// on the `trace.ring_bytes` / `trace.spilled` / `trace.evicted`
    /// gauges when a metrics registry is attached.
    pub fn trace_stats(&self) -> TraceStats {
        self.signals.trace_stats()
    }

    /// Switches the signal-trace retention policy. Host-side observability
    /// configuration, not simulated state: it survives checkpoint restores
    /// and never perturbs the simulation.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.signals.set_trace_mode(mode);
    }

    /// Bounds the signal-trace ring to `budget_bytes`, evicting down
    /// immediately if it is currently larger.
    pub fn set_trace_budget(&mut self, budget_bytes: usize) {
        self.signals.set_trace_budget(budget_bytes);
    }

    /// Attaches the spill sink that streams records evicted from the trace
    /// ring (e.g. an [`crate::signal::EventSinkSpill`] over an `mpsoc-obs`
    /// ring or Chrome-trace exporter); returns the previous sink.
    pub fn attach_trace_spill(&mut self, sink: Box<dyn TraceSpill>) -> Option<Box<dyn TraceSpill>> {
        self.signals.attach_trace_spill(sink)
    }

    /// Puts `p` on the next free page; returns the page index (its
    /// registers appear at [`crate::mem::periph_addr`]`(page, ..)`).
    fn add_peripheral(&mut self, p: Periph) -> usize {
        self.periphs.push(p);
        let page = self.periphs.len() - 1;
        self.calendar.mark_periph(page);
        page
    }

    /// Adds a [`Timer`] named `name`; returns its page.
    pub fn add_timer(&mut self, name: &str) -> usize {
        self.add_peripheral(Periph::Timer(Timer::new(name)))
    }

    /// Adds a [`Mailbox`] named `name` with `capacity` words; returns its page.
    pub fn add_mailbox(&mut self, name: &str, capacity: usize) -> usize {
        self.add_peripheral(Periph::Mailbox(Mailbox::new(name, capacity)))
    }

    /// Adds a [`Semaphore`] named `name` with initial `count`; returns its page.
    pub fn add_semaphore(&mut self, name: &str, count: u64) -> usize {
        self.add_peripheral(Periph::Semaphore(Semaphore::new(name, count)))
    }

    /// Adds a [`Dma`] engine named `name`; returns its page.
    pub fn add_dma(&mut self, name: &str) -> usize {
        let page = self.periphs.len();
        self.add_peripheral(Periph::Dma(Dma::new(name, page)))
    }

    /// Debugger register dump of peripheral `page` without side effects.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] if the page is unoccupied.
    pub fn peripheral_snapshot(&self, page: usize) -> Result<Vec<(u32, Word)>> {
        self.periphs
            .get(page)
            .map(|p| p.snapshot())
            .ok_or_else(|| Error::NotFound(format!("peripheral page {page}")))
    }

    /// The name of peripheral `page`, if occupied.
    pub fn peripheral_name(&self, page: usize) -> Option<&str> {
        self.periphs.get(page).map(|p| p.name())
    }

    /// Reads a word for the debugger, bypassing timing, caches, and
    /// peripheral side effects (peripheral pages are **not** readable this
    /// way precisely because reads may perturb them — use
    /// [`peripheral_snapshot`](Platform::peripheral_snapshot)).
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedAddress`] outside RAM windows.
    pub fn debug_read(&self, addr: u32) -> Result<Word> {
        match decode(addr, self.shared_words, self.cores.len())? {
            Region::Shared(o) => self.shared.read(o),
            Region::Local { owner, offset } => self.locals[owner].read(offset),
            Region::Periph { .. } => Err(Error::UnmappedAddress { addr }),
        }
    }

    /// Writes a word as the debugger (no timing, no cache effects).
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedAddress`] outside RAM windows.
    pub fn debug_write(&mut self, addr: u32, value: Word) -> Result<()> {
        match decode(addr, self.shared_words, self.cores.len())? {
            Region::Shared(o) => self.shared.write(o, value),
            Region::Local { owner, offset } => self.locals[owner].write(offset, value),
            Region::Periph { .. } => Err(Error::UnmappedAddress { addr }),
        }
    }

    /// Bulk-loads words into shared memory (test/DMA fixture helper).
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedAddress`] if the data does not fit.
    pub fn load_shared(&mut self, addr: u32, data: &[Word]) -> Result<()> {
        self.shared.load(addr, data)
    }

    /// Writes peripheral register `offset` of page `page` as an external
    /// stimulus: untimed (no interconnect transfer, no cycle cost) but with
    /// full functional side effects — signals are driven, IRQs raised, DMA
    /// kicked. The stimulus record/replay layer uses this so that a replayed
    /// mailbox push perturbs the platform exactly like the original.
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedAddress`] for a nonexistent page, or whatever the
    /// device rejects.
    pub fn debug_periph_write(&mut self, page: usize, offset: u32, value: Word) -> Result<()> {
        let addr = crate::mem::periph_addr(page, offset);
        self.periph_access(page, addr, self.now, |p, now, signals| {
            Ok(((), p.write(offset, value, now, signals)?))
        })
    }

    /// Posts interrupt `irq` to core `core` as an external stimulus, at the
    /// current simulation time.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchCore`] if `core` does not exist.
    pub fn debug_post_irq(&mut self, core: usize, irq: u32) -> Result<()> {
        let now = self.now;
        self.core_mut(core)?.post_irq(irq, now);
        Ok(())
    }

    /// Drives named signal `name` to `value` at the current simulation
    /// time, as an external stimulus. Creates the signal if absent.
    pub fn debug_drive_signal(&mut self, name: &str, value: Word) {
        let now = self.now;
        self.signals.drive(name, now, value);
    }

    /// Cache statistics of core `id` as `(hits, misses)`, if it has a cache.
    pub fn cache_stats(&self, id: usize) -> Option<(u64, u64)> {
        self.caches
            .get(id)
            .and_then(|c| c.as_ref())
            .map(|c| (c.hits(), c.misses()))
    }

    /// Total interconnect transfers and accumulated contention.
    pub fn interconnect_stats(&self) -> (u64, Time) {
        (
            self.interconnect.transfers(),
            self.interconnect.total_contention(),
        )
    }

    /// Whether every core is halted or faulted and no events are pending.
    pub fn is_finished(&self) -> bool {
        self.next_actor_scan().is_none()
    }

    /// Discards the entire event calendar and rebuilds it from the current
    /// actor state: every peripheral page is marked dirty (the next refresh
    /// re-examines it) and every in-flight DMA completion is re-pushed at
    /// its original finish time. Used by the `snapshot` module after a
    /// restore, because the calendar is derived state that is never
    /// serialized. The heap and the per-page vectors are emptied, not
    /// replaced, so a restore reuses their buffers.
    pub(crate) fn rebuild_calendar(&mut self) {
        let Calendar {
            heap,
            periph_gen,
            periph_dirty,
            dirty_periphs,
        } = &mut self.calendar;
        heap.clear();
        periph_gen.clear();
        periph_dirty.clear();
        dirty_periphs.clear();
        for page in 0..self.periphs.len() {
            self.calendar.mark_periph(page);
        }
        if self.scheduler == SchedulerMode::Calendar {
            for d in &self.pending_dma {
                // Same invariant as `apply_effect`: scheduled once with a
                // fixed finish time, generation 0, removed only on execution.
                self.calendar.heap.push(Reverse(CalKey {
                    at: d.finish,
                    class: CLASS_DMA,
                    id: d.seq,
                    gen: 0,
                }));
            }
        }
    }

    /// Marks peripheral `page`'s calendar entry stale. Fault injection uses
    /// this after mutating a device behind the scheduler's back.
    pub(crate) fn calendar_mark_periph(&mut self, page: usize) {
        self.calendar.mark_periph(page);
    }

    // -- the scheduler -----------------------------------------------------

    /// The linear-scan reference scheduler: the executable specification of
    /// the tie-break order. `consider` uses a strict `<`, so at equal times
    /// the first actor considered wins — cores before peripherals before
    /// DMA, lower ids first. The calendar reproduces this order exactly.
    fn next_actor_scan(&self) -> Option<(Time, Actor)> {
        let mut best: Option<(Time, Actor)> = None;
        let mut consider = |t: Time, a: Actor| {
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, a));
            }
        };
        for c in &self.cores {
            if c.status() == CoreStatus::Running {
                consider(c.next_ready(), Actor::Core(c.id()));
            }
        }
        for (page, p) in self.periphs.iter().enumerate() {
            if let Some(t) = p.next_event() {
                consider(t, Actor::Periph(page));
            }
        }
        for (i, d) in self.pending_dma.iter().enumerate() {
            consider(d.finish, Actor::Dma(i));
        }
        best
    }

    /// Rebuilds the calendar entry of every dirty peripheral page: bump its
    /// generation (invalidating old entries) and push one fresh entry if the
    /// device has an event pending.
    fn calendar_refresh(&mut self) {
        while let Some(page) = self.calendar.dirty_periphs.pop() {
            let page = page as usize;
            self.calendar.periph_dirty[page] = false;
            self.calendar.periph_gen[page] += 1;
            if let Some(t) = self.periphs.get(page).and_then(|p| p.next_event()) {
                self.calendar.heap.push(Reverse(CalKey {
                    at: t,
                    class: CLASS_PERIPH,
                    id: page as u64,
                    gen: self.calendar.periph_gen[page],
                }));
            }
        }
    }

    /// The earliest pending event: refresh dirty pages, then pop stale heap
    /// entries until the top is valid. A current-generation entry whose
    /// device nonetheless drifted (which would mean a missed dirty mark) is
    /// healed by re-marking and retrying, so the calendar can never act on
    /// a wrong time.
    fn calendar_event(&mut self) -> Option<(Time, Actor)> {
        loop {
            self.calendar_refresh();
            let &Reverse(k) = self.calendar.heap.peek()?;
            if k.class == CLASS_PERIPH {
                let page = k.id as usize;
                if self.calendar.periph_gen[page] == k.gen {
                    if self.periphs.get(page).and_then(|p| p.next_event()) == Some(k.at) {
                        return Some((k.at, Actor::Periph(page)));
                    }
                    self.calendar.heap.pop();
                    self.calendar.mark_periph(page);
                    continue;
                }
            } else if let Some(i) = self.pending_dma.iter().position(|d| d.seq == k.id) {
                // DMA completions are scheduled once with a fixed finish
                // time and removed only on execution, so any entry whose
                // transfer is still pending is valid.
                return Some((k.at, Actor::Dma(i)));
            }
            self.calendar.heap.pop();
        }
    }

    /// Calendar-mode decision: the earliest running core against the
    /// earliest event. The core scan is [`next_actor_scan`]'s — id order,
    /// strict `<`, so the lowest id wins a tie — and a core wins an equal
    /// time against an event (class order). It reads `Core::status` and
    /// `Core::next_ready` as they are now, so nothing that wakes, halts,
    /// stalls or re-clocks a core has to tell the scheduler.
    ///
    /// [`next_actor_scan`]: Platform::next_actor_scan
    fn calendar_peek(&mut self) -> Option<(Time, Actor)> {
        let event = self.calendar_event();
        let mut core: Option<(Time, Actor)> = None;
        for (id, c) in self.cores.iter().enumerate() {
            if c.status() == CoreStatus::Running && core.is_none_or(|(t, _)| c.next_ready() < t) {
                core = Some((c.next_ready(), Actor::Core(id)));
            }
        }
        match (core, event) {
            (Some((ct, _)), Some((et, _))) if et < ct => event,
            _ => core.or(event),
        }
    }

    /// One scheduling decision: what runs next, and when.
    fn peek_decision(&mut self) -> Option<(Time, Actor)> {
        match self.scheduler {
            SchedulerMode::Calendar => self.calendar_peek(),
            SchedulerMode::ScanReference => self.next_actor_scan(),
        }
    }

    /// Retires the heap-top entry of the peripheral whose internal event
    /// just ran: updates it **in place** to the device's next event time
    /// (one sift via [`PeekMut`](std::collections::binary_heap::PeekMut)
    /// instead of a pop + push + dirty-list round trip), or removes it if
    /// none is pending.
    ///
    /// Sound because the executed decision is still the heap top: the only
    /// entries pushed *during* execution are DMA completions, which carry
    /// `at >= now` and the higher class, so they can never sort above it
    /// (and a core step pushes nothing else either, so an event that is due
    /// stays on top however many core steps run first). If the device was
    /// additionally dirtied mid-step, the next refresh bumps its generation
    /// and pushes a fresh entry; the in-place one then goes stale and is
    /// dropped lazily, exactly like any other invalidated entry.
    fn retire_periph_entry(&mut self, page: usize) {
        if self.scheduler != SchedulerMode::Calendar {
            return;
        }
        let Some(mut top) = self.calendar.heap.peek_mut() else {
            return;
        };
        debug_assert!(
            top.0.class == CLASS_PERIPH && top.0.id == page as u64,
            "executed peripheral entry must still be the heap top"
        );
        match self.periphs[page].next_event() {
            Some(t) => top.0.at = t,
            None => {
                std::collections::binary_heap::PeekMut::pop(top);
            }
        }
    }

    /// Removes the heap-top entry of the DMA completion that is about to
    /// execute (transfers are scheduled once and removed exactly here).
    fn retire_dma_entry(&mut self, seq: u64) {
        if self.scheduler != SchedulerMode::Calendar {
            return;
        }
        let Some(top) = self.calendar.heap.peek_mut() else {
            return;
        };
        debug_assert!(
            top.0.class == CLASS_DMA && top.0.id == seq,
            "executed DMA entry must still be the heap top"
        );
        std::collections::binary_heap::PeekMut::pop(top);
    }

    /// Advances the simulation by one atomic step (one instruction, one
    /// peripheral event, or one DMA completion — whichever is earliest).
    ///
    /// Returns [`StepKind::Idle`] when nothing can run. Time never goes
    /// backwards; ties are broken deterministically (cores before
    /// peripherals before DMA, lower ids first).
    ///
    /// # Errors
    ///
    /// Propagates faults ([`Error::UnmappedAddress`],
    /// [`Error::DivideByZero`], [`Error::PcOutOfRange`]); the offending core is left in
    /// [`CoreStatus::Faulted`] and the rest of the platform remains usable.
    /// A DMA transfer whose source or destination range does not resolve
    /// returns [`Error::UnmappedAddress`] from its completion step: nothing
    /// is copied and the engine falls idle, ready for the next transfer.
    pub fn step(&mut self) -> Result<StepEvent> {
        self.step_in_place()?;
        Ok(StepEvent {
            at: self.event.at,
            kind: self.event.kind.clone(),
            accesses: std::mem::take(&mut self.event.accesses),
        })
    }

    /// [`step`](Platform::step) for hot loops: the event stays in the
    /// platform, where the step wrote it, to be read through
    /// [`last_event`](Platform::last_event). `step` is this plus a move of
    /// the access buffer out, [`recycle`](Platform::recycle) the move back.
    ///
    /// # Errors
    ///
    /// As [`step`](Platform::step); `last_event` is unspecified after one.
    pub fn step_in_place(&mut self) -> Result<()> {
        self.step_observed(None)
    }

    /// What the last successful [`step_in_place`](Platform::step_in_place)
    /// did, until the next step ([`step`](Platform::step) takes the accesses
    /// with it).
    ///
    /// ```
    /// # use mpsoc_platform::{isa::assemble, platform::{PlatformBuilder, StepKind}};
    /// let mut p = PlatformBuilder::new().build().unwrap();
    /// let prog = assemble("movi r1, 7\nst r1, r1, 0\nhalt").unwrap();
    /// p.load_program(0, prog, 0).unwrap();
    /// p.step_in_place().unwrap();
    /// p.step_in_place().unwrap();
    /// assert!(matches!(p.last_event().kind, StepKind::Instr { pc: 1, .. }));
    /// assert_eq!(p.last_event().accesses[0].addr, 7);
    /// assert_eq!(p.core(0).unwrap().pc(), 2); // readable beside the event
    /// ```
    pub fn last_event(&self) -> &StepEvent {
        &self.event
    }

    /// [`step_in_place`](Platform::step_in_place) with an optional event
    /// sink (see [`run_until_with`](Platform::run_until_with)).
    fn step_observed(&mut self, sink: Option<&mut dyn EventSink>) -> Result<()> {
        self.steps += 1;
        let Some((t, actor)) = self.peek_decision() else {
            self.event.at = self.now;
            self.event.kind = StepKind::Idle;
            self.event.accesses.clear();
            return Ok(());
        };
        self.exec_actor(t, actor)?;
        self.observe_step(sink);
        Ok(())
    }

    /// Executes one already-scheduled decision (the actor/time pair just
    /// returned by [`peek_decision`](Platform::peek_decision); an event's
    /// calendar entry is still the heap top, and execution retires or
    /// reschedules it in place), writing what it did into `self.event`.
    fn exec_actor(&mut self, t: Time, actor: Actor) -> Result<()> {
        self.now = self.now.max(t);
        self.event.accesses.clear();
        match actor {
            Actor::Core(id) => self.step_core(id),
            Actor::Periph(page) => {
                // The entry is retired in place, so no dirty mark (and no
                // `periph_access`): a timer's event changes its next event
                // and nothing else the calendar holds.
                let effect = self.periphs[page].on_event(self.now, &mut self.signals);
                self.retire_periph_entry(page);
                if let Some(e) = effect {
                    self.apply_effect(e);
                }
                if let Some(m) = &self.metrics {
                    m.periph_events.inc();
                }
                self.event.at = self.now;
                self.event.kind = StepKind::PeriphEvent { page };
                Ok(())
            }
            Actor::Dma(i) => {
                let d = self.pending_dma.remove(i);
                self.retire_dma_entry(d.seq);
                self.calendar.mark_periph(d.page);
                // Perform the functional copy now, emitting the access
                // trail attributed to the DMA engine. The whole range is
                // decoded and bounds-checked once, not per word.
                let mut accesses = std::mem::take(&mut self.event.accesses);
                let copied = self.dma_copy(&d, &mut accesses);
                self.event.accesses = accesses;
                if let Err(e) = copied {
                    // Nothing was copied. The transfer is gone either way,
                    // so the engine must not stay busy waiting for it.
                    if let Some(Periph::Dma(dma)) = self.periphs.get_mut(d.page) {
                        dma.release(self.now, &mut self.signals);
                    }
                    return Err(e);
                }
                // Tell the engine it is done; deliver its completion IRQ.
                if let Some(Periph::Dma(dma)) = self.periphs.get_mut(d.page) {
                    if let Some((core, irq)) = dma.complete(self.now, &mut self.signals) {
                        self.apply_effect(Effect::RaiseIrq { core, irq });
                    }
                }
                if let Some(m) = &self.metrics {
                    m.dma_words.add(d.len as u64);
                }
                self.event.at = self.now;
                self.event.kind = StepKind::DmaComplete { page: d.page };
                Ok(())
            }
        }
    }

    /// Hands the access buffer of an event [`step`](Platform::step)
    /// returned back to the platform, so the next step does not allocate
    /// one. Entirely optional — dropping the event instead is always
    /// correct, just slower.
    pub fn recycle(&mut self, ev: StepEvent) {
        if ev.accesses.capacity() > self.event.accesses.capacity() {
            self.event.accesses = ev.accesses;
        }
    }

    /// Metrics + event fan-out for one completed step.
    fn observe_step(&mut self, sink: Option<&mut dyn EventSink>) {
        let ev = &self.event;
        let ts = ev.at.as_ps() / 1_000; // simulated nanoseconds
        if let Some(m) = &mut self.metrics {
            if let StepKind::Instr { irq_taken, .. } = &ev.kind {
                m.instr_retired.inc();
                if irq_taken.is_some() {
                    m.irq_delivered.inc();
                }
            }
            m.publish_trace(&self.signals.trace_stats());
        }
        let Some(sink) = sink else { return };
        match &ev.kind {
            StepKind::Instr {
                core, irq_taken, ..
            } => {
                if let Some(irq) = irq_taken {
                    sink.emit(
                        Event::instant(ts, "irq", "platform", *core as u32)
                            .with_arg("irq", *irq as u64),
                    );
                }
                if self.cores[*core].status() == CoreStatus::Halted {
                    sink.emit(Event::instant(ts, "halt", "platform", *core as u32));
                }
            }
            StepKind::PeriphEvent { page } => {
                sink.emit(Event::instant(ts, "periph", "platform", *page as u32));
            }
            StepKind::DmaComplete { page } => {
                sink.emit(
                    Event::instant(ts, "dma_complete", "platform", *page as u32)
                        .with_arg("accesses", ev.accesses.len() as u64),
                );
            }
            StepKind::Idle => {}
        }
    }

    fn step_core(&mut self, id: usize) -> Result<()> {
        let start = self.now;

        // Front end: one borrow of the core covers interrupt delivery,
        // fetch (the program table holds pre-decoded instructions, so
        // straight-line code never re-decodes), and the entire
        // register-only instruction set — the fast path pays a single
        // bounds-checked `cores[id]` index per step instead of one per
        // register access.
        let core = &mut self.cores[id];
        let irq_taken = core.maybe_take_irq();
        let pc = core.pc();
        let Some(instr) = core.program().fetch(pc) else {
            core.set_status(CoreStatus::Faulted);
            return Err(Error::PcOutOfRange { core: id, pc });
        };

        let freq = core.frequency();
        let mut cycles = Cycles(instr.base_cycles());
        let mut wall_extra = Time::ZERO;
        let mut next_pc = pc.wrapping_add(1);
        let mut rti = false;

        match instr {
            Instr::Nop => {}
            Instr::Halt => {
                core.set_status(CoreStatus::Halted);
            }
            Instr::Wfi => {
                core.set_status(CoreStatus::Sleeping);
            }
            Instr::Rti => {
                core.return_from_irq();
                next_pc = core.pc();
                rti = true;
            }
            Instr::Movi(d, imm) => core.set_reg(d, imm),
            Instr::Mov(d, s) => {
                let v = core.reg(s);
                core.set_reg(d, v);
            }
            Instr::Add(d, s, t) => {
                let v = core.reg(s).wrapping_add(core.reg(t));
                core.set_reg(d, v);
            }
            Instr::Sub(d, s, t) => {
                let v = core.reg(s).wrapping_sub(core.reg(t));
                core.set_reg(d, v);
            }
            Instr::Mul(d, s, t) => {
                let v = core.reg(s).wrapping_mul(core.reg(t));
                core.set_reg(d, v);
            }
            Instr::Div(d, s, t) => {
                let b = core.reg(t);
                if b == 0 {
                    core.set_status(CoreStatus::Faulted);
                    return Err(Error::DivideByZero { core: id, pc });
                }
                let v = core.reg(s).wrapping_div(b);
                core.set_reg(d, v);
            }
            Instr::Rem(d, s, t) => {
                let b = core.reg(t);
                if b == 0 {
                    core.set_status(CoreStatus::Faulted);
                    return Err(Error::DivideByZero { core: id, pc });
                }
                let v = core.reg(s).wrapping_rem(b);
                core.set_reg(d, v);
            }
            Instr::And(d, s, t) => {
                let v = core.reg(s) & core.reg(t);
                core.set_reg(d, v);
            }
            Instr::Or(d, s, t) => {
                let v = core.reg(s) | core.reg(t);
                core.set_reg(d, v);
            }
            Instr::Xor(d, s, t) => {
                let v = core.reg(s) ^ core.reg(t);
                core.set_reg(d, v);
            }
            Instr::Shl(d, s, t) => {
                let v = core.reg(s).wrapping_shl(core.reg(t) as u32 & 63);
                core.set_reg(d, v);
            }
            Instr::Shr(d, s, t) => {
                let v = core.reg(s).wrapping_shr(core.reg(t) as u32 & 63);
                core.set_reg(d, v);
            }
            Instr::Slt(d, s, t) => {
                let v = (core.reg(s) < core.reg(t)) as Word;
                core.set_reg(d, v);
            }
            Instr::Seq(d, s, t) => {
                let v = (core.reg(s) == core.reg(t)) as Word;
                core.set_reg(d, v);
            }
            Instr::Addi(d, s, imm) => {
                let v = core.reg(s).wrapping_add(imm);
                core.set_reg(d, v);
            }
            Instr::Ld(d, base, off) => {
                let addr = (core.reg(base).wrapping_add(off)) as u32;
                match self.timed_read(id, addr, start) {
                    Ok((v, cy, wall)) => {
                        self.cores[id].set_reg(d, v);
                        cycles += cy;
                        wall_extra += wall;
                        self.event.accesses.push(Access {
                            originator: Originator::Core(id),
                            kind: AccessKind::Read,
                            addr,
                            value: v,
                            at: start + wall,
                        });
                    }
                    Err(e) => {
                        self.cores[id].set_status(CoreStatus::Faulted);
                        return Err(e);
                    }
                }
            }
            Instr::St(val, base, off) => {
                let addr = (core.reg(base).wrapping_add(off)) as u32;
                let v = core.reg(val);
                match self.timed_write(id, addr, v, start) {
                    Ok((cy, wall)) => {
                        cycles += cy;
                        wall_extra += wall;
                        self.event.accesses.push(Access {
                            originator: Originator::Core(id),
                            kind: AccessKind::Write,
                            addr,
                            value: v,
                            at: start + wall,
                        });
                    }
                    Err(e) => {
                        self.cores[id].set_status(CoreStatus::Faulted);
                        return Err(e);
                    }
                }
            }
            Instr::Beq(a, b, t) => {
                if core.reg(a) == core.reg(b) {
                    next_pc = t;
                }
            }
            Instr::Bne(a, b, t) => {
                if core.reg(a) != core.reg(b) {
                    next_pc = t;
                }
            }
            Instr::Blt(a, b, t) => {
                if core.reg(a) < core.reg(b) {
                    next_pc = t;
                }
            }
            Instr::Jmp(t) => next_pc = t,
            Instr::Jal(t) => {
                core.set_reg(Reg::LINK, (pc + 1) as Word);
                next_pc = t;
            }
            Instr::Jr(s) => next_pc = core.reg(s) as u32,
        }

        // Back end: a fresh borrow, because the memory-access arms above
        // had to release the first one to reach the platform.
        let core = &mut self.cores[id];
        if !rti {
            core.set_pc(next_pc);
        }
        core.retire();
        let done = start + freq.cycles_to_time(cycles) + wall_extra;
        core.set_next_ready(done);

        self.event.at = done;
        self.event.kind = StepKind::Instr {
            core: id,
            pc,
            instr,
            irq_taken,
        };
        Ok(())
    }

    /// Resolves a DMA range `[addr, addr + len)` to one RAM and a starting
    /// offset, bounds-checking the entire range once. DMA is functional
    /// (untimed — it is the sanctioned transfer mechanism between stores),
    /// so this replaces a per-word
    /// `decode` + `Ram` bounds check pair with a single upfront check.
    fn resolve_dma_range(&self, addr: u32, len: u32) -> Result<(MemSel, usize)> {
        let sel = match decode(addr, self.shared_words, self.cores.len())? {
            Region::Shared(o) => (MemSel::Shared, o as usize),
            Region::Local { owner, offset } => (MemSel::Local(owner), offset as usize),
            Region::Periph { .. } => return Err(Error::UnmappedAddress { addr }),
        };
        let ram_len = match sel.0 {
            MemSel::Shared => self.shared.len(),
            MemSel::Local(owner) => self.locals[owner].len(),
        } as usize;
        if sel.1 + len as usize > ram_len {
            // First word past the end of the backing RAM.
            return Err(Error::UnmappedAddress {
                addr: addr + (ram_len - sel.1) as u32,
            });
        }
        Ok(sel)
    }

    /// The functional copy of a completed DMA transfer, with the access
    /// trail. Word-by-word in ascending address order — for overlapping
    /// ranges in the same RAM this deliberately reproduces the
    /// forward-propagation semantics of a word-at-a-time engine.
    fn dma_copy(&mut self, d: &PendingDma, accesses: &mut Vec<Access>) -> Result<()> {
        if d.len == 0 {
            return Ok(());
        }
        let len = d.len as usize;
        let (src_sel, so) = self.resolve_dma_range(d.src, d.len)?;
        let (dst_sel, doff) = self.resolve_dma_range(d.dst, d.len)?;
        accesses.reserve(2 * len);
        let mut push = |i: usize, v: Word| {
            accesses.push(Access {
                originator: Originator::Dma(d.page),
                kind: AccessKind::Read,
                addr: d.src + i as u32,
                value: v,
                at: d.finish,
            });
            accesses.push(Access {
                originator: Originator::Dma(d.page),
                kind: AccessKind::Write,
                addr: d.dst + i as u32,
                value: v,
                at: d.finish,
            });
        };
        match (src_sel, dst_sel) {
            (MemSel::Shared, MemSel::Shared) => {
                let w = self.shared.words_mut();
                for i in 0..len {
                    let v = w[so + i];
                    w[doff + i] = v;
                    push(i, v);
                }
            }
            (MemSel::Local(a), MemSel::Local(b)) if a == b => {
                let w = self.locals[a].words_mut();
                for i in 0..len {
                    let v = w[so + i];
                    w[doff + i] = v;
                    push(i, v);
                }
            }
            (MemSel::Shared, MemSel::Local(b)) => {
                let s = self.shared.as_slice();
                let dw = self.locals[b].words_mut();
                for i in 0..len {
                    let v = s[so + i];
                    dw[doff + i] = v;
                    push(i, v);
                }
            }
            (MemSel::Local(a), MemSel::Shared) => {
                let s = self.locals[a].as_slice();
                let dw = self.shared.words_mut();
                for i in 0..len {
                    let v = s[so + i];
                    dw[doff + i] = v;
                    push(i, v);
                }
            }
            (MemSel::Local(a), MemSel::Local(b)) => {
                let (lo, hi) = self.locals.split_at_mut(a.max(b));
                let (s, dw) = if a < b {
                    (lo[a].as_slice(), hi[0].words_mut())
                } else {
                    (hi[0].as_slice(), lo[b].words_mut())
                };
                for i in 0..len {
                    let v = s[so + i];
                    dw[doff + i] = v;
                    push(i, v);
                }
            }
        }
        // `words_mut` bypasses per-write dirty marking; cover the whole
        // destination range in one call.
        match dst_sel {
            MemSel::Shared => self.shared.mark_dirty_range(doff, len),
            MemSel::Local(b) => self.locals[b].mark_dirty_range(doff, len),
        }
        Ok(())
    }

    /// Timed load: returns `(value, extra_cycles, extra_wall_time)`.
    fn timed_read(&mut self, core: usize, addr: u32, start: Time) -> Result<(Word, Cycles, Time)> {
        match decode(addr, self.shared_words, self.cores.len())? {
            Region::Shared(o) => {
                let v = self.shared.read(o)?;
                let (cy, wall) = self.shared_access_cost(core, addr, start);
                Ok((v, cy, wall))
            }
            Region::Local { owner, offset } => {
                let v = self.locals[owner].read(offset)?;
                if owner == core {
                    Ok((v, Cycles(self.local_latency_cycles), Time::ZERO))
                } else {
                    if let Some(m) = &self.metrics {
                        m.noc_transfers.inc();
                    }
                    let done = self.interconnect.transfer(core, owner, start);
                    Ok((v, Cycles::ZERO, done.saturating_sub(start)))
                }
            }
            Region::Periph { page, offset } => {
                let mem_node = self.cores.len();
                if let Some(m) = &self.metrics {
                    m.noc_transfers.inc();
                }
                let done = self.interconnect.transfer(core, mem_node, start);
                let v = self.periph_access(page, addr, done, |p, now, signals| {
                    Ok((p.read(offset, now, signals)?, None))
                })?;
                Ok((v, Cycles::ZERO, done.saturating_sub(start)))
            }
        }
    }

    /// Timed store: returns `(extra_cycles, extra_wall_time)`.
    fn timed_write(
        &mut self,
        core: usize,
        addr: u32,
        v: Word,
        start: Time,
    ) -> Result<(Cycles, Time)> {
        match decode(addr, self.shared_words, self.cores.len())? {
            Region::Shared(o) => {
                self.shared.write(o, v)?;
                Ok(self.shared_access_cost(core, addr, start))
            }
            Region::Local { owner, offset } => {
                self.locals[owner].write(offset, v)?;
                if owner == core {
                    Ok((Cycles(self.local_latency_cycles), Time::ZERO))
                } else {
                    if let Some(m) = &self.metrics {
                        m.noc_transfers.inc();
                    }
                    let done = self.interconnect.transfer(core, owner, start);
                    Ok((Cycles::ZERO, done.saturating_sub(start)))
                }
            }
            Region::Periph { page, offset } => {
                let mem_node = self.cores.len();
                if let Some(m) = &self.metrics {
                    m.noc_transfers.inc();
                }
                let done = self.interconnect.transfer(core, mem_node, start);
                self.periph_access(page, addr, done, |p, now, signals| {
                    Ok(((), p.write(offset, v, now, signals)?))
                })?;
                Ok((Cycles::ZERO, done.saturating_sub(start)))
            }
        }
    }

    /// Cost of a shared-memory access: cache hit cycles, or an interconnect
    /// round trip on a miss (write-through writes always ride the bus).
    fn shared_access_cost(&mut self, core: usize, addr: u32, start: Time) -> (Cycles, Time) {
        let mem_node = self.cores.len();
        let outcome = self.caches[core].as_mut().map(|c| c.access(addr));
        match outcome {
            Some(CacheOutcome::Hit) => {
                if let Some(m) = &self.metrics {
                    m.cache_hits.inc();
                }
                (Cycles(self.cache_hit_cycles), Time::ZERO)
            }
            _ => {
                if let Some(m) = &self.metrics {
                    if outcome.is_some() {
                        m.cache_misses.inc();
                    }
                    m.noc_transfers.inc();
                }
                let done = self.interconnect.transfer(core, mem_node, start);
                (Cycles::ZERO, done.saturating_sub(start))
            }
        }
    }

    /// One register access to peripheral `page`, reaching the device at
    /// `at`: looks the page up (`addr` is what an unoccupied one reports as
    /// unmapped), runs `op` on the device, marks the page's calendar entry
    /// stale, and applies the effect `op` returned beside its value.
    ///
    /// The mark is unconditional — a rejected access leaves it too — so the
    /// calendar never depends on which registers of which device can move
    /// its next event (a write arms a timer, a pop changes a mailbox), nor
    /// on every error path having latched nothing.
    fn periph_access<T>(
        &mut self,
        page: usize,
        addr: u32,
        at: Time,
        op: impl FnOnce(&mut Periph, Time, &mut SignalBoard) -> Result<(T, Option<Effect>)>,
    ) -> Result<T> {
        let p = (self.periphs.get_mut(page)).ok_or(Error::UnmappedAddress { addr })?;
        let res = op(p, at, &mut self.signals);
        self.calendar.mark_periph(page);
        let (v, effect) = res?;
        if let Some(e) = effect {
            self.apply_effect(e);
        }
        Ok(v)
    }

    /// Executes the one effect a peripheral operation had, as of the
    /// current step's time.
    fn apply_effect(&mut self, e: Effect) {
        match e {
            Effect::RaiseIrq { core, irq } => {
                if let Some(c) = self.cores.get_mut(core) {
                    c.post_irq(irq, self.now);
                }
            }
            Effect::DmaCopy {
                page,
                src,
                dst,
                len,
            } => {
                // Charge one interconnect transfer per word moved:
                // read + write legs, streamed back-to-back.
                let mem_node = self.cores.len();
                let mut t = self.now;
                for _ in 0..len {
                    t = self.interconnect.transfer(mem_node, mem_node, t);
                }
                if let Some(m) = &self.metrics {
                    m.noc_transfers.add(len as u64);
                }
                let seq = self.dma_seq;
                self.dma_seq += 1;
                self.pending_dma.push(PendingDma {
                    finish: t,
                    page,
                    src,
                    dst,
                    len,
                    seq,
                });
                if self.scheduler == SchedulerMode::Calendar {
                    // Scheduled once with a fixed finish time; no
                    // generation needed (removed only on execution).
                    self.calendar.heap.push(Reverse(CalKey {
                        at: t,
                        class: CLASS_DMA,
                        id: seq,
                        gen: 0,
                    }));
                }
            }
        }
    }

    // -- run helpers --------------------------------------------------------

    /// Steps until `deadline` (exclusive), all work completes, or a fault.
    /// `visit` is called with each step's event where the step wrote it
    /// ([`last_event`](Platform::last_event)) — the steady-state loop
    /// performs no allocation at all. Returns the number of steps executed.
    ///
    /// With a `sink`, structured events (instruction retirements per core,
    /// IRQ deliveries, peripheral events, DMA completions) are emitted
    /// under category `"platform"`, timestamped in nanoseconds of simulated
    /// time.
    ///
    /// # Errors
    ///
    /// Propagates the first fault.
    pub fn run_until_with(
        &mut self,
        deadline: Time,
        mut sink: Option<&mut dyn EventSink>,
        mut visit: impl FnMut(&StepEvent),
    ) -> Result<u64> {
        let mut n = 0;
        while let Some((t, actor)) = self.peek_decision() {
            if t >= deadline {
                break;
            }
            self.steps += 1;
            self.exec_actor(t, actor)?;
            self.observe_step(mpsoc_obs::event::reborrow_sink(&mut sink));
            visit(&self.event);
            n += 1;
        }
        self.now = self.now.max(deadline);
        Ok(n)
    }

    /// Steps until every core has halted (or `max_steps` is exceeded).
    ///
    /// # Errors
    ///
    /// Propagates faults; returns [`Error::Config`] if `max_steps` is
    /// exhausted (runaway program guard).
    pub fn run_to_completion(&mut self, max_steps: u64) -> Result<u64> {
        self.run_to_completion_observed(max_steps, None)
    }

    /// [`run_to_completion`](Platform::run_to_completion) with an optional
    /// event sink (see [`run_until_with`](Platform::run_until_with)).
    ///
    /// # Errors
    ///
    /// Propagates faults; returns [`Error::Config`] if `max_steps` is
    /// exhausted (runaway program guard).
    pub fn run_to_completion_observed(
        &mut self,
        max_steps: u64,
        mut sink: Option<&mut dyn EventSink>,
    ) -> Result<u64> {
        for n in 0..max_steps {
            self.step_observed(mpsoc_obs::event::reborrow_sink(&mut sink))?;
            if self.event.is_idle() {
                return Ok(n);
            }
        }
        Err(Error::Config(format!(
            "program did not finish within {max_steps} steps"
        )))
    }
}

#[derive(Clone, Copy, Debug)]
enum Actor {
    Core(usize),
    Periph(usize),
    /// A pending DMA completion, identified by its position in
    /// `pending_dma` when the decision was made.
    Dma(usize),
}

/// Which RAM a DMA range resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MemSel {
    Shared,
    Local(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::assemble;
    use crate::mem::{local_addr, periph_addr};
    use crate::periph::{dma_reg, mailbox_reg, semaphore_reg, timer_reg};

    fn small() -> Platform {
        PlatformBuilder::new()
            .cores(2, Frequency::mhz(100))
            .shared_words(1024)
            .local_words(256)
            .cache(None)
            .interconnect(InterconnectConfig::Bus {
                latency: Time::from_ns(10),
                occupancy: Time::from_ns(5),
            })
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_bad_cache_geometry_with_named_errors() {
        // Each rejection must be an `Error::Config` naming the cache and
        // the offending value — never a `Cache::new` panic.
        let build = |sets, assoc, line_words| {
            PlatformBuilder::new()
                .cores(1, Frequency::mhz(100))
                .shared_words(256)
                .cache(Some(CacheConfig {
                    sets,
                    assoc,
                    line_words,
                    hit_cycles: 1,
                }))
                .build()
        };
        for (sets, assoc, line, needle) in [
            (0, 2, 8, "non-zero"),
            (64, 0, 8, "non-zero"),
            (64, 2, 0, "non-zero"),
            (48, 2, 8, "48 sets"),
            (64, 2, 6, "6 words"),
        ] {
            let err = build(sets, assoc, line).expect_err("bad geometry rejected");
            let msg = err.to_string();
            assert!(
                msg.contains("cache") && msg.contains(needle),
                "{sets}x{assoc}x{line}: expected cache error naming {needle:?}, got {msg}"
            );
        }
        assert!(build(64, 2, 8).is_ok(), "the default geometry still builds");
    }

    #[test]
    fn runs_arithmetic_program() {
        let mut p = small();
        let prog = assemble(
            "movi r1, 6\n\
             movi r2, 7\n\
             mul r3, r1, r2\n\
             movi r4, 0x40\n\
             st r3, r4, 0\n\
             halt",
        )
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        p.run_to_completion(100).unwrap();
        assert_eq!(p.debug_read(0x40).unwrap(), 42);
        assert_eq!(p.core(0).unwrap().status(), CoreStatus::Halted);
    }

    #[test]
    fn countdown_loop_retires_expected_instrs() {
        let mut p = small();
        let prog = assemble(
            "movi r1, 5\n\
             loop: addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             halt",
        )
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        p.run_to_completion(100).unwrap();
        // 1 movi + 5*(addi+bne) + halt = 12.
        assert_eq!(p.core(0).unwrap().retired(), 12);
    }

    #[test]
    fn two_cores_interleave_deterministically() {
        let run = || {
            let mut p = small();
            let prog = |v: i64| {
                assemble(&format!("movi r1, {v}\nmovi r2, 0x10\nst r1, r2, 0\nhalt")).unwrap()
            };
            p.load_program(0, prog(1), 0).unwrap();
            p.load_program(1, prog(2), 0).unwrap();
            let mut order = Vec::new();
            loop {
                let ev = p.step().unwrap();
                if ev.is_idle() {
                    break;
                }
                if let StepKind::Instr { core, pc, .. } = ev.kind {
                    order.push((core, pc));
                }
            }
            (order, p.debug_read(0x10).unwrap())
        };
        let (o1, v1) = run();
        let (o2, v2) = run();
        assert_eq!(o1, o2, "simulation must be deterministic");
        assert_eq!(v1, v2);
    }

    #[test]
    fn foreign_local_store_is_reachable() {
        let mut p = small();
        p.debug_write(local_addr(0, 3), 99).unwrap();
        let foreign = local_addr(0, 3);
        let prog = assemble(&format!(
            "movi r1, {foreign}\nld r2, r1, 0\nmovi r3, 0x20\nst r2, r3, 0\nhalt"
        ))
        .unwrap();
        p.load_program(1, prog, 0).unwrap();
        p.run_to_completion(20).unwrap();
        assert_eq!(p.debug_read(0x20).unwrap(), 99);
    }

    #[test]
    fn own_local_store_is_fast_path() {
        let mut p = small();
        let mine = local_addr(0, 5);
        let prog = assemble(&format!(
            "movi r1, {mine}\nmovi r2, 7\nst r2, r1, 0\nld r3, r1, 0\nhalt"
        ))
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        p.run_to_completion(10).unwrap();
        assert_eq!(p.core(0).unwrap().reg(crate::isa::Reg::new(3)), 7);
        // No interconnect traffic for local accesses.
        assert_eq!(p.interconnect_stats().0, 0);
    }

    #[test]
    fn timer_interrupt_drives_handler() {
        let mut p = small();
        let page = p.add_timer("timer0");
        let t_ctrl = periph_addr(page, timer_reg::CTRL);
        let t_period = periph_addr(page, timer_reg::PERIOD);
        // Handler at label `isr`: increments a counter at 0x30, returns.
        let prog = assemble(&format!(
            "movi r1, {t_period}\n\
             movi r2, 500\n\
             st r2, r1, 0\n\
             movi r1, {t_ctrl}\n\
             movi r2, 1\n\
             st r2, r1, 0\n\
             spin: wfi\n\
             jmp spin\n\
             isr: movi r3, 0x30\n\
             ld r4, r3, 0\n\
             addi r4, r4, 1\n\
             st r4, r3, 0\n\
             rti"
        ))
        .unwrap();
        let isr = prog.label("isr").unwrap();
        p.load_program(0, prog, 0).unwrap();
        p.core_mut(0).unwrap().set_irq_vector(Some(isr));
        p.run_until_with(Time::from_us(3), None, |_| {}).unwrap();
        let ticks = p.debug_read(0x30).unwrap();
        assert!(ticks >= 4, "expected >=4 timer ticks, got {ticks}");
    }

    #[test]
    fn mailbox_passes_messages_between_cores() {
        let mut p = small();
        let page = p.add_mailbox("mb0", 8);
        let data = periph_addr(page, mailbox_reg::DATA);
        let count = periph_addr(page, mailbox_reg::COUNT);
        let producer =
            assemble(&format!("movi r1, {data}\nmovi r2, 77\nst r2, r1, 0\nhalt")).unwrap();
        let consumer = assemble(&format!(
            "movi r1, {count}\n\
             wait: ld r2, r1, 0\n\
             beq r2, r0, wait\n\
             movi r3, {data}\n\
             ld r4, r3, 0\n\
             movi r5, 0x50\n\
             st r4, r5, 0\n\
             halt"
        ))
        .unwrap();
        p.load_program(0, producer, 0).unwrap();
        p.load_program(1, consumer, 0).unwrap();
        p.run_to_completion(10_000).unwrap();
        assert_eq!(p.debug_read(0x50).unwrap(), 77);
    }

    #[test]
    fn semaphore_provides_mutual_exclusion() {
        let mut p = small();
        let page = p.add_semaphore("lock", 1);
        let tryacq = periph_addr(page, semaphore_reg::TRYACQ);
        let release = periph_addr(page, semaphore_reg::RELEASE);
        // Both cores: acquire, increment shared counter 10 times, release.
        let prog = format!(
            "movi r1, {tryacq}\n\
             acq: ld r2, r1, 0\n\
             beq r2, r0, acq\n\
             movi r3, 0x60\n\
             movi r5, 10\n\
             body: ld r4, r3, 0\n\
             addi r4, r4, 1\n\
             st r4, r3, 0\n\
             addi r5, r5, -1\n\
             bne r5, r0, body\n\
             movi r6, {release}\n\
             st r0, r6, 0\n\
             halt"
        );
        p.load_program(0, assemble(&prog).unwrap(), 0).unwrap();
        p.load_program(1, assemble(&prog).unwrap(), 0).unwrap();
        p.run_to_completion(100_000).unwrap();
        assert_eq!(p.debug_read(0x60).unwrap(), 20);
    }

    #[test]
    fn dma_copies_blocks_and_interrupts() {
        let mut p = small();
        let page = p.add_dma("dma0");
        p.load_shared(100, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let src = periph_addr(page, dma_reg::SRC);
        let dst = periph_addr(page, dma_reg::DST);
        let len = periph_addr(page, dma_reg::LEN);
        let ctrl = periph_addr(page, dma_reg::CTRL);
        let busy = periph_addr(page, dma_reg::BUSY);
        let prog = assemble(&format!(
            "movi r1, {src}\nmovi r2, 100\nst r2, r1, 0\n\
             movi r1, {dst}\nmovi r2, 200\nst r2, r1, 0\n\
             movi r1, {len}\nmovi r2, 8\nst r2, r1, 0\n\
             movi r1, {ctrl}\nmovi r2, 1\nst r2, r1, 0\n\
             movi r1, {busy}\n\
             wait: ld r2, r1, 0\n\
             bne r2, r0, wait\n\
             halt"
        ))
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        p.run_to_completion(10_000).unwrap();
        for i in 0..8 {
            assert_eq!(p.debug_read(200 + i).unwrap(), (i + 1) as Word);
        }
    }

    #[test]
    fn dma_range_fault_releases_the_engine() {
        for mode in [SchedulerMode::Calendar, SchedulerMode::ScanReference] {
            let mut p = PlatformBuilder::new()
                .cores(1, Frequency::mhz(100))
                .shared_words(1024)
                .cache(None)
                .scheduler(mode)
                .build()
                .unwrap();
            let page = p.add_dma("dma0");
            p.load_shared(100, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
            let reg = |r| periph_addr(page, r);
            // First transfer: 64 words from 1000 run off the 1 024-word RAM.
            // Second: a valid 8-word copy, kicked once BUSY reads 0 again.
            let prog = assemble(&format!(
                "movi r1, {core}\nst r0, r1, 0\n\
                 movi r1, {src}\nmovi r2, 1000\nst r2, r1, 0\n\
                 movi r1, {dst}\nmovi r2, 200\nst r2, r1, 0\n\
                 movi r1, {len}\nmovi r2, 64\nst r2, r1, 0\n\
                 movi r1, {ctrl}\nmovi r2, 1\nst r2, r1, 0\n\
                 movi r3, {busy}\n\
                 wait1: ld r2, r3, 0\nbne r2, r0, wait1\n\
                 movi r1, {src}\nmovi r2, 100\nst r2, r1, 0\n\
                 movi r1, {len}\nmovi r2, 8\nst r2, r1, 0\n\
                 movi r1, {ctrl}\nmovi r2, 1\nst r2, r1, 0\n\
                 wait2: ld r2, r3, 0\nbne r2, r0, wait2\n\
                 halt",
                core = reg(dma_reg::CORE),
                src = reg(dma_reg::SRC),
                dst = reg(dma_reg::DST),
                len = reg(dma_reg::LEN),
                ctrl = reg(dma_reg::CTRL),
                busy = reg(dma_reg::BUSY),
            ))
            .unwrap();
            p.load_program(0, prog, 0).unwrap();

            let busy_reg = |p: &Platform| {
                let regs = p.peripheral_snapshot(page).unwrap();
                regs.iter().find(|(o, _)| *o == dma_reg::BUSY).unwrap().1
            };
            let mut faults = 0;
            let mut completions = 0;
            for _ in 0..10_000 {
                match p.step() {
                    Ok(ev) if ev.is_idle() => break,
                    Ok(ev) => {
                        if matches!(ev.kind, StepKind::DmaComplete { .. }) {
                            completions += 1;
                            assert_eq!(ev.accesses.len(), 16, "{mode:?}: 8 reads + 8 writes");
                        }
                        p.recycle(ev);
                    }
                    Err(e) => {
                        faults += 1;
                        assert_eq!(e, Error::UnmappedAddress { addr: 0x400 }, "{mode:?}");
                        // The engine is idle again, as of the fault time,
                        // and nobody was told a transfer completed.
                        assert_eq!(busy_reg(&p), 0, "{mode:?}: BUSY after the fault");
                        let busy = p.signals().get("dma0.busy").unwrap();
                        assert_eq!(busy.value(), 0, "{mode:?}");
                        assert_eq!(busy.last_change().unwrap().at, p.now(), "{mode:?}");
                        assert_eq!(p.core(0).unwrap().irq_pending(), 0, "{mode:?}");
                        assert_eq!(p.core(0).unwrap().status(), CoreStatus::Running);
                        assert!(!p.dma_in_flight(page));
                    }
                }
            }
            assert_eq!(faults, 1, "{mode:?}: the fault is reported exactly once");
            assert_eq!(
                completions, 1,
                "{mode:?}: only the valid transfer completes"
            );
            assert_eq!(p.core(0).unwrap().status(), CoreStatus::Halted, "{mode:?}");
            assert_eq!(busy_reg(&p), 0);
            for i in 0..8 {
                assert_eq!(p.debug_read(200 + i).unwrap(), (i + 1) as Word, "{mode:?}");
            }
            // The one completion IRQ (default IRQ 2, no vector: stays pending).
            assert_eq!(p.core(0).unwrap().irq_pending(), 1 << 2, "{mode:?}");
        }
    }

    #[test]
    fn cache_reduces_shared_latency() {
        let prog_src = "movi r1, 0x10\n\
             movi r5, 100\n\
             loop: ld r2, r1, 0\n\
             addi r5, r5, -1\n\
             bne r5, r0, loop\n\
             halt";
        let run = |cache: Option<CacheConfig>| {
            let mut p = PlatformBuilder::new()
                .cores(1, Frequency::mhz(100))
                .shared_words(1024)
                .cache(cache)
                .build()
                .unwrap();
            p.load_program(0, assemble(prog_src).unwrap(), 0).unwrap();
            p.run_to_completion(10_000).unwrap();
            p.now()
        };
        let with_cache = run(Some(CacheConfig::default()));
        let without = run(None);
        assert!(
            with_cache < without,
            "cached run ({with_cache}) should beat uncached ({without})"
        );
    }

    #[test]
    fn dvfs_boost_speeds_up_sequential_code() {
        let prog_src = "movi r5, 200\nloop: addi r5, r5, -1\nbne r5, r0, loop\nhalt";
        let run = |f: Frequency| {
            let mut p = PlatformBuilder::new()
                .cores(1, f)
                .shared_words(64)
                .cache(None)
                .build()
                .unwrap();
            p.load_program(0, assemble(prog_src).unwrap(), 0).unwrap();
            p.run_to_completion(10_000).unwrap();
            p.now()
        };
        let slow = run(Frequency::mhz(100));
        let fast = run(Frequency::mhz(400));
        // 4x clock -> ~4x faster on compute-bound code.
        let ratio = slow.as_ps() as f64 / fast.as_ps() as f64;
        assert!((3.5..=4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn divide_by_zero_faults() {
        let mut p = small();
        let prog = assemble("movi r1, 4\nmovi r2, 0\ndiv r3, r1, r2\nhalt").unwrap();
        p.load_program(0, prog, 0).unwrap();
        let err = p.run_to_completion(10).unwrap_err();
        assert!(matches!(err, Error::DivideByZero { core: 0, pc: 2 }));
    }

    #[test]
    fn unmapped_access_faults() {
        let mut p = small();
        let prog = assemble("movi r1, 0x7fffffff\nld r2, r1, 0\nhalt").unwrap();
        p.load_program(0, prog, 0).unwrap();
        assert!(p.run_to_completion(10).is_err());
    }

    #[test]
    fn idle_platform_reports_idle() {
        let mut p = small();
        let ev = p.step().unwrap();
        assert!(ev.is_idle());
        assert!(p.is_finished());
    }

    #[test]
    fn builder_validates() {
        assert!(PlatformBuilder::new()
            .cores(0, Frequency::mhz(1))
            .build()
            .is_err());
        assert!(PlatformBuilder::new().shared_words(0).build().is_err());
        assert!(PlatformBuilder::new()
            .cores(8, Frequency::mhz(100))
            .interconnect(InterconnectConfig::Mesh {
                w: 2,
                h: 2,
                hop_latency: Time::from_ns(1),
                link_occupancy: Time::from_ns(1),
            })
            .build()
            .is_err());
    }

    #[test]
    fn debug_read_cannot_touch_peripherals() {
        let mut p = small();
        let page = p.add_mailbox("mb", 2);
        assert!(p.debug_read(periph_addr(page, 0)).is_err());
        assert!(p.peripheral_snapshot(page).is_ok());
        assert_eq!(p.peripheral_name(page), Some("mb"));
    }

    #[test]
    fn metrics_and_events_cover_the_hot_paths() {
        use mpsoc_obs::metrics::MetricsRegistry;
        use mpsoc_obs::ring::RingSink;

        let registry = MetricsRegistry::new();
        let mut sink = RingSink::new(4096);
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(1024)
            .cache(Some(CacheConfig::default()))
            .build()
            .unwrap();
        p.attach_metrics(&registry);
        let page = p.add_dma("dma0");
        p.load_shared(100, &[9, 8, 7, 6]).unwrap();
        let src = periph_addr(page, dma_reg::SRC);
        let dst = periph_addr(page, dma_reg::DST);
        let len = periph_addr(page, dma_reg::LEN);
        let ctrl = periph_addr(page, dma_reg::CTRL);
        let busy = periph_addr(page, dma_reg::BUSY);
        let prog = assemble(&format!(
            "movi r1, {src}\nmovi r2, 100\nst r2, r1, 0\n\
             movi r1, {dst}\nmovi r2, 200\nst r2, r1, 0\n\
             movi r1, {len}\nmovi r2, 4\nst r2, r1, 0\n\
             movi r1, {ctrl}\nmovi r2, 1\nst r2, r1, 0\n\
             movi r1, {busy}\n\
             wait: ld r2, r1, 0\n\
             bne r2, r0, wait\n\
             movi r1, 0x10\nld r2, r1, 0\nld r2, r1, 0\n\
             halt"
        ))
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        p.run_to_completion_observed(10_000, Some(&mut sink))
            .unwrap();

        let get = |name: &str| registry.counter(name).get();
        assert!(get("platform.instr_retired") > 0);
        assert_eq!(
            get("platform.instr_retired"),
            p.core(0).unwrap().retired(),
            "registry must agree with the core's own retirement count"
        );
        assert_eq!(get("platform.dma_words"), 4);
        assert!(get("platform.noc_transfers") > 0);
        // Back-to-back loads of the same shared word: second one must hit.
        assert!(get("platform.cache_hits") > 0);
        assert!(get("platform.cache_misses") > 0);
        let (hits, misses) = p.cache_stats(0).unwrap();
        assert_eq!(get("platform.cache_hits"), hits);
        assert_eq!(get("platform.cache_misses"), misses);

        let events = sink.events();
        assert!(events.iter().all(|e| e.cat == "platform"));
        assert!(events.iter().any(|e| e.name == "dma_complete"));
        assert!(events.iter().any(|e| e.name == "halt"));
    }

    #[test]
    fn unobserved_step_has_no_metrics_side_channel() {
        let mut p = small();
        let prog = assemble("movi r1, 1\nhalt").unwrap();
        p.load_program(0, prog, 0).unwrap();
        // No attach_metrics, no sink: just runs.
        p.run_to_completion(10).unwrap();
        assert_eq!(p.core(0).unwrap().retired(), 2);
    }

    #[test]
    fn accesses_are_reported_per_step() {
        let mut p = small();
        let prog = assemble("movi r1, 0x11\nmovi r2, 5\nst r2, r1, 0\nhalt").unwrap();
        p.load_program(0, prog, 0).unwrap();
        let mut writes = Vec::new();
        loop {
            let ev = p.step().unwrap();
            if ev.is_idle() {
                break;
            }
            writes.extend(ev.accesses.iter().copied());
        }
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].addr, 0x11);
        assert_eq!(writes[0].value, 5);
        assert_eq!(writes[0].kind, AccessKind::Write);
        assert_eq!(writes[0].originator, Originator::Core(0));
    }
}
