//! Named hardware signals backed by a bounded, tiered trace store.
//!
//! Section VII stresses that a virtual platform exposes *"not only memory
//! mapped registers … but all peripheral registers and even signals. A
//! watchpoint can be set on a signal, such as the interrupt line of a
//! peripheral."* The platform models observable wires (interrupt lines, DMA
//! busy flags, …) as named [`Signal`]s collected in a [`SignalBoard`].
//!
//! ## The two tiers
//!
//! Signal history used to be architectural state: every edge ever driven was
//! kept per signal and serialized into every checkpoint image, so image
//! bytes grew O(steps). It is now split into two tiers, neither of which is
//! checkpointed:
//!
//! * **Ring** — a byte-budgeted in-memory `TraceRecord` ring (the recent
//!   window) shared by all signals, queryable through
//!   [`SignalBoard::recent`] / [`SignalBoard::trace_records`]. The default
//!   budget is `DEFAULT_TRACE_BUDGET`; [`TraceMode::Unbounded`] retains
//!   everything and serves as the equivalence oracle in tests.
//! * **Spill** — an optional streaming [`TraceSpill`] sink that receives
//!   each record as it is evicted from the ring, so the *full* waveform can
//!   be reconstructed from spill + ring. [`EventSinkSpill`] adapts any
//!   `mpsoc-obs` [`EventSink`] (ring buffer, Chrome-trace exporter) as the
//!   spill target.
//!
//! What stays architectural — and therefore in checkpoint images — is
//! O(platform): each *driven* signal's name, current value and most recent
//! edge (the minimal window watchpoint semantics need), and the trace
//! sequence counter. A restore reconciles the live ring against the restored
//! sequence counter (records from the restored point's future are
//! truncated; deterministic replay re-records them identically), and the
//! eviction frontier dedups re-spills, so time-travel rewinds neither lose
//! nor duplicate history.
//!
//! ## One name table
//!
//! A board stores each signal name once, in a host-side intern table that
//! maps it to a dense id. The table is monotonic and survives restores, so
//! an id means the same name for the whole life of the board; everything
//! else — the signal slots, the ring records, a debugger's last-seen values
//! — is indexed by id. Which ids exist is *not* architectural (a rewind
//! keeps names the restored state never drove); which slots are filled is:
//! [`SignalBoard::iter`], [`SignalBoard::names`] and the image encoding
//! walk the table in name order over driven signals only, so the bytes of a
//! checkpoint do not depend on the order names were first seen in.
//!
//! [`SignalBoard::drive`] interns the name and drives by id — the one
//! implementation external stimuli, replay and tests go through. The
//! built-in peripherals drive on every event or register access and hold a
//! `SignalHandle` instead: the name plus the id it last resolved to.
//! **Soundness rule:** an id is only a hint. `SignalBoard::drive_handle`
//! trusts it only if this board's table has that very name under that id
//! (one short string compare) and re-interns otherwise, so a handle stays
//! correct on any board it meets — the empty board of a unit test, the
//! board of a platform the peripheral was moved to, a peripheral rebuilt
//! from an image with an unresolved handle.

use std::collections::VecDeque;
use std::fmt;

use crate::isa::Word;
use crate::time::Time;
use mpsoc_obs::event::{Event, EventSink};

/// Default trace-ring byte budget of a freshly built board: room for a few
/// thousand recent edges, independent of how long the simulation runs.
pub(crate) const DEFAULT_TRACE_BUDGET: usize = 64 * 1024;

/// Accounting size of one ring entry (what the byte budget counts).
pub const TRACE_RECORD_BYTES: usize = std::mem::size_of::<TraceRecord>();

/// One timestamped change of a signal's value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignalChange {
    /// Instant of the change.
    pub at: Time,
    /// The new value.
    pub value: Word,
}

/// One edge in the shared trace ring: which signal changed, when, to what,
/// stamped with the board-wide monotonic sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TraceRecord {
    /// Board-wide monotonic sequence number of this edge.
    pub seq: u64,
    /// Interned signal name (resolve via the owning board).
    name_id: u32,
    /// The edge itself.
    pub change: SignalChange,
}

/// A single named wire.
#[derive(Clone, Copy, Debug, Default)]
pub struct Signal {
    value: Word,
    last_change: Option<SignalChange>,
}

impl Signal {
    /// Current value (0 before any drive).
    pub fn value(&self) -> Word {
        self.value
    }

    /// The most recent edge, if the signal was ever driven — the minimal
    /// recent window that stays architectural (and checkpointed) now that
    /// full history lives in the trace ring.
    pub fn last_change(&self) -> Option<SignalChange> {
        self.last_change
    }

    fn drive(&mut self, at: Time, value: Word) -> bool {
        if self.value == value {
            return false;
        }
        self.value = value;
        self.last_change = Some(SignalChange { at, value });
        true
    }
}

/// Retention policy of the trace ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// Keep at most `budget_bytes` of records; evict oldest-first into the
    /// spill sink (if any). The default, with `DEFAULT_TRACE_BUDGET`.
    Bounded {
        /// Ring byte budget ([`TRACE_RECORD_BYTES`] per record).
        budget_bytes: usize,
    },
    /// Never evict — the ring is the complete history. This is the
    /// unbounded-history oracle the equivalence tests compare against; it
    /// restores the pre-refactor memory behaviour, so use it only for
    /// bounded runs.
    Unbounded,
}

impl Default for TraceMode {
    fn default() -> Self {
        TraceMode::Bounded {
            budget_bytes: DEFAULT_TRACE_BUDGET,
        }
    }
}

/// Receives records evicted from the trace ring, oldest first — the spill
/// tier that turns the bounded ring into a complete record. Delivery is
/// exactly-once per sequence number even across time-travel rewinds: a
/// rewind truncates the ring back to the restored sequence counter, and
/// deterministic replay re-records the same edges, but the board's eviction
/// frontier skips re-spilling anything already delivered.
///
/// `Send` is required so a platform carrying an attached sink can still be
/// handed to a debug-server thread (the GDB stub serves from its own
/// thread); wrap non-`Send` sinks behind [`mpsoc_obs::ring::SharedSink`].
pub trait TraceSpill: Send {
    /// Accepts one evicted record. Must not panic on any well-formed input.
    fn record(&mut self, seq: u64, name: &str, change: SignalChange);
}

/// Adapts an `mpsoc-obs` [`EventSink`] as a [`TraceSpill`]: each evicted
/// edge becomes a [`Event`] counter sample (category `"signal"`, timestamp
/// in nanoseconds, the sequence number as the event argument), so the full
/// signal record lands in the same ring / Chrome-trace pipeline as every
/// other observability stream.
#[derive(Debug, Default)]
pub struct EventSinkSpill<S: EventSink> {
    sink: S,
}

impl<S: EventSink> EventSinkSpill<S> {
    /// Wraps `sink` as a spill target.
    pub fn new(sink: S) -> Self {
        EventSinkSpill { sink }
    }
}

impl<S: EventSink + Send> TraceSpill for EventSinkSpill<S> {
    fn record(&mut self, seq: u64, name: &str, change: SignalChange) {
        self.sink.emit(
            Event::counter(
                change.at.as_ns(),
                name.to_string(),
                "signal",
                0,
                change.value as u64,
            )
            .with_arg("seq", seq),
        );
    }
}

/// Point-in-time statistics of a board's trace store, as reported by the
/// `trace.ring_bytes` / `trace.spilled` gauges and the gdbrsp `trace-stats`
/// monitor command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceStats {
    /// Records currently in the ring.
    pub ring_records: usize,
    /// Ring occupancy in accounting bytes.
    pub ring_bytes: usize,
    /// Ring byte budget (`None` in [`TraceMode::Unbounded`]).
    pub budget_bytes: Option<usize>,
    /// Records delivered to a spill sink (exactly-once per sequence
    /// number, rewinds included).
    pub spilled: u64,
    /// Ring evictions, counting rewind-replayed duplicates — the host-side
    /// churn number, always ≥ unique evictions.
    pub evicted: u64,
    /// Next sequence number to be assigned (architectural: checkpointed).
    pub next_seq: u64,
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.budget_bytes {
            Some(b) => write!(f, "ring {}B of {}B", self.ring_bytes, b)?,
            None => write!(f, "ring {}B (unbounded)", self.ring_bytes)?,
        }
        write!(
            f,
            " ({} records), spilled {}, evicted {}, next seq {}",
            self.ring_records, self.spilled, self.evicted, self.next_seq
        )
    }
}

/// What a board keeps per signal name it has met, indexed by id.
#[derive(Clone, Debug)]
struct Slot {
    name: String,
    /// `None` until the signal is driven (and again after a restore to a
    /// state that never drove it). Only filled slots are architectural.
    signal: Option<Signal>,
}

/// A peripheral's reference to one of its own signals: the name, plus the
/// id that name resolved to on the board it was last driven on. The id is a
/// hint [`SignalBoard::drive_handle`] re-checks, never an authority (see the
/// module docs), so a handle may be created before any board exists and
/// moved between boards freely.
#[derive(Debug)]
pub(crate) struct SignalHandle {
    name: String,
    id: u32,
}

impl Clone for SignalHandle {
    fn clone(&self) -> Self {
        let SignalHandle { name, id } = self;
        SignalHandle {
            name: name.clone(),
            id: *id,
        }
    }
    // The id is a hint (see the module docs): a handle copied over one for
    // the same name keeps its own, resolved on the board it is driven on,
    // instead of taking one resolved on another board or on none.
    fn clone_from(&mut self, src: &Self) {
        let SignalHandle { name, id } = src;
        if self.name != *name {
            self.name.clone_from(name);
            self.id = *id;
        }
    }
}

impl SignalHandle {
    /// A handle for signal `name`, not yet resolved on any board.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        SignalHandle {
            name: name.into(),
            id: u32::MAX,
        }
    }
}

/// The shared trace store: the ring tier plus the spill frontier. Only
/// `next_seq` is architectural; everything else is host-side observability
/// that survives checkpoint restores (like an attached metrics registry).
#[derive(Default)]
struct TraceStore {
    mode: TraceMode,
    records: VecDeque<TraceRecord>,
    /// Next sequence number (architectural — serialized in v3 images).
    next_seq: u64,
    /// Eviction frontier: every seq below it has already left the ring
    /// once. Evicting a replayed record below the frontier is not
    /// re-spilled — that is the exactly-once guarantee across rewinds.
    evict_mark: u64,
    spilled: u64,
    evicted: u64,
    sink: Option<Box<dyn TraceSpill>>,
    /// What the last [`park_to`](TraceStore::park_to) took off the ring;
    /// boxed, as only a platform that parks states ever has one.
    cut: Option<Box<Cut>>,
}

/// The records a [`TraceStore::park_to`] took off the ring's tail, oldest
/// first, and the sequence counter it left. While the counter still reads
/// `at` no edge has been recorded since, and the next rewind or park puts
/// them back first: a parked state swapped in and straight out again, or
/// swapped in and then restored over, costs the ring nothing.
#[derive(Clone, Debug, Default)]
struct Cut {
    records: VecDeque<TraceRecord>,
    at: u64,
}

impl fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceStore")
            .field("mode", &self.mode)
            .field("records", &self.records.len())
            .field("next_seq", &self.next_seq)
            .field("evict_mark", &self.evict_mark)
            .field("spilled", &self.spilled)
            .field("evicted", &self.evicted)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl Clone for TraceStore {
    // The spill sink is a host-side attachment like a metrics registry; a
    // cloned board starts unspilled.
    fn clone(&self) -> Self {
        TraceStore {
            mode: self.mode,
            records: self.records.clone(),
            next_seq: self.next_seq,
            evict_mark: self.evict_mark,
            spilled: self.spilled,
            evicted: self.evicted,
            sink: None,
            cut: self.cut.clone(),
        }
    }
}

impl TraceStore {
    /// Appends one edge of signal `name_id`; `slots` (the board's id → name
    /// table) names whatever the push evicts into the spill sink.
    fn push(&mut self, name_id: u32, change: SignalChange, slots: &[Slot]) {
        self.records.push_back(TraceRecord {
            seq: self.next_seq,
            name_id,
            change,
        });
        self.next_seq += 1;
        self.enforce_budget(slots);
    }

    fn ring_bytes(&self) -> usize {
        self.records.len() * TRACE_RECORD_BYTES
    }

    fn enforce_budget(&mut self, slots: &[Slot]) {
        let TraceMode::Bounded { budget_bytes } = self.mode else {
            return;
        };
        while self.ring_bytes() > budget_bytes {
            let Some(rec) = self.records.pop_front() else {
                break;
            };
            self.evicted += 1;
            if rec.seq >= self.evict_mark {
                self.evict_mark = rec.seq + 1;
                if let Some(sink) = self.sink.as_mut() {
                    self.spilled += 1;
                    sink.record(rec.seq, &slots[rec.name_id as usize].name, rec.change);
                }
            }
        }
    }

    /// Reconciles the ring after a restore that rewound the architectural
    /// sequence counter to `next_seq`: records from the restored point's
    /// future are dropped (deterministic replay will re-record them
    /// identically); older records stay, so the recent window survives an
    /// in-place rewind.
    fn rewind_to(&mut self, next_seq: u64) {
        self.uncut();
        while self.records.back().is_some_and(|r| r.seq >= next_seq) {
            self.records.pop_back();
        }
        self.next_seq = next_seq;
    }

    /// [`rewind_to`](TraceStore::rewind_to) for a parked state swapped in
    /// ([`SignalBoard::exchange_values`]): the records from its future
    /// leave the ring as they would on a restore, but are kept aside — the
    /// cut — until an edge is recorded, because the state swapped in may
    /// only be passing through.
    fn park_to(&mut self, next_seq: u64) {
        self.uncut();
        let cut = self.cut.get_or_insert_with(Box::default);
        while let Some(r) = self.records.pop_back() {
            if r.seq < next_seq {
                self.records.push_back(r);
                break;
            }
            cut.records.push_front(r);
        }
        self.next_seq = next_seq;
        cut.at = next_seq;
    }

    /// Puts the cut back at the ring's tail if no edge has been recorded
    /// since it was made (the records it holds then still follow the
    /// ring's), and forgets it either way.
    fn uncut(&mut self) {
        if let Some(cut) = &mut self.cut {
            if self.next_seq == cut.at {
                self.records.append(&mut cut.records);
            } else {
                cut.records.clear();
            }
        }
    }

    fn stats(&self) -> TraceStats {
        TraceStats {
            ring_records: self.records.len(),
            ring_bytes: self.ring_bytes(),
            budget_bytes: match self.mode {
                TraceMode::Bounded { budget_bytes } => Some(budget_bytes),
                TraceMode::Unbounded => None,
            },
            spilled: self.spilled,
            evicted: self.evicted,
            next_seq: self.next_seq,
        }
    }
}

/// The set of all named signals of a platform, plus the shared trace store.
///
/// Names are hierarchical by convention, e.g. `"irq.core0"`,
/// `"dma0.busy"`, `"timer0.tick"`. Driving an unknown name creates it, so
/// peripherals need no registration step.
#[derive(Clone, Debug, Default)]
pub struct SignalBoard {
    /// The intern table: one slot per signal name the board has met, the
    /// name stored once, the index being the signal's id. Host-side and
    /// monotonic — ids stay stable across restores for the whole life of
    /// the board.
    slots: Vec<Slot>,
    /// Every id, ordered by the name it stands for: the lookup index, and
    /// the iteration order of everything that walks signals by name.
    by_name: Vec<u32>,
    trace: TraceStore,
}

impl SignalBoard {
    /// Creates an empty board (bounded trace ring, default budget, no
    /// spill sink).
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.by_name
            .binary_search_by(|&id| self.slots[id as usize].name.as_str().cmp(name))
    }

    /// The id of `name`, interning it (with an empty slot) on first sight;
    /// only then is `name` turned into a `String` (moved, if it is one).
    fn intern(&mut self, name: impl AsRef<str> + Into<String>) -> u32 {
        match self.position(name.as_ref()) {
            Ok(i) => self.by_name[i],
            Err(i) => {
                let id = self.slots.len() as u32;
                self.slots.push(Slot {
                    name: name.into(),
                    signal: None,
                });
                self.by_name.insert(i, id);
                id
            }
        }
    }

    fn drive_id(&mut self, id: u32, at: Time, value: Word) -> bool {
        let changed = self.slots[id as usize]
            .signal
            .get_or_insert_with(Signal::default)
            .drive(at, value);
        if changed {
            self.trace.push(id, SignalChange { at, value }, &self.slots);
        }
        changed
    }

    /// Drives `name` to `value` at time `at`.
    ///
    /// Returns `true` if the value actually changed (edges, not levels,
    /// populate the trace ring).
    pub fn drive(&mut self, name: &str, at: Time, value: Word) -> bool {
        let id = self.intern(name);
        self.drive_id(id, at, value)
    }

    /// [`drive`](SignalBoard::drive) for a caller that drives the same
    /// signal over and over: no name lookup while `handle` keeps meeting
    /// the board that resolved it, and the same result on any other board
    /// (the handle is re-resolved there — see the module docs).
    pub(crate) fn drive_handle(
        &mut self,
        handle: &mut SignalHandle,
        at: Time,
        value: Word,
    ) -> bool {
        if self.slots.get(handle.id as usize).map(|s| &s.name) != Some(&handle.name) {
            handle.id = self.intern(handle.name.as_str());
        }
        self.drive_id(handle.id, at, value)
    }

    /// The id `name` is interned under, if this board has met it. Ids are
    /// host-side: stable for the life of this board (restores included),
    /// meaningless on any other.
    pub fn id(&self, name: &str) -> Option<u32> {
        self.position(name).ok().map(|i| self.by_name[i])
    }

    fn signal_at(&self, id: u32) -> Option<&Signal> {
        self.slots.get(id as usize)?.signal.as_ref()
    }

    /// Current value of `name` (0 if the signal was never driven).
    pub fn value(&self, name: &str) -> Word {
        self.get(name).map_or(0, Signal::value)
    }

    /// Current value of the signal interned under `id` (0 if it was never
    /// driven, or no such id exists).
    pub fn value_at(&self, id: u32) -> Word {
        self.signal_at(id).map_or(0, Signal::value)
    }

    /// The current value behind every id this board has handed out, in id
    /// order (0 where the signal was never driven).
    pub fn values(&self) -> impl Iterator<Item = Word> + '_ {
        self.slots
            .iter()
            .map(|s| s.signal.as_ref().map_or(0, Signal::value))
    }

    /// The signal object, if it exists.
    pub fn get(&self, name: &str) -> Option<&Signal> {
        self.signal_at(self.id(name)?)
    }

    /// Iterates over `(name, signal)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Signal)> {
        self.by_name.iter().filter_map(|&id| {
            let slot = &self.slots[id as usize];
            Some((slot.name.as_str(), slot.signal.as_ref()?))
        })
    }

    /// Names of all known signals, in order.
    pub fn names(&self) -> Vec<String> {
        self.iter().map(|(name, _)| name.to_string()).collect()
    }

    // -- trace store --------------------------------------------------------

    /// The edges of `name` still held in the trace ring, oldest first. In
    /// [`TraceMode::Unbounded`] this is the signal's complete history; in
    /// bounded mode it is the recent window (older edges live in the spill
    /// sink, if one is attached).
    pub fn recent(&self, name: &str) -> Vec<SignalChange> {
        let Some(id) = self.id(name) else {
            return Vec::new();
        };
        self.trace
            .records
            .iter()
            .filter(|r| r.name_id == id)
            .map(|r| r.change)
            .collect()
    }

    /// Every ring record across all signals, oldest first, as
    /// `(seq, name, change)`.
    pub fn trace_records(&self) -> impl Iterator<Item = (u64, &str, SignalChange)> {
        self.trace.records.iter().map(|r| {
            (
                r.seq,
                self.slots[r.name_id as usize].name.as_str(),
                r.change,
            )
        })
    }

    /// The architectural edge counter ([`TraceStats::next_seq`]): it
    /// advances exactly when a drive changes some signal's value, so two
    /// equal readings on one timeline bracket a span with no edge.
    pub fn next_seq(&self) -> u64 {
        self.trace.next_seq
    }

    /// The id (see [`id`](SignalBoard::id)) behind each edge driven since
    /// the edge counter read `seq`, oldest first (a signal that changed
    /// twice is yielded twice). `None` when the ring no longer holds every
    /// one of those edges — evicted under a small budget, or `seq` is not
    /// from this timeline — and the caller has to look at every signal
    /// instead.
    pub fn changed_since(&self, seq: u64) -> Option<impl Iterator<Item = u32> + '_> {
        let records = &self.trace.records;
        let n = usize::try_from(self.trace.next_seq.checked_sub(seq)?).ok()?;
        let start = records.len().checked_sub(n)?;
        // Sequence numbers in the ring strictly increase, so `n` records
        // starting at `seq` and ending below `next_seq` are exactly the span.
        if records.get(start).is_some_and(|r| r.seq != seq) {
            return None;
        }
        Some(records.range(start..).map(|r| r.name_id))
    }

    /// Trace-store occupancy and counters.
    pub fn trace_stats(&self) -> TraceStats {
        self.trace.stats()
    }

    /// Switches the retention policy. Shrinking the budget (or leaving
    /// [`TraceMode::Unbounded`]) evicts immediately down to the new budget.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace.cut = None;
        self.trace.mode = mode;
        self.trace.enforce_budget(&self.slots);
    }

    /// Convenience for `set_trace_mode(TraceMode::Bounded { budget_bytes })`.
    pub fn set_trace_budget(&mut self, budget_bytes: usize) {
        self.set_trace_mode(TraceMode::Bounded { budget_bytes });
    }

    /// Attaches the spill sink that receives records evicted from the ring;
    /// returns the previous sink, if any. Evictions before any sink was
    /// attached are unrecoverable (the eviction frontier does not move
    /// backwards).
    pub fn attach_trace_spill(&mut self, sink: Box<dyn TraceSpill>) -> Option<Box<dyn TraceSpill>> {
        self.trace.sink.replace(sink)
    }

    /// Adopts the architectural half of a restored board (which signals are
    /// driven, their values and last edges, the sequence counter) while
    /// keeping this board's host-side half (name table, and the trace
    /// tier's mode, ring, counters and spill sink), with the ring
    /// reconciled to the restored sequence counter — the checkpoint-restore
    /// hook. Every slot is emptied first and re-filled by *name*: the
    /// restored board's ids are its own.
    ///
    /// Ring contents are only meaningful when the restored image comes from
    /// this platform's own timeline (the time-travel rewind case); after
    /// restoring a foreign image, treat the ring as garbage until the next
    /// wrap.
    pub(crate) fn adopt(&mut self, restored: &SignalBoard) {
        for slot in &mut self.slots {
            slot.signal = None;
        }
        for (name, sig) in restored.iter() {
            let id = self.intern(name);
            self.slots[id as usize].signal = Some(*sig);
        }
        self.trace.rewind_to(restored.trace.next_seq);
    }

    /// Writes to `ids` the id on this board of each of `restored`'s slots,
    /// in `restored`'s id order, interning the names this board has not
    /// met: what [`adopt_by_id`](SignalBoard::adopt_by_id) takes, so that a
    /// restore installing one decoded board again and again looks its names
    /// up once.
    pub(crate) fn intern_all(&mut self, restored: &SignalBoard, ids: &mut Vec<u32>) {
        ids.clear();
        ids.extend(restored.slots.iter().map(|s| self.intern(s.name.as_str())));
    }

    /// [`adopt`](SignalBoard::adopt) with the names looked up already:
    /// `ids` is what [`intern_all`](SignalBoard::intern_all) wrote for
    /// `restored` on this board, and stays right as long as the board
    /// lives, because its ids do.
    pub(crate) fn adopt_by_id(&mut self, restored: &SignalBoard, ids: &[u32]) {
        debug_assert_eq!(ids.len(), restored.slots.len());
        for slot in &mut self.slots {
            slot.signal = None;
        }
        for (slot, &id) in restored.slots.iter().zip(ids) {
            debug_assert_eq!(self.slots[id as usize].name, slot.name);
            self.slots[id as usize].signal = slot.signal;
        }
        self.trace.rewind_to(restored.trace.next_seq);
    }

    /// A board for [`exchange_values`](SignalBoard::exchange_values) that
    /// holds no values yet, with this board's sequence counter, so that
    /// exchanging it in takes no record off this board's ring: the
    /// parked state before anything is parked.
    pub(crate) fn empty_parked(&self) -> SignalBoard {
        let mut parked = SignalBoard::new();
        parked.trace.next_seq = self.trace.next_seq;
        parked
    }

    /// Exchanges the architectural half of this board — each signal's
    /// value and last edge, and the sequence counter — with `parked`, a
    /// board used for its values only: its slot `i` holds what this board's
    /// id `i` held when it was parked (a slot it lacks, an id interned
    /// since, was never driven there). The host-side half stays with this
    /// board: names, and the trace tier — ring, spill sink, budget and
    /// counters — with the ring reconciled to the swapped-in sequence
    /// counter as a restore reconciles it. The swap for
    /// [`Platform::swap_parked`](crate::Platform::swap_parked): no
    /// allocation once `parked` has a slot for every id.
    pub(crate) fn exchange_values(&mut self, parked: &mut SignalBoard) {
        if parked.slots.len() < self.slots.len() {
            parked.slots.resize_with(self.slots.len(), || Slot {
                name: String::new(),
                signal: None,
            });
        }
        for (live, held) in self.slots.iter_mut().zip(&mut parked.slots) {
            std::mem::swap(&mut live.signal, &mut held.signal);
        }
        let seq = std::mem::replace(&mut parked.trace.next_seq, self.trace.next_seq);
        self.trace.park_to(seq);
    }
}

impl mpsoc_snapshot::Snapshot for SignalChange {
    fn save(&self, w: &mut mpsoc_snapshot::Writer) {
        self.at.save(w);
        w.put_i64(self.value);
    }
    fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<Self> {
        Ok(SignalChange {
            at: Time::load(r)?,
            value: r.get_i64()?,
        })
    }
}

impl mpsoc_snapshot::Snapshot for Signal {
    // v3 image layout: current value + last edge only. History is
    // checkpoint-excluded by design — see the module docs.
    fn save(&self, w: &mut mpsoc_snapshot::Writer) {
        w.put_i64(self.value);
        self.last_change.save(w);
    }
    fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<Self> {
        Ok(Signal {
            value: r.get_i64()?,
            last_change: Option::<SignalChange>::load(r)?,
        })
    }
}

impl mpsoc_snapshot::Snapshot for SignalBoard {
    // Driven signals in name order, so the encoding is a deterministic
    // function of architectural board contents — not of the order names
    // were interned in — and O(signals), never O(steps): the name table and
    // the trace ring are host-side state and stay out of the image, except
    // for the sequence counter that restores reconcile against.
    fn save(&self, w: &mut mpsoc_snapshot::Writer) {
        w.put_u64(self.iter().count() as u64);
        for (name, sig) in self.iter() {
            w.put_str(name);
            sig.save(w);
        }
        w.put_u64(self.trace.next_seq);
    }
    fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<Self> {
        let n = r.get_len(1)?;
        let mut board = SignalBoard::new();
        board.slots.reserve(n);
        board.by_name.reserve(n);
        for _ in 0..n {
            let id = board.intern(r.get_str()?);
            board.slots[id as usize].signal = Some(Signal::load(r)?);
        }
        board.trace.next_seq = r.get_u64()?;
        Ok(board)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Spill sink that keeps everything, for reconstruction checks. The
    /// shared handle lets the test read what the board-owned box received.
    #[derive(Clone, Default)]
    pub(crate) struct VecSpill(pub(crate) Arc<Mutex<Vec<(u64, String, SignalChange)>>>);

    impl TraceSpill for VecSpill {
        fn record(&mut self, seq: u64, name: &str, change: SignalChange) {
            self.0.lock().unwrap().push((seq, name.to_string(), change));
        }
    }

    #[test]
    fn undriven_signal_reads_zero() {
        let b = SignalBoard::new();
        assert_eq!(b.value("irq.core0"), 0);
        assert!(b.get("irq.core0").is_none());
    }

    #[test]
    fn drive_records_edges_only() {
        let mut b = SignalBoard::new();
        assert!(b.drive("x", Time::from_ns(1), 1));
        assert!(!b.drive("x", Time::from_ns(2), 1)); // level, not edge
        assert!(b.drive("x", Time::from_ns(3), 0));
        let h = b.recent("x");
        assert_eq!(h.len(), 2);
        assert_eq!(
            h[0],
            SignalChange {
                at: Time::from_ns(1),
                value: 1
            }
        );
        assert_eq!(
            h[1],
            SignalChange {
                at: Time::from_ns(3),
                value: 0
            }
        );
        assert_eq!(b.get("x").unwrap().last_change(), Some(h[1]));
        assert_eq!(b.trace_stats().next_seq, 2);
    }

    #[test]
    fn names_sorted() {
        let mut b = SignalBoard::new();
        b.drive("zeta", Time::ZERO, 1);
        b.drive("alpha", Time::ZERO, 1);
        assert_eq!(b.names(), vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[test]
    fn iter_exposes_all() {
        let mut b = SignalBoard::new();
        b.drive("a", Time::ZERO, 5);
        let collected: Vec<_> = b.iter().map(|(n, s)| (n.to_string(), s.value())).collect();
        assert_eq!(collected, vec![("a".to_string(), 5)]);
    }

    #[test]
    fn bounded_ring_evicts_oldest_into_spill() {
        let mut b = SignalBoard::new();
        b.set_trace_budget(4 * TRACE_RECORD_BYTES);
        let spill = VecSpill::default();
        b.attach_trace_spill(Box::new(spill.clone()));
        for i in 0..10i64 {
            b.drive("x", Time::from_ns(i as u64 + 1), i + 1);
        }
        let st = b.trace_stats();
        assert_eq!(st.ring_records, 4);
        assert_eq!(st.ring_bytes, 4 * TRACE_RECORD_BYTES);
        assert_eq!(st.evicted, 6);
        assert_eq!(st.spilled, 6);
        assert_eq!(st.next_seq, 10);
        // Spill (oldest first) + ring reconstruct the full history.
        let mut full: Vec<i64> = spill
            .0
            .lock()
            .unwrap()
            .iter()
            .map(|(_, _, c)| c.value)
            .collect();
        full.extend(b.recent("x").iter().map(|c| c.value));
        assert_eq!(full, (1..=10).collect::<Vec<i64>>());
    }

    #[test]
    fn changed_since_identifies_the_edges_or_admits_it_cannot() {
        let mut b = SignalBoard::new();
        b.set_trace_budget(3 * TRACE_RECORD_BYTES);
        b.drive("a", Time::from_ns(1), 1);
        let seen = b.next_seq();
        assert_eq!(b.changed_since(seen).unwrap().count(), 0);
        b.drive("b", Time::from_ns(2), 1);
        b.drive("a", Time::from_ns(3), 1); // level, not an edge
        b.drive("a", Time::from_ns(4), 0);
        let ids: Vec<u32> = b.changed_since(seen).unwrap().collect();
        assert_eq!(ids, vec![b.id("b").unwrap(), b.id("a").unwrap()]);
        // Two more edges push the span's first record out of the ring.
        b.drive("b", Time::from_ns(5), 0);
        b.drive("b", Time::from_ns(6), 1);
        assert!(b.changed_since(seen).is_none(), "evicted: cannot tell");
        assert!(b.changed_since(b.next_seq() + 1).is_none(), "future seq");
    }

    #[test]
    fn unbounded_mode_retains_everything() {
        let mut b = SignalBoard::new();
        b.set_trace_mode(TraceMode::Unbounded);
        for i in 0..1000i64 {
            b.drive("x", Time::from_ns(i as u64 + 1), i + 1);
        }
        assert_eq!(b.recent("x").len(), 1000);
        assert_eq!(b.trace_stats().evicted, 0);
        assert_eq!(b.trace_stats().budget_bytes, None);
    }

    #[test]
    fn shrinking_budget_evicts_immediately() {
        let mut b = SignalBoard::new();
        for i in 0..8i64 {
            b.drive("x", Time::from_ns(i as u64 + 1), i + 1);
        }
        assert_eq!(b.trace_stats().ring_records, 8);
        b.set_trace_budget(2 * TRACE_RECORD_BYTES);
        assert_eq!(b.trace_stats().ring_records, 2);
        assert_eq!(
            b.recent("x").iter().map(|c| c.value).collect::<Vec<_>>(),
            vec![7, 8]
        );
    }

    #[test]
    fn rewind_truncates_future_and_dedups_spill() {
        let mut b = SignalBoard::new();
        b.set_trace_budget(4 * TRACE_RECORD_BYTES);
        let spill = VecSpill::default();
        b.attach_trace_spill(Box::new(spill.clone()));
        for i in 0..10i64 {
            b.drive("x", Time::from_ns(i as u64 + 1), i + 1);
        }
        // Checkpoint-restore to seq 8, then deterministically replay the
        // same two edges: spill must not receive duplicates.
        let spilled_before = b.trace_stats().spilled;
        let mut restored = SignalBoard::new();
        restored.trace.next_seq = 8;
        restored.drive_raw_for_test();
        b.adopt(&restored);
        assert_eq!(b.trace_stats().next_seq, 8);
        for i in 8..10i64 {
            b.drive("x", Time::from_ns(i as u64 + 1), i + 1);
        }
        assert_eq!(
            b.trace_stats().spilled,
            spilled_before,
            "rewind replay must not re-spill"
        );
        let mut full: Vec<i64> = spill
            .0
            .lock()
            .unwrap()
            .iter()
            .map(|(_, _, c)| c.value)
            .collect();
        full.extend(b.recent("x").iter().map(|c| c.value));
        assert_eq!(full, (1..=10).collect::<Vec<i64>>());
    }

    impl SignalBoard {
        /// Test helper standing in for "values as they were at seq 8".
        fn drive_raw_for_test(&mut self) {
            let id = self.intern("x");
            self.slots[id as usize].signal = Some(Signal {
                value: 7,
                last_change: Some(SignalChange {
                    at: Time::from_ns(7),
                    value: 7,
                }),
            });
        }
    }

    /// The board this module had before signals were interned: one
    /// `BTreeMap<String, Signal>`, the trace store keeping its own name
    /// table, every operation by name. Kept verbatim as the oracle for
    /// [`interned_board_matches_the_by_name_reference`].
    mod reference {
        use super::super::*;
        use std::collections::BTreeMap;

        #[derive(Default)]
        struct TraceStore {
            mode: TraceMode,
            records: VecDeque<TraceRecord>,
            names: Vec<String>,
            ids: BTreeMap<String, u32>,
            next_seq: u64,
            evict_mark: u64,
            spilled: u64,
            evicted: u64,
            sink: Option<Box<dyn TraceSpill>>,
        }

        impl TraceStore {
            fn intern(&mut self, name: &str) -> u32 {
                if let Some(&id) = self.ids.get(name) {
                    return id;
                }
                let id = self.names.len() as u32;
                self.names.push(name.to_string());
                self.ids.insert(name.to_string(), id);
                id
            }

            fn push(&mut self, name: &str, change: SignalChange) {
                let name_id = self.intern(name);
                self.records.push_back(TraceRecord {
                    seq: self.next_seq,
                    name_id,
                    change,
                });
                self.next_seq += 1;
                self.enforce_budget();
            }

            fn ring_bytes(&self) -> usize {
                self.records.len() * TRACE_RECORD_BYTES
            }

            fn enforce_budget(&mut self) {
                let TraceMode::Bounded { budget_bytes } = self.mode else {
                    return;
                };
                while self.ring_bytes() > budget_bytes {
                    let Some(rec) = self.records.pop_front() else {
                        break;
                    };
                    self.evicted += 1;
                    if rec.seq >= self.evict_mark {
                        self.evict_mark = rec.seq + 1;
                        if let Some(sink) = self.sink.as_mut() {
                            self.spilled += 1;
                            sink.record(rec.seq, &self.names[rec.name_id as usize], rec.change);
                        }
                    }
                }
            }

            fn rewind_to(&mut self, next_seq: u64) {
                while self.records.back().is_some_and(|r| r.seq >= next_seq) {
                    self.records.pop_back();
                }
                self.next_seq = next_seq;
            }
        }

        #[derive(Default)]
        pub(super) struct RefBoard {
            signals: BTreeMap<String, Signal>,
            trace: TraceStore,
        }

        impl RefBoard {
            pub(super) fn drive(&mut self, name: &str, at: Time, value: Word) -> bool {
                let changed = match self.signals.get_mut(name) {
                    Some(sig) => sig.drive(at, value),
                    None => self
                        .signals
                        .entry(name.to_string())
                        .or_default()
                        .drive(at, value),
                };
                if changed {
                    self.trace.push(name, SignalChange { at, value });
                }
                changed
            }

            pub(super) fn value(&self, name: &str) -> Word {
                self.signals.get(name).map_or(0, |s| s.value())
            }

            pub(super) fn get(&self, name: &str) -> Option<&Signal> {
                self.signals.get(name)
            }

            pub(super) fn iter(&self) -> impl Iterator<Item = (&str, &Signal)> {
                self.signals.iter().map(|(n, s)| (n.as_str(), s))
            }

            pub(super) fn names(&self) -> Vec<String> {
                self.signals.keys().cloned().collect()
            }

            pub(super) fn recent(&self, name: &str) -> Vec<SignalChange> {
                let Some(&id) = self.trace.ids.get(name) else {
                    return Vec::new();
                };
                self.trace
                    .records
                    .iter()
                    .filter(|r| r.name_id == id)
                    .map(|r| r.change)
                    .collect()
            }

            pub(super) fn trace_records(&self) -> impl Iterator<Item = (u64, &str, SignalChange)> {
                self.trace.records.iter().map(|r| {
                    (
                        r.seq,
                        self.trace.names[r.name_id as usize].as_str(),
                        r.change,
                    )
                })
            }

            pub(super) fn next_seq(&self) -> u64 {
                self.trace.next_seq
            }

            pub(super) fn changed_since(&self, seq: u64) -> Option<impl Iterator<Item = &str>> {
                let records = &self.trace.records;
                let n = usize::try_from(self.trace.next_seq.checked_sub(seq)?).ok()?;
                let start = records.len().checked_sub(n)?;
                if records.get(start).is_some_and(|r| r.seq != seq) {
                    return None;
                }
                let names = &self.trace.names;
                Some(
                    records
                        .range(start..)
                        .map(move |r| names[r.name_id as usize].as_str()),
                )
            }

            pub(super) fn trace_stats(&self) -> TraceStats {
                TraceStats {
                    ring_records: self.trace.records.len(),
                    ring_bytes: self.trace.ring_bytes(),
                    budget_bytes: match self.trace.mode {
                        TraceMode::Bounded { budget_bytes } => Some(budget_bytes),
                        TraceMode::Unbounded => None,
                    },
                    spilled: self.trace.spilled,
                    evicted: self.trace.evicted,
                    next_seq: self.trace.next_seq,
                }
            }

            pub(super) fn set_trace_mode(&mut self, mode: TraceMode) {
                self.trace.mode = mode;
                self.trace.enforce_budget();
            }

            pub(super) fn attach_trace_spill(&mut self, sink: Box<dyn TraceSpill>) {
                self.trace.sink = Some(sink);
            }

            pub(super) fn adopt(&mut self, restored: RefBoard) {
                self.signals = restored.signals;
                self.trace.rewind_to(restored.trace.next_seq);
            }

            pub(super) fn save(&self, w: &mut mpsoc_snapshot::Writer) {
                use mpsoc_snapshot::Snapshot;
                w.put_u64(self.signals.len() as u64);
                for (name, sig) in &self.signals {
                    w.put_str(name);
                    sig.save(w);
                }
                w.put_u64(self.trace.next_seq);
            }

            pub(super) fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> RefBoard {
                use mpsoc_snapshot::Snapshot;
                let n = r.get_len(1).unwrap();
                let mut signals = BTreeMap::new();
                for _ in 0..n {
                    let name = r.get_str().unwrap();
                    signals.insert(name, Signal::load(r).unwrap());
                }
                let mut board = RefBoard {
                    signals,
                    trace: TraceStore::default(),
                };
                board.trace.next_seq = r.get_u64().unwrap();
                board
            }
        }
    }

    /// Everything observable about a board, names resolved, for comparison
    /// with the same reading of the reference.
    #[derive(Debug, PartialEq)]
    struct Observed {
        signals: Vec<(String, Word, Option<SignalChange>)>,
        names: Vec<String>,
        records: Vec<(u64, String, SignalChange)>,
        stats: TraceStats,
        image: Vec<u8>,
    }

    /// Reads an [`Observed`] off either board: the two share method names,
    /// not a trait.
    macro_rules! observe {
        ($board:expr) => {{
            let b = $board;
            let mut w = mpsoc_snapshot::Writer::new();
            b.save(&mut w);
            Observed {
                signals: b
                    .iter()
                    .map(|(n, s)| (n.to_string(), s.value(), s.last_change()))
                    .collect(),
                names: b.names(),
                records: b
                    .trace_records()
                    .map(|(seq, n, c)| (seq, n.to_string(), c))
                    .collect(),
                stats: b.trace_stats(),
                image: w.into_bytes(),
            }
        }};
    }

    /// Seeded differential test against the by-name board this module used
    /// to be: random names, levels and edges through `drive` and through
    /// handles (resolved on this board, on another, or not at all), budgets
    /// small enough to evict, a spill sink, and `adopt` of an older image of
    /// the same timeline and of a foreign board with other names.
    #[test]
    fn interned_board_matches_the_by_name_reference() {
        use mpsoc_obs::rng::XorShift64Star;
        use mpsoc_snapshot::Snapshot;

        const POOL: [&str; 10] = [
            "irq.core0",
            "dma0.busy",
            "timer0.tick",
            "a",
            "b",
            "mb.avail",
            "zz.last",
            "0.first",
            "lock.held",
            "timer1.tick",
        ];
        for seed in 1..=24u64 {
            let mut rng = XorShift64Star::new(seed);
            let (mut new, mut old) = (SignalBoard::new(), reference::RefBoard::default());
            let (spill_new, spill_old) = (VecSpill::default(), VecSpill::default());
            if rng.chance_pct(70) {
                new.attach_trace_spill(Box::new(spill_new.clone()));
                old.attach_trace_spill(Box::new(spill_old.clone()));
            }
            // Handles as peripherals hold them: one per pool name, plus a
            // second board they sometimes visit in between.
            let mut handles: Vec<SignalHandle> =
                POOL.iter().map(|n| SignalHandle::new(*n)).collect();
            let mut elsewhere = SignalBoard::new();
            let mut images: Vec<Vec<u8>> = Vec::new();
            let mut seen_seq = 0;
            let mut now = 0u64;
            for op in 0..400 {
                let ctx = format!("seed {seed} op {op}");
                now += rng.u64_in(0, 3);
                let at = Time::from_ns(now);
                match rng.usize_in(0, 19) {
                    0..=7 => {
                        let name = POOL[rng.usize_in(0, POOL.len() - 1)];
                        let value = rng.i64_in(0, 2);
                        assert_eq!(
                            new.drive(name, at, value),
                            old.drive(name, at, value),
                            "{ctx}"
                        );
                    }
                    8..=13 => {
                        let i = rng.usize_in(0, POOL.len() - 1);
                        let value = rng.i64_in(0, 2);
                        if rng.chance_pct(20) {
                            // The handle meets a board with other ids first.
                            elsewhere.drive("filler", at, op);
                            elsewhere.drive_handle(&mut handles[i], at, value);
                        }
                        assert_eq!(
                            new.drive_handle(&mut handles[i], at, value),
                            old.drive(POOL[i], at, value),
                            "{ctx}"
                        );
                    }
                    14 => {
                        let mode = match rng.usize_in(0, 3) {
                            0 => TraceMode::Unbounded,
                            _ => TraceMode::Bounded {
                                budget_bytes: rng.usize_in(0, 12) * TRACE_RECORD_BYTES,
                            },
                        };
                        new.set_trace_mode(mode);
                        old.set_trace_mode(mode);
                    }
                    15 | 16 => {
                        let mut w = mpsoc_snapshot::Writer::new();
                        new.save(&mut w);
                        images.push(w.into_bytes());
                    }
                    17 if !images.is_empty() => {
                        // Rewind onto an earlier point of this timeline.
                        let image = &images[rng.usize_in(0, images.len() - 1)];
                        let mut r = mpsoc_snapshot::Reader::new(image);
                        new.adopt(&SignalBoard::load(&mut r).unwrap());
                        r.finish().unwrap();
                        old.adopt(reference::RefBoard::load(&mut mpsoc_snapshot::Reader::new(
                            image,
                        )));
                    }
                    18 => {
                        // A foreign image: other names, another timeline.
                        let (mut f_new, mut f_old) =
                            (SignalBoard::new(), reference::RefBoard::default());
                        for k in 0..rng.usize_in(0, 4) {
                            let name = ["foreign.x", "a", "timer0.tick", "y"][k];
                            let value = rng.i64_in(0, 3);
                            f_new.drive(name, at, value);
                            f_old.drive(name, at, value);
                        }
                        new.adopt(&f_new);
                        old.adopt(f_old);
                    }
                    _ => {
                        let since_new: Option<Vec<String>> = new
                            .changed_since(seen_seq)
                            .map(|ids| ids.map(|id| new.slots[id as usize].name.clone()).collect());
                        let since_old: Option<Vec<String>> = old
                            .changed_since(seen_seq)
                            .map(|names| names.map(str::to_string).collect());
                        assert_eq!(since_new, since_old, "{ctx}: changed_since({seen_seq})");
                        seen_seq = new.next_seq();
                    }
                }
                assert_eq!(observe!(&new), observe!(&old), "{ctx}");
                assert_eq!(new.next_seq(), old.next_seq(), "{ctx}");
                for name in POOL.iter().chain(&["foreign.x", "y", "never"]) {
                    assert_eq!(new.value(name), old.value(name), "{ctx}: {name}");
                    assert_eq!(
                        new.get(name).map(|s| (s.value(), s.last_change())),
                        old.get(name).map(|s| (s.value(), s.last_change())),
                        "{ctx}: {name}"
                    );
                    assert_eq!(new.recent(name), old.recent(name), "{ctx}: {name}");
                    let id_value = new.id(name).map_or(0, |id| new.value_at(id));
                    assert_eq!(id_value, old.value(name), "{ctx}: {name} by id");
                }
                let by_id: Vec<Word> = new.values().collect();
                let by_name: Vec<Word> = new.slots.iter().map(|s| old.value(&s.name)).collect();
                assert_eq!(by_id, by_name, "{ctx}: values()");
            }
            assert_eq!(
                *spill_new.0.lock().unwrap(),
                *spill_old.0.lock().unwrap(),
                "seed {seed}: spilled records"
            );
        }
    }

    #[test]
    fn snapshot_round_trip_is_o_platform() {
        let mut small = SignalBoard::new();
        let mut big = SignalBoard::new();
        small.set_trace_mode(TraceMode::Unbounded);
        big.set_trace_mode(TraceMode::Unbounded);
        for i in 0..3i64 {
            small.drive("s", Time::from_ns(i as u64 + 1), i + 1);
        }
        for i in 0..5000i64 {
            big.drive("s", Time::from_ns(i as u64 + 1), i + 1);
        }
        let encode = |b: &SignalBoard| {
            let mut w = mpsoc_snapshot::Writer::new();
            use mpsoc_snapshot::Snapshot;
            b.save(&mut w);
            w.into_bytes()
        };
        let (s, b) = (encode(&small), encode(&big));
        assert_eq!(s.len(), b.len(), "image bytes must not grow with history");
        use mpsoc_snapshot::Snapshot;
        let mut r = mpsoc_snapshot::Reader::new(&b);
        let loaded = SignalBoard::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(loaded.value("s"), 5000);
        assert_eq!(
            loaded.get("s").unwrap().last_change(),
            big.get("s").unwrap().last_change()
        );
        assert_eq!(loaded.trace_stats().next_seq, 5000);
        assert!(
            loaded.recent("s").is_empty(),
            "history is checkpoint-excluded"
        );
    }

    #[test]
    fn event_sink_spill_forwards_to_obs() {
        use mpsoc_obs::event::EventKind;
        use mpsoc_obs::ring::{RingSink, SharedSink};
        let shared = SharedSink::new(RingSink::new(16));
        let mut b = SignalBoard::new();
        b.set_trace_budget(TRACE_RECORD_BYTES);
        b.attach_trace_spill(Box::new(EventSinkSpill::new(shared.clone())));
        b.drive("irq", Time::from_ns(5), 1);
        b.drive("irq", Time::from_ns(9), 0);
        // The first edge was evicted when the second arrived.
        assert_eq!(b.trace_stats().spilled, 1);
        let evs = shared.with(|s| s.events().to_vec());
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "irq");
        assert_eq!(evs[0].cat, "signal");
        assert_eq!(evs[0].ts, 5);
        assert_eq!(evs[0].kind, EventKind::Counter { value: 1 });
        assert_eq!(evs[0].arg, Some(("seq", 0)));
    }
}
