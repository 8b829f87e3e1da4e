//! Whole-platform checkpoint/restore and fault injection.
//!
//! Section VII's virtual-platform arguments rest on the simulator being a
//! closed, deterministic state machine: *"the simulated platform can be
//! stopped synchronously as a whole"*. This module makes that stop durable —
//! [`Platform::capture`] serializes every bit of simulated state (cores,
//! memories, caches, interconnect occupancy, peripheral registers, in-flight
//! DMA) into a versioned binary image, and [`Platform::restore_image`] /
//! [`Platform::from_image`] resume from it such that the continuation is
//! bit-identical to a run that never checkpointed.
//!
//! Two debugging workflows build on this invariant:
//!
//! * **Time travel** (`mpsoc-vpdebug`): periodic auto-checkpoints plus
//!   deterministic re-execution give `step-back` and `reverse-continue`
//!   without ever simulating backwards.
//! * **Fault-injection campaigns** (`mpsoc-vpdebug`): snapshot at a fault
//!   site, perturb one bit ([`Platform::inject_reg_flip`] and friends), run
//!   to a verdict, roll back, repeat — thousands of deterministic what-if
//!   runs from one image.
//!
//! What is deliberately **not** serialized: attached metrics handles (host
//! observability, not simulated state), host-side scratch (the last
//! step's event and its access buffer), the event
//! calendar (derived state, rebuilt from actor state on restore),
//! the RAM dirty bitmaps (meaningful only relative to a live base), and —
//! since image v3 — the signal trace ring and spill tier (host
//! observability; only each signal's value, last edge, and the trace
//! sequence counter are architectural, which is what keeps image size
//! O(platform) instead of O(steps)).
//!
//! ## One format: a full image is a delta against the empty platform
//!
//! Every image names its *base* and carries, besides the small state
//! (cores, caches, peripherals, interconnect, signals, pending DMA — all
//! cheap, always whole), only the RAM pages that differ from that base:
//!
//! * [`Platform::capture`] writes the non-zero pages against the empty
//!   platform, whose RAM is all zeros, so a full image costs the small
//!   state plus the written memory, not O(memory). It clears the per-page
//!   dirty bitmaps and remembers the image's payload checksum as the
//!   platform's *base mark*.
//! * [`Platform::capture_delta`] writes the *dirty* pages against the
//!   base the mark names, so a delta can never be applied against the
//!   wrong base.
//! * One decoder reads both. [`Platform::restore_image`],
//!   [`Platform::from_image`] and [`BaseImage::new`] decode against zeros;
//!   [`Platform::restore_delta`] decodes against its [`BaseImage`] and
//!   patches RAM in place — O(dirty pages) when the platform still sits on
//!   the same base, by full copy otherwise.
//! * [`Platform::reset_to_base`] is the degenerate delta (no dirty pages):
//!   the fault-campaign rollback primitive. It decodes the base's small
//!   state and stops where the RAM section starts.
//!
//! ## Where integrity is checked
//!
//! Bytes are hashed once, where they enter: [`BaseImage::new`],
//! [`Platform::restore_image`] / [`Platform::from_image`] and
//! [`Platform::restore_delta`] each verify the frame's checksum — the
//! word-wise one of [`mpsoc_snapshot::Image`], eight bytes per multiply —
//! with a single pass over the payload and keep the verified value (a full
//! image's checksum *is* its base mark); [`Platform::capture`] hashes its
//! payload once, while sealing it. A [`BaseImage`] owns its validated bytes
//! privately and immutably, so nothing downstream re-checks them:
//! [`Platform::reset_to_base`] and [`BaseImage::hydrate`] decode the small
//! state straight from that payload — every structural check of the decoder
//! still runs — touch no clean RAM page and hash no image byte. The frame
//! checksum is not [`Platform::state_checksum`]: that one is FNV-1a over
//! architectural state, its values are pinned outside this crate, and it
//! does not change with an image version.
//!
//! The one check that is skipped on purpose is a repeat's. A platform
//! remembers the decoded form of the last image [`Platform::restore_delta`]
//! or [`Platform::reset_to_base`] installed (see "The restore slot" below),
//! and a later call whose input equals the remembered bytes, byte for byte,
//! against a base with the same checksum, reinstalls it with no frame hash,
//! no decode and no validation: those bytes were verified when they were
//! first decoded, and the comparison is with them, not with a checksum or a
//! length. An input that differs in any byte — a corrupted copy of the
//! remembered delta included — takes the full path and its checks.
//!
//! ## What a restore allocates
//!
//! A restore pays for what changed, not for what exists. The small state is
//! decoded by one pair of functions, `decode_prefix` / `decode_suffix`,
//! *into* a `SmallState` ([`Snapshot::load_into`]): every core keeps its
//! register file, its program's instruction vector and its label strings,
//! every cache its one flat vector of ways, and a peripheral whose kind and
//! name match the one already in that slot is `snap_restore`d in place —
//! any other is rebuilt. The interconnect is decoded by value (a bus is
//! five numbers; a mesh allocates its link table), which leaves the decoded
//! signal board as the one part still built anew. The state decoded into
//! is the platform's *scratch*: the `SmallState` its previous restore
//! replaced, kept (boxed, one pointer in [`Platform`]) instead of dropped —
//! or, for `restore_delta` and `reset_to_base`, the restore slot described
//! below, which the scratch is then copied from. A restore decodes,
//! validates, and only then swaps the scratch with the live fields, so
//!
//! * a failed decode still leaves the platform untouched — it wrote to the
//!   scratch or the slot only;
//! * it cannot leak into a later restore either: the next decode overwrites
//!   its target in full, because every `load_into` and every
//!   `snap_restore` replaces all of its target whatever that held — which
//!   is also why a differently shaped scratch (another core count, another
//!   peripheral on the page) is harmless;
//! * from a platform's second restore on one base on, a decode allocates
//!   nothing for cores, programs, labels, caches or unchanged peripherals
//!   (a unit test counts);
//! * a fresh decode — [`Platform::restore_image`] on a new platform,
//!   [`BaseImage::new`] — is the same code over an empty scratch, not a
//!   second decoder.
//!
//! ## The restore slot
//!
//! A step-back restores the nearest checkpoint and replays forward, so one
//! rewind after another restores the same delta; a fault campaign resets
//! to the same base before every trial. [`Platform::restore_delta`] and
//! [`Platform::reset_to_base`] therefore decode *into the platform's
//! slot*, not into the scratch: one boxed record (beside the scratch) of
//! the last image they installed — its bytes (a whole sealed delta, or the
//! head of the base's payload up to its RAM section, which is all
//! `reset_to_base` reads), what they were decoded as and against which
//! base, the decoded `SmallState`, the decoded RAM pages, and the id on the
//! live signal board of each decoded signal. Whether the slot was just
//! filled or already held the input, the install is the same: every
//! component is copied from the slot into the scratch through its
//! `clone_from` (the types that own buffers — `Core`, `Program`, `Cache`,
//! the interconnect, every peripheral, a peripheral's signal handle —
//! implement it field by field, destructuring the source with no `..`, so
//! a new field does not compile until it is copied), the scratch is
//! swapped with the live fields as above, signal values are set by id
//! (`SignalBoard::adopt_by_id`), then RAM is committed and the calendar
//! rebuilt. So
//!
//! * a *hit* — the same bytes against the same base — costs the copy, a
//!   `memcmp` of the bytes, the RAM rollback and the calendar, and
//!   allocates nothing once the scratch has the slot's shape (a unit test
//!   counts);
//! * a *miss* costs what a restore cost before, plus that copy and a copy
//!   of the bytes; a decode that fails leaves the platform untouched and
//!   the slot empty;
//! * [`Platform::restore_image`] and [`Platform::from_image`] neither read
//!   nor fill the slot: their callers build a platform per image.
//!
//! [`Platform::capture_base`] fills the slot too: it decodes the image it
//! captures into the slot as the base it is, so the first rollback onto a
//! freshly captured base is a hit, not a second decode of what capturing
//! already decoded.
//!
//! ## The parked state
//!
//! A platform holds, boxed beside the scratch and the slot, one more
//! simulated state, which [`Platform::swap_parked`] exchanges with the live
//! one — the time-travel debugger parks the state a step-back leaves and
//! replays the next step-back from it. Nothing is copied: the buffers
//! change places. What is exchanged is every piece of simulated state and
//! the host-side bookkeeping that is exact only for it:
//!
//! * the cores, caches, interconnect, peripherals and pending DMA, and the
//!   scalars a restore sets (configuration, time, step count, DMA
//!   sequence);
//! * shared and local RAM with their dirty bitmaps, and the base mark they
//!   are relative to;
//! * the event calendar, which is derived state, but exact for the state it
//!   came with — so it is swapped rather than rebuilt;
//! * of the signal board, the architectural half: each signal's value and
//!   last edge, exchanged by board id with a board that holds values only,
//!   and the trace sequence counter.
//!
//! What stays with the live platform is host-side: the metrics handles,
//! the last step's event, the restore scratch and slot, the base's RAM
//! words (one copy, whichever state is live), and the signal board's names
//! and trace tier — ring, spill sink, budget and counters. The ring is
//! reconciled to the swapped-in sequence counter as a restore reconciles it,
//! except that the records it gives up are kept aside until an edge is
//! recorded, and a restore or swap before then puts them back first: a
//! restore straight after a swap leaves the ring as the restore alone
//! would, and a swap undone leaves it as it was. `swap_parked` destructures
//! the platform with no `..`, so a new field does not compile until it is
//! given a side.
//!
//! Until the first swap the parked state is empty — no cores, no memory —
//! marked as sitting on the live state's base and at its signal sequence
//! counter; a restore after swapping it in rebuilds its RAM from the
//! base's words, O(memory), once.
//!
//! `tests/restore_in_place.rs` holds one long-lived platform to a freshly
//! built one through seeded sequences of all of the above, restores of the
//! remembered delta and base among them, and a remembered delta with one
//! byte flipped, which must be refused.

use crate::cache::Cache;
use crate::core::Core;
use crate::error::{Error, Result};
use crate::interconnect::{load_interconnect, Bus, Interconnect};
use crate::isa::{Reg, Word};
use crate::mem::{Ram, LOCAL_BASE, LOCAL_STRIDE, PAGE_WORDS};
use crate::periph::Periph;
use crate::platform::{Calendar, PendingDma, Platform, PlatformBuilder, SchedulerMode};
use crate::signal::SignalBoard;
use crate::time::{Frequency, Time};
use mpsoc_snapshot::{
    fnv1a64, fnv1a64_with, Image, Reader, SnapError, SnapResult, Snapshot, Writer,
};

/// Magic number of a platform checkpoint image (`b"MPSS"`, little-endian).
pub const PLATFORM_IMAGE_MAGIC: u32 = u32::from_le_bytes(*b"MPSS");

/// Current platform checkpoint format version. Bump on any layout change —
/// images are rejected, never reinterpreted, across versions.
///
/// v2 appends a trailing `page_words: u32` (the dirty-page granularity the
/// capturing build used) so delta compatibility is checkable from the image
/// alone.
///
/// v3 evicts signal history from the image: each signal serializes its
/// current value plus its most recent edge (and the board its trace
/// sequence counter) instead of every change ever driven, so image size is
/// O(platform), not O(steps). The full record lives in the host-side trace
/// ring / spill tiers (see [`crate::signal`]), which are deliberately not
/// checkpointed.
///
/// v4 changes no payload byte: the *frame* checksum went from byte-serial
/// FNV-1a to the word-wise checksum of [`mpsoc_snapshot::Image`], and the
/// bump is what makes a v3 image fail as a located version mismatch instead
/// of a checksum mismatch.
///
/// v5 is the one format for full images and deltas alike (deltas had their
/// own magic, `MPSD`, until v4). The payload names its base — the empty
/// platform, or a full image by its payload checksum — then gives the page
/// geometry, the small state, and for each RAM its length and the pages
/// that differ from the base as XOR token runs. The strict-locality flag
/// is gone from the small state.
pub const PLATFORM_IMAGE_VERSION: u16 = 5;

/// Version-mismatch context (see [`Image::open_as`]): a stale image is
/// refused with an error naming this decoder and file.
const IMAGE_WHAT: &str = concat!("platform image (", file!(), ")");

/// Maps a low-level snapshot decode error into a platform [`Error`].
fn snap_err(e: SnapError) -> Error {
    Error::Snapshot(e.to_string())
}

fn save_scheduler(mode: SchedulerMode, w: &mut Writer) {
    w.put_u8(match mode {
        SchedulerMode::Calendar => 0,
        SchedulerMode::ScanReference => 1,
    });
}

fn load_scheduler(r: &mut Reader<'_>) -> SnapResult<SchedulerMode> {
    match r.get_u8()? {
        0 => Ok(SchedulerMode::Calendar),
        1 => Ok(SchedulerMode::ScanReference),
        tag => Err(SnapError::BadTag {
            what: "scheduler mode",
            tag: u64::from(tag),
        }),
    }
}

fn save_pending_dma(d: &PendingDma, w: &mut Writer) {
    d.finish.save(w);
    w.put_usize(d.page);
    w.put_u32(d.src);
    w.put_u32(d.dst);
    w.put_u32(d.len);
    w.put_u64(d.seq);
}

fn load_pending_dma(r: &mut Reader<'_>) -> SnapResult<PendingDma> {
    Ok(PendingDma {
        finish: Time::load(r)?,
        page: r.get_usize()?,
        src: r.get_u32()?,
        dst: r.get_u32()?,
        len: r.get_u32()?,
        seq: r.get_u64()?,
    })
}

/// The non-RAM component states of a platform image — everything that is
/// cheap enough to serialize in full in every image. [`decode_prefix`]
/// decodes the configuration, clocks and cores, [`decode_suffix`] the
/// devices; both decode *into* a state, over whatever it held.
#[derive(Debug)]
pub(crate) struct SmallState {
    scheduler: SchedulerMode,
    local_latency_cycles: u64,
    cache_hit_cycles: u64,
    shared_words: u32,
    now: Time,
    steps: u64,
    dma_seq: u64,
    cores: Vec<Core>,
    caches: Vec<Option<Cache>>,
    interconnect: Interconnect,
    signals: SignalBoard,
    pending_dma: Vec<PendingDma>,
    periphs: Vec<Periph>,
}

impl SmallState {
    /// A state with nothing in it to reuse: decoding into it is the fresh
    /// decode (a platform's first restore, [`BaseImage::new`]).
    fn empty() -> Self {
        SmallState {
            scheduler: SchedulerMode::default(),
            local_latency_cycles: 0,
            cache_hit_cycles: 0,
            shared_words: 0,
            now: Time::ZERO,
            steps: 0,
            dma_seq: 0,
            cores: Vec::new(),
            caches: Vec::new(),
            interconnect: Interconnect::Bus(Bus::new(Time::ZERO, Time::ZERO)),
            signals: SignalBoard::new(),
            pending_dma: Vec::new(),
            periphs: Vec::new(),
        }
    }

    /// Copies `src` over this state through every component's `clone_from`,
    /// so a state of the same shape takes it without allocating — all of it
    /// but the signal board, which a restore installs into the live board
    /// straight from `src` ([`SignalBoard::adopt_by_id`]).
    fn copy_from(&mut self, src: &SmallState) {
        let SmallState {
            scheduler,
            local_latency_cycles,
            cache_hit_cycles,
            shared_words,
            now,
            steps,
            dma_seq,
            cores,
            caches,
            interconnect,
            signals: _,
            pending_dma,
            periphs,
        } = src;
        self.scheduler = *scheduler;
        self.local_latency_cycles = *local_latency_cycles;
        self.cache_hit_cycles = *cache_hit_cycles;
        self.shared_words = *shared_words;
        self.now = *now;
        self.steps = *steps;
        self.dma_seq = *dma_seq;
        self.cores.clone_from(cores);
        self.caches.clone_from(caches);
        self.interconnect.clone_from(interconnect);
        self.pending_dma.clone_from(pending_dma);
        self.periphs.clone_from(periphs);
    }

    /// Cross-field consistency of the non-RAM state: the simulator indexes
    /// cores, locals and caches by core id, a DMA completion reaches for
    /// the engine on the transfer's page, and shared RAM must end below the
    /// local-store window the memory map puts after it.
    fn validate(&self) -> SnapResult<()> {
        if self.cores.is_empty() {
            return Err(SnapError::Malformed("image holds zero cores".into()));
        }
        if let Some((i, c)) = (self.cores.iter().enumerate()).find(|(i, c)| c.id() != *i) {
            return Err(SnapError::Malformed(format!(
                "core at position {i} carries id {}",
                c.id()
            )));
        }
        if self.caches.len() != self.cores.len() {
            return Err(SnapError::Malformed(format!(
                "image holds {} cores but {} caches",
                self.cores.len(),
                self.caches.len()
            )));
        }
        for d in &self.pending_dma {
            if !matches!(self.periphs.get(d.page), Some(Periph::Dma(_))) {
                return Err(SnapError::Malformed(format!(
                    "pending DMA transfer names page {}, which holds no DMA engine",
                    d.page
                )));
            }
        }
        if self.shared_words == 0 || self.shared_words > LOCAL_BASE {
            return Err(SnapError::Malformed(format!(
                "shared RAM of {} words does not fit below the local-store window",
                self.shared_words
            )));
        }
        Ok(())
    }
}

/// Decodes the configuration, clocks and cores of the small state.
fn decode_prefix(r: &mut Reader<'_>, s: &mut SmallState) -> SnapResult<()> {
    s.scheduler = load_scheduler(r)?;
    s.local_latency_cycles = r.get_u64()?;
    s.cache_hit_cycles = r.get_u64()?;
    s.shared_words = r.get_u32()?;
    s.now = Time::load(r)?;
    s.steps = r.get_u64()?;
    s.dma_seq = r.get_u64()?;
    s.cores.load_into(r)
}

/// Decodes the devices of the small state. The signal board is built anew
/// (and a mesh's link table with it); everything else reuses what `s`
/// holds.
fn decode_suffix(r: &mut Reader<'_>, s: &mut SmallState) -> SnapResult<()> {
    s.caches.load_into(r)?;
    s.interconnect = load_interconnect(r)?;
    s.signals = SignalBoard::load(r)?;
    let n_dma = r.get_len(8)?;
    s.pending_dma.clear();
    for _ in 0..n_dma {
        s.pending_dma.push(load_pending_dma(r)?);
    }
    let n_periph = r.get_len(2)?;
    s.periphs.truncate(n_periph);
    for page in 0..n_periph {
        let kind = r.get_u8()?;
        let name_len = r.get_len(1)?;
        let name = r.get_bytes(name_len)?;
        // Kind and name are all `Periph::from_kind` takes besides the page,
        // which is the slot: a device they match is the one a fresh decode
        // would build, and `snap_restore` replaces the rest of it.
        match s.periphs.get_mut(page) {
            Some(p) if p.snap_kind() == kind && p.name().as_bytes() == name => {
                p.snap_restore(r)?;
            }
            slot => {
                let name = std::str::from_utf8(name)
                    .map_err(|e| SnapError::Malformed(format!("invalid UTF-8 string: {e}")))?;
                let mut p = Periph::from_kind(kind, name, page)?;
                p.snap_restore(r)?;
                match slot {
                    Some(slot) => *slot = p,
                    None => s.periphs.push(p),
                }
            }
        }
    }
    Ok(())
}

/// What an image's header calls its base: the empty platform, or a full
/// image by its payload checksum.
fn describe_base(base: Option<u64>) -> String {
    match base {
        None => "a full image (base: the empty platform)".into(),
        Some(sum) => format!("a delta against base {sum:#018x}"),
    }
}

/// Decodes everything up to the RAM section into `small` and validates it:
/// the header, which must name `base`, the page geometry, which must be
/// this build's [`PAGE_WORDS`] (pages of another size would be silently
/// wrong), and the small state.
fn decode_small(r: &mut Reader<'_>, base: Option<u64>, small: &mut SmallState) -> SnapResult<()> {
    let found = Option::<u64>::load(r)?;
    if found != base {
        return Err(SnapError::Malformed(format!(
            "{IMAGE_WHAT}: got {}, expected {}",
            describe_base(found),
            describe_base(base)
        )));
    }
    let page_words = r.get_u32()?;
    if page_words as usize != PAGE_WORDS {
        return Err(SnapError::Malformed(format!(
            "image uses {page_words}-word dirty pages, this build uses {PAGE_WORDS}"
        )));
    }
    decode_prefix(r, small)?;
    decode_suffix(r, small)?;
    small.validate()
}

/// One RAM of a decoded payload: its length in words and, ascending, the
/// pages that differ from the base, each whole.
#[derive(Debug)]
struct RamPages {
    len: usize,
    pages: Vec<(usize, Vec<Word>)>,
}

impl RamPages {
    /// The words these pages make of the all-zero RAM.
    fn into_words(self) -> Vec<Word> {
        let mut words = vec![0; self.len];
        for (page, data) in self.pages {
            let start = page * PAGE_WORDS;
            words[start..start + data.len()].copy_from_slice(&data);
        }
        words
    }
}

/// What a remembered image was decoded from, besides its bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// A sealed delta, restored against the base with this payload
    /// checksum ([`Platform::restore_delta`]).
    Delta(u64),
    /// The small state at the head of the payload of the base with this
    /// checksum ([`Platform::reset_to_base`]).
    Base(u64),
}

/// The decoded form of the last image [`Platform::restore_delta`] or
/// [`Platform::reset_to_base`] installed on a platform: a restore of the
/// same bytes against the same base reinstalls it instead of decoding them
/// again (see the module docs).
#[derive(Debug)]
pub(crate) struct Remembered {
    /// What `bytes` were decoded as; `None` while nothing is held — before
    /// the first decode, and after one that failed part-way through `small`.
    source: Option<Source>,
    /// The bytes the decode read: the whole sealed delta, or the base's
    /// payload up to its RAM section.
    bytes: Vec<u8>,
    small: SmallState,
    /// A delta's RAM pages; none for a base.
    rams: Vec<RamPages>,
    /// The id on the platform's signal board of each signal in
    /// `small.signals` ([`SignalBoard::intern_all`]).
    signal_ids: Vec<u32>,
}

impl Remembered {
    fn empty() -> Self {
        Remembered {
            source: None,
            bytes: Vec::new(),
            small: SmallState::empty(),
            rams: Vec::new(),
            signal_ids: Vec::new(),
        }
    }

    /// Whether decoding `input` as `source` gives what is held: byte for
    /// byte the input held — for a base, the head of its payload the
    /// decode reads, RAM pages excluded.
    fn holds(&self, source: Source, input: &[u8]) -> bool {
        self.source == Some(source)
            && match source {
                Source::Delta(_) => input == self.bytes.as_slice(),
                Source::Base(_) => input.starts_with(&self.bytes),
            }
    }
}

/// The simulated state [`Platform::swap_parked`] exchanges with the live
/// one (see "The parked state" in the module docs): the small state, whose
/// signal board holds values by the live board's ids only, RAM with its
/// dirty bitmaps and base mark, and the event calendar. Empty — no cores,
/// no memory — until the first swap puts a state here.
#[derive(Debug)]
pub(crate) struct Parked {
    small: SmallState,
    shared: Ram,
    locals: Vec<Ram>,
    base_mark: Option<u64>,
    calendar: Calendar,
}

impl Parked {
    /// The empty state, marked as sitting on `live`'s base and at `live`'s
    /// signal sequence counter: its RAM is none of the base's words, so a
    /// restore onto that base rebuilds it but keeps `live`'s copy of the
    /// base's words, which are still that base's; and swapping it in cuts
    /// nothing off the signal ring, which the restore then reconciles.
    fn empty(live: &Platform) -> Self {
        let mut small = SmallState::empty();
        small.signals = live.signals.empty_parked();
        Parked {
            small,
            shared: Ram::new(0),
            locals: Vec::new(),
            base_mark: live.base_mark,
            calendar: Calendar::default(),
        }
    }
}

/// Decodes and validates a whole payload against `base` (`None`: the empty
/// platform) — the small state into `small`, RAM as the pages that differ
/// from the base's words (zeros for the empty platform). Nothing of a
/// [`Platform`] is touched, which is what keeps every restore atomic.
fn decode_payload(
    payload: &[u8],
    base: Option<&BaseImage>,
    small: &mut SmallState,
) -> SnapResult<Vec<RamPages>> {
    let mut r = Reader::new(payload);
    decode_small(&mut r, base.map(|b| b.checksum), small)?;
    decode_rams(r, base, small)
}

/// The RAM section of a payload, read by `r` from where the small state
/// `small` (decoded already) ends: see [`decode_payload`].
fn decode_rams(
    mut r: Reader<'_>,
    base: Option<&BaseImage>,
    small: &SmallState,
) -> SnapResult<Vec<RamPages>> {
    let n_rams = r.get_len(8)?;
    if n_rams != 1 + small.cores.len() {
        return Err(SnapError::Malformed(format!(
            "image holds {} cores but {n_rams} RAMs (one shared, one local store per core)",
            small.cores.len()
        )));
    }
    if let Some(b) = base.filter(|b| b.rams.len() != n_rams) {
        return Err(SnapError::Malformed(format!(
            "image holds {n_rams} RAMs, its base {}",
            b.rams.len()
        )));
    }
    let mut rams = Vec::with_capacity(n_rams);
    for i in 0..n_rams {
        let len = r.get_u32()? as usize;
        let base_words = base.map_or(&[][..], |b| b.rams[i].as_slice());
        if i == 0 && len != small.shared_words as usize {
            return Err(SnapError::Malformed(format!(
                "shared RAM holds {len} words but config says {}",
                small.shared_words
            )));
        }
        if i > 0 && len > LOCAL_STRIDE as usize {
            return Err(SnapError::Malformed(format!(
                "local store of {len} words exceeds the {LOCAL_STRIDE} word window"
            )));
        }
        if base.is_some() && len != base_words.len() {
            return Err(SnapError::Malformed(format!(
                "RAM {i} holds {len} words, its base {}",
                base_words.len()
            )));
        }
        let pages = load_pages(&mut r, base_words, len)?;
        rams.push(RamPages { len, pages });
    }
    r.finish()?;
    Ok(rams)
}

/// A full platform image held in the form delta operations need: the sealed
/// bytes (so it can still be restored or shipped whole), its payload
/// checksum (the identity deltas are chained against), and the decoded RAM
/// words — shared RAM first, then each core's local store — that are the
/// rollback baseline.
///
/// Construction validates the image exactly like
/// [`Platform::restore_image`] would — frame, checksum (the image's one
/// hash), full decode — and the bytes are private and immutable afterwards;
/// a `BaseImage` is therefore always internally consistent, and rollbacks
/// ([`Platform::reset_to_base`]) and hydration ([`BaseImage::hydrate`])
/// read it without re-validating.
pub struct BaseImage {
    image: Vec<u8>,
    checksum: u64,
    rams: Vec<Vec<Word>>,
}

impl std::fmt::Debug for BaseImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaseImage")
            .field("bytes", &self.image.len())
            .field("checksum", &self.checksum)
            .finish_non_exhaustive()
    }
}

/// Opens the frame of a platform image: the payload and its checksum.
fn open(image: &[u8]) -> Result<(&[u8], u64)> {
    Image::open_as(
        image,
        PLATFORM_IMAGE_MAGIC,
        PLATFORM_IMAGE_VERSION,
        IMAGE_WHAT,
    )
    .map_err(snap_err)
}

impl BaseImage {
    /// Validates and indexes a full image produced by
    /// [`Platform::capture`].
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] for anything [`Platform::restore_image`] would
    /// reject, a delta included.
    pub fn new(image: Vec<u8>) -> Result<Self> {
        let (_, checksum) = open(&image)?;
        let decoded = BaseImage::decode(image, checksum, &mut SmallState::empty());
        decoded.map(|(base, _)| base).map_err(snap_err)
    }

    /// Decodes the payload of the full image `image`, whose frame checksum
    /// `checksum` is known good, into a base: the small state into `small`,
    /// RAM into the base's words. Also returns how many payload bytes the
    /// small state took — what [`Platform::reset_to_base`] reads.
    fn decode(image: Vec<u8>, checksum: u64, small: &mut SmallState) -> SnapResult<(Self, usize)> {
        let mut r = Reader::new(&image[Image::HEADER_LEN..]);
        decode_small(&mut r, None, small)?;
        let head = r.position();
        let rams = decode_rams(r, None, small)?;
        let base = BaseImage {
            rams: rams.into_iter().map(RamPages::into_words).collect(),
            image,
            checksum,
        };
        Ok((base, head))
    }

    /// A new platform in exactly this image's state — what
    /// [`Platform::from_image`] gives for the same bytes, without hashing
    /// or RAM-decoding them again: the small state is decoded from the
    /// validated payload and RAM is copied from the decoded words. The
    /// platform sits on this base, so its rollbacks take the in-place path.
    ///
    /// # Errors
    ///
    /// As [`Platform::reset_to_base`].
    pub fn hydrate(&self) -> Result<Platform> {
        let mut p = scaffold()?;
        p.reset_to_base(self)?;
        Ok(p)
    }

    /// The sealed full image these deltas are relative to.
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// Payload checksum — the identity a delta's header must carry.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Bytes this base holds: the sealed image plus the RAM words decoded
    /// from it, eight bytes each. The second term is the platform's memory
    /// size whether or not it is zero, so a checkpoint budget counted in
    /// this unit depends on how big the platform is, not on how much of
    /// its memory has been written.
    pub fn len_bytes(&self) -> usize {
        let words: usize = self.rams.iter().map(Vec::len).sum();
        self.image.len() + 8 * words
    }

    /// Whether `platform`'s RAM shapes match this base (delta fast-path
    /// precondition, together with the base-mark check).
    fn shapes_match(&self, platform: &Platform) -> bool {
        self.rams.len() == 1 + platform.locals.len()
            && (platform.rams())
                .zip(&self.rams)
                .all(|(r, b)| r.len() as usize == b.len())
    }
}

/// Minimal throwaway platform for a restore to overwrite: every field is
/// replaced by the image's.
fn scaffold() -> Result<Platform> {
    PlatformBuilder::new()
        .cores(1, Frequency::mhz(1))
        .shared_words(1)
        .local_words(0)
        .cache(None)
        .build()
}

/// Serializes one RAM: its length in words and its page count (`u32`
/// each), then `pages` as XOR-against-base token streams. `base` is the
/// base's words for this RAM, or empty for the empty platform, whose words
/// are all zero.
///
/// Each page is `put_u32(page)` followed by tokens until the page length is
/// covered: low bit `0` encodes a run of `token >> 1` words equal to the
/// base (nothing follows), low bit `1` a literal run of `token >> 1`
/// XOR-against-base words.
///
/// The encoder costs the run list first (4 B per token, 8 B per literal
/// word) and emits one literal run covering the whole page whenever the run
/// list would not be strictly smaller (a page rewritten wholesale, or
/// word-alternating damage where every token buys nothing) — so no page
/// ever encodes larger than `8 + 8 * len` bytes.
fn save_ram(ram: &Ram, base: &[Word], pages: &[usize], w: &mut Writer) {
    let xor = |v: Word, b: Word| ((v as u64) ^ (b as u64)) as Word;
    w.put_u32(ram.len());
    w.put_u32(pages.len() as u32);
    for &page in pages {
        w.put_u32(page as u32);
        let words = ram.page_words(page);
        let start = page * PAGE_WORDS;
        let base_word = |i: usize| base.get(start + i).copied().unwrap_or(0);
        let mut runs: Vec<(usize, usize, bool)> = Vec::new();
        let mut rle_cost = 0usize;
        let mut i = 0;
        while i < words.len() {
            let same = words[i] == base_word(i);
            let mut j = i + 1;
            while j < words.len() && (words[j] == base_word(j)) == same {
                j += 1;
            }
            rle_cost += 4 + if same { 0 } else { 8 * (j - i) };
            runs.push((i, j, same));
            i = j;
        }
        let raw_cost = 4 + 8 * words.len();
        if rle_cost >= raw_cost {
            runs = vec![(0, words.len(), false)];
        }
        for (lo, hi, same) in runs {
            let run = (hi - lo) as u32;
            if same {
                w.put_u32(run << 1);
            } else {
                w.put_u32((run << 1) | 1);
                for (k, &v) in words.iter().enumerate().take(hi).skip(lo) {
                    w.put_i64(xor(v, base_word(k)));
                }
            }
        }
    }
}

/// Decodes the page list of a `len`-word RAM against its base words (empty:
/// all zeros), enforcing ascending page order, in-range indices, and exact
/// page coverage by the token runs.
fn load_pages(
    r: &mut Reader<'_>,
    base: &[Word],
    len: usize,
) -> SnapResult<Vec<(usize, Vec<Word>)>> {
    let base_word = |i: usize| base.get(i).copied().unwrap_or(0);
    let count = r.get_u32()? as usize;
    let page_count = len.div_ceil(PAGE_WORDS);
    // A page takes at least eight bytes: its index and one token.
    let mut pages = Vec::with_capacity(count.min(page_count).min(r.remaining() / 8));
    let mut prev: Option<usize> = None;
    for _ in 0..count {
        let page = r.get_u32()? as usize;
        if page >= page_count {
            return Err(SnapError::Malformed(format!(
                "page {page} out of range (RAM has {page_count} pages)"
            )));
        }
        if prev.is_some_and(|p| p >= page) {
            return Err(SnapError::Malformed("pages not strictly ascending".into()));
        }
        prev = Some(page);
        let start = page * PAGE_WORDS;
        let page_len = PAGE_WORDS.min(len - start);
        let mut words: Vec<Word> = Vec::with_capacity(page_len);
        while words.len() < page_len {
            let token = r.get_u32()? as usize;
            let run = token >> 1;
            if run == 0 || words.len() + run > page_len {
                return Err(SnapError::Malformed(format!(
                    "page {page}: run of {run} words overflows the page"
                )));
            }
            if token & 1 == 1 {
                for _ in 0..run {
                    let x = r.get_i64()?;
                    let b = base_word(start + words.len());
                    words.push(((x as u64) ^ (b as u64)) as Word);
                }
            } else {
                for _ in 0..run {
                    words.push(base_word(start + words.len()));
                }
            }
        }
        pages.push((page, words));
    }
    Ok(pages)
}

/// Full-copy RAM rebuild from `baseline` plus `pages` (the slow path, for a
/// platform not currently sitting on the base).
fn rebuild_ram(baseline: &[Word], pages: &[(usize, Vec<Word>)]) -> Ram {
    let mut ram = Ram::from_words(baseline.to_vec());
    for (page, words) in pages {
        ram.write_page(*page, words);
    }
    ram
}

impl Platform {
    /// Shared RAM, then each core's local store: the order of an image's
    /// RAM section.
    fn rams(&self) -> impl Iterator<Item = &Ram> {
        std::iter::once(&self.shared).chain(&self.locals)
    }

    /// Serializes the complete simulated state into a self-describing,
    /// checksummed binary image.
    ///
    /// The round-trip invariant is the whole point: for any platform `p`,
    /// `Platform::from_image(&p.capture()?)` continues **bit-identically**
    /// to `p` — same [`StepEvent`](crate::platform::StepEvent) stream, same
    /// final memory contents — under either scheduler mode.
    ///
    /// The image is a delta against the empty platform: the small state
    /// plus every RAM page that holds a non-zero word.
    ///
    /// Capturing also establishes this image as the platform's *base*: the
    /// RAM dirty bitmaps are cleared, so a later
    /// [`capture_delta`](Platform::capture_delta) records exactly the pages
    /// written since this call. (That is the only mutation — simulated
    /// state is untouched, which the round-trip tests prove.)
    ///
    /// # Errors
    ///
    /// None: every device of the closed set serializes. The `Result` is
    /// the signature callers across the workspace (and `benchmark/`)
    /// already handle.
    pub fn capture(&mut self) -> Result<Vec<u8>> {
        let (image, checksum) = self.seal(None);
        self.rebase(checksum);
        Ok(image)
    }

    /// [`capture`](Platform::capture) as a [`BaseImage`]: what
    /// `BaseImage::new(p.capture()?)` gives, without hashing the image a
    /// second time, and with the small state it decodes kept in this
    /// platform's restore slot (see the module docs) instead of thrown
    /// away — so the first [`reset_to_base`](Platform::reset_to_base) onto
    /// the base reinstalls it rather than decoding it again.
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] if the image does not decode, which a capture
    /// of this build never gives.
    pub fn capture_base(&mut self) -> Result<BaseImage> {
        let (image, checksum) = self.seal(None);
        self.rebase(checksum);
        let mut slot = (self.restore_slot.take()).unwrap_or_else(|| Box::new(Remembered::empty()));
        slot.source = None;
        let decoded = BaseImage::decode(image, checksum, &mut slot.small);
        if let Ok((base, head)) = &decoded {
            slot.rams.clear();
            slot.bytes.clear();
            slot.bytes
                .extend_from_slice(&base.image[Image::HEADER_LEN..][..*head]);
            self.signals
                .intern_all(&slot.small.signals, &mut slot.signal_ids);
            slot.source = Some(Source::Base(checksum));
        }
        self.restore_slot = Some(slot);
        decoded.map(|(base, _)| base).map_err(snap_err)
    }

    /// Makes the current RAM the base the full image `checksum` names:
    /// clears the dirty bitmaps and copies the words, as the XOR baseline of
    /// later deltas, into the buffers the previous base held.
    fn rebase(&mut self, checksum: u64) {
        self.base_mark = Some(checksum);
        self.base_rams.resize_with(1 + self.locals.len(), Vec::new);
        let live = std::iter::once(&mut self.shared).chain(&mut self.locals);
        for (ram, base) in live.zip(&mut self.base_rams) {
            ram.clear_dirty();
            base.clear();
            base.extend_from_slice(ram.as_slice());
        }
    }

    /// Serializes the state *changed since the last* [`capture`]
    /// (or [`restore_image`] / [`restore_delta`], which also set the base):
    /// the small component states in full plus only the dirty RAM pages.
    /// O(dirty state) in time and bytes, however large the memory.
    ///
    /// Deltas chain against the **base**, not against each other: restoring
    /// any delta needs only the [`BaseImage`] it names, never intermediate
    /// deltas. Capturing a delta does not clear the dirty bitmaps, so
    /// successive deltas are each independently restorable.
    ///
    /// [`capture`]: Platform::capture
    /// [`restore_image`]: Platform::restore_image
    /// [`restore_delta`]: Platform::restore_delta
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] if no base capture has been taken.
    pub fn capture_delta(&self) -> Result<Vec<u8>> {
        let base = self.base_mark.ok_or_else(|| {
            Error::Snapshot("capture_delta needs a prior full capture as base".into())
        })?;
        Ok(self.seal(Some(base)).0)
    }

    /// Seals this platform's state against `base`, returning the image and
    /// its payload checksum: against the empty platform (`None`), every
    /// page holding a non-zero word; against the base the mark names, every
    /// dirty page.
    fn seal(&self, base: Option<u64>) -> (Vec<u8>, u64) {
        let mut w = Writer::new();
        base.save(&mut w);
        w.put_u32(PAGE_WORDS as u32);
        self.save_small(&mut w);
        w.put_usize(1 + self.locals.len());
        for (i, ram) in self.rams().enumerate() {
            let (pages, base_words): (Vec<usize>, &[Word]) = match base {
                None => (
                    (ram.as_slice().chunks(PAGE_WORDS).enumerate())
                        .filter(|(_, page)| page.iter().any(|&v| v != 0))
                        .map(|(page, _)| page)
                        .collect(),
                    &[],
                ),
                Some(_) => (
                    ram.dirty_pages().collect(),
                    self.base_rams.get(i).map_or(&[], Vec::as_slice),
                ),
            };
            save_ram(ram, base_words, &pages, &mut w);
        }
        Image::seal_hashed(
            PLATFORM_IMAGE_MAGIC,
            PLATFORM_IMAGE_VERSION,
            &w.into_bytes(),
        )
    }

    /// Writes the small state: every component but RAM, in the order
    /// [`decode_prefix`] and then [`decode_suffix`] read it.
    fn save_small(&self, w: &mut Writer) {
        save_scheduler(self.scheduler, w);
        w.put_u64(self.local_latency_cycles);
        w.put_u64(self.cache_hit_cycles);
        w.put_u32(self.shared_words);
        self.now.save(w);
        w.put_u64(self.steps);
        w.put_u64(self.dma_seq);
        self.cores.save(w);
        self.caches.save(w);
        self.interconnect.snap_save(w);
        self.signals.save(w);
        w.put_usize(self.pending_dma.len());
        for d in &self.pending_dma {
            save_pending_dma(d, w);
        }
        w.put_usize(self.periphs.len());
        for p in &self.periphs {
            w.put_u8(p.snap_kind());
            w.put_str(p.name());
            p.snap_save(w);
        }
    }

    /// Replaces every piece of simulated state by *base + delta*: the
    /// delta's small component states plus RAM reconstructed as the base
    /// image's words with the delta's dirty pages applied.
    ///
    /// When this platform is still sitting on the same base (it captured or
    /// restored it last, unchanged shapes), RAM is patched **in place**:
    /// only the platform's currently-dirty pages are rolled back to base
    /// words and only the delta's pages are applied — O(dirty pages), the
    /// whole point of the delta path. Otherwise RAM is rebuilt from the
    /// base by full copy. Either way the continuation is bit-identical to
    /// restoring a full image captured at the same step.
    ///
    /// Decoding is atomic — on error the platform is left untouched.
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] for a corrupt delta, one chained against a
    /// different base, a full image, or a page-granularity mismatch.
    pub fn restore_delta(&mut self, base: &BaseImage, delta: &[u8]) -> Result<()> {
        self.restore_remembered(base, Source::Delta(base.checksum), delta, |small| {
            let (payload, _) = open(delta)?;
            let rams = decode_payload(payload, Some(base), small).map_err(snap_err)?;
            Ok((rams, delta.len()))
        })
    }

    /// Rolls the platform back to `base` exactly — the degenerate delta
    /// with zero dirty pages, and the fault-campaign rollback primitive:
    /// O(small state + currently-dirty pages) when the platform is still on
    /// this base — the decode stops where the RAM section starts, no clean
    /// page is touched, and no image byte is hashed: the payload was
    /// validated once, by [`BaseImage::new`]. A platform on another base
    /// (or none) is rebuilt from the base's decoded words by full copy.
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] if the small state fails to decode. The decoder
    /// keeps every structural check, but [`BaseImage::new`] already decoded
    /// these same private bytes, so this is not expected for any `base`.
    pub fn reset_to_base(&mut self, base: &BaseImage) -> Result<()> {
        let payload = &base.image[Image::HEADER_LEN..];
        self.restore_remembered(base, Source::Base(base.checksum), payload, |small| {
            let mut r = Reader::new(payload);
            decode_small(&mut r, None, small).map_err(snap_err)?;
            Ok((Vec::new(), r.position()))
        })
    }

    /// The one body of [`restore_delta`](Platform::restore_delta) and
    /// [`reset_to_base`](Platform::reset_to_base): unless this platform's
    /// remembered image holds `input` decoded as `source` already, `decode`
    /// decodes and validates it into the remembered state — returning the
    /// RAM pages and how many bytes of `input` it read — and that state is
    /// then installed through [`restore_small`](Platform::restore_small)
    /// and `commit_ram` either way. A failed decode leaves the platform
    /// untouched and nothing remembered.
    fn restore_remembered(
        &mut self,
        base: &BaseImage,
        source: Source,
        input: &[u8],
        decode: impl FnOnce(&mut SmallState) -> Result<(Vec<RamPages>, usize)>,
    ) -> Result<()> {
        let mut slot = (self.restore_slot.take()).unwrap_or_else(|| Box::new(Remembered::empty()));
        if !slot.holds(source, input) {
            slot.source = None;
            let (rams, read) = match decode(&mut slot.small) {
                Ok(decoded) => decoded,
                Err(e) => {
                    self.restore_slot = Some(slot);
                    return Err(e);
                }
            };
            slot.rams = rams;
            slot.bytes.clear();
            slot.bytes.extend_from_slice(&input[..read]);
            self.signals
                .intern_all(&slot.small.signals, &mut slot.signal_ids);
            slot.source = Some(source);
        }
        let held = &*slot;
        self.restore_small(
            |s| {
                s.copy_from(&held.small);
                Ok(())
            },
            |board, _| board.adopt_by_id(&held.small.signals, &held.signal_ids),
        )?;
        self.commit_ram(base, &held.rams);
        self.restore_slot = Some(slot);
        self.rebuild_calendar();
        Ok(())
    }

    /// The small-state half of every restore: `decode` fills the scratch
    /// state — what this platform's previous restore replaced, or an empty
    /// one the first time — and validates it; only if that succeeds is the
    /// scratch swapped with the live fields (infallible), so a failed decode
    /// leaves the platform untouched, and the state a successful one
    /// replaced becomes the buffers the next restore decodes into instead
    /// of being dropped.
    ///
    /// The signal board is *adopted*, not swapped (`adopt` gets the live
    /// board and the decoded state): the image carries only architectural
    /// signal state (values, last edges, trace sequence counter), so the
    /// live board keeps its host-side trace tier — ring, spill sink,
    /// budget, counters — reconciled to the restored sequence counter. An
    /// in-place time-travel rewind therefore keeps the recent window from
    /// before the checkpoint, and deterministic replay re-records the
    /// truncated future identically without re-spilling.
    fn restore_small<T>(
        &mut self,
        decode: impl FnOnce(&mut SmallState) -> Result<T>,
        adopt: impl FnOnce(&mut SignalBoard, &SmallState),
    ) -> Result<T> {
        use std::mem::swap;
        let mut s = (self.restore_scratch.take()).unwrap_or_else(|| Box::new(SmallState::empty()));
        let decoded = decode(&mut s);
        if decoded.is_ok() {
            self.scheduler = s.scheduler;
            self.local_latency_cycles = s.local_latency_cycles;
            self.cache_hit_cycles = s.cache_hit_cycles;
            self.shared_words = s.shared_words;
            self.now = s.now;
            self.steps = s.steps;
            self.dma_seq = s.dma_seq;
            swap(&mut self.cores, &mut s.cores);
            swap(&mut self.caches, &mut s.caches);
            swap(&mut self.interconnect, &mut s.interconnect);
            adopt(&mut self.signals, &s);
            swap(&mut self.pending_dma, &mut s.pending_dma);
            swap(&mut self.periphs, &mut s.periphs);
        }
        self.restore_scratch = Some(s);
        decoded
    }

    /// Exchanges this platform's simulated state with its parked state:
    /// afterwards the platform is in the state last parked, and the parked
    /// state is the one the platform was in. Calling it twice in a row
    /// changes nothing. Nothing is copied, decoded or allocated — the
    /// buffers themselves change places — except on the first call, which
    /// parks the live state and brings in an empty one: no cores, no
    /// memory, which a restore ([`reset_to_base`](Platform::reset_to_base),
    /// [`restore_delta`](Platform::restore_delta),
    /// [`restore_image`](Platform::restore_image)) must fill before the
    /// platform is stepped.
    ///
    /// What is exchanged and what stays is listed in the module docs ("The
    /// parked state"). In short: every piece of simulated state goes, with
    /// the RAM dirty bitmaps, the base mark and the event calendar, which
    /// are exact for the state they came with; the host side stays —
    /// metrics, the last step's event, the restore scratch and slot, the
    /// base's RAM words, and the signal board's names and trace tier, whose
    /// ring is reconciled to the swapped-in sequence counter as a restore
    /// reconciles it. This is the time-travel debugger's step-back: park
    /// the state the user stands on, swap in the one the previous step-back
    /// left, and replay a few steps from it instead of restoring a
    /// checkpoint.
    pub fn swap_parked(&mut self) {
        use std::mem::swap;
        let mut parked = (self.parked.take()).unwrap_or_else(|| Box::new(Parked::empty(self)));
        let Parked {
            small,
            shared: parked_shared,
            locals: parked_locals,
            base_mark: parked_mark,
            calendar: parked_calendar,
        } = &mut *parked;
        // No `..`: a new field of either struct does not compile until it
        // is given a side.
        let Platform {
            now,
            cores,
            shared,
            locals,
            caches,
            cache_hit_cycles,
            interconnect,
            periphs,
            signals,
            pending_dma,
            local_latency_cycles,
            shared_words,
            steps,
            scheduler,
            calendar,
            dma_seq,
            base_mark,
            metrics: _,
            event: _,
            base_rams: _,
            restore_scratch: _,
            restore_slot: _,
            parked: _,
        } = self;
        let SmallState {
            scheduler: parked_scheduler,
            local_latency_cycles: parked_local_latency,
            cache_hit_cycles: parked_hit_cycles,
            shared_words: parked_shared_words,
            now: parked_now,
            steps: parked_steps,
            dma_seq: parked_dma_seq,
            cores: parked_cores,
            caches: parked_caches,
            interconnect: parked_interconnect,
            signals: parked_signals,
            pending_dma: parked_pending_dma,
            periphs: parked_periphs,
        } = small;
        swap(scheduler, parked_scheduler);
        swap(local_latency_cycles, parked_local_latency);
        swap(cache_hit_cycles, parked_hit_cycles);
        swap(shared_words, parked_shared_words);
        swap(now, parked_now);
        swap(steps, parked_steps);
        swap(dma_seq, parked_dma_seq);
        swap(cores, parked_cores);
        swap(caches, parked_caches);
        swap(interconnect, parked_interconnect);
        signals.exchange_values(parked_signals);
        swap(pending_dma, parked_pending_dma);
        swap(periphs, parked_periphs);
        swap(shared, parked_shared);
        swap(locals, parked_locals);
        swap(base_mark, parked_mark);
        swap(calendar, parked_calendar);
        self.parked = Some(parked);
    }

    /// Rebuilds RAM as *base + delta pages* and leaves the dirty bitmaps
    /// equal to the delta's page set (so the platform is again "on" the
    /// base). Fast path: roll the dirty pages back and patch in place; slow
    /// path: full copy from base. An empty `rams` means "no pages" (the
    /// [`reset_to_base`](Platform::reset_to_base) case).
    fn commit_ram(&mut self, base: &BaseImage, rams: &[RamPages]) {
        let on_base = self.base_mark == Some(base.checksum) && base.shapes_match(self);
        let pages = |i: usize| rams.get(i).map_or(&[][..], |r| r.pages.as_slice());
        if on_base {
            let live = std::iter::once(&mut self.shared).chain(&mut self.locals);
            for (i, (ram, b)) in live.zip(&base.rams).enumerate() {
                ram.roll_back(b);
                for (page, words) in pages(i) {
                    ram.write_page(*page, words);
                }
            }
        } else {
            self.shared = rebuild_ram(&base.rams[0], pages(0));
            self.locals = (base.rams[1..].iter().enumerate())
                .map(|(i, b)| rebuild_ram(b, pages(i + 1)))
                .collect();
        }
        // Re-cloning the base words every trial would defeat the delta fast
        // path, so only do it when actually rebasing onto a new base.
        if self.base_mark != Some(base.checksum) {
            self.base_rams.clone_from(&base.rams);
        }
        self.base_mark = Some(base.checksum);
    }

    /// Restores this platform in place from an image produced by
    /// [`capture`](Platform::capture).
    ///
    /// Every piece of simulated state is replaced by the image's; the
    /// platform's prior configuration is irrelevant. Host-side attachments
    /// survive: an attached metrics registry keeps counting (counters are
    /// observability, not simulated state, so restoring does **not** rewind
    /// them). The event calendar is rebuilt from the restored actor state.
    /// The restored image becomes the platform's delta *base*, exactly as
    /// if [`capture`](Platform::capture) had just produced it.
    ///
    /// Decoding is atomic — on error the platform is left untouched.
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] for a corrupt, truncated, or version-mismatched
    /// image, a delta, or one referencing an unknown peripheral kind.
    pub fn restore_image(&mut self, image: &[u8]) -> Result<()> {
        let (payload, checksum) = open(image)?;
        let rams = self.restore_small(
            |small| decode_payload(payload, None, small).map_err(snap_err),
            |board, s| board.adopt(&s.signals),
        )?;
        let mut rams = rams.into_iter().map(|r| Ram::from_words(r.into_words()));
        // The decoder holds an image to one shared RAM plus a local store
        // per core, and to at least one core.
        self.shared = rams.next().unwrap_or_else(|| Ram::new(0));
        self.locals = rams.collect();
        self.rebase(checksum);
        self.rebuild_calendar();
        Ok(())
    }

    /// Builds a brand-new platform from a checkpoint image — the basis for
    /// parallel fault-injection campaigns, where every worker thread
    /// rehydrates its own private platform from one shared image.
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] as for [`restore_image`](Platform::restore_image).
    pub fn from_image(image: &[u8]) -> Result<Platform> {
        let mut p = scaffold()?;
        p.restore_image(image)?;
        Ok(p)
    }

    /// FNV-1a checksum over the architectural state (time, step count, core
    /// registers/PCs/programs, and all memories). Two platforms that report
    /// the same checksum after the same number of steps are, for divergence
    /// detection purposes, in the same state.
    ///
    /// The value is the FNV-1a of that state's wire encoding; RAM — nearly
    /// all of it — is streamed through the hash word by word rather than
    /// encoded into a buffer first.
    pub fn state_checksum(&self) -> u64 {
        let mut w = Writer::new();
        self.now.save(&mut w);
        w.put_u64(self.steps);
        self.cores.save(&mut w);
        let hash_ram = |h: u64, ram: &Ram| {
            let h = fnv1a64_with(h, &(ram.as_slice().len() as u64).to_le_bytes());
            (ram.as_slice().iter()).fold(h, |h, word| fnv1a64_with(h, &word.to_le_bytes()))
        };
        let h = hash_ram(fnv1a64(&w.into_bytes()), &self.shared);
        let h = fnv1a64_with(h, &(self.locals.len() as u64).to_le_bytes());
        self.locals.iter().fold(h, hash_ram)
    }

    /// FNV-1a checksum of the `words`-long memory region at word address
    /// `addr` — the fault-campaign oracle for "did the workload's output
    /// change". Reads bypass timing and caches, like
    /// [`debug_read`](Platform::debug_read).
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedAddress`] if the region leaves mapped RAM.
    pub fn region_checksum(&self, addr: u32, words: u32) -> Result<u64> {
        let mut h = fnv1a64(&[]);
        for i in 0..words {
            let v = self.debug_read(addr + i)?;
            h = fnv1a64_with(h, &v.to_le_bytes());
        }
        Ok(h)
    }

    // -- fault injection ----------------------------------------------------

    /// Flips bit `bit & 63` of register `reg % 16` on core `core` — a
    /// single-event upset in the register file.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchCore`] if `core` is out of range.
    pub fn inject_reg_flip(&mut self, core: usize, reg: u8, bit: u32) -> Result<()> {
        let r = Reg::new(reg % Reg::COUNT as u8);
        let c = self.core_mut(core)?;
        let v = c.reg(r);
        c.set_reg(r, v ^ (1 << (bit & 63)));
        Ok(())
    }

    /// Flips bit `bit & 63` of the word at address `addr` — a memory
    /// single-event upset, bypassing timing and caches.
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedAddress`] outside RAM windows.
    pub fn inject_mem_flip(&mut self, addr: u32, bit: u32) -> Result<()> {
        let v = self.debug_read(addr)?;
        self.debug_write(addr, v ^ (1 << (bit & 63)))
    }

    /// Sticks peripheral `page`: the device stops reacting (a stuck timer
    /// never fires, a stuck mailbox drops pushes, a stuck semaphore never
    /// grants, a stuck DMA ignores start commands).
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] if the page is unoccupied.
    pub fn inject_periph_stick(&mut self, page: usize) -> Result<()> {
        (self.periphs.get_mut(page))
            .ok_or_else(|| Error::NotFound(format!("peripheral page {page}")))?
            .fault_stick();
        self.calendar_mark_periph(page);
        Ok(())
    }

    /// Whether the DMA engine at `page` currently has a transfer in
    /// flight — fault campaigns use this to pick a fault site where
    /// dropped-flit and wire-corruption faults have a target.
    pub fn dma_in_flight(&self, page: usize) -> bool {
        self.pending_dma.iter().any(|d| d.page == page && d.len > 0)
    }

    /// Drops one word from the tail of an in-flight DMA transfer owned by
    /// peripheral `page` (the NoC loses a flit: the destination's last word
    /// is never written). Returns `false` if that page has no in-flight
    /// transfer to shorten. The completion time is unchanged, so scheduling
    /// stays valid.
    pub fn inject_dma_drop_flit(&mut self, page: usize) -> bool {
        if let Some(d) = self
            .pending_dma
            .iter_mut()
            .find(|d| d.page == page && d.len > 0)
        {
            d.len -= 1;
            true
        } else {
            false
        }
    }

    /// Flips bit `bit & 63` of word `word` (modulo the transfer length) in
    /// the *source* region of an in-flight DMA transfer owned by peripheral
    /// `page` — corruption on the wire, observed at the destination when the
    /// transfer completes. Returns `false` if that page has no in-flight
    /// transfer.
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedAddress`] if the source region is unmapped (the
    /// transfer would itself fault on completion).
    pub fn inject_dma_corrupt_word(&mut self, page: usize, word: u32, bit: u32) -> Result<bool> {
        let Some((src, len)) = self
            .pending_dma
            .iter()
            .find(|d| d.page == page && d.len > 0)
            .map(|d| (d.src, d.len))
        else {
            return Ok(false);
        };
        self.inject_mem_flip(src + word % len, bit)?;
        Ok(true)
    }
}

#[cfg(test)]
impl Platform {
    /// [`state_checksum`](Platform::state_checksum) as it was before it
    /// streamed RAM through the hash: everything encoded into one buffer,
    /// then hashed. Kept as the reference the streamed value must equal.
    fn state_checksum_buffered(&self) -> u64 {
        let mut w = Writer::new();
        self.now.save(&mut w);
        w.put_u64(self.steps);
        self.cores.save(&mut w);
        let words = |ram: &Ram| ram.as_slice().to_vec();
        words(&self.shared).save(&mut w);
        self.locals
            .iter()
            .map(words)
            .collect::<Vec<_>>()
            .save(&mut w);
        fnv1a64(&w.into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use crate::isa::assemble;
    use crate::mem::{Ram, PAGE_WORDS};
    use crate::platform::{Platform, PlatformBuilder, SchedulerMode, StepEvent};
    use crate::time::{Frequency, Time};

    fn counter_platform(mode: SchedulerMode) -> Platform {
        let mut p = PlatformBuilder::new()
            .cores(2, Frequency::mhz(100))
            .shared_words(1024)
            .local_words(64)
            .scheduler(mode)
            .build()
            .unwrap();
        let prog = |n: i64| {
            assemble(&format!(
                "movi r5, {n}\nloop: addi r5, r5, -1\nbne r5, r0, loop\n\
                 movi r1, 0x40\nst r5, r1, 0\nhalt"
            ))
            .unwrap()
        };
        p.load_program(0, prog(30), 0).unwrap();
        p.load_program(1, prog(17), 0).unwrap();
        p
    }

    fn drain(p: &mut Platform) -> Vec<StepEvent> {
        let mut evs = Vec::new();
        loop {
            let ev = p.step().unwrap();
            if ev.is_idle() {
                break;
            }
            evs.push(ev);
        }
        evs
    }

    #[test]
    fn capture_restore_continues_bit_identically() {
        for mode in [SchedulerMode::Calendar, SchedulerMode::ScanReference] {
            let mut reference = counter_platform(mode);
            let mut snapped = counter_platform(mode);
            for _ in 0..25 {
                reference.step().unwrap();
                snapped.step().unwrap();
            }
            let image = snapped.capture().unwrap();
            let mut restored = Platform::from_image(&image).unwrap();
            assert_eq!(restored.state_checksum(), reference.state_checksum());
            assert_eq!(drain(&mut restored), drain(&mut reference));
            assert_eq!(restored.now(), reference.now());
        }
    }

    #[test]
    fn restore_into_differently_shaped_platform() {
        let mut donor = counter_platform(SchedulerMode::Calendar);
        for _ in 0..10 {
            donor.step().unwrap();
        }
        let image = donor.capture().unwrap();
        // A 1-core, tiny-memory victim takes on the donor's full shape.
        let mut victim = PlatformBuilder::new()
            .cores(1, Frequency::mhz(1_000))
            .shared_words(16)
            .cache(None)
            .build()
            .unwrap();
        victim.restore_image(&image).unwrap();
        assert_eq!(victim.num_cores(), 2);
        assert_eq!(victim.state_checksum(), donor.state_checksum());
        assert_eq!(drain(&mut victim), drain(&mut donor));
    }

    #[test]
    fn corrupt_image_is_rejected_atomically() {
        let mut p = counter_platform(SchedulerMode::Calendar);
        for _ in 0..5 {
            p.step().unwrap();
        }
        let before = p.state_checksum();
        let mut image = p.capture().unwrap();
        let last = image.len() - 1;
        image[last] ^= 0xA5;
        assert!(p.restore_image(&image).is_err());
        assert_eq!(p.state_checksum(), before, "failed restore must not mutate");
        assert!(Platform::from_image(&image[..30]).is_err());
    }

    #[test]
    fn fault_hooks_perturb_state() {
        let mut p = counter_platform(SchedulerMode::Calendar);
        for _ in 0..8 {
            p.step().unwrap();
        }
        let clean = p.state_checksum();
        p.inject_reg_flip(0, 5, 0).unwrap();
        assert_ne!(p.state_checksum(), clean);
        p.inject_reg_flip(0, 5, 0).unwrap(); // flip back
        assert_eq!(p.state_checksum(), clean);
        p.inject_mem_flip(0x40, 63).unwrap();
        assert_ne!(p.state_checksum(), clean);
    }

    #[test]
    fn delta_restore_matches_full_restore() {
        for mode in [SchedulerMode::Calendar, SchedulerMode::ScanReference] {
            let mut p = counter_platform(mode);
            for _ in 0..10 {
                p.step().unwrap();
            }
            let base = super::BaseImage::new(p.capture().unwrap()).unwrap();
            let at_base = p.capture_delta().unwrap();
            for _ in 0..15 {
                p.step().unwrap();
            }
            // An image costs its small state plus at most `8 + 8 * 64` bytes
            // per page it carries: a delta its dirty pages, a full image its
            // non-zero ones. The small state is what a delta with no pages
            // costs — one taken at its base.
            let per_page = 8 + 8 * PAGE_WORDS;
            let dirty: usize = p.rams().map(Ram::dirty_page_count).sum();
            let delta = p.capture_delta().unwrap();
            assert!(
                delta.len() <= at_base.len() + dirty * per_page,
                "delta {} B, {dirty} dirty pages over {} B",
                delta.len(),
                at_base.len()
            );
            let non_zero: usize = (p.rams())
                .map(|r| (r.as_slice().chunks(PAGE_WORDS)).filter(|pg| pg.iter().any(|&v| v != 0)))
                .map(Iterator::count)
                .sum();
            let full = p.capture().unwrap();
            let small = p.capture_delta().unwrap();
            assert!(
                full.len() <= small.len() + non_zero * per_page,
                "full image {} B, {non_zero} non-zero pages over {} B",
                full.len(),
                small.len()
            );

            // Fast path: the same platform, still on the base after more
            // steps.
            let mut fast = counter_platform(mode);
            for _ in 0..10 {
                fast.step().unwrap();
            }
            fast.restore_image(base.image()).unwrap();
            for _ in 0..3 {
                fast.step().unwrap();
            }
            fast.restore_delta(&base, &delta).unwrap();
            assert_eq!(fast.state_checksum(), p.state_checksum());

            // Slow path: a fresh differently-shaped platform.
            let mut slow = PlatformBuilder::new()
                .cores(1, Frequency::mhz(1_000))
                .shared_words(16)
                .cache(None)
                .build()
                .unwrap();
            slow.restore_delta(&base, &delta).unwrap();
            assert_eq!(slow.state_checksum(), p.state_checksum());
            assert_eq!(drain(&mut slow), drain(&mut fast));
        }
    }

    #[test]
    fn delta_against_wrong_base_is_rejected() {
        let mut p = counter_platform(SchedulerMode::Calendar);
        for _ in 0..5 {
            p.step().unwrap();
        }
        let base_a = super::BaseImage::new(p.capture().unwrap()).unwrap();
        p.step().unwrap();
        let base_b = super::BaseImage::new(p.capture().unwrap()).unwrap();
        p.step().unwrap();
        let delta = p.capture_delta().unwrap(); // chained against base_b
        let before = p.state_checksum();
        assert!(p.restore_delta(&base_a, &delta).is_err());
        assert_eq!(p.state_checksum(), before, "failed restore must not mutate");
        p.restore_delta(&base_b, &delta).unwrap();
    }

    #[test]
    fn capture_delta_without_base_is_rejected() {
        let p = counter_platform(SchedulerMode::Calendar);
        assert!(p.capture_delta().is_err());
    }

    #[test]
    fn reset_to_base_rolls_back_exactly() {
        let mut p = counter_platform(SchedulerMode::Calendar);
        for _ in 0..8 {
            p.step().unwrap();
        }
        let image = p.capture().unwrap();
        let mark = p.state_checksum();
        let base = super::BaseImage::new(image).unwrap();
        for _ in 0..12 {
            p.step().unwrap();
        }
        p.inject_mem_flip(0x40, 3).unwrap();
        assert_ne!(p.state_checksum(), mark);
        p.reset_to_base(&base).unwrap();
        assert_eq!(p.state_checksum(), mark);
        // Repeated rollbacks from the fast path stay exact.
        for _ in 0..4 {
            p.step().unwrap();
        }
        p.reset_to_base(&base).unwrap();
        assert_eq!(p.state_checksum(), mark);
    }

    #[test]
    fn nothing_unvalidated_becomes_a_base_image() {
        // `reset_to_base` trusts a `BaseImage`'s bytes, so the constructor
        // is the integrity boundary: any single corrupted byte — every
        // header byte, a seeded sample of payload bytes — must stop there.
        let mut p = counter_platform(SchedulerMode::Calendar);
        for _ in 0..7 {
            p.step().unwrap();
        }
        let image = p.capture().unwrap();
        let header = mpsoc_snapshot::Image::HEADER_LEN;
        let mut rng = mpsoc_obs::XorShift64Star::new(0xB0DE);
        let sampled: Vec<usize> = (0..256)
            .map(|_| rng.usize_in(header, image.len() - 1))
            .collect();
        for i in (0..header).chain(sampled) {
            let mut bad = image.clone();
            bad[i] ^= rng.u64_in(1, 255) as u8;
            assert!(
                super::BaseImage::new(bad).is_err(),
                "byte {i} corrupted, image still accepted"
            );
        }

        // The identity deltas chain against is the header's checksum field,
        // which is the hash of the payload — computed once per boundary.
        let base = super::BaseImage::new(image.clone()).unwrap();
        let stored = u64::from_le_bytes(image[header - 8..header].try_into().unwrap());
        assert_eq!(base.checksum(), stored);
        let sealed_again = mpsoc_snapshot::Image::seal_hashed(
            super::PLATFORM_IMAGE_MAGIC,
            super::PLATFORM_IMAGE_VERSION,
            &image[header..],
        );
        assert_eq!(sealed_again, (image.clone(), stored));

        // `capture` left the same value as the platform's base mark: the
        // delta names it, and restores in place against the base.
        for _ in 0..9 {
            p.step().unwrap();
        }
        let mark = p.state_checksum();
        let delta = p.capture_delta().unwrap();
        // The header is an `Option<u64>`: its tag byte, then the base.
        let delta_payload = &super::open(&delta).unwrap().0[1..];
        assert_eq!(delta_payload[..8], base.checksum().to_le_bytes());
        p.step().unwrap();
        p.restore_delta(&base, &delta).unwrap();
        assert_eq!(p.state_checksum(), mark);
    }

    #[test]
    fn capture_does_not_perturb_the_run() {
        // `capture` is `&mut self` (it clears dirty bitmaps) but must not
        // change simulated state: a run with interleaved captures matches
        // an undisturbed one event for event.
        let mut quiet = counter_platform(SchedulerMode::Calendar);
        let mut noisy = counter_platform(SchedulerMode::Calendar);
        for i in 0..20 {
            if i % 4 == 0 {
                noisy.capture().unwrap();
                noisy.capture_delta().unwrap();
            }
            assert_eq!(noisy.step().unwrap(), quiet.step().unwrap());
        }
        assert_eq!(noisy.state_checksum(), quiet.state_checksum());
    }

    #[test]
    fn no_page_encodes_larger_than_raw_and_every_page_round_trips() {
        use super::{load_pages, save_ram, RamPages, Reader, Writer};
        use crate::isa::Word;
        use crate::mem::{Ram, PAGE_WORDS};

        // Encodes `pages` written over `base`; checks the size bound and the
        // round trip, and returns the bytes.
        let encode = |base: &[Word], pages: &[(usize, Vec<Word>)]| -> Vec<u8> {
            let mut ram = Ram::from_words(base.to_vec());
            for (page, words) in pages {
                ram.write_page(*page, words);
            }
            let dirty: Vec<usize> = ram.dirty_pages().collect();
            let mut w = Writer::new();
            save_ram(&ram, base, &dirty, &mut w);
            let bytes = w.into_bytes();
            let raw: usize = pages.iter().map(|(_, words)| 8 + 8 * words.len()).sum();
            assert!(
                bytes.len() <= 8 + raw,
                "{} B > raw {} B",
                bytes.len(),
                8 + raw
            );
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_u32().unwrap() as usize, base.len());
            assert_eq!(load_pages(&mut r, base, base.len()).unwrap(), pages);
            r.finish().unwrap();
            bytes
        };
        let mut rng = mpsoc_obs::XorShift64Star::new(0x5EED);
        let random_words = |rng: &mut mpsoc_obs::XorShift64Star, n: usize| -> Vec<Word> {
            (0..n).map(|_| rng.next_u64() as Word).collect()
        };

        // Sparse: a handful of words differ — the shape deltas are made for.
        let base = random_words(&mut rng, PAGE_WORDS);
        let mut sparse = base.clone();
        for i in [5, 6, 40] {
            sparse[i] ^= 0x55;
        }
        let bytes = encode(&base, &[(0, sparse)]);
        assert!(bytes.len() < 8 + 8 + 8 * PAGE_WORDS, "{} B", bytes.len());

        // Dense: damaged everywhere except isolated words, where every
        // zero-run token buys back exactly its own cost. The run list ties
        // with the raw form, so the page must be one literal run.
        let mut dense: Vec<Word> = base.iter().map(|b| b ^ 7).collect();
        for i in [10, 20, 30] {
            dense[i] = base[i];
        }
        let mut raw = Writer::new();
        raw.put_u32(PAGE_WORDS as u32);
        raw.put_u32(1);
        raw.put_u32(0);
        raw.put_u32(((PAGE_WORDS as u32) << 1) | 1);
        for (v, b) in dense.iter().zip(&base) {
            raw.put_i64(v ^ b);
        }
        assert_eq!(encode(&base, &[(0, dense)]), raw.into_bytes());

        // Random RAM sizes (partial last page included), random dirty
        // subsets, damage density from "rewritten unchanged" to "every word".
        for _ in 0..300 {
            let total = rng.usize_in(1, 4 * PAGE_WORDS);
            let base = random_words(&mut rng, total);
            let mut pages = Vec::new();
            for (page, chunk) in base.chunks(PAGE_WORDS).enumerate() {
                if rng.u64_in(0, 1) == 0 {
                    continue;
                }
                let density = rng.u64_in(0, 8);
                let words = chunk
                    .iter()
                    .map(|&b| {
                        if rng.u64_in(1, 8) <= density {
                            b ^ (rng.u64_in(1, 255) as Word)
                        } else {
                            b
                        }
                    })
                    .collect();
                pages.push((page, words));
            }
            encode(&base, &pages);

            // Against the empty platform: the pages holding a non-zero word,
            // XORed with zeros, rebuild the RAM.
            let mut ram = Ram::new(total as u32);
            for (page, words) in &pages {
                ram.write_page(*page, words);
            }
            let written: Vec<usize> = pages.iter().map(|(page, _)| *page).collect();
            let mut w = Writer::new();
            save_ram(&ram, &[], &written, &mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let len = r.get_u32().unwrap() as usize;
            let pages = load_pages(&mut r, &[], len).unwrap();
            r.finish().unwrap();
            assert_eq!(RamPages { len, pages }.into_words(), ram.as_slice());
        }
    }

    #[test]
    fn stale_image_versions_are_rejected_with_located_errors() {
        // Reseal a valid full image's and a valid delta's payload under
        // every stale version (v0..current) of the one magic — each must be
        // refused at the frame, naming the found and expected versions and
        // the refusing decoder, never misparsed into the platform.
        assert_eq!(super::PLATFORM_IMAGE_VERSION, 5);
        let mut p = counter_platform(SchedulerMode::Calendar);
        for _ in 0..5 {
            p.step().unwrap();
        }
        let image = p.capture().unwrap();
        let base = super::BaseImage::new(image.clone()).unwrap();
        p.step().unwrap();
        let delta = p.capture_delta().unwrap();
        let payload = |sealed: &[u8]| super::open(sealed).unwrap().0.to_vec();
        let (img_payload, delta_payload) = (payload(&image), payload(&delta));
        let located = |err: crate::error::Error, stale: u16| {
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("v{stale}"))
                    && msg.contains(&format!("v{}", super::PLATFORM_IMAGE_VERSION)),
                "v{stale}: error must name both versions: {msg}"
            );
            assert!(
                msg.contains("platform image") && msg.contains("snapshot.rs"),
                "v{stale}: error must locate the refusing decoder: {msg}"
            );
        };
        let before = p.state_checksum();
        for stale in 0..super::PLATFORM_IMAGE_VERSION {
            let seal = |payload: &[u8]| {
                mpsoc_snapshot::Image::seal(super::PLATFORM_IMAGE_MAGIC, stale, payload)
            };
            located(p.restore_image(&seal(&img_payload)).unwrap_err(), stale);
            located(
                super::BaseImage::new(seal(&img_payload)).unwrap_err(),
                stale,
            );
            located(
                p.restore_delta(&base, &seal(&delta_payload)).unwrap_err(),
                stale,
            );
        }
        // Up to v4 a delta had a magic of its own, `MPSD`.
        let mpsd = u32::from_le_bytes(*b"MPSD");
        let old_delta = mpsoc_snapshot::Image::seal(mpsd, 4, &delta_payload);
        let msg = p.restore_delta(&base, &old_delta).unwrap_err().to_string();
        assert!(msg.contains("bad snapshot magic"), "{msg}");
        assert_eq!(p.state_checksum(), before, "rejections must not mutate");
        p.restore_delta(&base, &delta).unwrap();
    }

    #[test]
    fn the_header_decides_full_image_or_delta() {
        // One magic and one version for both: a delta offered where a full
        // image belongs, or the other way round, is refused by the header's
        // base field, with an error that locates the decoder and says what
        // it got — and the platform is untouched.
        let mut p = counter_platform(SchedulerMode::Calendar);
        for _ in 0..5 {
            p.step().unwrap();
        }
        let image = p.capture().unwrap();
        let base = super::BaseImage::new(image.clone()).unwrap();
        p.step().unwrap();
        let delta = p.capture_delta().unwrap();
        let before = p.state_checksum();
        let refused = |r: crate::error::Result<()>, got: &str| match r {
            Err(crate::error::Error::Snapshot(msg)) => assert!(
                msg.contains("platform image") && msg.contains("snapshot.rs") && msg.contains(got),
                "{msg}"
            ),
            other => panic!("expected a snapshot error saying `{got}`, got {other:?}"),
        };
        let a_delta = format!("got a delta against base {:#018x}", base.checksum());
        refused(p.restore_image(&delta), &a_delta);
        refused(Platform::from_image(&delta).map(drop), &a_delta);
        refused(super::BaseImage::new(delta.clone()).map(drop), &a_delta);
        refused(p.restore_delta(&base, &image), "got a full image");
        assert_eq!(p.state_checksum(), before, "refusals must not mutate");
        p.restore_delta(&base, &delta).unwrap();
        p.restore_image(&image).unwrap();
    }

    #[test]
    fn a_delta_shaped_unlike_its_base_is_refused() {
        // Deltas of other platforms, their headers rewritten to name the
        // base: one more core (one more RAM) than the base has, and a
        // shared RAM of another length. Each is a located error, not a
        // panic, and leaves the platform as it was.
        let mut p = counter_platform(SchedulerMode::Calendar);
        p.step().unwrap();
        let base = super::BaseImage::new(p.capture().unwrap()).unwrap();
        let forged = |mut q: Platform| {
            q.capture().unwrap();
            q.step().unwrap();
            let mut payload = super::open(&q.capture_delta().unwrap()).unwrap().0.to_vec();
            payload[1..9].copy_from_slice(&base.checksum().to_le_bytes());
            reseal(&payload)
        };
        let three_cores = PlatformBuilder::new()
            .cores(3, Frequency::mhz(100))
            .shared_words(1024)
            .local_words(64)
            .build()
            .unwrap();
        let more_shared = PlatformBuilder::new()
            .cores(2, Frequency::mhz(100))
            .shared_words(2048)
            .local_words(64)
            .build()
            .unwrap();
        let before = p.state_checksum();
        for (q, needle) in [
            (three_cores, "image holds 4 RAMs, its base 3"),
            (more_shared, "RAM 0 holds 2048 words, its base 1024"),
        ] {
            match p.restore_delta(&base, &forged(q)) {
                Err(crate::error::Error::Snapshot(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("expected `{needle}`, got {other:?}"),
            }
        }
        assert_eq!(p.state_checksum(), before);
    }

    #[test]
    fn streamed_state_checksum_equals_the_buffered_one() {
        // The suite's testbeds at several points of their runs (built by the
        // library build of this crate behind `mpsoc-apps`, so only their
        // image bytes cross into this test build), then shapes they lack:
        // zero-length local stores, one core, no cache.
        for name in ["car_radio", "jpeg", "e12"] {
            let mut donor = mpsoc_apps::testbed::by_name(name).unwrap();
            for steps in [0, 1, 300, 5000] {
                while donor.steps() < steps {
                    let ev = donor.step().unwrap();
                    donor.recycle(ev);
                }
                let p = Platform::from_image(&donor.capture().unwrap()).unwrap();
                assert_eq!(p.steps(), donor.steps());
                assert_eq!(
                    p.state_checksum(),
                    p.state_checksum_buffered(),
                    "{name}@{steps}"
                );
                // And the value itself did not move: the donor is the
                // library build's streaming implementation.
                assert_eq!(p.state_checksum(), donor.state_checksum(), "{name}@{steps}");
            }
        }
        let mut rng = mpsoc_obs::XorShift64Star::new(0x57A7E);
        for (cores, local_words) in [(1, 0), (3, 0), (2, 64), (5, 1)] {
            let mut p = PlatformBuilder::new()
                .cores(cores, Frequency::mhz(100))
                .shared_words(rng.u64_in(1, 700) as u32)
                .local_words(local_words)
                .cache(None)
                .build()
                .unwrap();
            for _ in 0..40 {
                let addr = rng.u64_in(0, u64::from(p.shared_words) - 1) as u32;
                p.debug_write(addr, rng.next_u64() as i64).unwrap();
            }
            assert_eq!(p.state_checksum(), p.state_checksum_buffered());
        }
    }

    #[test]
    fn a_warm_restore_allocates_only_for_the_signals() {
        use super::{decode_prefix, decode_suffix, load_interconnect, Reader, SmallState};
        use super::{Cache, SignalBoard, Snapshot};
        use crate::alloc_count::allocations;
        // car_radio: four programs with labels, four caches, 48 peripherals
        // of all four kinds, mailboxes holding words, signals driven.
        let mut donor = mpsoc_apps::testbed::by_name("car_radio").unwrap();
        for _ in 0..3000 {
            let ev = donor.step().unwrap();
            donor.recycle(ev);
        }
        // The first restore builds everything; the second leaves what the
        // first built — this shape — as the third's buffers.
        let mut p = Platform::from_image(&donor.capture().unwrap()).unwrap();
        let base = super::BaseImage::new(p.capture().unwrap()).unwrap();
        for _ in 0..300 {
            let ev = p.step().unwrap();
            p.recycle(ev);
        }
        let delta = p.capture_delta().unwrap();
        p.restore_delta(&base, &delta).unwrap();
        p.reset_to_base(&base).unwrap();

        // A restore of the image the previous restore decoded — the same
        // delta, the same base — is a hit: its decoded state is reinstalled,
        // and that allocates nothing, however far the platform ran since.
        let run = |p: &mut Platform| {
            for _ in 0..300 {
                let ev = p.step().unwrap();
                p.recycle(ev);
            }
        };
        let delta_again = |p: &mut Platform| p.restore_delta(&base, &delta).unwrap();
        let base_again = |p: &mut Platform| p.reset_to_base(&base).unwrap();
        let restores: [&dyn Fn(&mut Platform); 2] = [&delta_again, &base_again];
        for restore in restores {
            // The miss that remembers the image, then a first hit.
            restore(&mut p);
            run(&mut p);
            restore(&mut p);
            run(&mut p);
            assert_eq!(allocations(|| restore(&mut p)), 0);
        }

        // A base captured by the platform itself is remembered as decoded:
        // the first rollback onto it is already a hit.
        let again = p.capture_base().unwrap();
        run(&mut p);
        assert_eq!(allocations(|| p.reset_to_base(&again).unwrap()), 0);
        let twin = super::BaseImage::new(again.image().to_vec()).unwrap();
        assert_eq!(
            (again.checksum(), again.rams.clone()),
            (twin.checksum(), twin.rams)
        );

        let payload = &delta[mpsoc_snapshot::Image::HEADER_LEN..];
        let mut scratch: Box<SmallState> = p.restore_scratch.take().unwrap();
        let mut r = Reader::new(payload);
        // The base (tag and checksum) and the page size.
        r.skip(1 + 8 + 4).unwrap();
        // Cores, programs, labels.
        assert_eq!(
            allocations(|| decode_prefix(&mut r, &mut scratch).unwrap()),
            0
        );
        assert!(scratch.cores.iter().all(|c| !c.program().is_empty()));
        // Caches, interconnect, pending DMA, peripherals: the suffix
        // allocates exactly what the signal board, the one part it builds
        // anew, allocates on its own. The bus is built by value.
        let mut again = r.clone();
        let suffix = allocations(|| decode_suffix(&mut r, &mut scratch).unwrap());
        Vec::<Option<Cache>>::load(&mut again).unwrap();
        assert_eq!(
            allocations(|| drop(load_interconnect(&mut again).unwrap())),
            0
        );
        let signals = allocations(|| drop(SignalBoard::load(&mut again).unwrap()));
        assert!(signals > 0);
        assert_eq!(suffix, signals);
        assert_eq!(scratch.periphs.len(), 48);
        assert!(scratch.caches.iter().all(Option::is_some));

        // A mesh is its link table and nothing else.
        let mut w = super::Writer::new();
        let mesh = crate::interconnect::Mesh::new(3, 3, Time::from_ns(4), Time::from_ns(3));
        crate::interconnect::Interconnect::Mesh(mesh).snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(allocations(|| drop(load_interconnect(&mut r).unwrap())), 1);
    }

    /// Re-seals `payload` as an image of the current version.
    fn reseal(payload: &[u8]) -> Vec<u8> {
        mpsoc_snapshot::Image::seal(
            super::PLATFORM_IMAGE_MAGIC,
            super::PLATFORM_IMAGE_VERSION,
            payload,
        )
    }

    /// A frame-valid full image, the base built from it, and a delta one
    /// step later, of a two-core platform holding a mailbox (page 0) and a
    /// DMA engine (page 1) with a transfer in flight.
    fn hostile_fixture() -> (Vec<u8>, super::BaseImage, Vec<u8>) {
        use crate::periph::dma_reg;
        let mut p = counter_platform(SchedulerMode::ScanReference);
        p.add_mailbox("mb", 4);
        let dma = p.add_dma("dma");
        p.debug_periph_write(dma, dma_reg::LEN, 64).unwrap();
        p.debug_periph_write(dma, dma_reg::CTRL, 1).unwrap();
        for _ in 0..6 {
            p.step().unwrap();
        }
        let image = p.capture().unwrap();
        let base = super::BaseImage::new(image.clone()).unwrap();
        p.step().unwrap();
        assert!(p.dma_in_flight(dma));
        (image, base, p.capture_delta().unwrap())
    }

    /// Byte offsets of the fields the hostile images rewrite.
    struct Landmarks {
        core1_id: usize,
        caches: usize,
        interconnect_tag: usize,
        dma0_page: usize,
        periph0_kind: usize,
    }

    /// Finds the [`Landmarks`] of a full-image or delta payload by decoding
    /// up to each of them.
    fn landmarks(payload: &[u8], is_delta: bool) -> Landmarks {
        use super::{decode_prefix, load_interconnect, Cache, Reader, SmallState, Snapshot};
        // The header: the base (a tag, and a delta's base checksum), then
        // the page size.
        let prefix_at = if is_delta { 1 + 8 + 4 } else { 1 + 4 };
        let mut one_core = Reader::new(payload);
        one_core.skip(prefix_at + 45 + 8).unwrap();
        crate::core::Core::load(&mut one_core).unwrap();
        let mut r = Reader::new(payload);
        r.skip(prefix_at).unwrap();
        decode_prefix(&mut r, &mut SmallState::empty()).unwrap();
        let caches = r.position();
        Vec::<Option<Cache>>::load(&mut r).unwrap();
        let interconnect_tag = r.position();
        load_interconnect(&mut r).unwrap();
        super::SignalBoard::load(&mut r).unwrap();
        let pending = r.get_len(8).unwrap();
        // A transfer is its finish time, then its page.
        let dma0_page = r.position() + 8;
        r.skip(pending * 36).unwrap();
        r.get_len(2).unwrap();
        Landmarks {
            core1_id: one_core.position(),
            caches,
            interconnect_tag,
            dma0_page,
            periph0_kind: r.position(),
        }
    }

    /// Every hostile image — `(is a delta, sealed bytes, what the refusal
    /// must say)` — is a located snapshot error at each decode entry point,
    /// and none of them leaves a mark on the platform it was offered to.
    fn assert_refused_everywhere(
        image: &[u8],
        base: &super::BaseImage,
        hostile: &[(bool, Vec<u8>, String)],
    ) {
        let mut target = counter_platform(SchedulerMode::Calendar);
        target.restore_image(image).unwrap();
        let before = target.capture().unwrap();
        let refused = |r: crate::error::Result<()>, needle: &str| match r {
            Err(crate::error::Error::Snapshot(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected a snapshot error naming `{needle}`, got {other:?}"),
        };
        for (is_delta, bytes, needle) in hostile {
            if *is_delta {
                refused(target.restore_delta(base, bytes), needle);
            } else {
                refused(target.restore_image(bytes), needle);
                refused(Platform::from_image(bytes).map(drop), needle);
                refused(super::BaseImage::new(bytes.clone()).map(drop), needle);
                // `reset_to_base` trusts a `BaseImage`; one that got these
                // bytes past its constructor still cannot get them in.
                let unvalidated = super::BaseImage {
                    image: bytes.clone(),
                    checksum: base.checksum,
                    rams: base.rams.clone(),
                };
                refused(target.reset_to_base(&unvalidated), needle);
            }
            assert_eq!(target.capture().unwrap(), before, "`{needle}` left a mark");
        }
    }

    #[test]
    fn misplaced_core_ids_and_empty_cache_sets_are_refused_everywhere() {
        use super::{Reader, Snapshot};
        // All of these carry a valid frame, and a decoder without the
        // cross-field checks of `validate` took them; the first step then
        // indexed `cores[99]` (the scan scheduler steps `Core::id`), or
        // asked a set with no ways for a victim, or — on the completion of
        // a transfer naming a page no DMA engine occupies — grew the
        // calendar to that page: an aborting allocation for page 2^40, an
        // overflow for `usize::MAX`, a ghost copy for a small one.
        let (image, base, delta) = hostile_fixture();
        let header = mpsoc_snapshot::Image::HEADER_LEN;
        let mut hostile: Vec<(bool, Vec<u8>, String)> = Vec::new();
        for (is_delta, sealed) in [(false, &image), (true, &delta)] {
            let payload = &sealed[header..];
            let at = landmarks(payload, is_delta);

            let mut bad_id = payload.to_vec();
            assert_eq!(bad_id[at.core1_id..at.core1_id + 8], 1u64.to_le_bytes());
            bad_id[at.core1_id..at.core1_id + 8].copy_from_slice(&99u64.to_le_bytes());
            hostile.push((is_delta, reseal(&bad_id), "position 1 carries id 99".into()));

            // The first cache: `caches` count, `Some` tag, set count, then
            // per set a way count and that many (all invalid, one byte
            // each) ways — rewritten as the same number of empty sets.
            let mut r = Reader::new(payload);
            r.skip(at.caches + 8 + 1).unwrap();
            let sets = r.get_usize().unwrap();
            let table_at = r.position();
            for _ in 0..sets {
                Vec::<Option<(u32, u64)>>::load(&mut r).unwrap();
            }
            let mut no_ways = payload[..table_at].to_vec();
            no_ways.extend(std::iter::repeat_n(0u8, sets * 8));
            no_ways.extend_from_slice(&payload[r.position()..]);
            hostile.push((is_delta, reseal(&no_ways), "associativity 0".into()));

            // The in-flight transfer, moved from the engine's page (1) to
            // the mailbox's, to the first unoccupied one, and far away.
            for page in [0, 2, 1 << 40, u64::MAX] {
                let mut ghost = payload.to_vec();
                assert_eq!(ghost[at.dma0_page..at.dma0_page + 8], 1u64.to_le_bytes());
                ghost[at.dma0_page..at.dma0_page + 8].copy_from_slice(&page.to_le_bytes());
                hostile.push((
                    is_delta,
                    reseal(&ghost),
                    format!("names page {page}, which holds no DMA engine"),
                ));
            }
        }
        assert_eq!(hostile.len(), 12);
        assert_refused_everywhere(&image, &base, &hostile);
    }

    #[test]
    fn device_tags_outside_the_closed_set_are_refused_everywhere() {
        // Peripheral kinds are 1..=4 and interconnects 0 or 1; the tags on
        // either side of each range name no device, in any image.
        let (image, base, delta) = hostile_fixture();
        let header = mpsoc_snapshot::Image::HEADER_LEN;
        let mut hostile: Vec<(bool, Vec<u8>, String)> = Vec::new();
        for (is_delta, sealed) in [(false, &image), (true, &delta)] {
            let payload = &sealed[header..];
            let at = landmarks(payload, is_delta);
            assert_eq!(payload[at.periph0_kind], crate::periph::SNAP_KIND_MAILBOX);
            assert_eq!(payload[at.interconnect_tag], 0, "a bus");
            for (offset, tag, what) in [
                (at.periph0_kind, 0, "peripheral kind"),
                (at.periph0_kind, 5, "peripheral kind"),
                (at.interconnect_tag, 2, "interconnect"),
            ] {
                let mut bad = payload.to_vec();
                bad[offset] = tag;
                hostile.push((
                    is_delta,
                    reseal(&bad),
                    format!("bad tag {tag} while decoding {what}"),
                ));
            }
        }
        assert_eq!(hostile.len(), 6);
        assert_refused_everywhere(&image, &base, &hostile);
    }

    #[test]
    fn restores_reconcile_the_trace_ring() {
        // In-place rewind: the ring keeps the pre-checkpoint recent window
        // and drops only the now-future records; the sequence counter (the
        // one architectural piece) rewinds with the image.
        let mut p = counter_platform(SchedulerMode::Calendar);
        for i in 1..=3 {
            p.debug_drive_signal("s", i);
        }
        let image = p.capture().unwrap();
        let seq_at_capture = p.trace_stats().next_seq;
        for i in 4..=5 {
            p.debug_drive_signal("s", i);
        }
        assert_eq!(p.signals().recent("s").len(), 5);
        p.restore_image(&image).unwrap();
        assert_eq!(p.trace_stats().next_seq, seq_at_capture);
        assert_eq!(p.signals().value("s"), 3);
        assert_eq!(
            p.signals()
                .recent("s")
                .iter()
                .map(|c| c.value)
                .collect::<Vec<_>>(),
            vec![1, 2, 3],
            "pre-checkpoint window survives, future edges are truncated"
        );
        // A foreign platform built from the image starts with an empty ring
        // but the same counter — history is checkpoint-excluded.
        let fresh = Platform::from_image(&image).unwrap();
        assert_eq!(fresh.trace_stats().next_seq, seq_at_capture);
        assert_eq!(fresh.signals().value("s"), 3);
        assert!(fresh.signals().recent("s").is_empty());
        assert_eq!(fresh.state_checksum(), p.state_checksum());
    }

    /// The signal-trace ring as `(seq, name, edge)` records, oldest first.
    fn ring(p: &Platform) -> Vec<(u64, String, crate::signal::SignalChange)> {
        (p.signals().trace_records())
            .map(|(seq, name, change)| (seq, name.to_string(), change))
            .collect()
    }

    /// car_radio, `steps` steps in, each taken by this crate's platform (so
    /// two of them hold the same signal-trace history).
    fn car_radio(steps: u64) -> Platform {
        let mut donor = mpsoc_apps::testbed::by_name("car_radio").unwrap();
        let mut p = Platform::from_image(&donor.capture().unwrap()).unwrap();
        for _ in 0..steps {
            p.step_in_place().unwrap();
        }
        p
    }

    #[test]
    fn swapping_the_parked_state_in_and_out_changes_nothing() {
        let mut p = car_radio(3000);
        let base = p.capture_base().unwrap();
        for _ in 0..500 {
            p.step_in_place().unwrap();
        }
        let seen = |p: &Platform| {
            let stats = p.trace_stats();
            (
                p.state_checksum(),
                p.capture_delta().unwrap(),
                ring(p),
                stats,
            )
        };
        let before = seen(&p);
        // The first swap brings in the empty state, whose sequence counter
        // is the live one's.
        let seq = p.trace_stats().next_seq;
        p.swap_parked();
        assert_eq!(
            (p.num_cores(), p.steps(), p.trace_stats().next_seq),
            (0, 0, seq)
        );
        p.swap_parked();
        assert_eq!(seen(&p), before);
        // Parked while the platform goes back to the base, and swapped in
        // again: the state is whole, though the restore dropped the ring's
        // records after the base, which nothing brings back.
        p.swap_parked();
        p.reset_to_base(&base).unwrap();
        p.swap_parked();
        let after = seen(&p);
        assert_eq!((&after.0, &after.1), (&before.0, &before.1));
        assert_eq!(after.3.next_seq, before.3.next_seq);
        // With a state parked: swapped in and straight out again.
        p.swap_parked();
        assert_eq!(p.steps(), 3000);
        p.swap_parked();
        assert_eq!(seen(&p), after);
    }

    #[test]
    fn a_parked_state_swapped_back_in_continues_exactly() {
        // `p` parks its state and runs another one for a while; swapped
        // back in, its state — calendar, dirty pages and base mark
        // included — carries on step for step as `twin`, which never left.
        let mut p = car_radio(3000);
        let base = p.capture_base().unwrap();
        let mut twin = base.hydrate().unwrap();
        for _ in 0..700 {
            p.step_in_place().unwrap();
            twin.step_in_place().unwrap();
        }
        p.swap_parked();
        p.reset_to_base(&base).unwrap();
        for _ in 0..300 {
            p.step_in_place().unwrap();
        }
        p.swap_parked();
        for step in 0..2000 {
            let (ev, twin_ev) = (p.step().unwrap(), twin.step().unwrap());
            assert_eq!(ev, twin_ev, "step {step} after the swap");
            if step % 250 == 0 {
                assert_eq!(p.state_checksum(), twin.state_checksum());
                assert_eq!(p.capture_delta().unwrap(), twin.capture_delta().unwrap());
            }
        }
    }

    #[test]
    fn a_restore_into_the_parked_state_reconciles_the_ring_as_a_restore() {
        // Swapping a state in and restoring over it leaves the signal ring
        // as the restore alone leaves it: the records the swap took off,
        // back to the older parked state, are put back first.
        let run_to = |p: &mut Platform, step: u64| {
            while p.steps() < step {
                p.step_in_place().unwrap();
            }
        };
        let mut p = car_radio(3000);
        let base = p.capture_base().unwrap();
        run_to(&mut p, 3200);
        let at_3200 = p.capture_delta().unwrap();
        // Park the state at 3200, and go on from a restored copy of it.
        p.swap_parked();
        p.restore_delta(&base, &at_3200).unwrap();
        let mut alone = car_radio(3200);
        assert_eq!(ring(&p), ring(&alone));
        run_to(&mut p, 3500);
        let at_3500 = p.capture_delta().unwrap();
        run_to(&mut p, 3800);
        run_to(&mut alone, 3800);
        // Back to 3500 through the parked state at 3200.
        p.swap_parked();
        assert_eq!(p.steps(), 3200);
        p.restore_delta(&base, &at_3500).unwrap();
        alone.restore_delta(&base, &at_3500).unwrap();
        assert_eq!(p.state_checksum(), alone.state_checksum());
        assert_eq!(ring(&p), ring(&alone));
        assert_eq!(p.trace_stats(), alone.trace_stats());
        assert!(ring(&p).last().is_some_and(|r| r.0 > 0));
    }

    #[test]
    fn corrupted_delta_tokens_never_panic() {
        // Zero out each u32-aligned cell of the payload in turn (this
        // manufactures zero-length runs, truncated literal runs, and bad
        // page indices somewhere in the token stream) and require the
        // decoder to reject or survive every one without panicking — and
        // without corrupting the platform, which must still restore the
        // genuine delta afterwards.
        let mut p = counter_platform(SchedulerMode::Calendar);
        for _ in 0..5 {
            p.step().unwrap();
        }
        let base = super::BaseImage::new(p.capture().unwrap()).unwrap();
        p.step().unwrap();
        let delta = p.capture_delta().unwrap();
        let mut bytes = super::open(&delta).unwrap().0.to_vec();
        for i in (0..bytes.len().saturating_sub(4)).step_by(4) {
            let orig = [bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]];
            bytes[i..i + 4].copy_from_slice(&[0, 0, 0, 0]);
            let resealed = reseal(&bytes);
            let _ = p.restore_delta(&base, &resealed);
            bytes[i..i + 4].copy_from_slice(&orig);
        }
        p.restore_delta(&base, &delta).unwrap();
    }

    #[test]
    fn region_checksum_sees_single_bit_changes() {
        let mut p = counter_platform(SchedulerMode::Calendar);
        p.load_shared(0x100, &[1, 2, 3, 4]).unwrap();
        let a = p.region_checksum(0x100, 4).unwrap();
        p.inject_mem_flip(0x102, 7).unwrap();
        let b = p.region_checksum(0x100, 4).unwrap();
        assert_ne!(a, b);
    }
}
