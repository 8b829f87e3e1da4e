//! Stimulus record/replay: a timestamped log of external injections.
//!
//! Interactive debugging perturbs a platform from the outside — push a
//! message into a mailbox, drive a signal, post an interrupt. Those
//! injections are *not* part of the deterministic state machine, so a
//! naive time-travel rewind would replay a past that never contained them
//! (or, worse, a fault campaign could not reproduce an interactive
//! session). The [`StimulusLog`] closes the gap: every injection made
//! through the [`Debugger`](crate::debugger::Debugger) hooks is recorded
//! with the platform step it happened at, and deterministic replay
//! re-applies each record just before the step with that index executes —
//! making *platform + log* a closed deterministic system again.
//!
//! The cursor discipline matters: the debugger tracks how many records have
//! been applied so far, and each checkpoint stores that cursor. Restoring a
//! checkpoint restores the cursor, so a record is never applied twice (the
//! checkpoint image may already contain its effect) and never lost.
//!
//! Six injection kinds are recorded: mailbox pushes, signal writes,
//! interrupt posts, DMA descriptors, and the debugger's memory and register
//! writes. The log lives in memory for the session it belongs to; it has
//! no file format. Interactive capture of arbitrary host I/O stays future
//! work.

use mpsoc_platform::isa::{Reg, Word};

/// One kind of external injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StimulusKind {
    /// A value pushed into the mailbox at peripheral page `page` (a write
    /// to its `DATA` register, with full side effects: avail signal, IRQ).
    MailboxPush {
        /// Peripheral page of the mailbox.
        page: usize,
        /// Pushed value.
        value: Word,
    },
    /// A named signal driven to `value`.
    SignalWrite {
        /// Signal name.
        name: String,
        /// Driven value.
        value: Word,
    },
    /// Interrupt `irq` posted to core `core`.
    IrqPost {
        /// Target core.
        core: usize,
        /// Interrupt number.
        irq: u32,
    },
    /// A DMA descriptor programmed and kicked off from the outside: the
    /// SRC/DST/LEN registers of the engine at peripheral page `page` are
    /// written, then CTRL starts the transfer (full side effects: busy
    /// signal, completion IRQ).
    DmaDescriptor {
        /// Peripheral page of the DMA engine.
        page: usize,
        /// Source word address.
        src: Word,
        /// Destination word address.
        dst: Word,
        /// Transfer length in words.
        len: Word,
    },
    /// A debugger poke of one memory word: `mem[addr] = value`.
    MemPoke {
        /// Word address (shared, local, or peripheral space).
        addr: u32,
        /// Written value.
        value: Word,
    },
    /// A debugger write of one register of core `core`, or of its pc.
    RegWrite {
        /// Target core.
        core: usize,
        /// The general-purpose register written; `None` writes the pc.
        reg: Option<Reg>,
        /// Written value (a pc write keeps its low 32 bits).
        value: Word,
    },
}

/// One injection: what happened, and at which platform step count.
///
/// "At step `s`" means the injection was applied after step `s - 1`
/// completed and before step `s` executed — exactly where replay re-applies
/// it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StimulusRecord {
    /// Platform step count at injection time.
    pub step: u64,
    /// The injection.
    pub kind: StimulusKind,
}

/// An ordered log of external injections, sorted by step (appends must be
/// monotone, which the debugger hooks guarantee — simulation only moves
/// forward between injections).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StimulusLog {
    records: Vec<StimulusRecord>,
}

impl StimulusLog {
    /// An empty log.
    pub fn new() -> Self {
        StimulusLog::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, ascending by step.
    pub fn records(&self) -> &[StimulusRecord] {
        &self.records
    }

    /// Appends a record. Steps must be non-decreasing.
    pub(crate) fn push(&mut self, rec: StimulusRecord) {
        debug_assert!(self.records.last().is_none_or(|l| l.step <= rec.step));
        self.records.push(rec);
    }

    /// Drops every record from index `from` on (a rewound-then-diverged
    /// future).
    pub(crate) fn truncate(&mut self, from: usize) {
        self.records.truncate(from);
    }
}
