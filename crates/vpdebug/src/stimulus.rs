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
//! This is the minimal seed of ROADMAP's "stimulus record/replay" item:
//! three injection kinds and a serializable log. Interactive capture of
//! arbitrary host I/O stays future work.

use mpsoc_platform::isa::Word;
use mpsoc_snapshot::{Image, Reader, SnapError, Writer};

use crate::error::{Error, Result};

/// Magic number of a serialized stimulus log (`b"MPST"`, little-endian).
pub const STIMULUS_LOG_MAGIC: u32 = u32::from_le_bytes(*b"MPST");

/// Current stimulus log format version.
///
/// v2 adds two record kinds: DMA descriptor writes (tag 3) and debugger
/// memory pokes (tag 4). v1 logs are rejected, never reinterpreted.
///
/// v3 changes no payload byte: the frame's checksum went word-wise (see
/// [`mpsoc_snapshot::Image`]), and the bump makes a v2 log fail as a
/// located version mismatch instead of a checksum mismatch.
pub const STIMULUS_LOG_VERSION: u16 = 3;

/// Version-mismatch context (see [`Image::open_as`]): a stale log is
/// refused with an error naming this decoder and file.
const LOG_WHAT: &str = concat!("stimulus log (", file!(), ")");

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

fn save_record(rec: &StimulusRecord, w: &mut Writer) {
    w.put_u64(rec.step);
    match &rec.kind {
        StimulusKind::MailboxPush { page, value } => {
            w.put_u8(0);
            w.put_usize(*page);
            w.put_i64(*value);
        }
        StimulusKind::SignalWrite { name, value } => {
            w.put_u8(1);
            w.put_str(name);
            w.put_i64(*value);
        }
        StimulusKind::IrqPost { core, irq } => {
            w.put_u8(2);
            w.put_usize(*core);
            w.put_u32(*irq);
        }
        StimulusKind::DmaDescriptor {
            page,
            src,
            dst,
            len,
        } => {
            w.put_u8(3);
            w.put_usize(*page);
            w.put_i64(*src);
            w.put_i64(*dst);
            w.put_i64(*len);
        }
        StimulusKind::MemPoke { addr, value } => {
            w.put_u8(4);
            w.put_u32(*addr);
            w.put_i64(*value);
        }
    }
}

fn load_record(r: &mut Reader<'_>) -> mpsoc_snapshot::SnapResult<StimulusRecord> {
    let step = r.get_u64()?;
    let kind = match r.get_u8()? {
        0 => StimulusKind::MailboxPush {
            page: r.get_usize()?,
            value: r.get_i64()?,
        },
        1 => StimulusKind::SignalWrite {
            name: r.get_str()?,
            value: r.get_i64()?,
        },
        2 => StimulusKind::IrqPost {
            core: r.get_usize()?,
            irq: r.get_u32()?,
        },
        3 => StimulusKind::DmaDescriptor {
            page: r.get_usize()?,
            src: r.get_i64()?,
            dst: r.get_i64()?,
            len: r.get_i64()?,
        },
        4 => StimulusKind::MemPoke {
            addr: r.get_u32()?,
            value: r.get_i64()?,
        },
        tag => {
            return Err(SnapError::BadTag {
                what: "stimulus kind",
                tag: u64::from(tag),
            })
        }
    };
    Ok(StimulusRecord { step, kind })
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

    /// Serializes the log into a checksummed byte image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_usize(self.records.len());
        for rec in &self.records {
            save_record(rec, &mut w);
        }
        Image::seal(STIMULUS_LOG_MAGIC, STIMULUS_LOG_VERSION, &w.into_bytes())
    }

    /// Deserializes a log written by [`to_bytes`](StimulusLog::to_bytes).
    ///
    /// # Errors
    ///
    /// [`Error::Platform`] for a corrupt or version-mismatched image, or
    /// records out of step order.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let snap = |e: SnapError| Error::Platform(format!("stimulus log: {e}"));
        let (payload, _) =
            Image::open_as(bytes, STIMULUS_LOG_MAGIC, STIMULUS_LOG_VERSION, LOG_WHAT)
                .map_err(snap)?;
        let mut r = Reader::new(payload);
        let n = r.get_len(9).map_err(snap)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(load_record(&mut r).map_err(snap)?);
        }
        r.finish().map_err(snap)?;
        if records.windows(2).any(|w| w[0].step > w[1].step) {
            return Err(Error::Platform(
                "stimulus log: records out of step order".into(),
            ));
        }
        Ok(StimulusLog { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_round_trips_through_bytes() {
        let mut log = StimulusLog::new();
        log.push(StimulusRecord {
            step: 3,
            kind: StimulusKind::MailboxPush { page: 1, value: -7 },
        });
        log.push(StimulusRecord {
            step: 3,
            kind: StimulusKind::SignalWrite {
                name: "ext.ready".into(),
                value: 1,
            },
        });
        log.push(StimulusRecord {
            step: 9,
            kind: StimulusKind::IrqPost { core: 1, irq: 4 },
        });
        log.push(StimulusRecord {
            step: 9,
            kind: StimulusKind::DmaDescriptor {
                page: 2,
                src: 0x100,
                dst: 0x300,
                len: 16,
            },
        });
        log.push(StimulusRecord {
            step: 12,
            kind: StimulusKind::MemPoke {
                addr: 0x44,
                value: -1,
            },
        });
        let bytes = log.to_bytes();
        assert_eq!(StimulusLog::from_bytes(&bytes).unwrap(), log);
    }

    #[test]
    fn stale_logs_are_rejected_with_located_errors_not_reinterpreted() {
        // v2 is the case the version alone decides: its payload is today's.
        assert_eq!(STIMULUS_LOG_VERSION, 3);
        let log = StimulusLog::new();
        let payload = Image::open(&log.to_bytes(), STIMULUS_LOG_MAGIC, STIMULUS_LOG_VERSION)
            .unwrap()
            .to_vec();
        for stale in 0..STIMULUS_LOG_VERSION {
            let downgraded = Image::seal(STIMULUS_LOG_MAGIC, stale, &payload);
            let msg = StimulusLog::from_bytes(&downgraded)
                .unwrap_err()
                .to_string();
            assert!(
                msg.contains(&format!("v{stale}"))
                    && msg.contains(&format!("v{STIMULUS_LOG_VERSION}")),
                "log v{stale}: error must name both versions: {msg}"
            );
            assert!(
                msg.contains("stimulus log (") && msg.contains("stimulus.rs"),
                "log v{stale}: error must locate the refusing decoder: {msg}"
            );
        }
    }

    #[test]
    fn corrupt_log_is_rejected() {
        let mut bytes = StimulusLog::new().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(StimulusLog::from_bytes(&bytes).is_err());
        // Out-of-order records are rejected even with a valid frame.
        let mut log = StimulusLog::new();
        log.records.push(StimulusRecord {
            step: 5,
            kind: StimulusKind::IrqPost { core: 0, irq: 0 },
        });
        log.records.push(StimulusRecord {
            step: 2,
            kind: StimulusKind::IrqPost { core: 0, irq: 0 },
        });
        assert!(StimulusLog::from_bytes(&log.to_bytes()).is_err());
    }
}
