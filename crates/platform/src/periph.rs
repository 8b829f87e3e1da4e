//! Memory-mapped peripherals: timers, mailboxes, hardware semaphores, DMA.
//!
//! Section VII lists the shared platform resources that make MPSoC debugging
//! hard: *"timers, interrupt controllers, DMAs, memory controllers,
//! memories, semaphores may not be controlled anymore by a single software
//! stack."* The platform models each of them as a device page of
//! word-addressed registers (see `crate::mem::PERIPH_BASE`), fully
//! inspectable without side effects via
//! [`Platform::peripheral_snapshot`](crate::Platform::peripheral_snapshot) — the
//! *"consistent view into the state of all cores and peripherals"* that a
//! virtual platform provides.
//!
//! The device set is closed: a page holds one of the four kinds of
//! `Periph`, the same four the `.soc` language and the checkpoint format
//! enumerate. A register access or event is handed the time and the
//! [signal board](crate::signal::SignalBoard) and returns the one
//! `Effect` it has on the rest of the platform (an interrupt request, a
//! DMA transfer), if any; the platform applies it.

use crate::error::{Error, Result};
use crate::isa::Word;
use crate::signal::{SignalBoard, SignalHandle};
use crate::time::Time;
use mpsoc_snapshot::{Reader, SnapError, SnapResult, Snapshot as _, Writer};

/// A side effect requested by a peripheral, executed by the platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Deliver interrupt `irq` to core `core`.
    RaiseIrq {
        /// Target core.
        core: usize,
        /// Interrupt number (0–31).
        irq: u32,
    },
    /// Start a DMA block copy of `len` words from `src` to `dst`,
    /// attributed to the peripheral page `page`.
    DmaCopy {
        /// Peripheral page of the requesting DMA engine.
        page: usize,
        /// Source word address.
        src: u32,
        /// Destination word address.
        dst: u32,
        /// Number of words.
        len: u32,
    },
}

/// A memory-mapped device occupying one peripheral page.
///
/// Register `offset`s are word offsets within the page. Reads may have side
/// effects (e.g. popping a mailbox); the debugger uses [`snapshot`] instead,
/// which never perturbs state — the essence of non-intrusive inspection.
///
/// [`snapshot`]: Periph::snapshot
#[derive(Debug)]
pub(crate) enum Periph {
    /// A periodic interval timer.
    Timer(Timer),
    /// A bounded inter-core FIFO.
    Mailbox(Mailbox),
    /// A counting semaphore.
    Semaphore(Semaphore),
    /// A block-copy engine.
    Dma(Dma),
}

impl Clone for Periph {
    fn clone(&self) -> Self {
        match self {
            Periph::Timer(d) => Periph::Timer(d.clone()),
            Periph::Mailbox(d) => Periph::Mailbox(d.clone()),
            Periph::Semaphore(d) => Periph::Semaphore(d.clone()),
            Periph::Dma(d) => Periph::Dma(d.clone()),
        }
    }
    // A device copied over one of its own kind keeps its buffers: the name,
    // the signal handle's name, a mailbox's FIFO.
    fn clone_from(&mut self, src: &Self) {
        match (self, src) {
            (Periph::Timer(d), Periph::Timer(s)) => d.clone_from(s),
            (Periph::Mailbox(d), Periph::Mailbox(s)) => d.clone_from(s),
            (Periph::Semaphore(d), Periph::Semaphore(s)) => d.clone_from(s),
            (Periph::Dma(d), Periph::Dma(s)) => d.clone_from(s),
            (this, src) => *this = src.clone(),
        }
    }
}

/// `$body` with `$dev` bound to the device inside `$periph`, whichever of
/// the four it is.
macro_rules! with_device {
    ($periph:expr, $dev:ident => $body:expr) => {
        match $periph {
            Periph::Timer($dev) => $body,
            Periph::Mailbox($dev) => $body,
            Periph::Semaphore($dev) => $body,
            Periph::Dma($dev) => $body,
        }
    };
}

impl Periph {
    /// The peripheral instance name (e.g. `"timer0"`).
    pub(crate) fn name(&self) -> &str {
        with_device!(self, d => &d.name)
    }

    /// Reads register `offset` at `now` (may have side effects, like
    /// hardware). No device's read has an effect outside itself and the
    /// signal board.
    ///
    /// # Errors
    ///
    /// [`Error::BadPeripheralRegister`] if the register does not exist.
    pub(crate) fn read(
        &mut self,
        offset: u32,
        now: Time,
        signals: &mut SignalBoard,
    ) -> Result<Word> {
        with_device!(self, d => d.read(offset, now, signals))
    }

    /// Writes register `offset` at `now`; returns the write's effect on the
    /// rest of the platform, if it has one. A rejected write has none.
    ///
    /// # Errors
    ///
    /// [`Error::BadPeripheralRegister`] if the register does not exist or
    /// [`Error::BadRegisterValue`] if the value is unrepresentable.
    pub(crate) fn write(
        &mut self,
        offset: u32,
        value: Word,
        now: Time,
        signals: &mut SignalBoard,
    ) -> Result<Option<Effect>> {
        with_device!(self, d => d.write(offset, value, now, signals))
    }

    /// The next instant at which the device needs [`on_event`] to run, if
    /// any. Only a timer has internal events: its next expiry.
    ///
    /// [`on_event`]: Periph::on_event
    pub(crate) fn next_event(&self) -> Option<Time> {
        match self {
            Periph::Timer(t) => t.next_fire,
            _ => None,
        }
    }

    /// Runs the device's internal event scheduled for `now`.
    pub(crate) fn on_event(&mut self, now: Time, signals: &mut SignalBoard) -> Option<Effect> {
        match self {
            Periph::Timer(t) => t.on_event(now, signals),
            _ => None,
        }
    }

    /// A side-effect-free dump of `(offset, value)` register pairs for
    /// debugger inspection.
    pub(crate) fn snapshot(&self) -> Vec<(u32, Word)> {
        with_device!(self, d => d.snapshot())
    }

    /// Stable type tag identifying this peripheral's kind in checkpoint
    /// images.
    pub(crate) fn snap_kind(&self) -> u8 {
        match self {
            Periph::Timer(_) => SNAP_KIND_TIMER,
            Periph::Mailbox(_) => SNAP_KIND_MAILBOX,
            Periph::Semaphore(_) => SNAP_KIND_SEMAPHORE,
            Periph::Dma(_) => SNAP_KIND_DMA,
        }
    }

    /// Rebuilds an empty peripheral of checkpoint kind `kind` named `name`
    /// on page `page`; its state is then filled by
    /// [`snap_restore`](Periph::snap_restore).
    ///
    /// # Errors
    ///
    /// [`SnapError::BadTag`] for a kind that is none of the four.
    pub(crate) fn from_kind(kind: u8, name: &str, page: usize) -> SnapResult<Periph> {
        Ok(match kind {
            SNAP_KIND_TIMER => Periph::Timer(Timer::new(name)),
            // Placeholder capacity; snap_restore overwrites it.
            SNAP_KIND_MAILBOX => Periph::Mailbox(Mailbox::new(name, 1)),
            SNAP_KIND_SEMAPHORE => Periph::Semaphore(Semaphore::new(name, 0)),
            SNAP_KIND_DMA => Periph::Dma(Dma::new(name, page)),
            _ => {
                return Err(SnapError::BadTag {
                    what: "peripheral kind",
                    tag: u64::from(kind),
                })
            }
        })
    }

    /// Serializes the device's complete internal state (not just the
    /// register view) for checkpointing.
    pub(crate) fn snap_save(&self, w: &mut Writer) {
        with_device!(self, d => d.snap_save(w))
    }

    /// Restores state previously written by
    /// [`snap_save`](Periph::snap_save), replacing **all** of the device's
    /// state whatever it held before: the platform restores over a device
    /// of the same kind and name that an earlier restore left behind —
    /// possibly one a failed decode stopped half-way through — and the
    /// result must equal a restore over a newly built device.
    pub(crate) fn snap_restore(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        with_device!(self, d => d.snap_restore(r))
    }

    /// Fault injection: wedges the device into a stuck-at state (a stuck
    /// timer stops firing, a stuck mailbox drops pushes, a stuck semaphore
    /// never grants, a stuck DMA ignores start commands).
    pub(crate) fn fault_stick(&mut self) {
        with_device!(self, d => d.stuck = true);
        if let Periph::Timer(t) = self {
            t.next_fire = None;
        }
    }
}

/// Checkpoint type tag of [`Timer`].
pub(crate) const SNAP_KIND_TIMER: u8 = 1;
/// Checkpoint type tag of [`Mailbox`].
pub(crate) const SNAP_KIND_MAILBOX: u8 = 2;
/// Checkpoint type tag of [`Semaphore`].
pub(crate) const SNAP_KIND_SEMAPHORE: u8 = 3;
/// Checkpoint type tag of [`Dma`].
pub(crate) const SNAP_KIND_DMA: u8 = 4;

fn bad_reg(name: &str, offset: u32) -> Error {
    Error::BadPeripheralRegister {
        peripheral: name.to_string(),
        offset,
    }
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

/// Periodic interval timer.
///
/// | offset | name | access | meaning |
/// |---|---|---|---|
/// | 0 | `PERIOD` | rw | tick period in **nanoseconds** |
/// | 1 | `CTRL`   | rw | bit 0: enable |
/// | 2 | `COUNT`  | r  | ticks delivered so far |
/// | 3 | `CORE`   | rw | core receiving the tick IRQ |
/// | 4 | `IRQ`    | rw | interrupt number raised |
///
/// Each expiry raises `IRQ` on `CORE`, pulses the signal
/// `"<name>.tick"`, and re-arms.
#[derive(Debug)]
pub struct Timer {
    name: String,
    /// `"<name>.tick"`, driven on every expiry: formatted once, and
    /// resolved to the board's id for it once per board.
    tick_sig: SignalHandle,
    period_ns: u64,
    enabled: bool,
    count: u64,
    core: usize,
    irq: u32,
    next_fire: Option<Time>,
    /// Fault-injection state: a stuck timer ignores writes and never fires.
    stuck: bool,
}

/// Register offsets of [`Timer`].
pub mod timer_reg {
    /// Tick period in nanoseconds.
    pub const PERIOD: u32 = 0;
    /// Control: bit 0 enables the timer.
    pub const CTRL: u32 = 1;
    /// Ticks delivered so far (read-only).
    pub const COUNT: u32 = 2;
    /// Core that receives the tick interrupt.
    pub const CORE: u32 = 3;
    /// Interrupt number raised on each tick.
    pub const IRQ: u32 = 4;
}

impl Clone for Timer {
    fn clone(&self) -> Self {
        let mut d = Timer::new("");
        d.clone_from(self);
        d
    }
    fn clone_from(&mut self, src: &Self) {
        let Timer {
            name,
            tick_sig,
            period_ns,
            enabled,
            count,
            core,
            irq,
            next_fire,
            stuck,
        } = src;
        self.name.clone_from(name);
        self.tick_sig.clone_from(tick_sig);
        self.period_ns = *period_ns;
        self.enabled = *enabled;
        self.count = *count;
        self.core = *core;
        self.irq = *irq;
        self.next_fire = *next_fire;
        self.stuck = *stuck;
    }
}

impl Timer {
    /// Creates a disabled timer named `name` targeting core 0, IRQ 0.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        Timer {
            tick_sig: SignalHandle::new(format!("{name}.tick")),
            name,
            period_ns: 1_000,
            enabled: false,
            count: 0,
            core: 0,
            irq: 0,
            next_fire: None,
            stuck: false,
        }
    }

    fn read(&mut self, offset: u32, _now: Time, _signals: &mut SignalBoard) -> Result<Word> {
        Ok(match offset {
            timer_reg::PERIOD => self.period_ns as Word,
            timer_reg::CTRL => self.enabled as Word,
            timer_reg::COUNT => self.count as Word,
            timer_reg::CORE => self.core as Word,
            timer_reg::IRQ => self.irq as Word,
            _ => return Err(bad_reg(&self.name, offset)),
        })
    }

    fn write(
        &mut self,
        offset: u32,
        value: Word,
        now: Time,
        _signals: &mut SignalBoard,
    ) -> Result<Option<Effect>> {
        if self.stuck {
            // A wedged device acknowledges the bus cycle but latches nothing.
            return Ok(None);
        }
        let nonneg = |v: Word| -> Result<u64> {
            u64::try_from(v).map_err(|_| Error::BadRegisterValue {
                peripheral: self.name.clone(),
                offset,
                value: v,
            })
        };
        match offset {
            timer_reg::PERIOD => {
                let p = nonneg(value)?;
                if p == 0 {
                    return Err(Error::BadRegisterValue {
                        peripheral: self.name.clone(),
                        offset,
                        value,
                    });
                }
                self.period_ns = p;
            }
            timer_reg::CTRL => {
                let enable = value & 1 != 0;
                if enable && !self.enabled {
                    self.next_fire = Some(now + Time::from_ns(self.period_ns));
                } else if !enable {
                    self.next_fire = None;
                }
                self.enabled = enable;
            }
            timer_reg::CORE => self.core = nonneg(value)? as usize,
            timer_reg::IRQ => self.irq = nonneg(value)? as u32,
            timer_reg::COUNT => self.count = nonneg(value)?,
            _ => return Err(bad_reg(&self.name, offset)),
        }
        Ok(None)
    }

    /// The expiry scheduled for `now`: counts it, pulses the tick line,
    /// re-arms, and requests the tick interrupt.
    fn on_event(&mut self, now: Time, signals: &mut SignalBoard) -> Option<Effect> {
        if self.stuck {
            self.next_fire = None;
            return None;
        }
        self.count += 1;
        // Pulse the tick line so signal watchpoints can trigger on it.
        signals.drive_handle(&mut self.tick_sig, now, self.count as Word);
        self.next_fire = Some(now + Time::from_ns(self.period_ns));
        Some(Effect::RaiseIrq {
            core: self.core,
            irq: self.irq,
        })
    }

    fn snapshot(&self) -> Vec<(u32, Word)> {
        vec![
            (timer_reg::PERIOD, self.period_ns as Word),
            (timer_reg::CTRL, self.enabled as Word),
            (timer_reg::COUNT, self.count as Word),
            (timer_reg::CORE, self.core as Word),
            (timer_reg::IRQ, self.irq as Word),
        ]
    }

    fn snap_save(&self, w: &mut Writer) {
        w.put_u64(self.period_ns);
        w.put_bool(self.enabled);
        w.put_u64(self.count);
        w.put_usize(self.core);
        w.put_u32(self.irq);
        self.next_fire.save(w);
        w.put_bool(self.stuck);
    }

    fn snap_restore(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        self.period_ns = r.get_u64()?;
        self.enabled = r.get_bool()?;
        self.count = r.get_u64()?;
        self.core = r.get_usize()?;
        self.irq = r.get_u32()?;
        self.next_fire = Option::<Time>::load(r)?;
        self.stuck = r.get_bool()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Mailbox
// ---------------------------------------------------------------------------

/// A bounded hardware FIFO for inter-core messaging.
///
/// | offset | name | access | meaning |
/// |---|---|---|---|
/// | 0 | `DATA`   | rw | write: push; read: pop (0 if empty) |
/// | 1 | `COUNT`  | r  | words queued |
/// | 2 | `CAP`    | r  | capacity |
/// | 3 | `DROPS`  | r  | pushes dropped because full |
/// | 4 | `NOTIFY` | rw | core to interrupt when the box becomes non-empty (-1 = none) |
/// | 5 | `IRQ`    | rw | interrupt number used for notification |
///
/// The signal `"<name>.avail"` carries the current occupancy, enabling
/// data-driven task activation (Section III) and watchpoints on message
/// arrival.
#[derive(Debug)]
pub struct Mailbox {
    name: String,
    /// `"<name>.avail"`, driven on every push/pop.
    avail_sig: SignalHandle,
    fifo: std::collections::VecDeque<Word>,
    capacity: usize,
    drops: u64,
    notify_core: Option<usize>,
    irq: u32,
    /// Fault-injection state: a stuck mailbox silently drops every push.
    stuck: bool,
}

/// Register offsets of [`Mailbox`].
pub mod mailbox_reg {
    /// Push (write) / pop (read) port.
    pub const DATA: u32 = 0;
    /// Current occupancy (read-only).
    pub const COUNT: u32 = 1;
    /// Capacity in words (read-only).
    pub(crate) const CAP: u32 = 2;
    /// Number of dropped pushes (read-only).
    pub(crate) const DROPS: u32 = 3;
    /// Core notified on data arrival (-1 disables).
    pub(crate) const NOTIFY: u32 = 4;
    /// Interrupt number used for notification.
    pub const IRQ: u32 = 5;
}

impl Clone for Mailbox {
    fn clone(&self) -> Self {
        let mut d = Mailbox::new("", 1);
        d.clone_from(self);
        d
    }
    fn clone_from(&mut self, src: &Self) {
        let Mailbox {
            name,
            avail_sig,
            fifo,
            capacity,
            drops,
            notify_core,
            irq,
            stuck,
        } = src;
        self.name.clone_from(name);
        self.avail_sig.clone_from(avail_sig);
        self.fifo.clone_from(fifo);
        self.capacity = *capacity;
        self.drops = *drops;
        self.notify_core = *notify_core;
        self.irq = *irq;
        self.stuck = *stuck;
    }
}

impl Mailbox {
    /// Creates an empty mailbox holding up to `capacity` words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "mailbox capacity must be non-zero");
        let name = name.into();
        Mailbox {
            avail_sig: SignalHandle::new(format!("{name}.avail")),
            name,
            fifo: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            drops: 0,
            notify_core: None,
            irq: 1,
            stuck: false,
        }
    }

    fn read(&mut self, offset: u32, now: Time, signals: &mut SignalBoard) -> Result<Word> {
        Ok(match offset {
            mailbox_reg::DATA => {
                let v = self.fifo.pop_front().unwrap_or(0);
                signals.drive_handle(&mut self.avail_sig, now, self.fifo.len() as Word);
                v
            }
            mailbox_reg::COUNT => self.fifo.len() as Word,
            mailbox_reg::CAP => self.capacity as Word,
            mailbox_reg::DROPS => self.drops as Word,
            mailbox_reg::NOTIFY => self.notify_core.map_or(-1, |c| c as Word),
            mailbox_reg::IRQ => self.irq as Word,
            _ => return Err(bad_reg(&self.name, offset)),
        })
    }

    fn write(
        &mut self,
        offset: u32,
        value: Word,
        now: Time,
        signals: &mut SignalBoard,
    ) -> Result<Option<Effect>> {
        match offset {
            mailbox_reg::DATA => {
                if self.stuck || self.fifo.len() >= self.capacity {
                    self.drops += 1;
                } else {
                    let was_empty = self.fifo.is_empty();
                    self.fifo.push_back(value);
                    signals.drive_handle(&mut self.avail_sig, now, self.fifo.len() as Word);
                    if was_empty {
                        let irq = self.irq;
                        return Ok(self.notify_core.map(|core| Effect::RaiseIrq { core, irq }));
                    }
                }
            }
            mailbox_reg::NOTIFY => {
                self.notify_core = usize::try_from(value).ok();
            }
            mailbox_reg::IRQ => {
                self.irq = u32::try_from(value).map_err(|_| Error::BadRegisterValue {
                    peripheral: self.name.clone(),
                    offset,
                    value,
                })?;
            }
            _ => return Err(bad_reg(&self.name, offset)),
        }
        Ok(None)
    }

    fn snapshot(&self) -> Vec<(u32, Word)> {
        vec![
            (mailbox_reg::COUNT, self.fifo.len() as Word),
            (mailbox_reg::CAP, self.capacity as Word),
            (mailbox_reg::DROPS, self.drops as Word),
            (
                mailbox_reg::NOTIFY,
                self.notify_core.map_or(-1, |c| c as Word),
            ),
            (mailbox_reg::IRQ, self.irq as Word),
        ]
    }

    fn snap_save(&self, w: &mut Writer) {
        w.put_usize(self.fifo.len());
        for &word in &self.fifo {
            w.put_i64(word);
        }
        w.put_usize(self.capacity);
        w.put_u64(self.drops);
        self.notify_core.save(w);
        w.put_u32(self.irq);
        w.put_bool(self.stuck);
    }

    fn snap_restore(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        let queued = r.get_len(8)?;
        self.fifo.clear();
        for _ in 0..queued {
            self.fifo.push_back(r.get_i64()?);
        }
        let capacity = r.get_usize()?;
        if capacity == 0 || queued > capacity {
            return Err(SnapError::Malformed(format!(
                "mailbox `{}`: {queued} queued words exceed capacity {capacity}",
                self.name
            )));
        }
        self.capacity = capacity;
        self.drops = r.get_u64()?;
        self.notify_core = Option::<usize>::load(r)?;
        self.irq = r.get_u32()?;
        self.stuck = r.get_bool()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

/// A hardware counting semaphore with atomic test-and-decrement.
///
/// | offset | name | access | meaning |
/// |---|---|---|---|
/// | 0 | `TRYACQ` | r | atomically acquires: returns 1 on success, 0 if unavailable |
/// | 1 | `RELEASE`| w | releases one unit |
/// | 2 | `VALUE`  | r | current count |
/// | 3 | `INIT`   | w | sets the count |
///
/// Because a register *read* performs the acquire, the operation is a single
/// bus transaction and therefore atomic across cores — exactly how MPSoC
/// spinlock peripherals work.
#[derive(Debug)]
pub struct Semaphore {
    name: String,
    /// `"<name>.held"`, driven on every acquire/release.
    held_sig: SignalHandle,
    count: u64,
    acquires: u64,
    contentions: u64,
    /// Fault-injection state: a stuck semaphore never grants or releases.
    stuck: bool,
}

/// Register offsets of [`Semaphore`].
pub mod semaphore_reg {
    /// Atomic try-acquire port (read).
    pub const TRYACQ: u32 = 0;
    /// Release port (write).
    pub const RELEASE: u32 = 1;
    /// Current count (read-only).
    pub(crate) const VALUE: u32 = 2;
    /// Re-initialisation port (write).
    pub(crate) const INIT: u32 = 3;
}

impl Clone for Semaphore {
    fn clone(&self) -> Self {
        let mut d = Semaphore::new("", 0);
        d.clone_from(self);
        d
    }
    fn clone_from(&mut self, src: &Self) {
        let Semaphore {
            name,
            held_sig,
            count,
            acquires,
            contentions,
            stuck,
        } = src;
        self.name.clone_from(name);
        self.held_sig.clone_from(held_sig);
        self.count = *count;
        self.acquires = *acquires;
        self.contentions = *contentions;
        self.stuck = *stuck;
    }
}

impl Semaphore {
    /// Creates a semaphore with initial count `count`.
    pub fn new(name: impl Into<String>, count: u64) -> Self {
        let name = name.into();
        Semaphore {
            held_sig: SignalHandle::new(format!("{name}.held")),
            name,
            count,
            acquires: 0,
            contentions: 0,
            stuck: false,
        }
    }

    fn read(&mut self, offset: u32, now: Time, signals: &mut SignalBoard) -> Result<Word> {
        Ok(match offset {
            semaphore_reg::TRYACQ => {
                if !self.stuck && self.count > 0 {
                    self.count -= 1;
                    self.acquires += 1;
                    signals.drive_handle(&mut self.held_sig, now, 1);
                    1
                } else {
                    self.contentions += 1;
                    0
                }
            }
            semaphore_reg::VALUE => self.count as Word,
            _ => return Err(bad_reg(&self.name, offset)),
        })
    }

    fn write(
        &mut self,
        offset: u32,
        value: Word,
        now: Time,
        signals: &mut SignalBoard,
    ) -> Result<Option<Effect>> {
        if self.stuck {
            return Ok(None);
        }
        match offset {
            semaphore_reg::RELEASE => {
                self.count += 1;
                signals.drive_handle(&mut self.held_sig, now, 0);
            }
            semaphore_reg::INIT => {
                self.count = u64::try_from(value).map_err(|_| Error::BadRegisterValue {
                    peripheral: self.name.clone(),
                    offset,
                    value,
                })?;
            }
            _ => return Err(bad_reg(&self.name, offset)),
        }
        Ok(None)
    }

    fn snapshot(&self) -> Vec<(u32, Word)> {
        vec![(semaphore_reg::VALUE, self.count as Word)]
    }

    fn snap_save(&self, w: &mut Writer) {
        w.put_u64(self.count);
        w.put_u64(self.acquires);
        w.put_u64(self.contentions);
        w.put_bool(self.stuck);
    }

    fn snap_restore(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        self.count = r.get_u64()?;
        self.acquires = r.get_u64()?;
        self.contentions = r.get_u64()?;
        self.stuck = r.get_bool()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// DMA engine
// ---------------------------------------------------------------------------

/// A single-channel DMA block-copy engine.
///
/// | offset | name | access | meaning |
/// |---|---|---|---|
/// | 0 | `SRC`  | rw | source word address |
/// | 1 | `DST`  | rw | destination word address |
/// | 2 | `LEN`  | rw | words to copy |
/// | 3 | `CTRL` | w  | writing 1 starts the transfer |
/// | 4 | `BUSY` | r  | 1 while a transfer is in flight |
/// | 5 | `CORE` | rw | core interrupted on completion (-1 = none) |
/// | 6 | `IRQ`  | rw | completion interrupt number |
///
/// Starting a transfer emits `Effect::DmaCopy`; the platform performs the
/// timed copy (its accesses are attributed to the DMA, so Section VII's
/// *"peripheral access watchpoints"* can catch a DMA writing a shared
/// resource) and calls [`Dma::complete`] when done. A transfer whose range
/// does not resolve copies nothing: the completion step returns the fault
/// and the engine falls idle (no completion counted, no IRQ).
#[derive(Debug)]
pub struct Dma {
    name: String,
    /// `"<name>.busy"`, driven on every start/completion.
    busy_sig: SignalHandle,
    page: usize,
    src: u32,
    dst: u32,
    len: u32,
    busy: bool,
    core: Option<usize>,
    irq: u32,
    completed: u64,
    /// Fault-injection state: a stuck DMA ignores start commands.
    stuck: bool,
}

/// Register offsets of [`Dma`].
pub mod dma_reg {
    /// Source word address.
    pub const SRC: u32 = 0;
    /// Destination word address.
    pub const DST: u32 = 1;
    /// Transfer length in words.
    pub const LEN: u32 = 2;
    /// Control: write 1 to start.
    pub const CTRL: u32 = 3;
    /// Busy flag (read-only).
    pub const BUSY: u32 = 4;
    /// Core interrupted on completion (-1 = none).
    pub const CORE: u32 = 5;
    /// Completion interrupt number.
    pub const IRQ: u32 = 6;
}

impl Clone for Dma {
    fn clone(&self) -> Self {
        let mut d = Dma::new("", 0);
        d.clone_from(self);
        d
    }
    fn clone_from(&mut self, src: &Self) {
        let Dma {
            name,
            busy_sig,
            page,
            src,
            dst,
            len,
            busy,
            core,
            irq,
            completed,
            stuck,
        } = src;
        self.name.clone_from(name);
        self.busy_sig.clone_from(busy_sig);
        self.page = *page;
        self.src = *src;
        self.dst = *dst;
        self.len = *len;
        self.busy = *busy;
        self.core = *core;
        self.irq = *irq;
        self.completed = *completed;
        self.stuck = *stuck;
    }
}

impl Dma {
    /// Creates an idle DMA engine that will occupy peripheral page `page`.
    pub fn new(name: impl Into<String>, page: usize) -> Self {
        let name = name.into();
        Dma {
            busy_sig: SignalHandle::new(format!("{name}.busy")),
            name,
            page,
            src: 0,
            dst: 0,
            len: 0,
            busy: false,
            core: None,
            irq: 2,
            completed: 0,
            stuck: false,
        }
    }

    /// Marks the in-flight transfer finished; called by the platform at the
    /// transfer's completion time. Returns the completion IRQ to raise, if
    /// any.
    pub fn complete(&mut self, now: Time, signals: &mut SignalBoard) -> Option<(usize, u32)> {
        self.release(now, signals);
        self.completed += 1;
        self.core.map(|c| (c, self.irq))
    }

    /// Drops the in-flight transfer: the engine accepts start commands
    /// again and `"<name>.busy"` falls at `now`. Called by the platform
    /// *instead of* [`complete`](Dma::complete) when it could not perform
    /// the transfer (its source or destination range does not resolve):
    /// nothing was copied, no completion is counted, no IRQ requested.
    pub(crate) fn release(&mut self, now: Time, signals: &mut SignalBoard) {
        self.busy = false;
        signals.drive_handle(&mut self.busy_sig, now, 0);
    }

    /// Number of completed transfers.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn read(&mut self, offset: u32, _now: Time, _signals: &mut SignalBoard) -> Result<Word> {
        Ok(match offset {
            dma_reg::SRC => self.src as Word,
            dma_reg::DST => self.dst as Word,
            dma_reg::LEN => self.len as Word,
            dma_reg::BUSY => self.busy as Word,
            dma_reg::CORE => self.core.map_or(-1, |c| c as Word),
            dma_reg::IRQ => self.irq as Word,
            _ => return Err(bad_reg(&self.name, offset)),
        })
    }

    fn write(
        &mut self,
        offset: u32,
        value: Word,
        now: Time,
        signals: &mut SignalBoard,
    ) -> Result<Option<Effect>> {
        let addr = |v: Word| -> Result<u32> {
            u32::try_from(v).map_err(|_| Error::BadRegisterValue {
                peripheral: self.name.clone(),
                offset,
                value: v,
            })
        };
        match offset {
            dma_reg::SRC => self.src = addr(value)?,
            dma_reg::DST => self.dst = addr(value)?,
            dma_reg::LEN => self.len = addr(value)?,
            dma_reg::CORE => self.core = usize::try_from(value).ok(),
            dma_reg::IRQ => self.irq = addr(value)?,
            dma_reg::CTRL => {
                if value & 1 != 0 && !self.busy && !self.stuck && self.len > 0 {
                    self.busy = true;
                    signals.drive_handle(&mut self.busy_sig, now, 1);
                    return Ok(Some(Effect::DmaCopy {
                        page: self.page,
                        src: self.src,
                        dst: self.dst,
                        len: self.len,
                    }));
                }
            }
            _ => return Err(bad_reg(&self.name, offset)),
        }
        Ok(None)
    }

    fn snapshot(&self) -> Vec<(u32, Word)> {
        vec![
            (dma_reg::SRC, self.src as Word),
            (dma_reg::DST, self.dst as Word),
            (dma_reg::LEN, self.len as Word),
            (dma_reg::BUSY, self.busy as Word),
            (dma_reg::CORE, self.core.map_or(-1, |c| c as Word)),
            (dma_reg::IRQ, self.irq as Word),
        ]
    }

    fn snap_save(&self, w: &mut Writer) {
        w.put_u32(self.src);
        w.put_u32(self.dst);
        w.put_u32(self.len);
        w.put_bool(self.busy);
        self.core.save(w);
        w.put_u32(self.irq);
        w.put_u64(self.completed);
        w.put_bool(self.stuck);
    }

    fn snap_restore(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        self.src = r.get_u32()?;
        self.dst = r.get_u32()?;
        self.len = r.get_u32()?;
        self.busy = r.get_bool()?;
        self.core = Option::<usize>::load(r)?;
        self.irq = r.get_u32()?;
        self.completed = r.get_u64()?;
        self.stuck = r.get_bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Time = Time::ZERO;

    #[test]
    fn timer_fires_periodically() {
        let mut sb = SignalBoard::new();
        let mut t = Timer::new("timer0");
        assert_eq!(t.write(timer_reg::PERIOD, 100, T0, &mut sb), Ok(None)); // 100 ns
        assert_eq!(t.write(timer_reg::IRQ, 3, T0, &mut sb), Ok(None));
        assert_eq!(t.write(timer_reg::CTRL, 1, T0, &mut sb), Ok(None));
        let mut t = Periph::Timer(t);
        assert_eq!(t.next_event(), Some(Time::from_ns(100)));
        assert_eq!(
            t.on_event(Time::from_ns(100), &mut sb),
            Some(Effect::RaiseIrq { core: 0, irq: 3 })
        );
        assert_eq!(t.next_event(), Some(Time::from_ns(200)));
        assert_eq!(sb.value("timer0.tick"), 1);
    }

    #[test]
    fn timer_rejects_zero_period() {
        let mut sb = SignalBoard::new();
        let mut t = Timer::new("t");
        assert!(t.write(timer_reg::PERIOD, 0, T0, &mut sb).is_err());
        assert!(t.write(timer_reg::PERIOD, -5, T0, &mut sb).is_err());
    }

    #[test]
    fn timer_disable_cancels() {
        let mut sb = SignalBoard::new();
        let mut t = Periph::Timer(Timer::new("t"));
        t.write(timer_reg::CTRL, 1, T0, &mut sb).unwrap();
        assert!(t.next_event().is_some());
        t.write(timer_reg::CTRL, 0, T0, &mut sb).unwrap();
        assert!(t.next_event().is_none());
    }

    #[test]
    fn only_a_timer_has_events_and_a_stuck_one_has_none() {
        let mut sb = SignalBoard::new();
        let mut others = [
            Periph::Mailbox(Mailbox::new("m", 1)),
            Periph::Semaphore(Semaphore::new("s", 1)),
            Periph::Dma(Dma::new("d", 3)),
        ];
        for p in &mut others {
            assert_eq!(p.next_event(), None, "{}", p.name());
            assert_eq!(p.on_event(T0, &mut sb), None, "{}", p.name());
        }
        let mut t = Periph::Timer(Timer::new("t"));
        t.write(timer_reg::CTRL, 1, T0, &mut sb).unwrap();
        t.fault_stick();
        assert_eq!(t.next_event(), None);
        // A wedged timer latches nothing, so it cannot be re-armed either.
        assert_eq!(t.write(timer_reg::CTRL, 0, T0, &mut sb), Ok(None));
        assert_eq!(t.write(timer_reg::CTRL, 1, T0, &mut sb), Ok(None));
        assert_eq!(t.next_event(), None);
        assert_eq!(t.on_event(T0, &mut sb), None);
    }

    #[test]
    fn mailbox_fifo_order_and_drops() {
        let mut sb = SignalBoard::new();
        let mut mb = Mailbox::new("mb0", 2);
        mb.write(mailbox_reg::DATA, 10, T0, &mut sb).unwrap();
        mb.write(mailbox_reg::DATA, 20, T0, &mut sb).unwrap();
        mb.write(mailbox_reg::DATA, 30, T0, &mut sb).unwrap(); // dropped
        assert_eq!(mb.read(mailbox_reg::COUNT, T0, &mut sb), Ok(2));
        assert_eq!(mb.read(mailbox_reg::DROPS, T0, &mut sb), Ok(1));
        assert_eq!(mb.read(mailbox_reg::DATA, T0, &mut sb), Ok(10));
        assert_eq!(mb.read(mailbox_reg::DATA, T0, &mut sb), Ok(20));
        assert_eq!(mb.read(mailbox_reg::DATA, T0, &mut sb), Ok(0)); // empty
    }

    #[test]
    fn mailbox_notifies_on_first_word() {
        let mut sb = SignalBoard::new();
        let mut mb = Mailbox::new("mb0", 4);
        assert_eq!(mb.write(mailbox_reg::NOTIFY, 1, T0, &mut sb), Ok(None));
        assert_eq!(
            mb.write(mailbox_reg::DATA, 42, T0, &mut sb),
            Ok(Some(Effect::RaiseIrq { core: 1, irq: 1 }))
        );
        // No second IRQ while the box stays non-empty.
        assert_eq!(mb.write(mailbox_reg::DATA, 43, T0, &mut sb), Ok(None));
        assert_eq!(sb.value("mb0.avail"), 2);
    }

    #[test]
    fn semaphore_atomic_tryacq() {
        let mut sb = SignalBoard::new();
        let mut s = Semaphore::new("lock0", 1);
        assert_eq!(s.read(semaphore_reg::TRYACQ, T0, &mut sb), Ok(1));
        assert_eq!(s.read(semaphore_reg::TRYACQ, T0, &mut sb), Ok(0));
        assert_eq!(s.contentions, 1);
        assert_eq!(s.write(semaphore_reg::RELEASE, 0, T0, &mut sb), Ok(None));
        assert_eq!(s.read(semaphore_reg::TRYACQ, T0, &mut sb), Ok(1));
        assert_eq!(s.read(semaphore_reg::VALUE, T0, &mut sb), Ok(0));
    }

    #[test]
    fn semaphore_counting_init() {
        let mut sb = SignalBoard::new();
        let mut s = Semaphore::new("s", 0);
        assert_eq!(s.write(semaphore_reg::INIT, 3, T0, &mut sb), Ok(None));
        for _ in 0..3 {
            assert_eq!(s.read(semaphore_reg::TRYACQ, T0, &mut sb), Ok(1));
        }
        assert_eq!(s.read(semaphore_reg::TRYACQ, T0, &mut sb), Ok(0));
    }

    #[test]
    fn dma_start_emits_copy_effect() {
        let mut sb = SignalBoard::new();
        let mut d = Dma::new("dma0", 7);
        assert_eq!(d.write(dma_reg::SRC, 100, T0, &mut sb), Ok(None));
        assert_eq!(d.write(dma_reg::DST, 200, T0, &mut sb), Ok(None));
        assert_eq!(d.write(dma_reg::LEN, 16, T0, &mut sb), Ok(None));
        assert_eq!(
            d.write(dma_reg::CTRL, 1, T0, &mut sb),
            Ok(Some(Effect::DmaCopy {
                page: 7,
                src: 100,
                dst: 200,
                len: 16
            }))
        );
        assert_eq!(d.read(dma_reg::BUSY, T0, &mut sb), Ok(1));
        assert_eq!(sb.value("dma0.busy"), 1);
        // Starting again while busy is ignored.
        assert_eq!(d.write(dma_reg::CTRL, 1, T0, &mut sb), Ok(None));
    }

    #[test]
    fn dma_complete_clears_busy_and_notifies() {
        let mut sb = SignalBoard::new();
        let mut d = Dma::new("dma0", 7);
        d.write(dma_reg::LEN, 4, T0, &mut sb).unwrap();
        d.write(dma_reg::CORE, 2, T0, &mut sb).unwrap();
        assert!(d.write(dma_reg::CTRL, 1, T0, &mut sb).unwrap().is_some());
        let irq = d.complete(Time::from_ns(500), &mut sb);
        assert_eq!(irq, Some((2, 2)));
        assert_eq!(sb.value("dma0.busy"), 0);
        assert_eq!(d.completed(), 1);
    }

    #[test]
    fn dma_fault_releases_without_completing() {
        let mut sb = SignalBoard::new();
        let mut d = Dma::new("dma0", 7);
        d.write(dma_reg::LEN, 4, T0, &mut sb).unwrap();
        d.write(dma_reg::CORE, 2, T0, &mut sb).unwrap();
        assert!(d.write(dma_reg::CTRL, 1, T0, &mut sb).unwrap().is_some());
        d.release(Time::from_ns(500), &mut sb);
        assert_eq!(d.read(dma_reg::BUSY, T0, &mut sb), Ok(0));
        assert_eq!(sb.value("dma0.busy"), 0);
        assert_eq!(d.completed(), 0);
        // The next start command is accepted again.
        assert!(d.write(dma_reg::CTRL, 1, T0, &mut sb).unwrap().is_some());
    }

    #[test]
    fn a_peripheral_moved_between_boards_drives_the_right_signal_on_each() {
        // Board `a` meets "decoy" first, so "t.tick" resolves to id 1 there
        // and to id 0 on `b`, where id 1 is a different signal altogether:
        // a handle that trusted its cached id would drive the wrong wire.
        let (mut a, mut b) = (SignalBoard::new(), SignalBoard::new());
        a.drive("decoy", Time::ZERO, 9);
        b.drive("t.tick", Time::ZERO, 0);
        b.drive("other", Time::ZERO, 7);
        let mut t = Timer::new("t");
        for ns in 1..=4 {
            let board = if ns % 2 == 1 { &mut a } else { &mut b };
            assert!(t.on_event(Time::from_ns(ns), board).is_some());
        }
        assert_eq!(a.value("t.tick"), 3);
        assert_eq!(b.value("t.tick"), 4);
        assert_eq!((a.value("decoy"), b.value("other")), (9, 7));
        assert_eq!(a.names(), ["decoy", "t.tick"]);
        assert_eq!(b.names(), ["other", "t.tick"]);
        assert_eq!(a.recent("t.tick").len(), 2);
        assert_eq!(b.recent("t.tick").len(), 2);
    }

    #[test]
    fn unknown_registers_rejected() {
        let mut sb = SignalBoard::new();
        let mut t = Periph::Timer(Timer::new("t"));
        assert_eq!(
            t.read(99, T0, &mut sb),
            Err(Error::BadPeripheralRegister {
                peripheral: "t".into(),
                offset: 99
            })
        );
        let mut mb = Periph::Mailbox(Mailbox::new("m", 1));
        assert!(mb.write(99, 0, T0, &mut sb).is_err());
    }

    #[test]
    fn snapshots_do_not_perturb() {
        let mut sb = SignalBoard::new();
        let mut mb = Periph::Mailbox(Mailbox::new("m", 2));
        mb.write(mailbox_reg::DATA, 5, T0, &mut sb).unwrap();
        let snap = mb.snapshot();
        assert!(snap.contains(&(mailbox_reg::COUNT, 1)));
        // The word is still there: snapshot did not pop.
        assert_eq!(mb.read(mailbox_reg::DATA, T0, &mut sb), Ok(5));
    }
}
