//! Processor core state.
//!
//! Every core is ISA-homogeneous (Section II: *"uniform ISA guarantees that
//! any piece of software can be executed on any of the processor cores"*)
//! but individually clocked: [`Core::set_frequency`] may be called at any
//! instruction boundary, modelling the paper's fine-grained frequency
//! variability used to boost sequential phases.
//!
//! A core's execution is driven by the [`Platform`](crate::platform::Platform);
//! this module owns the architectural state (registers, program counter,
//! interrupt state) and its inspection API, which the Section VII debugger
//! relies on.

use crate::isa::{Program, Reg, Word};
use crate::time::{Frequency, Time};

/// Run state of a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreStatus {
    /// Fetching and executing instructions.
    Running,
    /// Executed `halt`; only a platform reset restarts it.
    Halted,
    /// Executed `wfi`; wakes when an interrupt is delivered.
    Sleeping,
    /// Suspended by an *intrusive* debugger (other cores keep running —
    /// this is precisely the Heisenbug mechanism of Section VII).
    DebugHalted,
    /// Trapped on a fault (unmapped access, division by zero, …).
    Faulted,
}

/// One processor core: architectural registers plus clocking and interrupt
/// state.
#[derive(Debug)]
pub struct Core {
    id: usize,
    regs: [Word; Reg::COUNT],
    pc: u32,
    status: CoreStatus,
    freq: Frequency,
    program: Program,
    irq_pending: u32,
    irq_enabled: bool,
    irq_vector: Option<u32>,
    saved_pc: u32,
    retired: u64,
    /// Earliest time the core can execute its next instruction.
    next_ready: Time,
    /// Status before a debugger halt, to restore on resume.
    pre_debug: Option<CoreStatus>,
}

impl Core {
    /// Creates core `id` clocked at `freq` with an empty program.
    pub fn new(id: usize, freq: Frequency) -> Self {
        Core {
            id,
            regs: [0; Reg::COUNT],
            pc: 0,
            status: CoreStatus::Halted,
            freq,
            program: Program::default(),
            irq_pending: 0,
            irq_enabled: true,
            irq_vector: None,
            saved_pc: 0,
            retired: 0,
            next_ready: Time::ZERO,
            pre_debug: None,
        }
    }

    /// The core's index on the platform.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Loads `program` and starts executing it from `entry` at time `at`.
    pub fn load_program(&mut self, program: Program, entry: u32, at: Time) {
        self.program = program;
        self.pc = entry;
        self.status = CoreStatus::Running;
        self.next_ready = at;
        self.retired = 0;
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    pub(crate) fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Debugger write of the program counter (a GDB `P` packet targeting
    /// the pc pseudo-register). Purely architectural: status and timing are
    /// untouched, so a halted or faulted core stays halted or faulted.
    pub fn debug_set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Reads register `r`.
    pub fn reg(&self, r: Reg) -> Word {
        self.regs[r.index()]
    }

    /// Writes register `r` (also available to debuggers).
    pub fn set_reg(&mut self, r: Reg, v: Word) {
        self.regs[r.index()] = v;
    }

    /// All 16 registers, for debugger display.
    pub fn regs(&self) -> &[Word; Reg::COUNT] {
        &self.regs
    }

    /// Current run status.
    pub fn status(&self) -> CoreStatus {
        self.status
    }

    pub(crate) fn set_status(&mut self, s: CoreStatus) {
        self.status = s;
    }

    /// The core's clock frequency.
    pub fn frequency(&self) -> Frequency {
        self.freq
    }

    /// Re-clocks the core. Takes effect from the next instruction — the
    /// fine-grained DVFS knob of Section II.A.
    pub fn set_frequency(&mut self, f: Frequency) {
        self.freq = f;
    }

    /// Instructions retired since the last program load.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    pub(crate) fn retire(&mut self) {
        self.retired += 1;
    }

    /// Earliest time the core can execute again.
    pub fn next_ready(&self) -> Time {
        self.next_ready
    }

    pub(crate) fn set_next_ready(&mut self, t: Time) {
        self.next_ready = t;
    }

    /// Configures the interrupt handler entry point. `None` masks all
    /// interrupts (they stay pending).
    pub fn set_irq_vector(&mut self, vector: Option<u32>) {
        self.irq_vector = vector;
    }

    /// Pending-interrupt bitmask.
    pub fn irq_pending(&self) -> u32 {
        self.irq_pending
    }

    /// Posts interrupt `irq` (0–31). Wakes the core if it is sleeping.
    ///
    /// Returns `true` if the core was woken from `wfi` at time `at`.
    pub(crate) fn post_irq(&mut self, irq: u32, at: Time) -> bool {
        self.irq_pending |= 1 << (irq & 31);
        if self.status == CoreStatus::Sleeping {
            self.status = CoreStatus::Running;
            self.next_ready = self.next_ready.max(at);
            true
        } else {
            false
        }
    }

    /// If an interrupt is pending, enabled, and vectored, enters the
    /// handler: saves the pc, jumps to the vector, disables interrupts.
    /// Returns the taken IRQ number.
    pub(crate) fn maybe_take_irq(&mut self) -> Option<u32> {
        if !self.irq_enabled || self.irq_pending == 0 {
            return None;
        }
        let vector = self.irq_vector?;
        let irq = self.irq_pending.trailing_zeros();
        self.irq_pending &= !(1 << irq);
        self.saved_pc = self.pc;
        self.pc = vector;
        self.irq_enabled = false;
        Some(irq)
    }

    /// Returns from the interrupt handler (the `rti` instruction).
    pub(crate) fn return_from_irq(&mut self) {
        self.pc = self.saved_pc;
        self.irq_enabled = true;
    }

    /// Intrusively halts the core (debugger stop of *one* core while the
    /// rest of the system keeps running).
    pub fn debug_halt(&mut self) {
        if self.status != CoreStatus::DebugHalted {
            self.pre_debug = Some(self.status);
            self.status = CoreStatus::DebugHalted;
        }
    }

    /// Resumes from an intrusive halt at time `now`. The core's next-ready
    /// time is pushed to `now`: the stall is visible to the rest of the
    /// system, which is exactly why intrusive debugging perturbs schedules.
    pub fn debug_resume(&mut self, now: Time) {
        if self.status == CoreStatus::DebugHalted {
            self.status = self.pre_debug.take().unwrap_or(CoreStatus::Running);
            self.next_ready = self.next_ready.max(now);
        }
    }
}

impl mpsoc_snapshot::Snapshot for CoreStatus {
    fn save(&self, w: &mut mpsoc_snapshot::Writer) {
        w.put_u8(match self {
            CoreStatus::Running => 0,
            CoreStatus::Halted => 1,
            CoreStatus::Sleeping => 2,
            CoreStatus::DebugHalted => 3,
            CoreStatus::Faulted => 4,
        });
    }
    fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<Self> {
        match r.get_u8()? {
            0 => Ok(CoreStatus::Running),
            1 => Ok(CoreStatus::Halted),
            2 => Ok(CoreStatus::Sleeping),
            3 => Ok(CoreStatus::DebugHalted),
            4 => Ok(CoreStatus::Faulted),
            tag => Err(mpsoc_snapshot::SnapError::BadTag {
                what: "core status",
                tag: u64::from(tag),
            }),
        }
    }
}

impl Clone for Core {
    fn clone(&self) -> Self {
        let mut c = Core::new(self.id, self.freq);
        c.clone_from(self);
        c
    }
    // Every field, the program into the instruction and label buffers this
    // core already owns: a restore that reinstalls a decoded state copies
    // it over the cores it replaces without allocating.
    fn clone_from(&mut self, src: &Self) {
        let Core {
            id,
            regs,
            pc,
            status,
            freq,
            program,
            irq_pending,
            irq_enabled,
            irq_vector,
            saved_pc,
            retired,
            next_ready,
            pre_debug,
        } = src;
        self.id = *id;
        self.regs = *regs;
        self.pc = *pc;
        self.status = *status;
        self.freq = *freq;
        self.program.clone_from(program);
        self.irq_pending = *irq_pending;
        self.irq_enabled = *irq_enabled;
        self.irq_vector = *irq_vector;
        self.saved_pc = *saved_pc;
        self.retired = *retired;
        self.next_ready = *next_ready;
        self.pre_debug = *pre_debug;
    }
}

impl mpsoc_snapshot::Snapshot for Core {
    // Everything architectural round-trips, including `saved_pc` (the IRQ
    // return address) and `pre_debug` (intrusive-halt restore status):
    // a checkpoint taken inside an ISR or during a debug halt must resume
    // exactly.
    fn save(&self, w: &mut mpsoc_snapshot::Writer) {
        w.put_usize(self.id);
        self.regs.save(w);
        w.put_u32(self.pc);
        self.status.save(w);
        self.freq.save(w);
        self.program.save(w);
        w.put_u32(self.irq_pending);
        w.put_bool(self.irq_enabled);
        self.irq_vector.save(w);
        w.put_u32(self.saved_pc);
        w.put_u64(self.retired);
        self.next_ready.save(w);
        self.pre_debug.save(w);
    }
    fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<Self> {
        let mut c = Core::new(0, Frequency::mhz(1));
        c.load_into(r)?;
        Ok(c)
    }
    // Every field, in wire order; the program decodes into the instruction
    // and label buffers the core already owns.
    fn load_into(&mut self, r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<()> {
        self.id = r.get_usize()?;
        self.regs.load_into(r)?;
        self.pc = r.get_u32()?;
        self.status = CoreStatus::load(r)?;
        self.freq = Frequency::load(r)?;
        self.program.load_into(r)?;
        self.irq_pending = r.get_u32()?;
        self.irq_enabled = r.get_bool()?;
        self.irq_vector = Option::<u32>::load(r)?;
        self.saved_pc = r.get_u32()?;
        self.retired = r.get_u64()?;
        self.next_ready = Time::load(r)?;
        self.pre_debug = Option::<CoreStatus>::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{assemble, Instr};

    #[test]
    fn fresh_core_is_halted_and_zeroed() {
        let c = Core::new(0, Frequency::mhz(100));
        assert_eq!(c.status(), CoreStatus::Halted);
        assert!(c.regs().iter().all(|&r| r == 0));
        assert_eq!(c.retired(), 0);
    }

    #[test]
    fn load_program_starts_running() {
        let mut c = Core::new(1, Frequency::mhz(50));
        let p = assemble("nop\nhalt").unwrap();
        c.load_program(p, 0, Time::from_ns(10));
        assert_eq!(c.status(), CoreStatus::Running);
        assert_eq!(c.next_ready(), Time::from_ns(10));
        assert_eq!(c.program().fetch(1), Some(Instr::Halt));
    }

    #[test]
    fn irq_taken_in_priority_order() {
        let mut c = Core::new(0, Frequency::mhz(100));
        c.set_irq_vector(Some(100));
        c.post_irq(5, Time::ZERO);
        c.post_irq(2, Time::ZERO);
        c.set_pc(7);
        assert_eq!(c.maybe_take_irq(), Some(2)); // lowest number first
        assert_eq!(c.pc(), 100);
        assert!(!c.irq_enabled);
        // Nested interrupts are blocked until rti.
        assert_eq!(c.maybe_take_irq(), None);
        c.return_from_irq();
        assert_eq!(c.pc(), 7);
        assert_eq!(c.maybe_take_irq(), Some(5));
    }

    #[test]
    fn irq_without_vector_stays_pending() {
        let mut c = Core::new(0, Frequency::mhz(100));
        c.post_irq(1, Time::ZERO);
        assert_eq!(c.maybe_take_irq(), None);
        assert_eq!(c.irq_pending(), 0b10);
    }

    #[test]
    fn irq_wakes_sleeping_core() {
        let mut c = Core::new(0, Frequency::mhz(100));
        c.set_status(CoreStatus::Sleeping);
        assert!(c.post_irq(0, Time::from_ns(42)));
        assert_eq!(c.status(), CoreStatus::Running);
        assert!(c.next_ready() >= Time::from_ns(42));
    }

    #[test]
    fn debug_halt_roundtrip_restores_status() {
        let mut c = Core::new(0, Frequency::mhz(100));
        c.set_status(CoreStatus::Sleeping);
        c.debug_halt();
        assert_eq!(c.status(), CoreStatus::DebugHalted);
        c.debug_resume(Time::from_us(1));
        assert_eq!(c.status(), CoreStatus::Sleeping);
        assert!(c.next_ready() >= Time::from_us(1));
    }

    #[test]
    fn frequency_is_mutable_at_runtime() {
        let mut c = Core::new(0, Frequency::mhz(100));
        c.set_frequency(Frequency::mhz(1_000));
        assert_eq!(c.frequency(), Frequency::mhz(1_000));
    }
}
