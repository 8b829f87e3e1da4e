//! The debug-target abstraction the protocol session drives.
//!
//! [`Target`] is the seam between the GDB-RSP wire protocol and the
//! virtual platform: the session layer ([`crate::session`]) speaks packets
//! on one side and this trait on the other, and the headless test runner
//! drives the *same* trait — so a scenario scripted for CI exercises
//! exactly the surface a live debugger attach does.

use crate::adapter::NUM_REGS;
use crate::error::Result;
use crate::packet::MAX_PAYLOAD;

/// Most words one [`Target::read_mem_into`] reads: a word is 16 hex digits on
/// the wire, and the reply must fit one packet of [`MAX_PAYLOAD`] bytes.
pub const MAX_READ_WORDS: u32 = (MAX_PAYLOAD / 16) as u32;

/// Watchpoint flavours, in GDB `Z` packet order: `Z2` = write, `Z3` =
/// read, `Z4` = access (either).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatchKind {
    /// Stop on writes (`Z2`, stop reply `watch:`).
    Write,
    /// Stop on reads (`Z3`, stop reply `rwatch:`).
    Read,
    /// Stop on either (`Z4`, stop reply `awatch:`).
    Access,
}

/// Why a resumed target stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// A single step completed with no other event.
    Step,
    /// A software breakpoint was hit.
    Breakpoint {
        /// Core that arrived at the breakpoint.
        core: usize,
        /// Its program counter.
        pc: u32,
    },
    /// A data watchpoint was hit.
    Watch {
        /// The flavour of the watchpoint *as registered* — GDB reports
        /// `watch:`/`rwatch:`/`awatch:` by registration, not by the
        /// faulting access's direction.
        kind: WatchKind,
        /// The faulting word address (consistent for read and write hits:
        /// always the address of the temporally first matching access).
        addr: u32,
    },
    /// A named-signal watchpoint fired (a monitor-command extension; no
    /// data address to report).
    SignalWatch {
        /// The signal's name.
        name: String,
    },
    /// Every core halted; the program is done.
    Exited,
    /// The step budget ran out before any stop condition.
    Budget,
    /// A core faulted (divide by zero, unmapped access, …).
    Fault(String),
}

/// A word-addressed, multi-core debug target.
///
/// Addressing note: the platform is *word*-addressed (one address = one
/// 64-bit [`Word`](mpsoc_platform::isa::Word)), and the RSP surface keeps
/// that model — `m addr,len` reads `len` words, each serialised as 8
/// little-endian bytes. Register numbers are `r0..r15` followed by the
/// program counter as register 16.
pub trait Target {
    /// Number of cores (exposed to GDB as threads `1..=n`).
    fn num_cores(&self) -> usize;

    /// All registers of `core` into `out`, replacing its contents: r0..r15
    /// then pc, as raw 64-bit values.
    ///
    /// # Errors
    ///
    /// For a bad core id.
    fn read_registers_into(&self, core: usize, out: &mut Vec<u64>) -> Result<()>;

    /// All registers of `core`, as [`read_registers_into`] fills them.
    ///
    /// # Errors
    ///
    /// As [`read_registers_into`].
    ///
    /// [`read_registers_into`]: Target::read_registers_into
    fn read_registers(&self, core: usize) -> Result<Vec<u64>> {
        let mut out = Vec::with_capacity(NUM_REGS);
        self.read_registers_into(core, &mut out)?;
        Ok(out)
    }

    /// Writes one register of `core` (16 = pc).
    ///
    /// # Errors
    ///
    /// For a bad core id or register number.
    fn write_register(&mut self, core: usize, reg: usize, value: u64) -> Result<()>;

    /// Reads `len` words starting at word address `addr` into `out`,
    /// replacing its contents (non-intrusive: no cache or timing side
    /// effects). On error `out` holds some prefix of the range.
    ///
    /// # Errors
    ///
    /// For an unmapped address anywhere in the range, or a `len` above
    /// [`MAX_READ_WORDS`].
    fn read_mem_into(&self, addr: u32, len: u32, out: &mut Vec<u64>) -> Result<()>;

    /// Reads `len` words starting at word address `addr`, as
    /// [`read_mem_into`] fills them.
    ///
    /// # Errors
    ///
    /// As [`read_mem_into`].
    ///
    /// [`read_mem_into`]: Target::read_mem_into
    fn read_mem(&self, addr: u32, len: u32) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        self.read_mem_into(addr, len, &mut out)?;
        Ok(out)
    }

    /// Writes consecutive words starting at word address `addr`.
    ///
    /// # Errors
    ///
    /// For an unmapped address anywhere in the range.
    fn write_mem(&mut self, addr: u32, values: &[u64]) -> Result<()>;

    /// Executes one platform step.
    ///
    /// # Errors
    ///
    /// Only for internal inspection failures; simulated faults surface as
    /// [`StopReason::Fault`].
    fn step(&mut self) -> Result<StopReason>;

    /// Runs until a stop condition or `budget` steps.
    ///
    /// # Errors
    ///
    /// As [`step`](Target::step).
    fn cont(&mut self, budget: u64) -> Result<StopReason>;

    /// Inserts a software breakpoint at `pc` on every core (GDB sets
    /// breakpoints without naming a thread).
    ///
    /// # Errors
    ///
    /// If the target cannot accept the breakpoint.
    fn insert_breakpoint(&mut self, pc: u32) -> Result<()>;

    /// Removes the breakpoint at `pc`; a no-op if none is set.
    ///
    /// # Errors
    ///
    /// If the condition table cannot be rebuilt.
    fn remove_breakpoint(&mut self, pc: u32) -> Result<()>;

    /// Inserts a watchpoint over the word range `[addr, addr + len)`.
    ///
    /// # Errors
    ///
    /// If the target cannot accept the watchpoint.
    fn insert_watchpoint(&mut self, kind: WatchKind, addr: u32, len: u32) -> Result<()>;

    /// Removes a watchpoint previously inserted with the same triple.
    ///
    /// # Errors
    ///
    /// If the condition table cannot be rebuilt.
    fn remove_watchpoint(&mut self, kind: WatchKind, addr: u32, len: u32) -> Result<()>;

    /// Executes a `monitor` command (GDB `qRcmd`) and returns its console
    /// output.
    ///
    /// # Errors
    ///
    /// For unknown commands or failed operations; the session reports the
    /// message to the debugger instead of crashing the link.
    fn monitor(&mut self, cmd: &str) -> Result<String>;
}
