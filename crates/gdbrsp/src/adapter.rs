//! [`Target`] adapter over the virtual-platform debugger.
//!
//! [`DebugTarget`] owns a [`Debugger`] and translates the word-addressed,
//! multi-core, time-travelling debug model into the flat surface the RSP
//! session (and the headless test runner) drive. The pieces stock GDB has
//! no packets for — time travel, checkpoints, stimulus recording — are
//! exposed as `monitor` commands (see [`DebugTarget::monitor`]).

use mpsoc_platform::isa::{Reg, Word};
use mpsoc_platform::platform::AccessKind;
use mpsoc_vpdebug::{Debugger, OriginFilter, Stop, Watchpoint};

use crate::error::{Error, Result};
use crate::target::{StopReason, Target, WatchKind, MAX_READ_WORDS};

/// Register count exposed over RSP: r0..r15 plus the pc pseudo-register.
pub const NUM_REGS: usize = Reg::COUNT + 1;
/// The pc pseudo-register's number.
pub const PC_REG: usize = Reg::COUNT;

/// One registered stop condition (data watchpoints and the signal-watch
/// monitor extension share the debugger's watchpoint table, so the table
/// index of a [`Stop::Watchpoint`] maps back through this list).
#[derive(Clone, Debug, PartialEq)]
enum WatchEntry {
    Data {
        kind: WatchKind,
        addr: u32,
        len: u32,
    },
    Signal {
        name: String,
    },
}

/// The [`Target`] implementation over a [`Debugger`].
#[derive(Debug)]
pub struct DebugTarget {
    dbg: Debugger,
    /// Breakpoint pcs (each is installed on every core).
    break_pcs: Vec<u32>,
    /// Watchpoint registrations, in debugger-table order.
    watches: Vec<WatchEntry>,
}

impl DebugTarget {
    /// Wraps a debugger.
    pub fn new(dbg: Debugger) -> Self {
        DebugTarget {
            dbg,
            break_pcs: Vec::new(),
            watches: Vec::new(),
        }
    }

    /// The underlying debugger (for assertions the RSP surface does not
    /// cover: signals, region checksums, the stimulus log).
    pub fn debugger(&self) -> &Debugger {
        &self.dbg
    }

    /// Re-installs every breakpoint and watchpoint into the debugger's
    /// condition tables. Watchpoints are added in registration order, so a
    /// [`Stop::Watchpoint`] index is an index into `self.watches`.
    fn rebuild_conditions(&mut self) {
        self.dbg.clear_conditions();
        for w in &self.watches {
            match w {
                WatchEntry::Data { kind, addr, len } => {
                    let hi = addr.saturating_add((*len).max(1) - 1);
                    self.dbg.add_watchpoint(Watchpoint::Access {
                        lo: *addr,
                        hi,
                        kind: match kind {
                            WatchKind::Write => Some(AccessKind::Write),
                            WatchKind::Read => Some(AccessKind::Read),
                            WatchKind::Access => None,
                        },
                        origin: OriginFilter::Any,
                    });
                }
                WatchEntry::Signal { name } => {
                    self.dbg.add_watchpoint(Watchpoint::Signal {
                        name: name.clone(),
                        value: None,
                    });
                }
            }
        }
        let cores = self.dbg.platform().num_cores();
        for &pc in &self.break_pcs {
            for core in 0..cores {
                self.dbg.add_breakpoint(core, pc);
            }
        }
    }

    /// Maps a debugger stop into the protocol-level reason.
    fn map_stop(&self, stop: Stop) -> StopReason {
        match stop {
            Stop::Breakpoint { core, pc, .. } => StopReason::Breakpoint { core, pc },
            Stop::Watchpoint { index, access } => match self.watches.get(index) {
                Some(WatchEntry::Data { kind, addr, .. }) => StopReason::Watch {
                    kind: *kind,
                    // The faulting address: the temporally first matching
                    // access, for reads and writes alike. Range watchpoints
                    // fall back to the range base only if the access went
                    // unrecorded (never expected for data watchpoints).
                    addr: access.map(|a| a.addr).unwrap_or(*addr),
                },
                Some(WatchEntry::Signal { name }) => StopReason::SignalWatch { name: name.clone() },
                None => StopReason::Fault(format!("stale watchpoint index {index}")),
            },
            Stop::Finished => StopReason::Exited,
            Stop::Budget => StopReason::Budget,
            Stop::Fault(msg) => StopReason::Fault(msg),
        }
    }

    /// Resolves a peripheral reference — a page number or a peripheral
    /// name — to its page.
    fn resolve_page(&self, which: &str) -> Result<usize> {
        if let Ok(page) = parse_num(which) {
            return Ok(page);
        }
        let p = self.dbg.platform();
        // Pages are allocated densely from 0; probe until a gap.
        for page in 0.. {
            match p.peripheral_name(page) {
                Some(name) if name == which => return Ok(page),
                Some(_) => continue,
                None => break,
            }
        }
        Err(Error::Target(format!("no peripheral named {which:?}")))
    }
}

/// Parses a decimal or `0x` hex number, optionally negative, into `T` —
/// the one number syntax `monitor` commands and `.mts` scripts share.
/// Narrowing is checked: an address, pc, core, irq, page or length that
/// does not fit `T` is an error, never an alias of its low bits.
///
/// # Errors
///
/// [`Error::Packet`] quoting `s` if it is not a number or does not fit `T`.
pub fn parse_num<T: TryFrom<i128>>(s: &str) -> Result<T> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let magnitude = match body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => body.parse::<u64>(),
    }
    .map_err(|_| Error::Packet(format!("bad number {s:?}")))?;
    let v = i128::from(magnitude);
    T::try_from(if neg { -v } else { v }).map_err(|_| {
        Error::Packet(format!(
            "number {s} is out of range for {}",
            std::any::type_name::<T>()
        ))
    })
}

/// The word addresses `addr..addr + len` of a memory transfer.
fn word_range(addr: u32, len: usize) -> Result<std::ops::Range<u32>> {
    u32::try_from(len)
        .ok()
        .and_then(|len| addr.checked_add(len))
        .map(|end| addr..end)
        .ok_or_else(|| {
            Error::Packet(format!(
                "{len} words from {addr:#x} run past the address space"
            ))
        })
}

impl Target for DebugTarget {
    fn num_cores(&self) -> usize {
        self.dbg.platform().num_cores()
    }

    fn read_registers_into(&self, core: usize, out: &mut Vec<u64>) -> Result<()> {
        let c = self.dbg.core_regs(core)?;
        out.clear();
        out.extend(c.regs().iter().map(|&w| w as u64));
        out.push(u64::from(c.pc()));
        Ok(())
    }

    /// Recorded as a stimulus, so a rewind replays it.
    fn write_register(&mut self, core: usize, reg: usize, value: u64) -> Result<()> {
        let reg = match reg {
            r if r < Reg::COUNT => Some(Reg::new(r as u8)),
            PC_REG => None,
            _ => return Err(Error::Packet(format!("register {reg} out of range"))),
        };
        Ok(self.dbg.inject_reg_write(core, reg, value as Word)?)
    }

    fn read_mem_into(&self, addr: u32, len: u32, out: &mut Vec<u64>) -> Result<()> {
        if len > MAX_READ_WORDS {
            return Err(Error::Packet(format!(
                "read of {len} words exceeds the {MAX_READ_WORDS}-word reply limit"
            )));
        }
        let range = word_range(addr, len as usize)?;
        out.clear();
        out.reserve(len as usize);
        for a in range {
            out.push(self.dbg.read_mem(a)? as u64);
        }
        Ok(())
    }

    /// Recorded as stimuli, so a rewind replays them.
    fn write_mem(&mut self, addr: u32, values: &[u64]) -> Result<()> {
        for (a, &v) in word_range(addr, values.len())?.zip(values) {
            self.dbg.inject_mem_poke(a, v as Word)?;
        }
        Ok(())
    }

    fn step(&mut self) -> Result<StopReason> {
        match self.dbg.step()? {
            Some(stop) => Ok(self.map_stop(stop)),
            None => Ok(StopReason::Step),
        }
    }

    fn cont(&mut self, budget: u64) -> Result<StopReason> {
        let stop = self.dbg.run(budget)?;
        Ok(self.map_stop(stop))
    }

    fn insert_breakpoint(&mut self, pc: u32) -> Result<()> {
        if !self.break_pcs.contains(&pc) {
            self.break_pcs.push(pc);
            self.rebuild_conditions();
        }
        Ok(())
    }

    fn remove_breakpoint(&mut self, pc: u32) -> Result<()> {
        if let Some(i) = self.break_pcs.iter().position(|&p| p == pc) {
            self.break_pcs.remove(i);
            self.rebuild_conditions();
        }
        Ok(())
    }

    fn insert_watchpoint(&mut self, kind: WatchKind, addr: u32, len: u32) -> Result<()> {
        let entry = WatchEntry::Data { kind, addr, len };
        if !self.watches.contains(&entry) {
            self.watches.push(entry);
            self.rebuild_conditions();
        }
        Ok(())
    }

    fn remove_watchpoint(&mut self, kind: WatchKind, addr: u32, len: u32) -> Result<()> {
        let entry = WatchEntry::Data { kind, addr, len };
        if let Some(i) = self.watches.iter().position(|w| *w == entry) {
            self.watches.remove(i);
            self.rebuild_conditions();
        }
        Ok(())
    }

    fn monitor(&mut self, cmd: &str) -> Result<String> {
        let words: Vec<&str> = cmd.split_whitespace().collect();
        match words.as_slice() {
            [] | ["help"] => Ok(MONITOR_HELP.to_string()),
            ["step-back"] => {
                if self.dbg.step_back()? {
                    Ok(format!("at step {}\n", self.dbg.platform().steps()))
                } else if self.dbg.checkpoint_steps().is_empty() {
                    Ok(format!("cannot step back: {TIME_TRAVEL_OFF}\n"))
                } else {
                    Ok("cannot step back: at origin or past the rewind horizon\n".into())
                }
            }
            ["reverse-continue"] => match self.dbg.reverse_continue()? {
                Some(stop) => {
                    let reason = self.map_stop(stop);
                    Ok(format!(
                        "stopped at step {}: {reason:?}\n",
                        self.dbg.platform().steps()
                    ))
                }
                None if self.dbg.checkpoint_steps().is_empty() => {
                    Ok(format!("no earlier stop: {TIME_TRAVEL_OFF}\n"))
                }
                None => Ok("no earlier stop within the rewind horizon\n".into()),
            },
            ["checkpoint"] => {
                let fresh = self.dbg.take_checkpoint_now()?;
                Ok(format!(
                    "{} at step {} ({} bytes retained)\n",
                    if fresh {
                        "checkpoint"
                    } else {
                        "already checkpointed"
                    },
                    self.dbg.platform().steps(),
                    self.dbg.ring_bytes()
                ))
            }
            ["checkpoints"] => {
                let steps = self.dbg.checkpoint_steps();
                Ok(format!(
                    "{} checkpoints at steps {:?}, {} bytes\n",
                    steps.len(),
                    steps,
                    self.dbg.ring_bytes()
                ))
            }
            ["time-travel", interval, max_cp] => {
                let (iv, cp) = (parse_num::<u64>(interval)?, parse_num::<usize>(max_cp)?);
                if iv == 0 || cp == 0 {
                    return Err(Error::Packet(
                        "time-travel wants two positive numbers".into(),
                    ));
                }
                self.dbg.enable_time_travel(iv, cp)?;
                Ok(format!(
                    "time travel on: checkpoint every {iv} steps, ~{cp} retained\n"
                ))
            }
            ["watch-signal", name] => {
                self.watches.push(WatchEntry::Signal {
                    name: (*name).to_string(),
                });
                self.rebuild_conditions();
                Ok(format!("watching signal {name}\n"))
            }
            ["stimulus-record", "mailbox", which, value] => {
                let page = self.resolve_page(which)?;
                self.dbg.inject_mailbox_push(page, parse_num(value)?)?;
                Ok(format!("recorded mailbox push to page {page}\n"))
            }
            ["stimulus-record", "signal", name, value] => {
                self.dbg.inject_signal_write(name, parse_num(value)?)?;
                Ok(format!("recorded signal write {name}\n"))
            }
            ["stimulus-record", "irq", core, irq] => {
                let (c, i) = (parse_num::<usize>(core)?, parse_num::<u32>(irq)?);
                self.dbg.inject_irq(c, i)?;
                Ok(format!("recorded irq {i} to core {c}\n"))
            }
            ["stimulus-record", "poke", addr, value] => {
                let a = parse_num::<u32>(addr)?;
                self.dbg.inject_mem_poke(a, parse_num(value)?)?;
                Ok(format!("recorded poke at {a:#x}\n"))
            }
            ["stimulus-record", "dma", which, src, dst, len] => {
                let page = self.resolve_page(which)?;
                self.dbg.inject_dma_descriptor(
                    page,
                    parse_num(src)?,
                    parse_num(dst)?,
                    parse_num(len)?,
                )?;
                Ok(format!("recorded dma descriptor on page {page}\n"))
            }
            ["stimulus-log"] => Ok(format!(
                "{} records\n",
                self.dbg.stimulus_log().records().len()
            )),
            ["state-checksum"] => Ok(format!("{:#018x}\n", self.dbg.platform().state_checksum())),
            ["trace-stats"] => Ok(format!("{}\n", self.dbg.trace_stats())),
            ["where"] => Ok(format!(
                "step {} time {:?}\n",
                self.dbg.platform().steps(),
                self.dbg.now()
            )),
            _ => Err(Error::Packet(format!(
                "unknown monitor command {cmd:?} (try \"monitor help\")"
            ))),
        }
    }
}

/// Why `step-back` and `reverse-continue` find nothing to rewind to on a
/// debugger that keeps no checkpoints.
const TIME_TRAVEL_OFF: &str =
    "time travel is off (enable it with `monitor time-travel INTERVAL MAX`)";

const MONITOR_HELP: &str = "\
monitor commands:
  step-back                         rewind one platform step
  reverse-continue                  rewind to the previous stop
  checkpoint                        capture a checkpoint now
  checkpoints                       list retained checkpoint steps
  time-travel INTERVAL MAX          enable time travel
  watch-signal NAME                 stop when a named signal changes
  stimulus-record mailbox P V       record+inject a mailbox push
  stimulus-record signal NAME V     record+inject a signal write
  stimulus-record irq CORE IRQ      record+inject an interrupt
  stimulus-record poke ADDR V       record+inject a memory poke
  stimulus-record dma P SRC DST N   record+inject a DMA descriptor
  stimulus-log                      count recorded stimuli
  state-checksum                    whole-platform state checksum
  trace-stats                       signal-trace ring/spill occupancy
  where                             current step and simulated time
";

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_platform::isa::assemble;
    use mpsoc_platform::platform::PlatformBuilder;
    use mpsoc_platform::Frequency;

    fn target() -> DebugTarget {
        let mut p = PlatformBuilder::new()
            .cores(2, Frequency::mhz(100))
            .shared_words(512)
            .cache(None)
            .build()
            .unwrap();
        let prog = assemble(
            "movi r1, 0\nmovi r3, 20\nloop: addi r1, r1, 1\n\
             movi r2, 0x40\nst r1, r2, 0\nblt r1, r3, loop\nhalt",
        )
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        DebugTarget::new(Debugger::new(p))
    }

    #[test]
    fn registers_cover_r0_to_pc() {
        let t = target();
        let regs = t.read_registers(0).unwrap();
        assert_eq!(regs.len(), NUM_REGS);
        assert_eq!(regs[PC_REG], 0);
        assert!(t.read_registers(7).is_err());
    }

    #[test]
    fn write_register_and_pc() {
        let mut t = target();
        t.write_register(0, 5, 0xdead).unwrap();
        assert_eq!(t.read_registers(0).unwrap()[5], 0xdead);
        t.write_register(0, PC_REG, 3).unwrap();
        assert_eq!(t.read_registers(0).unwrap()[PC_REG], 3);
        assert!(t.write_register(0, NUM_REGS, 0).is_err());
    }

    #[test]
    fn breakpoint_applies_to_all_cores_and_removes() {
        let mut t = target();
        t.insert_breakpoint(2).unwrap();
        match t.cont(10_000).unwrap() {
            StopReason::Breakpoint { core: 0, pc: 2 } => {}
            other => panic!("unexpected {other:?}"),
        }
        t.remove_breakpoint(2).unwrap();
        assert_eq!(t.cont(10_000).unwrap(), StopReason::Exited);
    }

    #[test]
    fn watchpoint_reports_kind_and_addr() {
        let mut t = target();
        t.insert_watchpoint(WatchKind::Write, 0x40, 1).unwrap();
        match t.cont(10_000).unwrap() {
            StopReason::Watch {
                kind: WatchKind::Write,
                addr: 0x40,
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        t.remove_watchpoint(WatchKind::Write, 0x40, 1).unwrap();
        assert_eq!(t.cont(100_000).unwrap(), StopReason::Exited);
    }

    #[test]
    fn monitor_time_travel_and_step_back() {
        let mut t = target();
        assert!(
            t.monitor("checkpoint").is_err(),
            "checkpoints need time travel enabled"
        );
        // With time travel off, both rewinds say so and name the command
        // that turns it on — not the rewind horizon, which does not exist.
        let refused = t.monitor("step-back").unwrap();
        assert!(refused.starts_with("cannot step back"), "{refused}");
        for out in [refused, t.monitor("reverse-continue").unwrap()] {
            assert!(out.contains("time travel is off"), "{out}");
            assert!(out.contains("monitor time-travel"), "{out}");
            assert!(!out.contains("horizon"), "{out}");
        }
        t.monitor("time-travel 4 16").unwrap();
        // At the origin with time travel on, the horizon is the reason.
        let refused = t.monitor("step-back").unwrap();
        assert!(refused.starts_with("cannot step back"), "{refused}");
        assert!(refused.contains("rewind horizon"), "{refused}");
        let none = t.monitor("reverse-continue").unwrap();
        assert!(none.contains("within the rewind horizon"), "{none}");
        for _ in 0..10 {
            t.step().unwrap();
        }
        let before = t.debugger().platform().state_checksum();
        t.step().unwrap();
        let out = t.monitor("step-back").unwrap();
        assert!(out.contains("at step 10"), "{out}");
        assert_eq!(t.debugger().platform().state_checksum(), before);
    }

    #[test]
    fn monitor_rejects_unknown_commands() {
        let mut t = target();
        assert!(t.monitor("made-up-cmd").is_err());
        assert!(t.monitor("help").unwrap().contains("step-back"));
        assert!(t.monitor("help").unwrap().contains("trace-stats"));
    }

    #[test]
    fn monitor_trace_stats_reports_ring_and_spill() {
        let mut t = target();
        t.dbg
            .platform_mut()
            .set_trace_budget(2 * mpsoc_platform::TRACE_RECORD_BYTES);
        for i in 1..=5 {
            t.dbg.platform_mut().debug_drive_signal("sig", i);
        }
        let out = t.monitor("trace-stats").unwrap();
        let stats = t.debugger().trace_stats();
        assert_eq!(stats.ring_records, 2);
        assert_eq!(stats.evicted, 3);
        assert!(out.contains("spilled 0"), "{out}");
        assert!(out.contains("evicted 3"), "{out}");
        assert!(
            out.contains(&format!("{}B", 2 * mpsoc_platform::TRACE_RECORD_BYTES)),
            "{out}"
        );
    }

    #[test]
    fn numbers_parse_checked_into_the_type_asked_for() {
        assert_eq!(parse_num::<i64>("-0x10").unwrap(), -16);
        assert_eq!(parse_num::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(parse_num::<u32>("0XFFFFFFFF").unwrap(), u32::MAX);
        assert_eq!(parse_num::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert!(parse_num::<i64>("0x8000000000000000").is_err());
        for (bad, why) in [
            ("0x100000000", "out of range for u32"),
            ("-1", "out of range for u32"),
            ("0x", "bad number"),
            ("--5", "bad number"),
            ("12ab", "bad number"),
            ("", "bad number"),
        ] {
            let e = parse_num::<u32>(bad).unwrap_err().to_string();
            assert!(e.contains(why) && e.contains(bad), "{bad:?}: {e}");
        }
        // Every narrow field of a monitor command is checked the same way.
        let mut t = target();
        for cmd in [
            "stimulus-record poke -4294967168 41",
            "stimulus-record irq 0 0x100000001",
            "stimulus-record irq -1 1",
            "time-travel -4 16",
            "time-travel 4 0",
        ] {
            assert!(t.monitor(cmd).is_err(), "{cmd}");
        }
        assert_eq!(t.read_mem(0x80, 1).unwrap(), vec![0]);
    }

    #[test]
    fn memory_roundtrip() {
        let mut t = target();
        t.write_mem(0x30, &[1, 2, 3]).unwrap();
        assert_eq!(t.read_mem(0x30, 3).unwrap(), vec![1, 2, 3]);
        assert!(t.read_mem(0xffff_0000, 1).is_err());
    }
}
