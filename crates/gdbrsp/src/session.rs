//! The RSP protocol state machine.
//!
//! A [`Session`] owns a [`Target`] and a [`Framer`]; feed it raw bytes
//! from any transport with [`Session::handle_bytes_into`] and write back
//! the bytes it appended. It is deliberately transport-free so the
//! identical code path is exercised over TCP and over the in-memory duplex
//! pipe the tests use.
//!
//! A packet is served in one pass: the framer unescapes it into its own
//! buffer, the dispatcher reads it from there, and the reply goes straight
//! into the caller's transmit buffer — the ack, `$`, the payload as the
//! target produces it, then `#xx` (see [`crate::packet`]). Register and
//! memory reads fill buffers the session reuses
//! ([`Target::read_registers_into`], [`Target::read_mem_into`]), so a warm
//! session serves `g`, `m`, `p`, `s` and `H` without allocating.
//! [`Session::handle_bytes`] is the same path plus one owned copy of the
//! reply.
//!
//! Supported packets: `?`, `g`, `G`, `p`, `P`, `m`, `M`, `s`, `c`,
//! `vCont`, `Z0`/`z0` (+`Z1`/`z1` aliases), `Z2`–`Z4`/`z2`–`z4`,
//! `H`, `T`, `qC`, `qfThreadInfo`/`qsThreadInfo`, `qSupported`,
//! `qAttached`, `QStartNoAckMode`, `qRcmd` (monitor commands), `D`, `k`.
//! Unknown packets get the standard empty reply.

use crate::adapter::NUM_REGS;
use crate::error::{Error, Result};
use crate::packet::{decode_hex_into, parse_hex_u64, Event, Framer, PacketWriter};
use crate::target::{StopReason, Target, WatchKind};

/// Default step budget for `c`/`vCont;c`: a resume with no stop condition
/// terminates in bounded host time and reports `S02` (SIGINT), exactly as
/// if the user had interrupted a runaway program.
pub(crate) const DEFAULT_CONT_BUDGET: u64 = 10_000_000;

/// The `qSupported` reply.
const SUPPORTED: &[u8] = b"PacketSize=16384;QStartNoAckMode+;swbreak+;hwbreak+;vContSupported+";

/// A live protocol session over a target.
#[derive(Debug)]
pub struct Session<T: Target> {
    framer: Framer,
    /// Everything but the framer, so a packet still held in the framer's
    /// buffer can be served against it.
    dispatcher: Dispatcher<T>,
    /// The transmit buffer [`Session::handle_bytes`] fills and copies.
    tx: Vec<u8>,
}

/// Protocol state and the target.
#[derive(Debug)]
struct Dispatcher<T: Target> {
    target: T,
    /// Acknowledgement mode: on until `QStartNoAckMode`.
    ack_mode: bool,
    /// Core selected by `Hg`/`Hc` (GDB threads are cores, ids `1..=n`).
    current_core: usize,
    /// Most recent stop, replayed by `?`.
    last_stop: Option<StopReason>,
    /// Step budget for continue operations.
    cont_budget: u64,
    /// Set once `k` or `D` is processed; the serve loop should hang up.
    finished: bool,
    /// Reused buffer for register and memory reads and `M` data.
    words: Vec<u64>,
    /// Reused buffer for decoded hex arguments.
    bytes: Vec<u8>,
}

impl<T: Target> Session<T> {
    /// A session in initial state (ack mode on, core 0 selected).
    pub fn new(target: T) -> Self {
        Session {
            framer: Framer::new(),
            dispatcher: Dispatcher {
                target,
                ack_mode: true,
                current_core: 0,
                last_stop: None,
                cont_budget: DEFAULT_CONT_BUDGET,
                finished: false,
                words: Vec::new(),
                bytes: Vec::new(),
            },
            tx: Vec::new(),
        }
    }

    /// Overrides the continue step budget.
    pub fn set_cont_budget(&mut self, budget: u64) {
        self.dispatcher.cont_budget = budget.max(1);
    }

    /// The wrapped target.
    pub fn target(&self) -> &T {
        &self.dispatcher.target
    }

    /// Whether the client detached or killed the session.
    pub fn finished(&self) -> bool {
        self.dispatcher.finished
    }

    /// Consumes raw bytes from the transport, returns bytes to send back
    /// (acks plus reply packets): [`handle_bytes_into`] a buffer the
    /// session keeps, copied out.
    ///
    /// [`handle_bytes_into`]: Session::handle_bytes_into
    pub fn handle_bytes(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut tx = std::mem::take(&mut self.tx);
        tx.clear();
        self.handle_bytes_into(bytes, &mut tx);
        let out = tx.clone();
        self.tx = tx;
        out
    }

    /// Consumes raw bytes from the transport and appends the bytes to send
    /// back to `out`: for each packet, its ack, then the framed reply.
    pub fn handle_bytes_into(&mut self, bytes: &[u8], out: &mut Vec<u8>) {
        let d = &mut self.dispatcher;
        for &byte in bytes {
            match self.framer.feed(byte) {
                Some(Ok(Event::Packet)) => {
                    if d.ack_mode {
                        out.push(b'+');
                    }
                    // QStartNoAckMode: the *reply* is still acked; the mode
                    // flips for subsequent packets, which matches the spec
                    // because we ack before replying.
                    d.reply(self.framer.payload(), out);
                }
                Some(Ok(Event::Ack | Event::Nak)) => {
                    // We never retransmit: every reply is generated from
                    // target state that a retransmitted request would
                    // re-derive identically.
                }
                Some(Ok(Event::Interrupt)) => {
                    // Execution only happens synchronously inside `c`/`s`
                    // dispatch, so there is nothing to interrupt here.
                }
                Some(Err(_)) if d.ack_mode => out.push(b'-'),
                None | Some(Err(_)) => {}
            }
        }
    }
}

impl<T: Target> Dispatcher<T> {
    /// Handles one well-framed packet, appending its reply to `out`; `k`
    /// gets none.
    fn reply(&mut self, packet: &[u8], out: &mut Vec<u8>) {
        if packet.first() == Some(&b'k') {
            self.finished = true;
            return;
        }
        let mut w = PacketWriter::begin(out);
        if self.command(packet, &mut w).is_err() {
            // Error code E01: parse/target errors. GDB only displays the
            // two-digit code, so the detail also goes to the monitor
            // channel ("O" packets are only legal mid-qRcmd; keep it
            // simple and standard instead).
            w.clear();
            w.text(b"E01");
        }
        w.finish();
    }

    /// Writes the reply payload of `packet` (empty for an unknown one).
    fn command(&mut self, packet: &[u8], w: &mut PacketWriter) -> Result<()> {
        let Some((&head, rest)) = packet.split_first() else {
            return Ok(());
        };
        match head {
            b'?' => self.stop_reply(w),
            b'g' => {
                self.target
                    .read_registers_into(self.current_core, &mut self.words)?;
                w.hex_words(&self.words);
            }
            b'G' => {
                decode_hex_into(rest, &mut self.bytes)?;
                if self.bytes.len() != NUM_REGS * 8 {
                    return Err(Error::Packet(format!(
                        "G wants {} bytes, got {}",
                        NUM_REGS * 8,
                        self.bytes.len()
                    )));
                }
                for (i, chunk) in self.bytes.as_chunks::<8>().0.iter().enumerate() {
                    self.target
                        .write_register(self.current_core, i, u64::from_le_bytes(*chunk))?;
                }
                w.text(b"OK");
            }
            b'p' => {
                let n = parse_hex_u64(rest)? as usize;
                self.target
                    .read_registers_into(self.current_core, &mut self.words)?;
                let v = *self
                    .words
                    .get(n)
                    .ok_or_else(|| Error::Packet(format!("register {n} out of range")))?;
                w.hex(&v.to_le_bytes());
            }
            b'P' => {
                let (n, val) = split_once(rest, b'=')
                    .ok_or_else(|| Error::Packet("P wants n=value".into()))?;
                let n = parse_hex_u64(n)? as usize;
                decode_hex_into(val, &mut self.bytes)?;
                let value: [u8; 8] = self.bytes[..]
                    .try_into()
                    .map_err(|_| Error::Packet("P wants an 8-byte value".into()))?;
                self.target
                    .write_register(self.current_core, n, u64::from_le_bytes(value))?;
                w.text(b"OK");
            }
            b'm' => {
                let (addr, len) = split_addr_len(rest)?;
                self.target.read_mem_into(addr, len, &mut self.words)?;
                w.hex_words(&self.words);
            }
            b'M' => {
                let (head, data) = split_once(rest, b':')
                    .ok_or_else(|| Error::Packet("M wants addr,len:data".into()))?;
                let (addr, len) = split_addr_len(head)?;
                decode_hex_into(data, &mut self.bytes)?;
                if self.bytes.len() != len as usize * 8 {
                    return Err(Error::Packet(format!(
                        "M wants {} data bytes, got {}",
                        len as usize * 8,
                        self.bytes.len()
                    )));
                }
                self.words.clear();
                self.words.extend(
                    self.bytes
                        .as_chunks::<8>()
                        .0
                        .iter()
                        .map(|c| u64::from_le_bytes(*c)),
                );
                self.target.write_mem(addr, &self.words)?;
                w.text(b"OK");
            }
            b's' => {
                let stop = self.target.step()?;
                self.remember(stop, w);
            }
            b'c' => {
                let stop = self.target.cont(self.cont_budget)?;
                self.remember(stop, w);
            }
            b'v' => {
                if rest == b"Cont?" {
                    w.text(b"vCont;c;C;s;S");
                } else if let Some(actions) = rest.strip_prefix(b"Cont;") {
                    let first = actions.split(|&b| b == b';').next().unwrap_or(b"");
                    let stop = match first.first() {
                        Some(b's' | b'S') => self.target.step()?,
                        _ => self.target.cont(self.cont_budget)?,
                    };
                    self.remember(stop, w);
                }
            }
            b'H' => {
                // Hc/Hg<tid>: select the core later register/memory
                // operations address. tid 0 ("any") and -1 ("all") keep
                // the current selection. The operation letter is one
                // ASCII byte; after anything else there is no tid.
                let tid = match rest.split_first() {
                    Some((op, tid)) if op.is_ascii() => tid,
                    _ => b"",
                };
                if tid != b"-1" && tid != b"0" && !tid.is_empty() {
                    let id = parse_hex_u64(tid)? as usize;
                    if id < 1 || id > self.target.num_cores() {
                        return Err(Error::Packet(format!("no thread {id}")));
                    }
                    self.current_core = id - 1;
                }
                w.text(b"OK");
            }
            b'T' => {
                let id = parse_hex_u64(rest)? as usize;
                if id >= 1 && id <= self.target.num_cores() {
                    w.text(b"OK");
                } else {
                    w.text(b"E01");
                }
            }
            b'Z' | b'z' => self.z_packet(head == b'Z', rest, w)?,
            b'q' => self.query(rest, w)?,
            b'Q' if rest == b"StartNoAckMode" => {
                self.ack_mode = false;
                w.text(b"OK");
            }
            b'D' => {
                self.finished = true;
                w.text(b"OK");
            }
            _ => {}
        }
        Ok(())
    }

    fn z_packet(&mut self, insert: bool, rest: &[u8], w: &mut PacketWriter) -> Result<()> {
        let mut parts = rest.split(|&b| b == b',');
        let (ty, addr, len) = match (parts.next(), parts.next(), parts.next()) {
            (Some(t), Some(a), Some(l)) => (t, parse_hex_u64(a)? as u32, parse_hex_u64(l)? as u32),
            _ => return Err(Error::Packet("Z/z wants type,addr,kind".into())),
        };
        match ty {
            // Software and "hardware" breakpoints are the same thing on a
            // simulated platform: a pc match with zero overhead.
            b"0" | b"1" => {
                if insert {
                    self.target.insert_breakpoint(addr)?;
                } else {
                    self.target.remove_breakpoint(addr)?;
                }
            }
            b"2" | b"3" | b"4" => {
                let kind = match ty {
                    b"2" => WatchKind::Write,
                    b"3" => WatchKind::Read,
                    _ => WatchKind::Access,
                };
                if insert {
                    self.target.insert_watchpoint(kind, addr, len.max(1))?;
                } else {
                    self.target.remove_watchpoint(kind, addr, len.max(1))?;
                }
            }
            _ => return Ok(()),
        }
        w.text(b"OK");
        Ok(())
    }

    fn query(&mut self, rest: &[u8], w: &mut PacketWriter) -> Result<()> {
        // Feature probes after `qSupported` are informational.
        if rest.starts_with(b"Supported") {
            w.text(SUPPORTED);
        } else if rest == b"C" {
            w.text(b"QC");
            w.num(self.current_core as u64 + 1);
        } else if rest == b"fThreadInfo" {
            w.text(b"m");
            for id in 1..=self.target.num_cores() {
                if id > 1 {
                    w.text(b",");
                }
                w.num(id as u64);
            }
        } else if rest == b"sThreadInfo" {
            w.text(b"l");
        } else if rest == b"Attached" {
            w.text(b"1");
        } else if let Some(hex) = rest.strip_prefix(b"Rcmd,") {
            decode_hex_into(hex, &mut self.bytes)?;
            let cmd = String::from_utf8_lossy(&self.bytes);
            match self.target.monitor(cmd.trim()) {
                Ok(out) if out.is_empty() => w.text(b"OK"),
                Ok(out) => w.hex(out.as_bytes()),
                // Monitor errors carry human-readable detail; report it as
                // console text rather than a bare E-code.
                Err(e) => w.hex(format!("error: {e}\n").as_bytes()),
            }
        }
        Ok(())
    }

    fn remember(&mut self, stop: StopReason, w: &mut PacketWriter) {
        self.last_stop = Some(stop);
        self.stop_reply(w);
    }

    /// Writes the last stop as an RSP stop reply.
    fn stop_reply(&self, w: &mut PacketWriter) {
        match &self.last_stop {
            None | Some(StopReason::Step) => w.text(b"S05"),
            Some(StopReason::Breakpoint { core, .. }) => {
                w.text(b"T05swbreak:;thread:");
                w.num(*core as u64 + 1);
                w.text(b";");
            }
            Some(StopReason::Watch { kind, addr }) => {
                let key: &[u8] = match kind {
                    WatchKind::Write => b"watch",
                    WatchKind::Read => b"rwatch",
                    WatchKind::Access => b"awatch",
                };
                w.text(b"T05");
                w.text(key);
                w.text(b":");
                w.num(u64::from(*addr));
                w.text(b";thread:");
                w.num(self.current_core as u64 + 1);
                w.text(b";");
            }
            // A signal watchpoint has no data address; plain SIGTRAP with
            // the detail available via `monitor where`.
            Some(StopReason::SignalWatch { .. }) => w.text(b"S05"),
            Some(StopReason::Exited) => w.text(b"W00"),
            Some(StopReason::Budget) => w.text(b"S02"),
            Some(StopReason::Fault(_)) => w.text(b"S0b"),
        }
    }
}

/// `s` split around the first `sep`.
fn split_once(s: &[u8], sep: u8) -> Option<(&[u8], &[u8])> {
    let i = s.iter().position(|&b| b == sep)?;
    Some((&s[..i], &s[i + 1..]))
}

/// Parses the `addr,len` argument form (both big-endian hex).
fn split_addr_len(s: &[u8]) -> Result<(u32, u32)> {
    let (a, l) = split_once(s, b',').ok_or_else(|| {
        Error::Packet(format!(
            "expected addr,len in {:?}",
            String::from_utf8_lossy(s)
        ))
    })?;
    let word = |h: &[u8]| {
        u32::try_from(parse_hex_u64(h)?).map_err(|_| {
            Error::Packet(format!(
                "{:?} is wider than 32 bits",
                String::from_utf8_lossy(h)
            ))
        })
    };
    Ok((word(a)?, word(l)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::DebugTarget;
    use crate::packet::{encode_packet, from_hex, to_hex, Item};
    use mpsoc_platform::isa::assemble;
    use mpsoc_platform::platform::PlatformBuilder;
    use mpsoc_platform::Frequency;
    use mpsoc_vpdebug::Debugger;

    fn session() -> Session<DebugTarget> {
        let mut p = PlatformBuilder::new()
            .cores(2, Frequency::mhz(100))
            .shared_words(512)
            .cache(None)
            .build()
            .unwrap();
        let prog = assemble(
            "movi r1, 0\nmovi r3, 10\nloop: addi r1, r1, 1\n\
             movi r2, 0x40\nst r1, r2, 0\nblt r1, r3, loop\nhalt",
        )
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        Session::new(DebugTarget::new(Debugger::new(p)))
    }

    /// Sends one command packet and returns the decoded reply payload.
    fn roundtrip(s: &mut Session<DebugTarget>, cmd: &str) -> String {
        let wire = encode_packet(cmd.as_bytes());
        let out = s.handle_bytes(&wire);
        // Strip the leading ack if present, then parse the reply packet.
        let body = if out.first() == Some(&b'+') {
            &out[1..]
        } else {
            &out[..]
        };
        let mut f = Framer::new();
        for item in f.push_bytes(body) {
            if let Ok(Item::Packet(p)) = item {
                return String::from_utf8_lossy(&p).into_owned();
            }
        }
        String::new()
    }

    #[test]
    fn query_handshake() {
        let mut s = session();
        assert!(roundtrip(&mut s, "qSupported:swbreak+").contains("QStartNoAckMode+"));
        assert_eq!(roundtrip(&mut s, "?"), "S05");
        assert_eq!(roundtrip(&mut s, "qC"), "QC1");
        assert_eq!(roundtrip(&mut s, "qfThreadInfo"), "m1,2");
        assert_eq!(roundtrip(&mut s, "qsThreadInfo"), "l");
        assert_eq!(roundtrip(&mut s, "T1"), "OK");
        assert_eq!(roundtrip(&mut s, "T9"), "E01");
    }

    #[test]
    fn oversized_or_wrapping_memory_requests_get_an_error_reply() {
        use crate::packet::MAX_PAYLOAD;
        use crate::target::MAX_READ_WORDS;
        // RAM larger than one reply can carry, so only the bound refuses.
        let p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(MAX_READ_WORDS + 8)
            .cache(None)
            .build()
            .unwrap();
        let mut s = Session::new(DebugTarget::new(Debugger::new(p)));
        // One word past what a reply packet can carry, the whole address
        // space, a range wrapping past it, an address wider than 32 bits.
        for cmd in [
            format!("m0,{:x}", MAX_READ_WORDS + 1),
            "m0,ffffffff".into(),
            "mffffffff,2".into(),
            "m100000000,1".into(),
            format!("Mffffffff,2:{}", "00".repeat(16)),
        ] {
            assert_eq!(roundtrip(&mut s, &cmd), "E01", "{cmd}");
        }
        // The session is still serving, the largest legitimate read included.
        assert_eq!(roundtrip(&mut s, "m40,1"), "00".repeat(8));
        let full = roundtrip(&mut s, &format!("m0,{MAX_READ_WORDS:x}"));
        assert_eq!(full.len(), MAX_PAYLOAD);
    }

    #[test]
    fn no_ack_mode_drops_acks() {
        let mut s = session();
        assert_eq!(roundtrip(&mut s, "QStartNoAckMode"), "OK");
        let out = s.handle_bytes(&encode_packet(b"?"));
        assert_ne!(out.first(), Some(&b'+'), "no ack after QStartNoAckMode");
    }

    #[test]
    fn register_read_write_via_packets() {
        let mut s = session();
        let g = roundtrip(&mut s, "g");
        assert_eq!(g.len(), NUM_REGS * 16);
        // P5=<0xbeef LE> then p5 reads it back.
        let val_hex = to_hex(&0xbeefu64.to_le_bytes());
        assert_eq!(roundtrip(&mut s, &format!("P5={val_hex}")), "OK");
        assert_eq!(roundtrip(&mut s, "p5"), val_hex);
        // Register reflected in the debugger itself.
        let r5 = s
            .target()
            .debugger()
            .core_regs(0)
            .unwrap()
            .reg(mpsoc_platform::isa::Reg::new(5));
        assert_eq!(r5, 0xbeef);
    }

    #[test]
    fn memory_read_write_via_packets() {
        let mut s = session();
        let data = to_hex(
            &[7u64, 8, 9]
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect::<Vec<u8>>(),
        );
        assert_eq!(roundtrip(&mut s, &format!("M30,3:{data}")), "OK");
        assert_eq!(roundtrip(&mut s, "m30,3"), data);
        assert_eq!(roundtrip(&mut s, "m30,2"), data[..32]);
        // Unmapped memory is an error, not a crash.
        assert_eq!(roundtrip(&mut s, "mffff0000,1"), "E01");
    }

    #[test]
    fn breakpoint_continue_hit_and_exit() {
        let mut s = session();
        assert_eq!(roundtrip(&mut s, "Z0,2,4"), "OK");
        assert_eq!(roundtrip(&mut s, "c"), "T05swbreak:;thread:1;");
        assert_eq!(roundtrip(&mut s, "z0,2,4"), "OK");
        assert_eq!(roundtrip(&mut s, "c"), "W00");
    }

    #[test]
    fn watchpoint_stop_reports_address() {
        let mut s = session();
        assert_eq!(roundtrip(&mut s, "Z2,40,1"), "OK");
        assert_eq!(roundtrip(&mut s, "vCont;c"), "T05watch:40;thread:1;");
        assert_eq!(roundtrip(&mut s, "z2,40,1"), "OK");
    }

    #[test]
    fn step_returns_stop_reply() {
        let mut s = session();
        assert_eq!(roundtrip(&mut s, "s"), "S05");
        assert_eq!(roundtrip(&mut s, "vCont;s:1"), "S05");
    }

    #[test]
    fn monitor_via_qrcmd() {
        let mut s = session();
        let cmd = to_hex(b"where");
        let reply = roundtrip(&mut s, &format!("qRcmd,{cmd}"));
        let text = String::from_utf8(from_hex(&reply).unwrap()).unwrap();
        assert!(text.contains("step 0"), "{text}");
        // Unknown commands come back as readable error text.
        let bad = to_hex(b"nonsense");
        let reply = roundtrip(&mut s, &format!("qRcmd,{bad}"));
        let text = String::from_utf8(from_hex(&reply).unwrap()).unwrap();
        assert!(text.starts_with("error:"), "{text}");
    }

    #[test]
    fn monitor_poke_wider_than_32_bits_is_refused_not_aliased() {
        let mut s = session();
        let cmd = to_hex(b"stimulus-record poke 0x100000080 41");
        let reply = roundtrip(&mut s, &format!("qRcmd,{cmd}"));
        let text = String::from_utf8(from_hex(&reply).unwrap()).unwrap();
        assert!(text.starts_with("error:"), "{text}");
        assert!(text.contains("0x100000080"), "{text}");
        // Word 0x80 is untouched and the session answers the next packet.
        assert_eq!(roundtrip(&mut s, "m80,1"), "00".repeat(8));
    }

    #[test]
    fn thread_select_switches_core() {
        let mut s = session();
        assert_eq!(roundtrip(&mut s, "Hg2"), "OK");
        let g = roundtrip(&mut s, "g");
        // Core 1 has no program: pc 0, all registers 0.
        assert_eq!(g, "0".repeat(NUM_REGS * 16));
        assert_eq!(roundtrip(&mut s, "Hg9"), "E01");
    }

    #[test]
    fn detach_and_kill_finish_session() {
        let mut s = session();
        assert_eq!(roundtrip(&mut s, "D"), "OK");
        assert!(s.finished());
        let mut s = session();
        let out = s.handle_bytes(&encode_packet(b"k"));
        assert_eq!(out, b"+", "k is acked but gets no reply");
        assert!(s.finished());
    }

    #[test]
    fn corrupt_packet_gets_nak_and_session_survives() {
        let mut s = session();
        let out = s.handle_bytes(b"$g#00");
        assert_eq!(out, b"-");
        assert_eq!(roundtrip(&mut s, "?"), "S05");
    }
}
