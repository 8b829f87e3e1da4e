//! The RSP protocol state machine.
//!
//! A [`Session`] owns a [`Target`] and a [`Framer`]; feed it raw bytes
//! from any transport with [`Session::handle_bytes`] and write back the
//! bytes it returns. It is deliberately transport-free so the identical
//! code path is exercised over TCP and over the in-memory duplex pipe the
//! tests use.
//!
//! Supported packets: `?`, `g`, `G`, `p`, `P`, `m`, `M`, `s`, `c`,
//! `vCont`, `Z0`/`z0` (+`Z1`/`z1` aliases), `Z2`–`Z4`/`z2`–`z4`,
//! `H`, `T`, `qC`, `qfThreadInfo`/`qsThreadInfo`, `qSupported`,
//! `qAttached`, `QStartNoAckMode`, `qRcmd` (monitor commands), `D`, `k`.
//! Unknown packets get the standard empty reply.

use crate::adapter::NUM_REGS;
use crate::error::{Error, Result};
use crate::packet::{encode_packet, from_hex, parse_hex_u64, to_hex, Framer, Item};
use crate::target::{StopReason, Target, WatchKind};

/// Default step budget for `c`/`vCont;c`: a resume with no stop condition
/// terminates in bounded host time and reports `S02` (SIGINT), exactly as
/// if the user had interrupted a runaway program.
pub const DEFAULT_CONT_BUDGET: u64 = 10_000_000;

/// A live protocol session over a target.
#[derive(Debug)]
pub struct Session<T: Target> {
    target: T,
    framer: Framer,
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
}

impl<T: Target> Session<T> {
    /// A session in initial state (ack mode on, core 0 selected).
    pub fn new(target: T) -> Self {
        Session {
            target,
            framer: Framer::new(),
            ack_mode: true,
            current_core: 0,
            last_stop: None,
            cont_budget: DEFAULT_CONT_BUDGET,
            finished: false,
        }
    }

    /// Overrides the continue step budget.
    pub fn set_cont_budget(&mut self, budget: u64) {
        self.cont_budget = budget.max(1);
    }

    /// The wrapped target.
    pub fn target(&self) -> &T {
        &self.target
    }

    /// Whether the client detached or killed the session.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Consumes raw bytes from the transport, returns bytes to send back
    /// (acks plus reply packets).
    pub fn handle_bytes(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for item in self.framer.push_bytes(bytes) {
            match item {
                Ok(Item::Packet(p)) => {
                    if self.ack_mode {
                        out.push(b'+');
                    }
                    // QStartNoAckMode: the *reply* is still acked; the mode
                    // flips for subsequent packets, which matches the spec
                    // because we ack before replying.
                    let reply = self.dispatch(&p);
                    if let Some(reply) = reply {
                        out.extend_from_slice(&encode_packet(&reply));
                    }
                }
                Ok(Item::Ack) | Ok(Item::Nak) => {
                    // We never retransmit: every reply is generated from
                    // target state that a retransmitted request would
                    // re-derive identically.
                }
                Ok(Item::Interrupt) => {
                    // Execution only happens synchronously inside `c`/`s`
                    // dispatch, so there is nothing to interrupt here.
                }
                Err(_) => {
                    if self.ack_mode {
                        out.push(b'-');
                    }
                }
            }
        }
        out
    }

    /// Handles one well-framed packet; `None` means "no reply" (only `k`).
    fn dispatch(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        let text = String::from_utf8_lossy(packet).into_owned();
        let reply = match self.command(&text) {
            Ok(r) => r,
            // Error code E01: parse/target errors. GDB only displays the
            // two-digit code, so the detail also goes to the monitor
            // channel ("O" packets are only legal mid-qRcmd; keep it
            // simple and standard instead).
            Err(_) => Reply::Text("E01".into()),
        };
        match reply {
            Reply::Text(s) => Some(s.into_bytes()),
            Reply::Raw(b) => Some(b),
            Reply::None => None,
        }
    }

    fn command(&mut self, text: &str) -> Result<Reply> {
        let mut chars = text.chars();
        let head = chars.next().unwrap_or('\0');
        let rest = chars.as_str();
        Ok(match head {
            '?' => Reply::Text(self.stop_reply_text()),
            'g' => {
                let regs = self.target.read_registers(self.current_core)?;
                let mut bytes = Vec::with_capacity(regs.len() * 8);
                for r in regs {
                    bytes.extend_from_slice(&r.to_le_bytes());
                }
                Reply::Text(to_hex(&bytes))
            }
            'G' => {
                let bytes = from_hex(rest)?;
                if bytes.len() != NUM_REGS * 8 {
                    return Err(Error::Packet(format!(
                        "G wants {} bytes, got {}",
                        NUM_REGS * 8,
                        bytes.len()
                    )));
                }
                for (i, chunk) in bytes.chunks_exact(8).enumerate() {
                    let v = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
                    self.target.write_register(self.current_core, i, v)?;
                }
                Reply::Text("OK".into())
            }
            'p' => {
                let n = parse_hex_u64(rest)? as usize;
                let regs = self.target.read_registers(self.current_core)?;
                let v = *regs
                    .get(n)
                    .ok_or_else(|| Error::Packet(format!("register {n} out of range")))?;
                Reply::Text(to_hex(&v.to_le_bytes()))
            }
            'P' => {
                let (n, val) = rest
                    .split_once('=')
                    .ok_or_else(|| Error::Packet("P wants n=value".into()))?;
                let n = parse_hex_u64(n)? as usize;
                let bytes = from_hex(val)?;
                if bytes.len() != 8 {
                    return Err(Error::Packet("P wants an 8-byte value".into()));
                }
                let v = u64::from_le_bytes(bytes.try_into().expect("checked length"));
                self.target.write_register(self.current_core, n, v)?;
                Reply::Text("OK".into())
            }
            'm' => {
                let (addr, len) = split_addr_len(rest)?;
                let words = self.target.read_mem(addr, len)?;
                let mut bytes = Vec::with_capacity(words.len() * 8);
                for w in words {
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
                Reply::Text(to_hex(&bytes))
            }
            'M' => {
                let (head, data) = rest
                    .split_once(':')
                    .ok_or_else(|| Error::Packet("M wants addr,len:data".into()))?;
                let (addr, len) = split_addr_len(head)?;
                let bytes = from_hex(data)?;
                if bytes.len() != len as usize * 8 {
                    return Err(Error::Packet(format!(
                        "M wants {} data bytes, got {}",
                        len as usize * 8,
                        bytes.len()
                    )));
                }
                let words: Vec<u64> = bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
                    .collect();
                self.target.write_mem(addr, &words)?;
                Reply::Text("OK".into())
            }
            's' => {
                let stop = self.target.step()?;
                self.remember(stop)
            }
            'c' => {
                let stop = self.target.cont(self.cont_budget)?;
                self.remember(stop)
            }
            'v' => {
                if rest == "Cont?" {
                    Reply::Text("vCont;c;C;s;S".into())
                } else if let Some(actions) = rest.strip_prefix("Cont;") {
                    let first = actions.split(';').next().unwrap_or("");
                    let letter = first.chars().next().unwrap_or('c');
                    let stop = match letter {
                        's' | 'S' => self.target.step()?,
                        _ => self.target.cont(self.cont_budget)?,
                    };
                    self.remember(stop)
                } else {
                    Reply::Text(String::new())
                }
            }
            'H' => {
                // Hc/Hg<tid>: select the core later register/memory
                // operations address. tid 0 ("any") and -1 ("all") keep
                // the current selection.
                let tid = rest.get(1..).unwrap_or("");
                if tid != "-1" && tid != "0" && !tid.is_empty() {
                    let id = parse_hex_u64(tid)? as usize;
                    if id < 1 || id > self.target.num_cores() {
                        return Err(Error::Packet(format!("no thread {id}")));
                    }
                    self.current_core = id - 1;
                }
                Reply::Text("OK".into())
            }
            'T' => {
                let id = parse_hex_u64(rest)? as usize;
                if id >= 1 && id <= self.target.num_cores() {
                    Reply::Text("OK".into())
                } else {
                    Reply::Text("E01".into())
                }
            }
            'Z' | 'z' => self.z_packet(head == 'Z', rest)?,
            'q' => self.query(rest)?,
            'Q' => {
                if rest == "StartNoAckMode" {
                    self.ack_mode = false;
                    Reply::Text("OK".into())
                } else {
                    Reply::Text(String::new())
                }
            }
            'D' => {
                self.finished = true;
                Reply::Text("OK".into())
            }
            'k' => {
                self.finished = true;
                Reply::None
            }
            _ => Reply::Text(String::new()),
        })
    }

    fn z_packet(&mut self, insert: bool, rest: &str) -> Result<Reply> {
        let mut parts = rest.split(',');
        let (ty, addr, len) = match (parts.next(), parts.next(), parts.next()) {
            (Some(t), Some(a), Some(l)) => (t, parse_hex_u64(a)? as u32, parse_hex_u64(l)? as u32),
            _ => return Err(Error::Packet("Z/z wants type,addr,kind".into())),
        };
        match ty {
            // Software and "hardware" breakpoints are the same thing on a
            // simulated platform: a pc match with zero overhead.
            "0" | "1" => {
                if insert {
                    self.target.insert_breakpoint(addr)?;
                } else {
                    self.target.remove_breakpoint(addr)?;
                }
            }
            "2" | "3" | "4" => {
                let kind = match ty {
                    "2" => WatchKind::Write,
                    "3" => WatchKind::Read,
                    _ => WatchKind::Access,
                };
                if insert {
                    self.target.insert_watchpoint(kind, addr, len.max(1))?;
                } else {
                    self.target.remove_watchpoint(kind, addr, len.max(1))?;
                }
            }
            _ => return Ok(Reply::Text(String::new())),
        }
        Ok(Reply::Text("OK".into()))
    }

    fn query(&mut self, rest: &str) -> Result<Reply> {
        if let Some(args) = rest.strip_prefix("Supported") {
            let _ = args; // feature probes are informational
            return Ok(Reply::Text(
                "PacketSize=16384;QStartNoAckMode+;swbreak+;hwbreak+;vContSupported+".into(),
            ));
        }
        if rest == "C" {
            return Ok(Reply::Text(format!("QC{:x}", self.current_core + 1)));
        }
        if rest == "fThreadInfo" {
            let ids: Vec<String> = (1..=self.target.num_cores())
                .map(|id| format!("{id:x}"))
                .collect();
            return Ok(Reply::Text(format!("m{}", ids.join(","))));
        }
        if rest == "sThreadInfo" {
            return Ok(Reply::Text("l".into()));
        }
        if rest == "Attached" {
            return Ok(Reply::Text("1".into()));
        }
        if let Some(hex) = rest.strip_prefix("Rcmd,") {
            let cmd_bytes = from_hex(hex)?;
            let cmd = String::from_utf8_lossy(&cmd_bytes).into_owned();
            return Ok(match self.target.monitor(cmd.trim()) {
                Ok(out) if out.is_empty() => Reply::Text("OK".into()),
                Ok(out) => Reply::Text(to_hex(out.as_bytes())),
                // Monitor errors carry human-readable detail; report it as
                // console text rather than a bare E-code.
                Err(e) => Reply::Text(to_hex(format!("error: {e}\n").as_bytes())),
            });
        }
        Ok(Reply::Text(String::new()))
    }

    fn remember(&mut self, stop: StopReason) -> Reply {
        self.last_stop = Some(stop);
        Reply::Text(self.stop_reply_text())
    }

    /// Renders the last stop as an RSP stop reply.
    fn stop_reply_text(&self) -> String {
        match &self.last_stop {
            None | Some(StopReason::Step) => "S05".into(),
            Some(StopReason::Breakpoint { core, .. }) => {
                format!("T05swbreak:;thread:{:x};", core + 1)
            }
            Some(StopReason::Watch { kind, addr }) => {
                let key = match kind {
                    WatchKind::Write => "watch",
                    WatchKind::Read => "rwatch",
                    WatchKind::Access => "awatch",
                };
                format!("T05{key}:{addr:x};thread:{:x};", self.current_core + 1)
            }
            // A signal watchpoint has no data address; plain SIGTRAP with
            // the detail available via `monitor where`.
            Some(StopReason::SignalWatch { .. }) => "S05".into(),
            Some(StopReason::Exited) => "W00".into(),
            Some(StopReason::Budget) => "S02".into(),
            Some(StopReason::Fault(_)) => "S0b".into(),
        }
    }
}

/// A dispatch result: a textual reply, raw bytes, or silence (`k`).
enum Reply {
    Text(String),
    #[allow(dead_code)] // reserved for binary replies (e.g. qXfer)
    Raw(Vec<u8>),
    None,
}

/// Parses the `addr,len` argument form (both big-endian hex).
fn split_addr_len(s: &str) -> Result<(u32, u32)> {
    let (a, l) = s
        .split_once(',')
        .ok_or_else(|| Error::Packet(format!("expected addr,len in {s:?}")))?;
    let word = |h: &str| {
        u32::try_from(parse_hex_u64(h)?)
            .map_err(|_| Error::Packet(format!("{h:?} is wider than 32 bits")))
    };
    Ok((word(a)?, word(l)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::DebugTarget;
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
