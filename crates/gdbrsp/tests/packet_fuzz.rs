//! Seeded fuzz properties for the RSP packet framing layer and the
//! session's replies.
//!
//! Mirrors the platform snapshot layer's corrupt-token fuzz test
//! (`corrupted_delta_tokens_never_panic`): hostile bytes must surface as
//! clean errors, never as panics — and the framer must resynchronise, so
//! one corrupt packet cannot wedge the debug link. Seeded request streams
//! are also replayed through the session and through the two-pass,
//! `String`-building session it replaced (`oracle`), which must reply
//! byte for byte alike.

use mpsoc_gdbrsp::packet::{encode_packet, to_hex, Framer, Item, MAX_PAYLOAD};
use mpsoc_gdbrsp::{DebugTarget, Session};
use mpsoc_obs::rng::XorShift64Star;
use mpsoc_platform::isa::assemble;
use mpsoc_platform::platform::PlatformBuilder;
use mpsoc_platform::Frequency;
use mpsoc_vpdebug::Debugger;

/// Parses a byte stream to completion, separating packets from errors.
fn drain(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut f = Framer::new();
    let mut packets = Vec::new();
    let mut errors = 0;
    for item in f.push_bytes(bytes) {
        match item {
            Ok(Item::Packet(p)) => packets.push(p),
            Ok(_) => {}
            Err(_) => errors += 1,
        }
    }
    (packets, errors)
}

/// A seeded payload mixing plain bytes with every byte the protocol must
/// escape (`$`, `#`, `}`, `*`) and raw binary.
fn random_payload(rng: &mut XorShift64Star) -> Vec<u8> {
    let len = rng.usize_in(0, 64);
    (0..len)
        .map(|_| match rng.usize_in(0, 9) {
            0 => 0x24, // $
            1 => 0x23, // #
            2 => 0x7d, // } — the escape byte itself
            3 => 0x2a, // *
            _ => rng.u64_in(0, 255) as u8,
        })
        .collect()
}

#[test]
fn random_payloads_round_trip() {
    let mut rng = XorShift64Star::new(0x5eed_0001);
    for _ in 0..500 {
        let payload = random_payload(&mut rng);
        let wire = encode_packet(&payload);
        let (packets, errors) = drain(&wire);
        assert_eq!(errors, 0);
        assert_eq!(packets, vec![payload]);
    }
}

#[test]
fn corrupt_checksums_error_cleanly_and_recover() {
    let mut rng = XorShift64Star::new(0x5eed_0002);
    for _ in 0..500 {
        let payload = random_payload(&mut rng);
        let mut wire = encode_packet(&payload);
        // Corrupt one byte anywhere in the frame.
        let idx = rng.usize_in(0, wire.len() - 1);
        let flip = 1u8 << rng.usize_in(0, 7);
        wire[idx] ^= flip;
        // Append a known-good packet: the framer must recover and parse it.
        wire.extend_from_slice(&encode_packet(b"recovery"));
        let (packets, _) = drain(&wire);
        assert_eq!(
            packets.last().map(Vec::as_slice),
            Some(&b"recovery"[..]),
            "framer failed to resynchronise after corrupting byte {idx}"
        );
    }
}

#[test]
fn truncated_packets_never_panic() {
    let mut rng = XorShift64Star::new(0x5eed_0003);
    for _ in 0..500 {
        let payload = random_payload(&mut rng);
        let wire = encode_packet(&payload);
        let cut = rng.usize_in(0, wire.len());
        let mut bytes = wire[..cut].to_vec();
        bytes.extend_from_slice(&encode_packet(b"after"));
        // Must not panic; the trailing good packet parses unless the cut
        // left the framer mid-packet swallowing it as payload — in which
        // case a later flush still must not panic.
        let _ = drain(&bytes);
    }
}

#[test]
fn dangling_escape_before_checksum_is_an_error() {
    // `}` as the final payload byte: the escaped byte never arrives.
    // Checksum is over raw bytes, so frame a payload ending in the escape
    // byte by hand.
    let raw = b"ab\x7d";
    let sum: u8 = raw.iter().fold(0u8, |a, &b| a.wrapping_add(b));
    let mut wire = Vec::from(&b"$ab\x7d#"[..]);
    wire.extend_from_slice(format!("{sum:02x}").as_bytes());
    let (packets, errors) = drain(&wire);
    assert!(packets.is_empty());
    assert_eq!(errors, 1);
}

#[test]
fn random_garbage_streams_never_panic() {
    let mut rng = XorShift64Star::new(0x5eed_0004);
    let mut f = Framer::new();
    for _ in 0..20_000 {
        let b = rng.u64_in(0, 255) as u8;
        let _ = f.push(b);
    }
    // And the framer still works afterwards.
    let (packets, _) = {
        let mut f2 = Framer::new();
        let mut packets = Vec::new();
        let mut errors = 0;
        for item in f2.push_bytes(&encode_packet(b"alive")) {
            match item {
                Ok(Item::Packet(p)) => packets.push(p),
                Ok(_) => {}
                Err(_) => errors += 1,
            }
        }
        (packets, errors)
    };
    assert_eq!(packets, vec![b"alive".to_vec()]);
}

#[test]
fn oversized_payload_is_rejected_without_buffering_it_all() {
    let mut f = Framer::new();
    assert!(f.push(b'$').is_none());
    let mut got_error = false;
    // Stream MAX_PAYLOAD + 2 payload bytes; the framer must reject at the
    // cap rather than grow without bound.
    for i in 0..=(MAX_PAYLOAD + 1) {
        if let Some(item) = f.push(b'A') {
            assert!(item.is_err(), "unexpected item at byte {i}");
            got_error = true;
            break;
        }
    }
    assert!(got_error, "oversized payload was silently accepted");
    // Recovery: a fresh packet parses.
    let items = f.push_bytes(&encode_packet(b"ok"));
    assert!(items
        .iter()
        .any(|i| matches!(i, Ok(Item::Packet(p)) if p == b"ok")));
}

/// The session as it was before packets were served in one pass: a framer
/// that buffers the raw payload and unescapes it at the checksum, a
/// `String` per request and per reply, and `encode_packet` per reply. Kept
/// as the reference the one-pass session must match byte for byte.
mod oracle {
    use mpsoc_gdbrsp::packet::{from_hex, parse_hex_u64, to_hex, Item, MAX_PAYLOAD};
    use mpsoc_gdbrsp::{Error, Result, StopReason, Target, WatchKind, NUM_REGS};

    const ESCAPE: u8 = 0x7d;

    pub fn encode_packet(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 4);
        out.push(b'$');
        let mut sum = 0u8;
        for &b in payload {
            if matches!(b, b'$' | b'#' | b'*' | ESCAPE) {
                let esc = b ^ 0x20;
                out.push(ESCAPE);
                out.push(esc);
                sum = sum.wrapping_add(ESCAPE).wrapping_add(esc);
            } else {
                out.push(b);
                sum = sum.wrapping_add(b);
            }
        }
        out.extend_from_slice(format!("#{sum:02x}").as_bytes());
        out
    }

    #[derive(Clone, Copy)]
    enum State {
        Idle,
        Payload,
        Csum0,
        Csum1(u8),
    }

    struct Framer {
        state: State,
        raw: Vec<u8>,
        sum: u8,
    }

    fn hex_val(b: u8) -> Option<u8> {
        (b as char).to_digit(16).map(|d| d as u8)
    }

    impl Framer {
        fn push(&mut self, byte: u8) -> Option<Result<Item>> {
            let bad_digit = |byte: u8| Error::Frame(format!("non-hex checksum digit {byte:#04x}"));
            match self.state {
                State::Idle => match byte {
                    b'+' => Some(Ok(Item::Ack)),
                    b'-' => Some(Ok(Item::Nak)),
                    0x03 => Some(Ok(Item::Interrupt)),
                    b'$' => {
                        self.state = State::Payload;
                        self.raw.clear();
                        self.sum = 0;
                        None
                    }
                    _ => None,
                },
                State::Payload => match byte {
                    b'#' => {
                        self.state = State::Csum0;
                        None
                    }
                    b'$' => {
                        self.raw.clear();
                        self.sum = 0;
                        None
                    }
                    _ => {
                        if self.raw.len() >= MAX_PAYLOAD {
                            self.state = State::Idle;
                            return Some(Err(Error::Frame("payload too long".into())));
                        }
                        self.raw.push(byte);
                        self.sum = self.sum.wrapping_add(byte);
                        None
                    }
                },
                State::Csum0 => {
                    let Some(hi) = hex_val(byte) else {
                        self.state = State::Idle;
                        return Some(Err(bad_digit(byte)));
                    };
                    self.state = State::Csum1(hi);
                    None
                }
                State::Csum1(hi) => {
                    self.state = State::Idle;
                    let Some(lo) = hex_val(byte) else {
                        return Some(Err(bad_digit(byte)));
                    };
                    if hi * 16 + lo != self.sum {
                        return Some(Err(Error::Frame("checksum mismatch".into())));
                    }
                    Some(unescape(&self.raw).map(Item::Packet))
                }
            }
        }
    }

    fn unescape(raw: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(raw.len());
        let mut i = 0;
        while i < raw.len() {
            if raw[i] == ESCAPE {
                let Some(&next) = raw.get(i + 1) else {
                    return Err(Error::Frame("trailing escape byte".into()));
                };
                out.push(next ^ 0x20);
                i += 2;
            } else {
                out.push(raw[i]);
                i += 1;
            }
        }
        Ok(out)
    }

    enum Reply {
        Text(String),
        None,
    }

    pub struct Session<T: Target> {
        target: T,
        framer: Framer,
        ack_mode: bool,
        current_core: usize,
        last_stop: Option<StopReason>,
        cont_budget: u64,
        finished: bool,
    }

    fn hex(s: &str) -> Result<u64> {
        parse_hex_u64(s.as_bytes())
    }

    fn split_addr_len(s: &str) -> Result<(u32, u32)> {
        let (a, l) = s
            .split_once(',')
            .ok_or_else(|| Error::Packet("addr,len".into()))?;
        let word = |h: &str| u32::try_from(hex(h)?).map_err(|_| Error::Packet("wide".into()));
        Ok((word(a)?, word(l)?))
    }

    impl<T: Target> Session<T> {
        pub fn new(target: T, cont_budget: u64) -> Self {
            Session {
                target,
                framer: Framer {
                    state: State::Idle,
                    raw: Vec::new(),
                    sum: 0,
                },
                ack_mode: true,
                current_core: 0,
                last_stop: None,
                cont_budget,
                finished: false,
            }
        }

        pub fn finished(&self) -> bool {
            self.finished
        }

        pub fn handle_bytes(&mut self, bytes: &[u8]) -> Vec<u8> {
            let items: Vec<_> = bytes.iter().filter_map(|&b| self.framer.push(b)).collect();
            let mut out = Vec::new();
            for item in items {
                match item {
                    Ok(Item::Packet(p)) => {
                        if self.ack_mode {
                            out.push(b'+');
                        }
                        let text = String::from_utf8_lossy(&p).into_owned();
                        let reply = self
                            .command(&text)
                            .unwrap_or_else(|_| Reply::Text("E01".into()));
                        if let Reply::Text(s) = reply {
                            out.extend_from_slice(&encode_packet(s.as_bytes()));
                        }
                    }
                    Ok(_) => {}
                    Err(_) => {
                        if self.ack_mode {
                            out.push(b'-');
                        }
                    }
                }
            }
            out
        }

        fn command(&mut self, text: &str) -> Result<Reply> {
            let mut chars = text.chars();
            let head = chars.next().unwrap_or('\0');
            let rest = chars.as_str();
            Ok(match head {
                '?' => Reply::Text(self.stop_reply_text()),
                'g' => {
                    let regs = self.target.read_registers(self.current_core)?;
                    let bytes: Vec<u8> = regs.iter().flat_map(|r| r.to_le_bytes()).collect();
                    Reply::Text(to_hex(&bytes))
                }
                'G' => {
                    let bytes = from_hex(rest)?;
                    if bytes.len() != NUM_REGS * 8 {
                        return Err(Error::Packet("G length".into()));
                    }
                    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
                        let v = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
                        self.target.write_register(self.current_core, i, v)?;
                    }
                    Reply::Text("OK".into())
                }
                'p' => {
                    let n = hex(rest)? as usize;
                    let regs = self.target.read_registers(self.current_core)?;
                    let v = *regs
                        .get(n)
                        .ok_or_else(|| Error::Packet("register".into()))?;
                    Reply::Text(to_hex(&v.to_le_bytes()))
                }
                'P' => {
                    let (n, val) = rest
                        .split_once('=')
                        .ok_or_else(|| Error::Packet("P".into()))?;
                    let n = hex(n)? as usize;
                    let bytes = from_hex(val)?;
                    if bytes.len() != 8 {
                        return Err(Error::Packet("P length".into()));
                    }
                    let v = u64::from_le_bytes(bytes.try_into().expect("checked length"));
                    self.target.write_register(self.current_core, n, v)?;
                    Reply::Text("OK".into())
                }
                'm' => {
                    let (addr, len) = split_addr_len(rest)?;
                    let words = self.target.read_mem(addr, len)?;
                    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                    Reply::Text(to_hex(&bytes))
                }
                'M' => {
                    let (head, data) = rest
                        .split_once(':')
                        .ok_or_else(|| Error::Packet("M".into()))?;
                    let (addr, len) = split_addr_len(head)?;
                    let bytes = from_hex(data)?;
                    if bytes.len() != len as usize * 8 {
                        return Err(Error::Packet("M length".into()));
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
                        let stop = match first.chars().next().unwrap_or('c') {
                            's' | 'S' => self.target.step()?,
                            _ => self.target.cont(self.cont_budget)?,
                        };
                        self.remember(stop)
                    } else {
                        Reply::Text(String::new())
                    }
                }
                'H' => {
                    let tid = rest.get(1..).unwrap_or("");
                    if tid != "-1" && tid != "0" && !tid.is_empty() {
                        let id = hex(tid)? as usize;
                        if id < 1 || id > self.target.num_cores() {
                            return Err(Error::Packet("thread".into()));
                        }
                        self.current_core = id - 1;
                    }
                    Reply::Text("OK".into())
                }
                'T' => {
                    let id = hex(rest)? as usize;
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
                (Some(t), Some(a), Some(l)) => (t, hex(a)? as u32, hex(l)? as u32),
                _ => return Err(Error::Packet("Z".into())),
            };
            match ty {
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
            if rest.strip_prefix("Supported").is_some() {
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
                    Err(e) => Reply::Text(to_hex(format!("error: {e}\n").as_bytes())),
                });
            }
            Ok(Reply::Text(String::new()))
        }

        fn remember(&mut self, stop: StopReason) -> Reply {
            self.last_stop = Some(stop);
            Reply::Text(self.stop_reply_text())
        }

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
                Some(StopReason::SignalWatch { .. }) => "S05".into(),
                Some(StopReason::Exited) => "W00".into(),
                Some(StopReason::Budget) => "S02".into(),
                Some(StopReason::Fault(_)) => "S0b".into(),
            }
        }
    }
}

/// Two identical two-core targets: one loop that stores to and loads from
/// word 0x40 thirty times and halts, one idle core.
fn oracle_pair() -> (Session<DebugTarget>, oracle::Session<DebugTarget>) {
    let target = || {
        let mut p = PlatformBuilder::new()
            .cores(2, Frequency::mhz(100))
            .shared_words(512)
            .cache(None)
            .build()
            .expect("platform builds");
        let prog = assemble(
            "movi r1, 0\nmovi r3, 30\nloop: addi r1, r1, 1\n\
             movi r2, 0x40\nst r1, r2, 0\nld r4, r2, 0\nblt r1, r3, loop\nhalt",
        )
        .expect("program assembles");
        p.load_program(0, prog, 0).expect("program loads");
        DebugTarget::new(Debugger::new(p))
    };
    let mut session = Session::new(target());
    session.set_cont_budget(ORACLE_CONT_BUDGET);
    (session, oracle::Session::new(target(), ORACLE_CONT_BUDGET))
}

/// A `c` runs at most this many steps, so a corpus reaches the program's
/// end only after several.
const ORACLE_CONT_BUDGET: u64 = 9;

/// Feeds `chunk` to both sessions — alternately through `handle_bytes` and
/// `handle_bytes_into` after bytes already in the buffer — and asserts the
/// same bytes come back.
fn serve_both(
    new: &mut Session<DebugTarget>,
    old: &mut oracle::Session<DebugTarget>,
    chunk: &[u8],
    through_into: bool,
) {
    let want = old.handle_bytes(chunk);
    let got = if through_into {
        let mut out = b"earlier".to_vec();
        new.handle_bytes_into(chunk, &mut out);
        assert_eq!(&out[..7], b"earlier", "handle_bytes_into appends");
        out.split_off(7)
    } else {
        new.handle_bytes(chunk)
    };
    assert_eq!(
        got.escape_ascii().to_string(),
        want.escape_ascii().to_string(),
        "reply to {}",
        chunk.escape_ascii()
    );
    assert_eq!(
        new.finished(),
        old.finished(),
        "after {}",
        chunk.escape_ascii()
    );
}

/// A hex number of 1..=3 random digits, or a malformed one.
fn number(rng: &mut XorShift64Star) -> String {
    match rng.usize_in(0, 9) {
        0 => String::new(),
        1 => "1".repeat(17), // wider than 64 bits
        2 => "zz".into(),
        3 => "100000000".into(), // wider than 32 bits
        _ => format!("{:x}", rng.u64_in(0, 0x240)),
    }
}

/// `n` bytes as hex, sometimes with an odd length or a non-hex digit.
fn hex_data(rng: &mut XorShift64Star, n: usize) -> String {
    let bytes: Vec<u8> = (0..n).map(|_| rng.u64_in(0, 255) as u8).collect();
    let mut s = to_hex(&bytes);
    match rng.usize_in(0, 9) {
        0 => s.push('a'),
        1 if !s.is_empty() => s.replace_range(0..1, "g"),
        _ => {}
    }
    s
}

const MONITOR: [&str; 14] = [
    "where",
    "help",
    "",
    "checkpoint",
    "checkpoints",
    "time-travel 4 4",
    "step-back",
    "reverse-continue",
    "state-checksum",
    "stimulus-log",
    "stimulus-record poke 0x41 7",
    "watch-signal irq0",
    "no $such# *command} ",
    "time-travel 0 0",
];

/// One request payload: every supported packet letter, well-formed and
/// not, plus unknown packets and raw bytes.
fn request(rng: &mut XorShift64Star) -> Vec<u8> {
    let text = match rng.usize_in(0, 21) {
        0 => "?".to_string(),
        1 => "g".into(),
        2 => {
            let n = if rng.chance_pct(70) { 17 * 8 } else { 8 };
            format!("G{}", hex_data(rng, n))
        }
        3 => format!("p{}", number(rng)),
        4 if rng.chance_pct(40) => "P10=0000000000000000".into(), // pc back to 0
        4 => {
            let n = if rng.chance_pct(80) { 8 } else { 7 };
            format!("P{}={}", number(rng), hex_data(rng, n))
        }
        5 | 6 => {
            let len = rng.u64_in(0, 6);
            format!("m{},{len:x}", number(rng))
        }
        7 => {
            let len = rng.usize_in(0, 3);
            let n = if rng.chance_pct(80) {
                len * 8
            } else {
                len * 8 + 1
            };
            format!("M{},{len:x}:{}", number(rng), hex_data(rng, n))
        }
        8 | 9 => "s".into(),
        10 => "c".into(),
        11 => [
            "vCont?",
            "vCont;c",
            "vCont;s:1",
            "vCont;S05",
            "vCont;",
            "vFoo",
        ][rng.usize_in(0, 5)]
        .into(),
        12 => {
            let z = if rng.chance_pct(50) { 'Z' } else { 'z' };
            let ty = rng.usize_in(0, 5);
            match rng.usize_in(0, 4) {
                0 => format!("{z}{ty}"),
                1 => format!("{z}{ty},{}", number(rng)),
                _ => format!(
                    "{z}{ty},{},{}",
                    ["2", "4", "40", "41"][rng.usize_in(0, 3)],
                    number(rng)
                ),
            }
        }
        13 => {
            let op = ['g', 'c', 'x'][rng.usize_in(0, 2)];
            let tid = ["0", "-1", "1", "2", "3", "", "zz"][rng.usize_in(0, 6)];
            format!("H{op}{tid}")
        }
        14 => format!("T{}", ["1", "2", "3", "0", "", "q"][rng.usize_in(0, 5)]),
        15 => [
            "qSupported:swbreak+;hwbreak+",
            "qC",
            "qfThreadInfo",
            "qsThreadInfo",
            "qAttached",
            "qXfer:features:read:target.xml:0,ffb",
            "q",
        ][rng.usize_in(0, 6)]
        .into(),
        16 => {
            let cmd = MONITOR[rng.usize_in(0, MONITOR.len() - 1)];
            match rng.usize_in(0, 9) {
                0 => format!("qRcmd,{cmd}"),                       // not hex
                1 => format!("qRcmd,{}0", to_hex(cmd.as_bytes())), // odd length
                _ => format!("qRcmd,{}", to_hex(cmd.as_bytes())),
            }
        }
        17 => ["QStartNoAckMode", "QNonStop:1", "Q"][rng.usize_in(0, 2)].into(),
        18 => ["D", "k", "", "!", "X0,0:", "bc"][rng.usize_in(0, 5)].into(),
        _ => {
            let len = rng.usize_in(0, 12);
            return (0..len).map(|_| rng.u64_in(0, 255) as u8).collect();
        }
    };
    let mut bytes = text.into_bytes();
    // Mutate one byte of one request in eight, to any value.
    if !bytes.is_empty() && rng.chance_pct(12) {
        let at = rng.usize_in(0, bytes.len() - 1);
        bytes[at] = rng.u64_in(0, 255) as u8;
    }
    bytes
}

/// The wire form of one request: usually clean, sometimes corrupt,
/// truncated, ending in a dangling escape, or wrapped in acks and noise.
fn wire(rng: &mut XorShift64Star, payload: &[u8]) -> Vec<u8> {
    let mut wire = encode_packet(payload);
    match rng.usize_in(0, 19) {
        0 => {
            let at = rng.usize_in(0, wire.len() - 1);
            wire[at] ^= 1 << rng.usize_in(0, 7);
        }
        1 => wire.truncate(rng.usize_in(0, wire.len())),
        2 => {
            let raw = [payload, b"\x7d"].concat();
            let sum = raw.iter().fold(0u8, |a, &b| a.wrapping_add(b));
            wire = [b"$", &raw[..], format!("#{sum:02x}").as_bytes()].concat();
        }
        3 => wire = [&b"+-\x03\r\nnoise"[..], &wire].concat(),
        _ => {}
    }
    wire
}

/// Replays seeded request streams through the one-pass session and the
/// oracle, in ack and no-ack mode, delivered in random chunks.
#[test]
fn one_pass_session_replies_like_the_oracle() {
    let mut rng = XorShift64Star::new(0x5eed_0005);
    for trial in 0..200 {
        let (mut new, mut old) = oracle_pair();
        let mut stream = Vec::new();
        if trial % 2 == 1 {
            stream.extend(encode_packet(b"QStartNoAckMode"));
        }
        for _ in 0..rng.usize_in(20, 80) {
            let payload = request(&mut rng);
            stream.extend(wire(&mut rng, &payload));
        }
        let mut rest = &stream[..];
        let mut through_into = false;
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(rng.usize_in(1, rest.len().min(64)));
            serve_both(&mut new, &mut old, chunk, through_into);
            through_into = !through_into;
            rest = tail;
        }
    }
}

/// Every byte value: framed and decoded like the oracle's encoder, and in
/// each position a request reads it from, served like the oracle.
#[test]
fn every_byte_value_frames_and_serves_like_the_oracle() {
    let every: Vec<u8> = (0u8..=255).collect();
    assert_eq!(encode_packet(&every), oracle::encode_packet(&every));
    let (packets, errors) = drain(&encode_packet(&every));
    assert_eq!((packets, errors), (vec![every], 0));

    for ack in [true, false] {
        let (mut new, mut old) = oracle_pair();
        if !ack {
            serve_both(&mut new, &mut old, &encode_packet(b"QStartNoAckMode"), true);
        }
        for b in 0u8..=255 {
            let monitor = to_hex(&[b"x$#*}", &[b][..]].concat());
            for payload in [
                vec![b],
                vec![b'm', b],
                vec![b'H', b],
                vec![b'H', b'g', b],
                vec![b'H', b, b'1'],
                vec![b'p', b],
                vec![b'T', b],
                vec![b'Z', b'0', b',', b, b',', b'4'],
                [b"vCont;", &[b][..]].concat(),
                [b"qRcmd,", &[b][..]].concat(),
                [b"qRcmd,", monitor.as_bytes()].concat(),
            ] {
                serve_both(&mut new, &mut old, &encode_packet(&payload), b % 2 == 0);
            }
        }
    }
}
