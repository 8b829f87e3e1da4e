//! GDB Remote Serial Protocol packet framing.
//!
//! The wire format is `$<payload>#<checksum>` where the checksum is the
//! modulo-256 sum of the payload bytes *as transmitted*, written as two
//! lowercase hex digits. Payload bytes that collide with the framing
//! characters (`$`, `#`, the escape byte `}` = 0x7d, and the run-length
//! marker `*`) are escaped as `0x7d` followed by the byte XOR 0x20.
//! A receiver acknowledges every well-formed packet with `+` and requests
//! retransmission of a corrupt one with `-` (until
//! `QStartNoAckMode` turns acknowledgements off).
//!
//! Both directions take one pass over the bytes and allocate nothing once
//! their buffers have grown to the largest packet seen:
//!
//! * [`Framer`] is an incremental parser: feed it bytes as they arrive and
//!   it verifies the checksum and unescapes the payload as it goes, into a
//!   buffer it owns and reuses. The session serves each packet straight
//!   from that buffer; [`Framer::push`] / [`Framer::push_bytes`] copy it
//!   out as an owned [`Item`] for clients. The framer never panics on
//!   hostile input — corrupt checksums, truncated escapes, and oversized
//!   payloads surface as [`Error::Frame`] values and the framer
//!   resynchronises on the next `$`.
//! * A reply is written into the caller's transmit buffer as it is
//!   produced: `$`, the payload, then `#xx`, its checksum summed over the
//!   payload where it lies. Hex digits never collide with the framing
//!   characters, so hex replies (`g`, `m`, `p`, `qRcmd` output) and the
//!   numbers in stop replies are written from a table with no escape
//!   check; only free text takes it. [`encode_packet`] is that writer's
//!   escaping path.

use crate::error::{Error, Result};

/// Upper bound on a single packet's (escaped) payload size. Real GDB
/// negotiates ~16 KiB via `PacketSize`; anything past this limit is a
/// protocol violation or an attack, and is rejected without buffering.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// The RSP escape byte.
const ESCAPE: u8 = 0x7d;
/// GDB's Ctrl-C interrupt, sent outside any packet.
const INTERRUPT: u8 = 0x03;

/// One framed protocol element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Item {
    /// A complete, checksum-verified packet payload (unescaped).
    Packet(Vec<u8>),
    /// A `+` acknowledgement.
    Ack,
    /// A `-` retransmission request.
    Nak,
    /// An out-of-band interrupt (0x03).
    Interrupt,
}

/// What one byte completed: an [`Item`] whose packet payload stays in the
/// framer ([`Framer::payload`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Event {
    Packet,
    Ack,
    Nak,
    Interrupt,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Between packets; `+`/`-`/0x03 are meaningful, other bytes noise.
    Idle,
    /// Inside `$...`, accumulating payload bytes.
    Payload,
    /// Seen `#`, waiting for the first checksum digit.
    Csum0,
    /// First checksum digit in hand, waiting for the second.
    Csum1(u8),
}

/// Incremental RSP frame parser.
#[derive(Debug)]
pub struct Framer {
    state: State,
    /// Unescaped payload of the in-flight packet, or of the one just
    /// completed. Cleared, never shrunk, at each `$`.
    payload: Vec<u8>,
    /// Raw (still escaped) length of the in-flight payload.
    raw_len: usize,
    /// Running modulo-256 sum of the raw payload bytes.
    sum: u8,
    /// The last raw byte was an escape whose escaped byte has not arrived.
    escaped: bool,
}

impl Framer {
    /// A framer in the idle state.
    pub fn new() -> Self {
        Framer {
            state: State::Idle,
            payload: Vec::new(),
            raw_len: 0,
            sum: 0,
            escaped: false,
        }
    }

    /// Feeds one byte; returns a completed item or error, if this byte
    /// finished one. Errors reset the framer to idle — parsing resumes at
    /// the next `$`.
    pub fn push(&mut self, byte: u8) -> Option<Result<Item>> {
        let event = self.feed(byte)?;
        Some(event.map(|e| match e {
            Event::Packet => Item::Packet(self.payload.clone()),
            Event::Ack => Item::Ack,
            Event::Nak => Item::Nak,
            Event::Interrupt => Item::Interrupt,
        }))
    }

    /// Feeds a byte slice; returns every item (or error) completed by it.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Vec<Result<Item>> {
        bytes.iter().filter_map(|&b| self.push(b)).collect()
    }

    /// The payload of the packet the last [`Event::Packet`] completed.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The framer's state machine: [`push`](Framer::push) without copying
    /// a completed packet out of [`payload`](Framer::payload).
    pub(crate) fn feed(&mut self, byte: u8) -> Option<Result<Event>> {
        match self.state {
            State::Idle => match byte {
                b'+' => Some(Ok(Event::Ack)),
                b'-' => Some(Ok(Event::Nak)),
                INTERRUPT => Some(Ok(Event::Interrupt)),
                b'$' => {
                    self.state = State::Payload;
                    self.restart();
                    None
                }
                // Line noise between packets is explicitly tolerated.
                _ => None,
            },
            State::Payload => match byte {
                b'#' => {
                    self.state = State::Csum0;
                    None
                }
                b'$' => {
                    // A packet restarted mid-flight: drop the partial one.
                    self.restart();
                    None
                }
                _ => {
                    if self.raw_len >= MAX_PAYLOAD {
                        self.state = State::Idle;
                        return Some(Err(Error::Frame(format!(
                            "payload exceeds {MAX_PAYLOAD} bytes"
                        ))));
                    }
                    self.raw_len += 1;
                    self.sum = self.sum.wrapping_add(byte);
                    if self.escaped {
                        self.payload.push(byte ^ 0x20);
                        self.escaped = false;
                    } else if byte == ESCAPE {
                        self.escaped = true;
                    } else {
                        self.payload.push(byte);
                    }
                    None
                }
            },
            State::Csum0 => match hex_val(byte) {
                Some(hi) => {
                    self.state = State::Csum1(hi);
                    None
                }
                None => {
                    self.state = State::Idle;
                    Some(Err(Error::Frame(format!(
                        "non-hex checksum digit {byte:#04x}"
                    ))))
                }
            },
            State::Csum1(hi) => {
                self.state = State::Idle;
                let Some(lo) = hex_val(byte) else {
                    return Some(Err(Error::Frame(format!(
                        "non-hex checksum digit {byte:#04x}"
                    ))));
                };
                let expect = hi * 16 + lo;
                if expect != self.sum {
                    return Some(Err(Error::Frame(format!(
                        "checksum mismatch: packet says {expect:#04x}, computed {:#04x}",
                        self.sum
                    ))));
                }
                // The escaped byte never arrived — a truncation the
                // checksum cannot catch when the truncated form happens to
                // re-frame.
                if self.escaped {
                    return Some(Err(Error::Frame("trailing escape byte".into())));
                }
                Some(Ok(Event::Packet))
            }
        }
    }

    /// Empties the in-flight packet at a `$`.
    fn restart(&mut self) {
        self.payload.clear();
        self.raw_len = 0;
        self.sum = 0;
        self.escaped = false;
    }
}

impl Default for Framer {
    fn default() -> Self {
        Framer::new()
    }
}

/// Frames `payload` into a transmit-ready `$...#xx` byte vector, escaping
/// where required.
pub fn encode_packet(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    let mut w = PacketWriter::begin(&mut out);
    w.text(payload);
    w.finish();
    out
}

/// One reply packet being framed straight into a transmit buffer: `$` on
/// [`begin`](PacketWriter::begin), payload bytes as they are produced, and
/// on [`finish`](PacketWriter::finish) `#` plus the checksum, summed over
/// the finished payload in place.
pub(crate) struct PacketWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Index of the first payload byte in `out` (just past the `$`).
    start: usize,
}

impl<'a> PacketWriter<'a> {
    /// Opens a packet at the end of `out`.
    pub(crate) fn begin(out: &'a mut Vec<u8>) -> Self {
        out.push(b'$');
        let start = out.len();
        PacketWriter { out, start }
    }

    /// Free text, escaping each framing byte.
    pub(crate) fn text(&mut self, bytes: &[u8]) {
        for &b in bytes {
            if matches!(b, b'$' | b'#' | b'*' | ESCAPE) {
                self.out.extend_from_slice(&[ESCAPE, b ^ 0x20]);
            } else {
                self.out.push(b);
            }
        }
    }

    /// `bytes` as lowercase hex digit pairs.
    pub(crate) fn hex(&mut self, bytes: &[u8]) {
        let digits = self.grow(bytes.len() * 2);
        for (pair, &b) in digits.as_chunks_mut::<2>().0.iter_mut().zip(bytes) {
            *pair = HEX_PAIRS[usize::from(b)];
        }
    }

    /// Each word as the hex of its 8 little-endian bytes (the `g` / `m`
    /// reply body).
    pub(crate) fn hex_words(&mut self, words: &[u64]) {
        let digits = self.grow(words.len() * 16);
        for (word_digits, w) in digits.as_chunks_mut::<16>().0.iter_mut().zip(words) {
            let pairs = word_digits.as_chunks_mut::<2>().0;
            for (pair, b) in pairs.iter_mut().zip(w.to_le_bytes()) {
                *pair = HEX_PAIRS[usize::from(b)];
            }
        }
    }

    /// `v` in lowercase hex without leading zeros (`{v:x}`).
    pub(crate) fn num(&mut self, v: u64) {
        let mut digits = [0u8; 16];
        let mut i = digits.len();
        let mut v = v;
        loop {
            i -= 1;
            digits[i] = HEX_DIGITS[(v & 0xf) as usize];
            v >>= 4;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&digits[i..]);
    }

    /// Discards the payload written so far (an error reply replaces a
    /// partial one).
    pub(crate) fn clear(&mut self) {
        self.out.truncate(self.start);
    }

    /// Closes the packet with `#` and its checksum.
    pub(crate) fn finish(self) {
        let sum = self.out[self.start..]
            .iter()
            .fold(0u8, |s, &b| s.wrapping_add(b));
        let [hi, lo] = HEX_PAIRS[usize::from(sum)];
        self.out.extend_from_slice(&[b'#', hi, lo]);
    }

    /// `n` more payload bytes for the caller to fill.
    fn grow(&mut self, n: usize) -> &mut [u8] {
        let at = self.out.len();
        self.out.resize(at + n, 0);
        &mut self.out[at..]
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// The two lowercase hex digits of every byte value.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut pairs = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        pairs[b] = [HEX_DIGITS[b >> 4], HEX_DIGITS[b & 0xf]];
        b += 1;
    }
    pairs
};

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Hex-encodes bytes (lowercase), the RSP convention for binary payloads
/// such as `qRcmd` command text and console output.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        let [hi, lo] = HEX_PAIRS[usize::from(b)];
        s.push(char::from(hi));
        s.push(char::from(lo));
    }
    s
}

/// Decodes an even-length hex string into bytes.
///
/// # Errors
///
/// [`Error::Packet`] on odd length or a non-hex digit.
pub fn from_hex(s: &str) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(s.len() / 2);
    decode_hex_into(s.as_bytes(), &mut out)?;
    Ok(out)
}

/// Decodes even-length hex digits into `out`, replacing its contents.
///
/// # Errors
///
/// As [`from_hex`].
pub(crate) fn decode_hex_into(b: &[u8], out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    let (pairs, []) = b.as_chunks::<2>() else {
        return Err(Error::Packet(format!(
            "odd-length hex string ({})",
            b.len()
        )));
    };
    for pair in pairs {
        match (hex_val(pair[0]), hex_val(pair[1])) {
            (Some(h), Some(l)) => out.push(h * 16 + l),
            _ => {
                return Err(Error::Packet(format!(
                    "non-hex byte pair {:?}",
                    String::from_utf8_lossy(pair)
                )))
            }
        }
    }
    Ok(())
}

/// Parses a big-endian hex number (the RSP address/length convention).
///
/// # Errors
///
/// [`Error::Packet`] on empty input, a non-hex digit, or overflow past 64
/// bits.
pub fn parse_hex_u64(s: &[u8]) -> Result<u64> {
    let quoted = || String::from_utf8_lossy(s);
    if s.is_empty() {
        return Err(Error::Packet("empty hex number".into()));
    }
    if s.len() > 16 {
        return Err(Error::Packet(format!(
            "hex number too wide: {:?}",
            quoted()
        )));
    }
    let mut v = 0u64;
    for &b in s {
        let d =
            hex_val(b).ok_or_else(|| Error::Packet(format!("non-hex digit in {:?}", quoted())))?;
        v = (v << 4) | u64::from(d);
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_packet(bytes: &[u8]) -> Item {
        let mut f = Framer::new();
        let items: Vec<_> = f.push_bytes(bytes).into_iter().collect();
        assert_eq!(items.len(), 1, "expected one item from {bytes:?}");
        items.into_iter().next().unwrap().expect("well-formed")
    }

    #[test]
    fn round_trips_plain_payload() {
        let wire = encode_packet(b"g");
        assert_eq!(wire, b"$g#67");
        assert_eq!(one_packet(&wire), Item::Packet(b"g".to_vec()));
    }

    #[test]
    fn round_trips_every_byte_value() {
        let payload: Vec<u8> = (0u8..=255).collect();
        let wire = encode_packet(&payload);
        assert_eq!(one_packet(&wire), Item::Packet(payload));
    }

    #[test]
    fn acks_naks_and_interrupts_pass_through() {
        let mut f = Framer::new();
        let items: Vec<_> = f
            .push_bytes(b"+-\x03")
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(items, vec![Item::Ack, Item::Nak, Item::Interrupt]);
    }

    #[test]
    fn bad_checksum_is_an_error_then_recovers() {
        let mut f = Framer::new();
        let items = f.push_bytes(b"$g#00$g#67");
        assert_eq!(items.len(), 2);
        assert!(matches!(items[0], Err(Error::Frame(_))));
        assert_eq!(items[1].clone().unwrap(), Item::Packet(b"g".to_vec()));
    }

    #[test]
    fn noise_between_packets_is_ignored() {
        let mut f = Framer::new();
        let items = f.push_bytes(b"\r\nhello$?#3f");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].clone().unwrap(), Item::Packet(b"?".to_vec()));
    }

    #[test]
    fn restarted_packet_drops_partial() {
        let mut f = Framer::new();
        let items = f.push_bytes(b"$mAAAA$g#67");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].clone().unwrap(), Item::Packet(b"g".to_vec()));
    }

    /// The escape-free writers produce what the escaping path does.
    #[test]
    fn hex_and_number_writers_match_the_escaping_path() {
        let every_byte: Vec<u8> = (0u8..=255).collect();
        let mut hex = Vec::new();
        let mut w = PacketWriter::begin(&mut hex);
        w.hex(&every_byte);
        w.finish();
        assert_eq!(hex, encode_packet(to_hex(&every_byte).as_bytes()));

        let words = [0, 1, 0x0123_4567_89ab_cdef, u64::MAX, 0x7d23_242a];
        let mut out = Vec::new();
        let mut w = PacketWriter::begin(&mut out);
        w.hex_words(&words);
        w.finish();
        let le: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(out, encode_packet(to_hex(&le).as_bytes()));

        for v in [0, 1, 0xf, 0x10, 0xdead, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            let mut w = PacketWriter::begin(&mut out);
            w.num(v);
            w.finish();
            assert_eq!(out, encode_packet(format!("{v:x}").as_bytes()), "{v:#x}");
        }
    }

    #[test]
    fn cleared_writer_frames_only_what_follows() {
        let mut out = b"+".to_vec();
        let mut w = PacketWriter::begin(&mut out);
        w.hex_words(&[42; 3]);
        w.clear();
        w.text(b"E01");
        w.finish();
        assert_eq!(out, b"+$E01#a6");
    }

    #[test]
    fn hex_helpers_round_trip() {
        assert_eq!(to_hex(b"monitor"), "6d6f6e69746f72");
        assert_eq!(from_hex("6d6f6e69746f72").unwrap(), b"monitor".to_vec());
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
        assert_eq!(parse_hex_u64(b"dead").unwrap(), 0xdead);
        assert!(parse_hex_u64(b"").is_err());
        assert!(parse_hex_u64(b"11112222333344445").is_err());
    }
}
