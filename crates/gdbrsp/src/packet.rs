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
//! [`Framer`] is an incremental parser: feed it bytes as they arrive and
//! it emits complete [`Item`]s. It never panics on hostile input — corrupt
//! checksums, truncated escapes, and oversized payloads surface as
//! [`Error::Frame`] values and the framer resynchronises on the next `$`.

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
    /// Raw (still escaped) payload bytes of the in-flight packet.
    raw: Vec<u8>,
    /// Running modulo-256 sum of the raw payload bytes.
    sum: u8,
}

impl Framer {
    /// A framer in the idle state.
    pub fn new() -> Self {
        Framer {
            state: State::Idle,
            raw: Vec::new(),
            sum: 0,
        }
    }

    /// Feeds one byte; returns a completed item or error, if this byte
    /// finished one. Errors reset the framer to idle — parsing resumes at
    /// the next `$`.
    pub fn push(&mut self, byte: u8) -> Option<Result<Item>> {
        match self.state {
            State::Idle => match byte {
                b'+' => Some(Ok(Item::Ack)),
                b'-' => Some(Ok(Item::Nak)),
                INTERRUPT => Some(Ok(Item::Interrupt)),
                b'$' => {
                    self.state = State::Payload;
                    self.raw.clear();
                    self.sum = 0;
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
                    self.raw.clear();
                    self.sum = 0;
                    None
                }
                _ => {
                    if self.raw.len() >= MAX_PAYLOAD {
                        self.state = State::Idle;
                        return Some(Err(Error::Frame(format!(
                            "payload exceeds {MAX_PAYLOAD} bytes"
                        ))));
                    }
                    self.raw.push(byte);
                    self.sum = self.sum.wrapping_add(byte);
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
                Some(unescape(&self.raw).map(Item::Packet))
            }
        }
    }

    /// Feeds a byte slice; returns every item (or error) completed by it.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Vec<Result<Item>> {
        bytes.iter().filter_map(|&b| self.push(b)).collect()
    }
}

impl Default for Framer {
    fn default() -> Self {
        Framer::new()
    }
}

/// Removes RSP escapes. Fails on a trailing escape byte (the escaped byte
/// never arrived — a truncation the checksum cannot catch when the
/// truncated form happens to re-frame).
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

/// Frames `payload` into a transmit-ready `$...#xx` byte vector, escaping
/// where required.
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
    out.push(b'#');
    out.push(hex_digit(sum >> 4));
    out.push(hex_digit(sum & 0xf));
    out
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

fn hex_digit(v: u8) -> u8 {
    debug_assert!(v < 16);
    if v < 10 {
        b'0' + v
    } else {
        b'a' + v - 10
    }
}

/// Hex-encodes bytes (lowercase), the RSP convention for binary payloads
/// such as `qRcmd` command text and console output.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(hex_digit(b >> 4) as char);
        s.push(hex_digit(b & 0xf) as char);
    }
    s
}

/// Decodes an even-length hex string into bytes.
///
/// # Errors
///
/// [`Error::Packet`] on odd length or a non-hex digit.
pub fn from_hex(s: &str) -> Result<Vec<u8>> {
    let b = s.as_bytes();
    if !b.len().is_multiple_of(2) {
        return Err(Error::Packet(format!(
            "odd-length hex string ({})",
            b.len()
        )));
    }
    let mut out = Vec::with_capacity(b.len() / 2);
    for pair in b.chunks_exact(2) {
        let (hi, lo) = (hex_val(pair[0]), hex_val(pair[1]));
        match (hi, lo) {
            (Some(h), Some(l)) => out.push(h * 16 + l),
            _ => {
                return Err(Error::Packet(format!(
                    "non-hex byte pair {:?}",
                    String::from_utf8_lossy(pair)
                )))
            }
        }
    }
    Ok(out)
}

/// Parses a big-endian hex number (the RSP address/length convention).
///
/// # Errors
///
/// [`Error::Packet`] on empty input, a non-hex digit, or overflow past 64
/// bits.
pub fn parse_hex_u64(s: &str) -> Result<u64> {
    if s.is_empty() {
        return Err(Error::Packet("empty hex number".into()));
    }
    if s.len() > 16 {
        return Err(Error::Packet(format!("hex number too wide: {s:?}")));
    }
    let mut v = 0u64;
    for &b in s.as_bytes() {
        let d = hex_val(b).ok_or_else(|| Error::Packet(format!("non-hex digit in {s:?}")))?;
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

    #[test]
    fn hex_helpers_round_trip() {
        assert_eq!(to_hex(b"monitor"), "6d6f6e69746f72");
        assert_eq!(from_hex("6d6f6e69746f72").unwrap(), b"monitor".to_vec());
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
        assert_eq!(parse_hex_u64("dead").unwrap(), 0xdead);
        assert!(parse_hex_u64("").is_err());
        assert!(parse_hex_u64("11112222333344445").is_err());
    }
}
