//! Little-endian fixed-width wire format: [`Writer`] appends, [`Reader`]
//! consumes with bounds checks.
//!
//! The format is deliberately boring — no varints, no compression, no
//! alignment — so that the byte stream is a pure deterministic function of
//! the encoded values and the decoder is trivially auditable. Everything
//! multi-byte is little-endian; lengths are `u64` prefixes.
//!
//! The scalar accessors are `#[inline]`: each is a bounds check and a copy,
//! called once per field from `Snapshot` impls in other crates, where a
//! call per field was a fifth of a delta capture.

use crate::error::{SnapError, SnapResult};

/// Append-only byte sink for snapshot encoding.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u16` little-endian.
    #[inline]
    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64` little-endian (two's complement).
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` widened to `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a UTF-8 string as `u64` length + bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Bounds-checked cursor over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Create a reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Byte offset of the cursor from the start of the buffer. Paired with
    /// [`skip`](Reader::skip), this lets a decoder record the extent of a
    /// block on a first pass and jump over it on later passes (the delta
    /// checkpoint decoder skips the RAM block of a base image this way).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Advances the cursor `n` bytes without decoding them.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if fewer than `n` bytes remain.
    pub fn skip(&mut self, n: usize) -> SnapResult<()> {
        self.take(n).map(|_| ())
    }

    /// Error unless the reader consumed the whole buffer.
    pub fn finish(&self) -> SnapResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes(self.remaining()))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a single byte.
    #[inline]
    pub fn get_u8(&mut self) -> SnapResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; any byte other than 0 or 1 is malformed.
    #[inline]
    pub fn get_bool(&mut self) -> SnapResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::BadTag {
                what: "bool",
                tag: u64::from(b),
            }),
        }
    }

    /// Read a `u16` little-endian.
    #[inline]
    pub(crate) fn get_u16(&mut self) -> SnapResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a `u32` little-endian.
    #[inline]
    pub fn get_u32(&mut self) -> SnapResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64` little-endian.
    #[inline]
    pub fn get_u64(&mut self) -> SnapResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `i64` little-endian (two's complement).
    #[inline]
    pub fn get_i64(&mut self) -> SnapResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Read a `u64` and narrow it to `usize`.
    #[inline]
    pub fn get_usize(&mut self) -> SnapResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| SnapError::Malformed(format!("usize value {v} out of range")))
    }

    /// Read a length prefix, sanity-capped against the remaining bytes so a
    /// corrupt length cannot trigger an enormous allocation. `min_elem_size`
    /// is the smallest possible encoding of one element.
    pub fn get_len(&mut self, min_elem_size: usize) -> SnapResult<usize> {
        let n = self.get_usize()?;
        let cap = self.remaining() / min_elem_size.max(1);
        if n > cap {
            return Err(SnapError::Malformed(format!(
                "length {n} exceeds remaining capacity {cap}"
            )));
        }
        Ok(n)
    }

    /// Read exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        self.take(n)
    }

    /// Read a `u64`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> SnapResult<String> {
        self.get_str_ref().map(str::to_string)
    }

    /// [`get_str`](Reader::get_str) borrowing from the buffer, for a decoder
    /// that copies into a `String` it already owns.
    pub(crate) fn get_str_ref(&mut self) -> SnapResult<&'a str> {
        let n = self.get_len(1)?;
        std::str::from_utf8(self.take(n)?)
            .map_err(|e| SnapError::Malformed(format!("invalid UTF-8 string: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_bool(true);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_i64(-42);
        w.put_str("car-radio");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_str().unwrap(), "car-radio");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_read_is_detected() {
        let mut w = Writer::new();
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_u64(),
            Err(SnapError::Truncated {
                needed: 8,
                available: 4
            })
        ));
    }

    #[test]
    fn bogus_length_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_len(1).is_err());
    }

    #[test]
    fn bad_bool_is_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(
            r.get_bool(),
            Err(SnapError::BadTag {
                what: "bool",
                tag: 2
            })
        ));
    }

    #[test]
    fn position_and_skip_track_the_cursor() {
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_u64(2);
        w.put_u8(3);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.position(), 0);
        r.get_u32().unwrap();
        let mark = r.position();
        assert_eq!(mark, 4);
        r.skip(8).unwrap();
        assert_eq!(r.position(), mark + 8);
        assert_eq!(r.get_u8().unwrap(), 3);
        assert!(matches!(r.skip(1), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let bytes = [0u8; 3];
        let r = Reader::new(&bytes);
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes(3)));
    }
}
