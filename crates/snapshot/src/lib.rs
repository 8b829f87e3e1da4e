//! # mpsoc-snapshot — versioned binary checkpoint images
//!
//! Section VII of *"Programming MPSoC Platforms: Road Works Ahead!"*
//! (DATE 2009) makes deterministic, non-intrusive observability the
//! virtual platform's killer feature. This crate supplies the substrate
//! that turns observability into *time travel*: a hand-rolled, versioned,
//! zero-dependency binary serialization layer used by `mpsoc-platform` to
//! capture and restore whole-platform state bit-exactly.
//!
//! Three pieces:
//!
//! * [`wire`] — the little-endian fixed-width [`Writer`]/[`Reader`] pair.
//! * [`Snapshot`] — the save/load trait implemented by every platform
//!   component (cores, caches, memories, interconnect, peripherals,
//!   signals, pending DMA, …).
//! * [`Image`] — framing: magic, format version, payload length, and a
//!   word-wise 64-bit checksum (eight payload bytes per multiply; see
//!   [`Image`] for what it guarantees) so corrupt or truncated images are
//!   rejected before any state is touched.
//!
//! Two checksums live here on purpose. The *frame* checksum is private to
//! [`Image`] and free to change with the format version, so it is the fast
//! one. [`fnv1a64`] is the suite's public *state* checksum — platform state
//! and region checksums, `.mts` `expect sum`, the benchmark's pins are its
//! values — and stays byte-serial FNV-1a for ever.
//!
//! The design invariant the whole suite property-tests: for any platform
//! `p`, `restore(capture(p))` continues **bit-identically** to an
//! uncheckpointed run — same `StepEvent` stream, same final memory
//! checksum — under both scheduler modes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod wire;

pub use crate::error::{SnapError, SnapResult};
pub use crate::wire::{Reader, Writer};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`, seeded with the standard offset basis.
///
/// The suite's canonical "state checksum" when comparing checkpointed and
/// uncheckpointed runs. (Image frames carry a different, word-wise checksum
/// — see [`Image`].)
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_with(FNV_OFFSET, bytes)
}

/// FNV-1a 64-bit hash continuing from a previous hash value `state`.
///
/// Lets callers fold several buffers into one checksum without
/// concatenating them.
pub fn fnv1a64_with(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A type that can be written to and reconstructed from the snapshot wire
/// format.
///
/// Implementations must be *total*: every reachable runtime state of the
/// type round-trips exactly. Encoding is infallible; decoding returns
/// [`SnapError`] on malformed input.
pub trait Snapshot: Sized {
    /// Append this value's encoding to `w`.
    fn save(&self, w: &mut Writer);
    /// Decode a value previously written by [`Snapshot::save`].
    fn load(r: &mut Reader<'_>) -> SnapResult<Self>;
    /// Decode a value over `self`, reusing whatever buffers `self` owns:
    /// afterwards `self` equals what [`Snapshot::load`] returns for the same
    /// bytes, whatever it held before. On an error `self` holds a partial
    /// decode, good only for being decoded over again or dropped — so decode
    /// into a scratch value, never into live state. Overridden only where a
    /// value owns a buffer worth keeping.
    fn load_into(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        *self = Self::load(r)?;
        Ok(())
    }
}

macro_rules! scalar_snapshot {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Snapshot for $ty {
            fn save(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
                r.$get()
            }
        }
    };
}

scalar_snapshot!(u8, put_u8, get_u8);
scalar_snapshot!(u16, put_u16, get_u16);
scalar_snapshot!(u32, put_u32, get_u32);
scalar_snapshot!(u64, put_u64, get_u64);
scalar_snapshot!(i64, put_i64, get_i64);
scalar_snapshot!(bool, put_bool, get_bool);
scalar_snapshot!(usize, put_usize, get_usize);

impl Snapshot for String {
    fn save(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        r.get_str()
    }
    fn load_into(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        self.clear();
        self.push_str(r.get_str_ref()?);
        Ok(())
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        let mut out = None;
        out.load_into(r)?;
        Ok(out)
    }
    fn load_into(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        match (r.get_u8()?, &mut *self) {
            (0, _) => *self = None,
            (1, Some(v)) => v.load_into(r)?,
            (1, None) => *self = Some(T::load(r)?),
            (tag, _) => {
                return Err(SnapError::BadTag {
                    what: "Option",
                    tag: u64::from(tag),
                })
            }
        }
        Ok(())
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        let mut out = Vec::new();
        out.load_into(r)?;
        Ok(out)
    }
    fn load_into(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        let n = r.get_len(1)?;
        self.truncate(n);
        for v in self.iter_mut() {
            v.load_into(r)?;
        }
        self.reserve_exact(n - self.len());
        for _ in self.len()..n {
            self.push(T::load(r)?);
        }
        Ok(())
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        Ok((A::load(r)?, B::load(r)?))
    }
    fn load_into(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        self.0.load_into(r)?;
        self.1.load_into(r)
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn save(&self, w: &mut Writer) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::Malformed("array length mismatch".into()))
    }
    fn load_into(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        self.iter_mut().try_for_each(|v| v.load_into(r))
    }
}

/// Image framing: seals a payload into a self-describing, checksummed
/// byte image and validates the frame on open.
///
/// Layout (all little-endian):
///
/// ```text
/// magic    u32    — owner-chosen constant, e.g. b"MPSS"
/// version  u16    — owner-chosen format version
/// length   u64    — payload byte count
/// checksum u64    — word-wise checksum over the payload bytes
/// payload  [u8]
/// ```
///
/// The checksum reads the payload as little-endian `u64` words (a short
/// tail is zero-padded) and, starting from a seed mixed with the payload
/// length, does per word `h = (h ^ word) * K; h ^= h >> 32` with `K` odd:
/// one multiply per eight bytes against byte-serial FNV-1a's eight. What
/// that buys beyond speed, and what the tests pin:
///
/// * every step is a bijection of the running state for a fixed word *and*
///   of the word for a fixed state, so damage confined to one word — any
///   single-bit flip in particular — always changes the result;
/// * the fold carries high bits down. Without it a flip of bit 63 survives
///   every later multiply as a flip of bit 63 alone, and the same flip in
///   a second word cancels it;
/// * the length is part of the seed, so payloads that differ only in
///   trailing zero bytes inside the padded tail word differ.
///
/// It is an integrity check against corruption and truncation, not a
/// defence against forgery — like the FNV-1a it replaced. The function is
/// private: the value is meaningful only inside a frame (and as the
/// identity deltas name their base by), so it may change with a format
/// version, which is why [`fnv1a64`] — whose values outlive any image —
/// is a different function and does not change.
#[derive(Debug)]
pub struct Image;

/// Seed of the frame checksum (FNV-1a's offset basis, for want of a reason
/// to invent another constant).
const FRAME_SEED: u64 = FNV_OFFSET;
/// Odd multiplier of the frame checksum (2^64 / golden ratio).
const FRAME_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The frame checksum of `payload` (see [`Image`]): one pass, eight bytes
/// per step.
fn frame_checksum(payload: &[u8]) -> u64 {
    let step = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(FRAME_MUL);
        h ^ (h >> 32)
    };
    let (words, tail) = payload.as_chunks::<8>();
    let mut h = FRAME_SEED ^ payload.len() as u64;
    for word in words {
        h = step(h, u64::from_le_bytes(*word));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    h
}

impl Image {
    /// Frame header size in bytes.
    pub const HEADER_LEN: usize = 4 + 2 + 8 + 8;

    /// Wrap `payload` in a frame carrying `magic`, `version`, its length,
    /// and its checksum.
    pub fn seal(magic: u32, version: u16, payload: &[u8]) -> Vec<u8> {
        Self::seal_hashed(magic, version, payload).0
    }

    /// Like [`Image::seal`], also returning the payload checksum written
    /// into the header — the one hash a seal costs, for owners that use it
    /// as the image's identity.
    pub fn seal_hashed(magic: u32, version: u16, payload: &[u8]) -> (Vec<u8>, u64) {
        let checksum = frame_checksum(payload);
        let mut out = Vec::with_capacity(Self::HEADER_LEN + payload.len());
        out.extend_from_slice(&magic.to_le_bytes());
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(payload);
        (out, checksum)
    }

    /// Validate the frame of `image` (magic, version, length, checksum)
    /// and return the payload slice.
    ///
    /// A version mismatch is reported with the generic context `"image"`;
    /// owners of a format should prefer [`Image::open_as`] so the error
    /// names which decoder refused the stale image.
    pub fn open(image: &[u8], magic: u32, version: u16) -> SnapResult<&[u8]> {
        Self::open_as(image, magic, version, "image").map(|(payload, _)| payload)
    }

    /// Like [`Image::open`], but a version mismatch carries `what` — the
    /// image kind and, by convention, the defining source file (e.g. built
    /// with `concat!("platform full image (", file!(), ")")`) — so stale
    /// images fail with a clearly located error instead of a silent
    /// misparse further into the payload.
    ///
    /// Returns the payload together with its checksum — the header field,
    /// just verified against the one hash an open costs — so a caller that
    /// keys on it never hashes the payload again.
    pub fn open_as<'a>(
        image: &'a [u8],
        magic: u32,
        version: u16,
        what: &'static str,
    ) -> SnapResult<(&'a [u8], u64)> {
        let mut r = Reader::new(image);
        let found_magic = r.get_u32()?;
        if found_magic != magic {
            return Err(SnapError::BadMagic {
                found: found_magic,
                expected: magic,
            });
        }
        let found_version = r.get_u16()?;
        if found_version != version {
            return Err(SnapError::BadVersion {
                what,
                found: found_version,
                expected: version,
            });
        }
        let len = r.get_usize()?;
        let stored = r.get_u64()?;
        let payload = r.get_bytes(len)?;
        r.finish()?;
        let computed = frame_checksum(payload);
        if stored != computed {
            return Err(SnapError::ChecksumMismatch { stored, computed });
        }
        Ok((payload, computed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: u32 = u32::from_le_bytes(*b"TEST");

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_chaining_matches_concatenation() {
        let whole = fnv1a64(b"hello world");
        let chained = fnv1a64_with(fnv1a64(b"hello "), b"world");
        assert_eq!(whole, chained);
    }

    /// Seeded bytes for the checksum tests (xorshift64; this crate has no
    /// dependency to borrow a generator from).
    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x5EED_CAFE_F00D_u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn frame_checksum_sees_every_flip_pair_swap_and_length() {
        let payload = seeded_bytes(4096);
        let sum = frame_checksum(&payload);
        let flipped = |at: &[(usize, u32)]| {
            let mut p = payload.clone();
            for &(word, bit) in at {
                p[word * 8 + (bit / 8) as usize] ^= 1 << (bit % 8);
            }
            frame_checksum(&p)
        };
        let words = payload.len() / 8;
        for word in 0..words {
            for bit in 0..64 {
                assert_ne!(flipped(&[(word, bit)]), sum, "word {word} bit {bit}");
            }
        }
        // The same bit flipped in two different words: what a word-wise
        // multiply without the fold lets cancel at bit 63. Every pair among
        // the first 64 words, and the first word against every other.
        let near = (0..64).flat_map(|a| (a + 1..64).map(move |b| (a, b)));
        for (a, b) in near.chain((64..words).map(|b| (0, b))) {
            for bit in 0..64 {
                assert_ne!(flipped(&[(a, bit), (b, bit)]), sum, "{a}/{b} bit {bit}");
            }
        }
        // Two neighbouring words swapped.
        for word in 0..words - 1 {
            let (lo, hi) = (word * 8, word * 8 + 16);
            let mut p = payload.clone();
            p[lo..hi].rotate_left(8);
            if p != payload {
                assert_ne!(frame_checksum(&p), sum, "words {word}/{} swapped", word + 1);
            }
        }
        // Lengths 0..=17, tail bytes included: every flip of a prefix shows,
        // an appended zero byte shows (it only changes the length when it
        // lands in the padded tail word), and runs of zeros — nothing but
        // the length to tell them apart — are pairwise distinct.
        let mut zero_sums = Vec::new();
        for len in 0..=17 {
            let prefix = &payload[..len];
            let prefix_sum = frame_checksum(prefix);
            for bit in 0..len * 8 {
                let mut p = prefix.to_vec();
                p[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(frame_checksum(&p), prefix_sum, "len {len} bit {bit}");
            }
            let mut longer = prefix.to_vec();
            longer.push(0);
            assert_ne!(frame_checksum(&longer), prefix_sum, "len {len} + a zero");
            zero_sums.push(frame_checksum(&vec![0; len]));
        }
        let mut longer = payload.clone();
        longer.push(0);
        assert_ne!(frame_checksum(&longer), sum);
        zero_sums.sort_unstable();
        zero_sums.dedup();
        assert_eq!(zero_sums.len(), 18);
    }

    #[test]
    fn load_into_equals_load_whatever_it_overwrites() {
        type T = Vec<Option<(String, [u64; 2])>>;
        let values: [T; 4] = [
            vec![],
            vec![None, Some(("isr".into(), [1, 2]))],
            vec![Some((String::new(), [u64::MAX, 0])), None, None],
            vec![Some(("a-longer-label".into(), [7, 8])); 5],
        ];
        for from in &values {
            for to in &values {
                let mut w = Writer::new();
                to.save(&mut w);
                let bytes = w.into_bytes();
                let mut v = from.clone();
                let mut r = Reader::new(&bytes);
                v.load_into(&mut r).unwrap();
                r.finish().unwrap();
                assert_eq!(&v, to, "decoded over {from:?}");
                assert_eq!(T::load(&mut Reader::new(&bytes)).unwrap(), v);
            }
        }
    }

    #[test]
    fn container_round_trip() {
        let v: Vec<Option<(String, u64)>> = vec![
            None,
            Some(("isr".to_string(), 42)),
            Some((String::new(), u64::MAX)),
        ];
        let arr: [i64; 4] = [-1, 0, i64::MAX, i64::MIN];
        let mut w = Writer::new();
        v.save(&mut w);
        arr.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Vec::<Option<(String, u64)>>::load(&mut r).unwrap(), v);
        assert_eq!(<[i64; 4]>::load(&mut r).unwrap(), arr);
        r.finish().unwrap();
    }

    #[test]
    fn image_seal_open_round_trip() {
        let payload = b"platform state bytes".to_vec();
        let image = Image::seal(MAGIC, 3, &payload);
        assert_eq!(Image::open(&image, MAGIC, 3).unwrap(), payload.as_slice());
        // Both directions surface the one checksum the frame carries.
        let (sealed, sum) = Image::seal_hashed(MAGIC, 3, &payload);
        assert_eq!(sealed, image);
        assert_eq!(sum, frame_checksum(&payload));
        assert_eq!(sealed[14..22], sum.to_le_bytes());
        assert_eq!(
            Image::open_as(&image, MAGIC, 3, "test").unwrap(),
            (payload.as_slice(), sum)
        );
    }

    #[test]
    fn image_rejects_wrong_magic_and_version() {
        let image = Image::seal(MAGIC, 1, b"x");
        assert!(matches!(
            Image::open(&image, MAGIC + 1, 1),
            Err(SnapError::BadMagic { .. })
        ));
        assert!(matches!(
            Image::open(&image, MAGIC, 2),
            Err(SnapError::BadVersion { .. })
        ));
    }

    #[test]
    fn version_mismatch_names_the_refusing_decoder() {
        let image = Image::seal(MAGIC, 2, b"x");
        let err = Image::open_as(&image, MAGIC, 3, "unit-test image (here.rs)").unwrap_err();
        match &err {
            SnapError::BadVersion {
                what,
                found,
                expected,
            } => {
                assert_eq!(*what, "unit-test image (here.rs)");
                assert_eq!((*found, *expected), (2, 3));
            }
            other => panic!("unexpected {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("unit-test image (here.rs)"), "{msg}");
        assert!(msg.contains("v2") && msg.contains("v3"), "{msg}");
    }

    #[test]
    fn image_rejects_corruption_and_truncation() {
        let mut image = Image::seal(MAGIC, 1, b"important state");
        let last = image.len() - 1;
        image[last] ^= 0x40;
        assert!(matches!(
            Image::open(&image, MAGIC, 1),
            Err(SnapError::ChecksumMismatch { .. })
        ));
        image[last] ^= 0x40; // undo
        image.truncate(image.len() - 3);
        assert!(matches!(
            Image::open(&image, MAGIC, 1),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn image_rejects_trailing_garbage() {
        let mut image = Image::seal(MAGIC, 1, b"state");
        image.push(0xFF);
        assert!(matches!(
            Image::open(&image, MAGIC, 1),
            Err(SnapError::TrailingBytes(1))
        ));
    }
}
