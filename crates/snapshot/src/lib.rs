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
//! * [`Image`] — framing: magic, format version, payload length, and an
//!   FNV-1a 64 checksum so corrupt or truncated images are rejected
//!   before any state is touched.
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
/// Used both for image integrity checksums and as the suite's canonical
/// "state checksum" when comparing checkpointed and uncheckpointed runs.
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
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            tag => Err(SnapError::BadTag {
                what: "Option",
                tag: u64::from(tag),
            }),
        }
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
        let n = r.get_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
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
}

/// Image framing: seals a payload into a self-describing, checksummed
/// byte image and validates the frame on open.
///
/// Layout (all little-endian):
///
/// ```text
/// magic   u32    — owner-chosen constant, e.g. b"MPSS"
/// version u16    — owner-chosen format version
/// length  u64    — payload byte count
/// fnv1a64 u64    — checksum over the payload bytes
/// payload [u8]
/// ```
#[derive(Debug)]
pub struct Image;

impl Image {
    /// Frame header size in bytes.
    pub const HEADER_LEN: usize = 4 + 2 + 8 + 8;

    /// Wrap `payload` in a frame carrying `magic`, `version`, its length,
    /// and its FNV-1a 64 checksum.
    pub fn seal(magic: u32, version: u16, payload: &[u8]) -> Vec<u8> {
        Self::seal_hashed(magic, version, payload).0
    }

    /// Like [`Image::seal`], also returning the payload checksum written
    /// into the header — the one hash a seal costs, for owners that use it
    /// as the image's identity.
    pub fn seal_hashed(magic: u32, version: u16, payload: &[u8]) -> (Vec<u8>, u64) {
        let checksum = fnv1a64(payload);
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
        let computed = fnv1a64(payload);
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
        assert_eq!(sum, fnv1a64(&payload));
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
