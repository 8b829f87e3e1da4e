//! Error type for snapshot encoding and decoding.

use std::fmt;

/// Failure while decoding (or validating) a snapshot image.
///
/// Encoding is infallible by construction — [`crate::Writer`] only appends
/// to a growable buffer — so every variant here describes a malformed,
/// truncated, or incompatible *input* image.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The reader ran past the end of the buffer.
    Truncated {
        /// Bytes requested by the failing read.
        needed: usize,
        /// Bytes remaining in the buffer.
        available: usize,
    },
    /// The image does not start with the expected magic number.
    BadMagic {
        /// Magic found in the image.
        found: u32,
        /// Magic the decoder expected.
        expected: u32,
    },
    /// The image was written by an incompatible format version.
    BadVersion {
        /// What kind of image was being opened, ideally with its source
        /// location — e.g. `"platform full image (crates/platform/src/
        /// snapshot.rs)"` — so a stale image names exactly which decoder
        /// refused it. [`crate::Image::open`] fills in a generic `"image"`.
        what: &'static str,
        /// Version found in the image.
        found: u16,
        /// Version the decoder supports.
        expected: u16,
    },
    /// The payload checksum does not match the header checksum.
    ChecksumMismatch {
        /// Checksum recorded in the image header.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A tag byte (enum discriminant, type id) had no known meaning.
    BadTag {
        /// Human-readable name of the field being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A decoded value was structurally invalid (e.g. out-of-range length).
    Malformed(String),
    /// Decoding finished but bytes were left over.
    TrailingBytes(usize),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, available } => {
                write!(
                    f,
                    "snapshot truncated: needed {needed} bytes, {available} available"
                )
            }
            SnapError::BadMagic { found, expected } => {
                write!(
                    f,
                    "bad snapshot magic {found:#010x} (expected {expected:#010x})"
                )
            }
            SnapError::BadVersion {
                what,
                found,
                expected,
            } => {
                write!(
                    f,
                    "{what}: written as format v{found}, this build reads only v{expected} — \
                     old images are rejected, never reinterpreted; re-capture with the \
                     current tools"
                )
            }
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::BadTag { what, tag } => write!(f, "bad tag {tag} while decoding {what}"),
            SnapError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapError::TrailingBytes(n) => {
                write!(f, "snapshot decoded with {n} trailing bytes left over")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Convenience alias for snapshot results.
pub type SnapResult<T> = std::result::Result<T, SnapError>;
