//! # brainshift-persist
//!
//! The durability layer: a versioned, endian-stable binary format for
//! snapshotting a shard's durable state (sessions, carry-forward fields,
//! warm-start seeds, event logs) so a replacement shard resumes its
//! sessions warm.
//!
//! Three pieces, bottom to top:
//!
//! * [`Encoder`] / [`Decoder`] — little-endian primitive codec with
//!   length-prefixed containers. Every multi-byte value is written
//!   little-endian regardless of host order, so a snapshot taken on one
//!   machine restores on another.
//! * [`Persist`] — the encode/decode trait the domain crates (`sparse`,
//!   `service`, `imaging`) implement for their own types. Decoding validates: corrupt or truncated input surfaces as a
//!   typed [`PersistError`], never a panic and never a partially
//!   constructed value.
//! * [`SnapshotWriter`] / [`SnapshotReader`] — the container: an 8-byte
//!   magic, a format version, and a section table (name, offset, length,
//!   FNV-1a checksum) followed by the section payloads. The reader
//!   verifies the magic, the version, every table bound, and every
//!   section checksum *before* handing out a single payload byte.
//!
//! ## Version-evolution policy
//!
//! The format version is a single monotonically increasing `u32`
//! ([`FORMAT_VERSION`]). A reader accepts the versions it knows
//! ([`snapshot::MIN_SUPPORTED_VERSION`]`..=`[`FORMAT_VERSION`]: since v5
//! persists warm-start seeds instead of solver contexts, v1–v4 are below
//! the floor); anything newer — or older than the supported floor — is
//! [`PersistError::UnsupportedVersion`] — refuse, don't guess. Compatible
//! additions (new sections) do not bump the version: readers look
//! sections up by name and ignore names they don't know. Any change to an
//! existing section's encoding bumps the version, and the floor moves
//! with it: no decoder reads an older layout.

#![warn(missing_docs)]
// Decoding untrusted bytes must never panic: every failure is a typed
// `PersistError`. Test modules are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod codec;
pub mod error;
pub mod snapshot;

pub use codec::{fnv1a, Decoder, Encoder, Persist};
pub use error::PersistError;
pub use snapshot::{SnapshotReader, SnapshotWriter, FORMAT_VERSION, MAGIC, MIN_SUPPORTED_VERSION};

/// Encode one `Persist` value into a standalone byte buffer.
pub fn to_bytes<T: Persist>(value: &T) -> Result<Vec<u8>, PersistError> {
    let mut enc = Encoder::new();
    value.encode(&mut enc)?;
    Ok(enc.into_bytes())
}

/// Decode one `Persist` value from a standalone byte buffer, requiring
/// the buffer to be fully consumed.
pub fn from_bytes<T: Persist>(bytes: &[u8]) -> Result<T, PersistError> {
    let mut dec = Decoder::new(bytes);
    let v = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(v)
}
