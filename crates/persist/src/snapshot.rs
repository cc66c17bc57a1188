//! The snapshot container: magic, format version, checksummed sections.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     MAGIC            b"BRSHSNAP"
//! 8       4     FORMAT_VERSION   u32
//! 12      4     section count    u32
//! 16      …     section table    per section:
//!                                  name    (u64 len + utf-8 bytes)
//!                                  offset  u64   (absolute, into the file)
//!                                  len     u64
//!                                  fnv1a   u64   (checksum of the payload)
//! …       …     payloads         concatenated, in table order
//! ```
//!
//! [`SnapshotReader::parse`] verifies the magic, the version, every
//! table bound, and every section checksum eagerly — a caller that gets
//! a reader back knows the whole container is intact before touching a
//! payload byte. Sections are looked up by name, so adding new sections
//! is a compatible change that does not bump [`FORMAT_VERSION`].

use crate::codec::{fnv1a, Decoder, Encoder};
use crate::error::PersistError;

/// Leading bytes of every brainshift snapshot.
pub const MAGIC: [u8; 8] = *b"BRSHSNAP";

/// Current snapshot format version. Bumped only when an existing
/// section's encoding changes; new sections do not bump it.
///
/// v5 persists a session's warm-start seed and a stiffness fingerprint
/// where v1–v4 carried a whole solver context (matrices and factors);
/// a restore rebuilds the context instead (DESIGN.md §15), so every
/// older stamp is refused.
pub const FORMAT_VERSION: u32 = 5;

/// Oldest container version this reader still decodes.
pub const MIN_SUPPORTED_VERSION: u32 = 5;

/// Builds a snapshot from named payload sections.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a named section. Names should be unique; on duplicates the
    /// reader returns the first.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) {
        self.sections.push((name.to_string(), payload));
    }

    /// Encode a `Persist` value and append it as a named section.
    pub fn section_value<T: crate::Persist>(
        &mut self,
        name: &str,
        value: &T,
    ) -> Result<(), PersistError> {
        self.section(name, crate::to_bytes(value)?);
        Ok(())
    }

    /// Serialize the container.
    pub fn finish(self) -> Vec<u8> {
        // The table's size depends only on the names, so lay it out first.
        let mut table_len = 0usize;
        for (name, _) in &self.sections {
            table_len += 8 + name.len() + 8 + 8 + 8;
        }
        let header_len = MAGIC.len() + 4 + 4;
        let mut offset = header_len + table_len;

        let mut enc = Encoder::new();
        enc.put_bytes(&MAGIC);
        enc.put_u32(FORMAT_VERSION);
        enc.put_u32(self.sections.len() as u32);
        for (name, payload) in &self.sections {
            enc.put_str(name);
            enc.put_u64(offset as u64);
            enc.put_u64(payload.len() as u64);
            enc.put_u64(fnv1a(payload));
            offset += payload.len();
        }
        for (_, payload) in &self.sections {
            enc.put_bytes(payload);
        }
        enc.into_bytes()
    }
}

#[derive(Debug)]
struct SectionEntry {
    name: String,
    offset: usize,
    len: usize,
}

/// A parsed, fully checksum-verified snapshot.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    table: Vec<SectionEntry>,
    version: u32,
}

impl<'a> SnapshotReader<'a> {
    /// Parse and verify a snapshot: magic, version, table bounds, and
    /// every section's FNV-1a checksum. Any defect is a typed error and
    /// no reader is returned.
    pub fn parse(buf: &'a [u8]) -> Result<Self, PersistError> {
        if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != MAGIC {
            let found = buf[..buf.len().min(MAGIC.len())].to_vec();
            return Err(PersistError::BadMagic { found });
        }
        let mut dec = Decoder::new(&buf[MAGIC.len()..]);
        let version = dec.get_u32()?;
        if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = dec.get_u32()? as usize;
        let mut table = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let name = dec.get_str()?;
            let offset = dec.get_usize()?;
            let len = dec.get_usize()?;
            let expected = dec.get_u64()?;
            let end = offset
                .checked_add(len)
                .ok_or_else(|| PersistError::InvalidData {
                    reason: format!("section '{name}' range overflows"),
                })?;
            if end > buf.len() {
                return Err(PersistError::Truncated {
                    needed: end,
                    remaining: buf.len(),
                });
            }
            let payload = &buf[offset..end];
            let actual = fnv1a(payload);
            if actual != expected {
                return Err(PersistError::ChecksumMismatch { section: name, expected, actual });
            }
            table.push(SectionEntry { name, offset, len });
        }
        Ok(SnapshotReader { buf, table, version })
    }

    /// The container's stamped format version (within
    /// [`MIN_SUPPORTED_VERSION`]`..=`[`FORMAT_VERSION`]).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Section names, in table order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.table.iter().map(|e| e.name.as_str())
    }

    /// True when the snapshot holds a section with this name.
    pub fn has_section(&self, name: &str) -> bool {
        self.table.iter().any(|e| e.name == name)
    }

    /// A decoder over one section's (already checksum-verified) payload.
    pub fn section(&self, name: &str) -> Result<Decoder<'a>, PersistError> {
        let entry = self
            .table
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| PersistError::MissingSection { name: name.to_string() })?;
        Ok(Decoder::new(&self.buf[entry.offset..entry.offset + entry.len]))
    }

    /// Decode one `Persist` value from a named section, requiring the
    /// section to be fully consumed.
    pub fn section_value<T: crate::Persist>(&self, name: &str) -> Result<T, PersistError> {
        let mut dec = self.section(name)?;
        let v = T::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section_value("meta", &42u64).expect("encode");
        w.section_value("payload", &vec![1.5f64, -2.5, 3.25]).expect("encode");
        w.finish()
    }

    #[test]
    fn round_trips_sections_by_name() {
        let bytes = sample();
        let r = SnapshotReader::parse(&bytes).expect("parse");
        assert_eq!(r.section_names().collect::<Vec<_>>(), vec!["meta", "payload"]);
        assert!(r.has_section("meta") && !r.has_section("absent"));
        assert_eq!(r.section_value::<u64>("meta").expect("meta"), 42);
        assert_eq!(
            r.section_value::<Vec<f64>>("payload").expect("payload"),
            vec![1.5, -2.5, 3.25]
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample();
        bytes[0] ^= 0xff;
        let r = SnapshotReader::parse(&bytes);
        assert!(matches!(r, Err(PersistError::BadMagic { .. })), "{r:?}");
        // A completely foreign buffer, shorter than the magic.
        let r = SnapshotReader::parse(b"PK");
        assert!(matches!(r, Err(PersistError::BadMagic { .. })), "{r:?}");
    }

    #[test]
    fn future_version_is_refused() {
        let mut bytes = sample();
        // Version field sits right after the 8-byte magic.
        bytes[8] = 0xff;
        let r = SnapshotReader::parse(&bytes);
        match r {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_ne!(found, supported);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn older_versions_are_refused() {
        let bytes = sample();
        let r = SnapshotReader::parse(&bytes).expect("v5 parses");
        assert_eq!(r.version(), FORMAT_VERSION);
        // Every older stamp is refused as a whole, not mis-parsed.
        for refused in [0u32, 1, 2, 3, 4] {
            let mut old = sample();
            old[8..12].copy_from_slice(&refused.to_le_bytes());
            match SnapshotReader::parse(&old) {
                Err(PersistError::UnsupportedVersion { found, .. }) => assert_eq!(found, refused),
                other => panic!("version {refused}: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_flipped_payload_byte_is_caught() {
        let clean = sample();
        let r = SnapshotReader::parse(&clean).expect("parse");
        // Payloads are the tail of the container; everything before them
        // is header + table.
        let total_payload: usize =
            ["meta", "payload"].iter().map(|n| r.section(n).expect("s").remaining()).sum();
        let payload_start = clean.len() - total_payload;
        drop(r);
        for i in payload_start..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x01;
            let res = SnapshotReader::parse(&corrupt);
            assert!(
                matches!(res, Err(PersistError::ChecksumMismatch { .. })),
                "flipping byte {i} not caught: {res:?}"
            );
        }
    }

    #[test]
    fn corrupted_table_checksum_is_caught() {
        let clean = sample();
        // Flip a bit in the stored checksum itself (last 8 bytes of the
        // first table entry: name(8+4) + offset(8) + len(8) + checksum(8)
        // starting at header end = 16).
        let checksum_at = 16 + 8 + "meta".len() + 8 + 8;
        let mut corrupt = clean.clone();
        corrupt[checksum_at] ^= 0x10;
        let res = SnapshotReader::parse(&corrupt);
        assert!(matches!(res, Err(PersistError::ChecksumMismatch { .. })), "{res:?}");
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample();
        for cut in [bytes.len() - 1, bytes.len() / 2, 20, 10] {
            let res = SnapshotReader::parse(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn missing_section_is_typed() {
        let bytes = sample();
        let r = SnapshotReader::parse(&bytes).expect("parse");
        let res = r.section("nope");
        assert!(matches!(res, Err(PersistError::MissingSection { .. })), "{res:?}");
    }

    #[test]
    fn section_with_trailing_bytes_is_rejected_by_section_value() {
        let mut w = SnapshotWriter::new();
        let mut enc = crate::Encoder::new();
        enc.put_u64(7);
        enc.put_u8(0xaa); // one stray byte after the value
        w.section("meta", enc.into_bytes());
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).expect("parse");
        let res = r.section_value::<u64>("meta");
        assert!(matches!(res, Err(PersistError::TrailingBytes { remaining: 1 })), "{res:?}");
    }

    #[test]
    fn empty_snapshot_parses() {
        let bytes = SnapshotWriter::new().finish();
        let r = SnapshotReader::parse(&bytes).expect("parse");
        assert_eq!(r.section_names().count(), 0);
    }
}
