//! Little-endian primitive codec and the [`Persist`] trait.
//!
//! Endianness is fixed at little regardless of host order, so snapshots
//! are portable across machines. Floats are written as their IEEE-754
//! bit patterns (`f64::to_bits`), which makes encode→decode *bitwise*
//! lossless — including NaN payloads and signed zeros — a property the
//! round-trip test suites assert directly.

use crate::error::PersistError;

/// FNV-1a over a byte slice — the same hash family the repo uses for
/// mesh and kd-tree fingerprints, here hashing section payloads.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the encoder, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` widened to a `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// IEEE-754 bit pattern of an `f64` (bitwise lossless).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// A bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Raw bytes, no length prefix (callers prefix their own lengths).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_bytes(s.as_bytes());
    }
}

/// Cursor over an immutable byte slice; every read is bounds-checked and
/// failures are typed ([`PersistError::Truncated`]).
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte was consumed.
    pub fn finish(&self) -> Result<(), PersistError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(PersistError::TrailingBytes { remaining }),
        }
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated { needed: n, remaining: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One raw byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// A `u64` narrowed to the host `usize`.
    pub fn get_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| PersistError::InvalidData { reason: format!("length {v} exceeds usize") })
    }

    /// `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// A bool; any byte other than 0/1 is [`PersistError::InvalidData`].
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::InvalidData { reason: format!("invalid bool byte {other}") }),
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| PersistError::InvalidData { reason: format!("invalid utf-8: {e}") })
    }
}

/// Snapshot encode/decode for one type.
///
/// `decode` must fully validate: on any input it either returns a value
/// whose invariants hold or a typed error — no panics, no partially
/// valid values. `encode` is fallible only for types that can hold
/// unsupported state (e.g. a trait object with a non-persistable
/// implementation); plain data types always return `Ok`.
pub trait Persist: Sized {
    /// Append this value's encoding to `enc`.
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError>;
    /// Read one value from `dec`, validating it.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError>;
}

impl Persist for f64 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_f64(*self);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        dec.get_f64()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc)?;
            }
        }
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            t => Err(PersistError::InvalidData { reason: format!("invalid Option tag {t}") }),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_usize(self.len());
        for v in self {
            v.encode(enc)?;
        }
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let len = dec.get_usize()?;
        // Each element is at least one byte; a length beyond the input is
        // a lie — reject before allocating for it.
        if len > dec.remaining() {
            return Err(PersistError::Truncated { needed: len, remaining: dec.remaining() });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Decode one value from a standalone buffer, which it must consume
    /// fully: the inverse of `to_bytes`.
    fn from_bytes<T: Persist>(bytes: &[u8]) -> Result<T, PersistError> {
        let mut dec = Decoder::new(bytes);
        let v = T::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = crate::to_bytes(v).expect("encode");
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
        // Re-encoding the decoded value is byte-identical (canonical
        // encoding — the property the corruption checks rely on).
        assert_eq!(crate::to_bytes(&back).expect("encode"), bytes);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&f64::NEG_INFINITY);
        round_trip(&Some(3.5f64));
        round_trip(&Option::<f64>::None);
        round_trip(&vec![1.0f64, -2.0, 3.0]);
        round_trip(&vec![Some(vec![0.5f64]), None]);
    }

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(u32::MAX);
        enc.put_u64(u64::MAX);
        enc.put_usize(usize::MAX);
        enc.put_bool(true);
        enc.put_str("brainshift");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().expect("u8"), 7);
        assert_eq!(dec.get_u32().expect("u32"), u32::MAX);
        assert_eq!(dec.get_u64().expect("u64"), u64::MAX);
        assert_eq!(dec.get_usize().expect("usize"), usize::MAX);
        assert!(dec.get_bool().expect("bool"));
        assert_eq!(dec.get_str().expect("str"), "brainshift");
        dec.finish().expect("fully consumed");
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let bytes = crate::to_bytes(&weird).expect("encode");
        let back: f64 = from_bytes(&bytes).expect("decode");
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn truncation_and_trailing_are_typed() {
        let bytes = crate::to_bytes(&vec![1.0f64, 2.0]).expect("encode");
        let r: Result<Vec<f64>, _> = from_bytes(&bytes[..bytes.len() - 3]);
        assert!(matches!(r, Err(PersistError::Truncated { .. })), "{r:?}");
        let mut longer = bytes.clone();
        longer.push(0);
        let r: Result<Vec<f64>, _> = from_bytes(&longer);
        assert!(matches!(r, Err(PersistError::TrailingBytes { remaining: 1 })), "{r:?}");
    }

    #[test]
    fn lying_vec_length_rejected_without_allocation() {
        let mut enc = Encoder::new();
        enc.put_usize(usize::MAX / 2);
        let r: Result<Vec<f64>, _> = from_bytes(&enc.into_bytes());
        assert!(matches!(r, Err(PersistError::Truncated { .. })), "{r:?}");
    }

    #[test]
    fn invalid_tags_rejected() {
        let r = Decoder::new(&[7]).get_bool();
        assert!(matches!(r, Err(PersistError::InvalidData { .. })));
        let r: Result<Option<f64>, _> = from_bytes(&[9, 0]);
        assert!(matches!(r, Err(PersistError::InvalidData { .. })));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    proptest! {
        #[test]
        fn prop_f64_bits_round_trip(bits in 0..u64::MAX) {
            let v = f64::from_bits(bits);
            let bytes = crate::to_bytes(&v).expect("encode");
            let back: f64 = from_bytes(&bytes).expect("decode");
            prop_assert_eq!(back.to_bits(), bits);
        }

        #[test]
        fn prop_vecs_and_strings_round_trip(
            v in prop::collection::vec(-1e12f64..1e12, 0..64),
            chars in prop::collection::vec(32u8..127, 0..48),
        ) {
            round_trip(&v);
            let s = String::from_utf8(chars).expect("ascii");
            let mut enc = Encoder::new();
            enc.put_str(&s);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            prop_assert_eq!(dec.get_str().expect("str"), s);
            prop_assert!(dec.finish().is_ok());
        }
    }
}
