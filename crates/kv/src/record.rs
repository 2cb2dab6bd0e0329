//! Key-value record encoding shared by the WAL and SSTables.
//!
//! Wire format per record:
//!
//! ```text
//! | checksum: u32 | klen: u32 | vlen_tag: u32 | key | value |
//! ```
//!
//! `vlen_tag` is `value.len()` for a put and `u32::MAX` for a delete
//! (tombstone). The checksum is a 32-bit FNV-1a over everything after
//! it (the *body*), taken a word at a time: first the body's length,
//! then the body as little-endian `u32` words, the last one zero-padded.
//! Every step is a bijection of the running hash and of the word it
//! takes, so any change within one word changes the checksum.

use crate::error::DbError;
use serde::{Deserialize, Serialize};

/// Maximum key or value length (1 MiB — matches practical LSM limits).
pub const MAX_LEN: usize = 1 << 20;

const TOMBSTONE_TAG: u32 = u32::MAX;

/// One logical mutation: a put or a delete.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// The key.
    pub key: Vec<u8>,
    /// The value; `None` is a tombstone.
    pub value: Option<Vec<u8>>,
}

impl Record {
    /// A put record.
    pub fn put(key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Self {
        Record {
            key: key.into(),
            value: Some(value.into()),
        }
    }

    /// A delete (tombstone) record.
    pub fn delete(key: impl Into<Vec<u8>>) -> Self {
        Record {
            key: key.into(),
            value: None,
        }
    }

    /// Encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        12 + self.key.len() + self.value.as_ref().map_or(0, |v| v.len())
    }

    /// Bytes of useful payload (key + value), the unit Table 2's MB/s
    /// metric counts.
    pub fn payload_len(&self) -> usize {
        self.key.len() + self.value.as_ref().map_or(0, |v| v.len())
    }

    /// Decodes one record from the front of `buf`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] on truncation or checksum mismatch.
    pub fn decode_from(buf: &[u8]) -> Result<(Record, usize), DbError> {
        let rec = RecordRef::decode_from(buf)?;
        Ok((rec.to_record(), rec.encoded.len()))
    }
}

/// Appends the encoding of `key` → `value` (`None`: a tombstone) to `out`.
///
/// # Errors
///
/// [`DbError::TooLarge`] if key or value exceeds [`MAX_LEN`].
pub(crate) fn encode_into(
    key: &[u8],
    value: Option<&[u8]>,
    out: &mut Vec<u8>,
) -> Result<(), DbError> {
    check_len(key, value)?;
    let vlen_tag = value.map_or(TOMBSTONE_TAG, |v| v.len() as u32);
    let body_start = out.len() + 4;
    out.extend_from_slice(&[0u8; 4]); // checksum placeholder
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&vlen_tag.to_le_bytes());
    out.extend_from_slice(key);
    if let Some(v) = value {
        out.extend_from_slice(v);
    }
    let sum = checksum(&out[body_start..]);
    out[body_start - 4..body_start].copy_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Refuses a key or value longer than [`MAX_LEN`].
///
/// # Errors
///
/// [`DbError::TooLarge`] if key or value exceeds [`MAX_LEN`].
pub(crate) fn check_len(key: &[u8], value: Option<&[u8]>) -> Result<(), DbError> {
    if key.len() > MAX_LEN || value.is_some_and(|v| v.len() > MAX_LEN) {
        return Err(DbError::TooLarge);
    }
    Ok(())
}

/// A record borrowed from an encoded buffer (an SSTable file image).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// The key.
    pub key: &'a [u8],
    /// The value; `None` is a tombstone.
    pub value: Option<&'a [u8]>,
    /// The record's whole encoding: header, key and value.
    pub encoded: &'a [u8],
}

impl<'a> RecordRef<'a> {
    /// Decodes and verifies the record at the front of `buf`; the view's
    /// `encoded` slice is exactly the bytes it occupies.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] on truncation or checksum mismatch.
    pub fn decode_from(buf: &'a [u8]) -> Result<RecordRef<'a>, DbError> {
        let corrupt = |what: &str| DbError::Corruption { what: what.into() };
        let (Some(stored_sum), Some(klen), Some(vlen_tag)) =
            (le_u32(buf, 0), le_u32(buf, 4), le_u32(buf, 8))
        else {
            return Err(corrupt("truncated record header"));
        };
        let klen = klen as usize;
        if klen > MAX_LEN {
            return Err(corrupt("key length out of range"));
        }
        let vlen = if vlen_tag == TOMBSTONE_TAG {
            0
        } else {
            vlen_tag as usize
        };
        if vlen > MAX_LEN {
            return Err(corrupt("value length out of range"));
        }
        let total = 12 + klen + vlen;
        if buf.len() < total {
            return Err(corrupt("truncated record body"));
        }
        if checksum(&buf[4..total]) != stored_sum {
            return Err(corrupt("record checksum mismatch"));
        }
        Ok(RecordRef::parse(&buf[..total]))
    }

    /// The already-verified record at the front of `buf`, split into key
    /// and value without re-checking it; `encoded` ends where the header
    /// says the record does. A malformed `buf` yields empty or truncated
    /// slices, never a panic.
    pub(crate) fn parse(buf: &'a [u8]) -> RecordRef<'a> {
        let klen = le_u32(buf, 4).unwrap_or(0) as usize;
        let vlen_tag = le_u32(buf, 8).unwrap_or(TOMBSTONE_TAG);
        let vlen = if vlen_tag == TOMBSTONE_TAG {
            0
        } else {
            vlen_tag as usize
        };
        let encoded = buf.get(..12 + klen + vlen).unwrap_or(buf);
        let body = encoded.get(12..).unwrap_or_default();
        let (key, value) = body.split_at(klen.min(body.len()));
        RecordRef {
            key,
            value: (vlen_tag != TOMBSTONE_TAG).then_some(value),
            encoded,
        }
    }

    /// An owned copy.
    pub fn to_record(&self) -> Record {
        Record {
            key: self.key.to_vec(),
            value: self.value.map(<[u8]>::to_vec),
        }
    }
}

/// The little-endian `u32` at byte `at`, if `buf` holds one there.
fn le_u32(buf: &[u8], at: usize) -> Option<u32> {
    buf.get(at..at + 4)
        .and_then(|s| s.try_into().ok())
        .map(u32::from_le_bytes)
}

/// The record checksum of `body`: FNV-1a's basis, prime and xor-multiply
/// step, applied to the body's length and then to each little-endian
/// `u32` word of the body (the tail zero-padded), instead of to each
/// byte. A quarter of the multiplies, in one dependency chain.
pub(crate) fn checksum(body: &[u8]) -> u32 {
    const BASIS: u32 = 0x811C_9DC5;
    const PRIME: u32 = 0x0100_0193;
    let step = |hash: u32, word: u32| (hash ^ word).wrapping_mul(PRIME);
    let mut hash = step(BASIS, body.len() as u32);
    let mut words = body.chunks_exact(4);
    for word in &mut words {
        hash = step(
            hash,
            u32::from_le_bytes(word.try_into().unwrap_or_default()),
        );
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 4];
        word[..tail.len()].copy_from_slice(tail);
        hash = step(hash, u32::from_le_bytes(word));
    }
    hash
}

#[cfg(test)]
impl Record {
    /// Appends the encoded record to `out`, for tests outside this module.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), DbError> {
        encode_into(&self.key, self.value.as_deref(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_put_and_delete() {
        let mut buf = Vec::new();
        Record::put("alpha", "one").encode_into(&mut buf).unwrap();
        Record::delete("beta").encode_into(&mut buf).unwrap();
        let (first, used) = Record::decode_from(&buf).unwrap();
        let (second, rest) = Record::decode_from(&buf[used..]).unwrap();
        assert_eq!(used + rest, buf.len());
        assert_eq!(first, Record::put("alpha", "one"));
        assert_eq!(second, Record::delete("beta"));
    }

    #[test]
    fn corruption_detected() {
        // A `db_bench`-shaped put (16-byte key, 64-byte value) and a
        // tombstone. The 255 substitutions of each byte include its 8
        // single-bit flips.
        let (mut key, mut value) = (Vec::new(), Vec::new());
        crate::bench::write_key(&mut key, 42, 16);
        crate::bench::write_value(&mut value, 42, 64);
        for rec in [Record::put(key.clone(), value), Record::delete(key)] {
            let mut buf = Vec::new();
            rec.encode_into(&mut buf).unwrap();
            assert_eq!(Record::decode_from(&buf).unwrap().0, rec);
            for at in 0..buf.len() {
                for byte in (0..=u8::MAX).filter(|&b| b != buf[at]) {
                    let mut bad = buf.clone();
                    bad[at] = byte;
                    assert!(
                        matches!(Record::decode_from(&bad), Err(DbError::Corruption { .. })),
                        "byte {at} set to {byte:#04x} went unnoticed"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_known_answers() {
        // Pins the wire format: a 16-byte body with no tail word, and a
        // 13-byte one whose last word is zero-padded.
        let sum = |rec: Record| {
            let mut buf = Vec::new();
            rec.encode_into(&mut buf).unwrap();
            u32::from_le_bytes(buf[..4].try_into().unwrap())
        };
        assert_eq!(sum(Record::put("alpha", "one")), 0x94F6_7449);
        assert_eq!(sum(Record::delete("gamma")), 0xDB35_A614);
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        Record::put("key", "value").encode_into(&mut buf).unwrap();
        assert!(Record::decode_from(&buf[..buf.len() - 1]).is_err());
        assert!(Record::decode_from(&buf[..5]).is_err());
    }

    #[test]
    fn oversized_rejected() {
        let big = vec![0u8; MAX_LEN + 1];
        let mut buf = Vec::new();
        assert_eq!(
            Record::put(big.clone(), "v").encode_into(&mut buf),
            Err(DbError::TooLarge)
        );
        assert_eq!(
            Record::put("k", big).encode_into(&mut buf),
            Err(DbError::TooLarge)
        );
    }

    #[test]
    fn lengths_accounted() {
        let r = Record::put("1234", "567890");
        assert_eq!(r.payload_len(), 10);
        assert_eq!(r.encoded_len(), 22);
        let d = Record::delete("1234");
        assert_eq!(d.payload_len(), 4);
        assert_eq!(d.encoded_len(), 16);
    }

    proptest! {
        /// Arbitrary records round-trip through encode/decode.
        #[test]
        fn roundtrip_arbitrary(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            value in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..200)),
        ) {
            let rec = Record { key, value };
            let mut buf = Vec::new();
            rec.encode_into(&mut buf).unwrap();
            let (back, used) = Record::decode_from(&buf).unwrap();
            prop_assert_eq!(back, rec);
            prop_assert_eq!(used, buf.len());
        }
    }
}
