//! The in-memory write buffer.

use crate::error::DbError;
use crate::record::{encode_into, Record, RecordRef};
use crate::sstable::TableBuilder;
use std::collections::BTreeMap;
use std::ops::{Bound, Range};

/// An ordered in-memory buffer of the latest mutations, including
/// tombstones, with approximate size accounting for flush triggering.
///
/// Records are kept encoded, in arrival order, in one log buffer (the
/// same bytes the WAL and the flushed SSTable hold), with an ordered
/// index from each key to its newest record. Superseded versions stay in
/// the log until the memtable is flushed.
#[derive(Debug, Default, Clone)]
pub struct Memtable {
    log: Vec<u8>,
    index: BTreeMap<Vec<u8>, Range<usize>>,
    approx_bytes: usize,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Applies a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        // A record too large to encode was refused by the WAL first.
        let _ = self.insert(key, Some(value));
    }

    /// Applies a delete (records a tombstone).
    pub fn delete(&mut self, key: &[u8]) {
        let _ = self.insert(key, None);
    }

    /// Applies a record.
    pub fn apply(&mut self, rec: Record) {
        let _ = self.insert(&rec.key, rec.value.as_deref());
    }

    /// Applies `key` → `value` (`None`: a tombstone) and returns the
    /// record's encoding, ready for the WAL.
    ///
    /// # Errors
    ///
    /// [`DbError::TooLarge`] for an oversized key or value; the memtable
    /// is then unchanged.
    pub fn insert(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<&[u8], DbError> {
        let at = self.log.len();
        encode_into(key, value, &mut self.log)?;
        let encoded = at..self.log.len();
        self.approx_bytes += encoded.len();
        if let Some(old) = self.index.insert(key.to_vec(), encoded) {
            // Rough accounting: drop the replaced value's weight.
            let old_value = self.record(old).value.map_or(0, <[u8]>::len);
            self.approx_bytes = self.approx_bytes.saturating_sub(old_value);
        }
        Ok(self.log.get(at..).unwrap_or_default())
    }

    /// The record stored at `encoded` in the log.
    fn record(&self, encoded: Range<usize>) -> RecordRef<'_> {
        RecordRef::parse(self.log.get(encoded).unwrap_or_default())
    }

    /// Looks up a key. `Some(None)` means "deleted here" (tombstone);
    /// `None` means "not present in this memtable".
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.index.get(key).map(|at| self.record(at.clone()).value)
    }

    /// The entries with `start <= key < end` in key order, tombstones
    /// as `None`.
    pub fn range<'m>(
        &'m self,
        start: &'m [u8],
        end: &'m [u8],
    ) -> impl Iterator<Item = (&'m [u8], Option<&'m [u8]>)> + 'm {
        self.index
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
            .take_while(move |(k, _)| k.as_slice() < end)
            .map(|(k, at)| (k.as_slice(), self.record(at.clone()).value))
    }

    /// Number of distinct keys (including tombstones).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the memtable holds nothing.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Approximate heap footprint, for flush triggering.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Empties the memtable into an SSTable image: the newest record of
    /// each key, in key order, copied as encoded.
    pub fn drain_sorted(&mut self) -> TableBuilder {
        let mut table = TableBuilder::new();
        for at in self.index.values() {
            table.push_encoded(self.record(at.clone()));
        }
        *self = Memtable::new();
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut m = Memtable::new();
        m.put(b"a", b"1");
        assert_eq!(m.get(b"a"), Some(Some(b"1".as_ref())));
        m.delete(b"a");
        assert_eq!(m.get(b"a"), Some(None)); // tombstone
        assert_eq!(m.get(b"b"), None); // unknown
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut m = Memtable::new();
        m.put(b"k", b"old");
        m.put(b"k", b"new");
        assert_eq!(m.get(b"k"), Some(Some(b"new".as_ref())));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn drain_is_sorted_and_empties() {
        let mut m = Memtable::new();
        m.put(b"c", b"3");
        m.put(b"a", b"1");
        m.delete(b"b");
        let table = m.drain_sorted().finish("t");
        let recs: Vec<Record> = table.iter().map(|r| r.to_record()).collect();
        assert_eq!(
            recs,
            vec![
                Record::put("a", "1"),
                Record::delete("b"),
                Record::put("c", "3")
            ]
        );
        assert!(m.is_empty());
        assert_eq!(m.approx_bytes(), 0);
    }

    #[test]
    fn flushes_only_the_newest_version() {
        let mut m = Memtable::new();
        m.put(b"k", b"old");
        m.delete(b"k");
        m.put(b"k", b"new");
        m.put(b"j", b"1");
        let mut expected = Vec::new();
        Record::put("j", "1").encode_into(&mut expected).unwrap();
        Record::put("k", "new").encode_into(&mut expected).unwrap();
        assert_eq!(m.drain_sorted().finish("t").as_bytes(), expected.as_slice());
    }

    #[test]
    fn accounting_matches_record_sizes() {
        // Each insert adds its encoded size and takes back the value
        // it replaced.
        let mut m = Memtable::new();
        m.put(b"key", b"12345");
        assert_eq!(m.approx_bytes(), Record::put("key", "12345").encoded_len());
        m.delete(b"key");
        let after =
            Record::put("key", "12345").encoded_len() + Record::delete("key").encoded_len() - 5;
        assert_eq!(m.approx_bytes(), after);
        assert_eq!(
            m.insert(&[0u8; crate::record::MAX_LEN + 1], None),
            Err(DbError::TooLarge)
        );
        assert_eq!(m.approx_bytes(), after);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn range_is_half_open_and_keeps_tombstones() {
        let mut m = Memtable::new();
        for k in [b"a", b"b", b"c", b"d"] {
            m.put(k, b"v");
        }
        m.delete(b"c");
        let got: Vec<_> = m.range(b"b", b"d").collect();
        assert_eq!(
            got,
            vec![(b"b".as_ref(), Some(b"v".as_ref())), (b"c".as_ref(), None)]
        );
        assert_eq!(m.range(b"d", b"a").count(), 0);
    }

    #[test]
    fn size_accounting_grows() {
        let mut m = Memtable::new();
        assert_eq!(m.approx_bytes(), 0);
        m.put(b"key", &[0u8; 100]);
        assert!(m.approx_bytes() >= 100);
    }
}
