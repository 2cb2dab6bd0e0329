//! The in-memory write buffer.

use crate::error::DbError;
use crate::index::{HashedKey, KeyIndex};
use crate::record::{encode_into, Record, RecordRef};
use crate::sstable::TableBuilder;

/// An in-memory buffer of the latest mutations, including tombstones,
/// with approximate size accounting for flush triggering.
///
/// Records are kept encoded, in arrival order, in one log buffer (the
/// same bytes the WAL and the flushed SSTable hold), with a hash index
/// from each key to its newest record. Superseded versions stay in the
/// log until the memtable is flushed; key order is made by sorting, only
/// when a range or the flush needs it.
#[derive(Debug, Default, Clone)]
pub struct Memtable {
    log: Vec<u8>,
    index: KeyIndex,
    approx_bytes: usize,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Applies a record.
    pub fn apply(&mut self, rec: Record) {
        let _ = self.insert(&rec.key, rec.value.as_deref());
    }

    /// Whether the log can take `encoded` more bytes of records: the
    /// index addresses it with `u32` offsets.
    pub(crate) fn has_room(&self, encoded: usize) -> bool {
        self.log.len().saturating_add(encoded) <= u32::MAX as usize
    }

    /// Applies `key` → `value` (`None`: a tombstone) and returns the
    /// record's encoding, ready for the WAL.
    ///
    /// # Errors
    ///
    /// [`DbError::TooLarge`] for an oversized key or value, or when the
    /// log has no room for the record; the memtable is then unchanged.
    pub fn insert(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<&[u8], DbError> {
        let start = self.log.len();
        encode_into(key, value, &mut self.log)?;
        let Some(at) = u32::try_from(start).ok().filter(|_| self.has_room(0)) else {
            self.log.truncate(start);
            return Err(DbError::TooLarge);
        };
        self.approx_bytes += self.log.len() - start;
        if let Some(old) = self.index.insert(&self.log, key, at) {
            // Rough accounting: drop the replaced value's weight.
            let old_value = self.record(old).value.map_or(0, <[u8]>::len);
            self.approx_bytes = self.approx_bytes.saturating_sub(old_value);
        }
        Ok(self.log.get(start..).unwrap_or_default())
    }

    /// The record at offset `at` in the log.
    fn record(&self, at: u32) -> RecordRef<'_> {
        RecordRef::parse(self.log.get(at as usize..).unwrap_or_default())
    }

    /// Looks up a key. `Some(None)` means "deleted here" (tombstone);
    /// `None` means "not present in this memtable".
    pub(crate) fn get(&self, key: HashedKey<'_>) -> Option<Option<&[u8]>> {
        self.index
            .find(&self.log, key)
            .map(|at| self.record(at).value)
    }

    /// The newest record of each key that `keep` accepts, as (order
    /// word, log offset) in key order, and the records' encoded size.
    ///
    /// The records are put in arrival (log) order first, so the passes
    /// below read the log front to back and a memtable filled in key
    /// order (a sequential load) is already sorted. The sort compares
    /// each key's [`order_word`]; only ties compare whole keys.
    fn sorted(&self, keep: impl Fn(&[u8]) -> bool) -> (Vec<(u64, u32)>, usize) {
        let key = |at: u32| self.record(at).key;
        let mut arrival: Vec<u32> = self.index.offsets().filter(|&at| keep(key(at))).collect();
        arrival.sort_unstable();
        let first = arrival.first().map_or(&[][..], |&at| key(at));
        let shared = arrival.iter().fold(first.len(), |n, &at| {
            first
                .iter()
                .zip(key(at))
                .take(n)
                .take_while(|(a, b)| a == b)
                .count()
        });
        let mut bytes = 0;
        let mut order: Vec<(u64, u32)> = arrival
            .into_iter()
            .map(|at| {
                let rec = self.record(at);
                bytes += rec.encoded.len();
                (order_word(rec.key, shared), at)
            })
            .collect();
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| key(a.1).cmp(key(b.1))));
        (order, bytes)
    }

    /// The entries with `start <= key < end` in key order, tombstones
    /// as `None`.
    pub fn range<'m>(
        &'m self,
        start: &'m [u8],
        end: &'m [u8],
    ) -> impl Iterator<Item = (&'m [u8], Option<&'m [u8]>)> + 'm {
        self.sorted(|k| start <= k && k < end)
            .0
            .into_iter()
            .map(|(_, at)| {
                let rec = self.record(at);
                (rec.key, rec.value)
            })
    }

    /// Number of distinct keys (including tombstones).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the memtable holds nothing.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Approximate heap footprint, for flush triggering.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Empties the memtable into an SSTable image: the newest record of
    /// each key, in key order, copied as encoded. The index keeps its
    /// slots for the next round of writes instead of regrowing them.
    pub fn drain_sorted(&mut self) -> TableBuilder {
        let (order, bytes) = self.sorted(|_| true);
        let mut table = TableBuilder::with_capacity(bytes, self.len());
        for (_, at) in order {
            table.push_encoded(self.record(at));
        }
        self.log = Vec::new();
        self.index.clear();
        self.approx_bytes = 0;
        table
    }
}

/// The 8 bytes of `key` after its first `shared`, zero-padded, as a
/// big-endian integer: among keys that share that prefix, a smaller word
/// means a smaller key, and equal words need a whole-key comparison.
fn order_word(key: &[u8], shared: usize) -> u64 {
    let mut word = [0u8; 8];
    let tail = key.get(shared..).unwrap_or_default();
    let n = tail.len().min(8);
    word[..n].copy_from_slice(&tail[..n]);
    u64::from_be_bytes(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn put_get_delete() {
        let mut m = Memtable::new();
        m.insert(b"a", Some(b"1")).unwrap();
        assert_eq!(m.get(HashedKey::new(b"a")), Some(Some(b"1".as_ref())));
        m.insert(b"a", None).unwrap();
        assert_eq!(m.get(HashedKey::new(b"a")), Some(None)); // tombstone
        assert_eq!(m.get(HashedKey::new(b"b")), None); // unknown
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut m = Memtable::new();
        m.insert(b"k", Some(b"old")).unwrap();
        m.insert(b"k", Some(b"new")).unwrap();
        assert_eq!(m.get(HashedKey::new(b"k")), Some(Some(b"new".as_ref())));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn drain_is_sorted_and_empties() {
        let mut m = Memtable::new();
        m.insert(b"c", Some(b"3")).unwrap();
        m.insert(b"a", Some(b"1")).unwrap();
        m.insert(b"b", None).unwrap();
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
        m.insert(b"k", Some(b"old")).unwrap();
        m.insert(b"k", None).unwrap();
        m.insert(b"k", Some(b"new")).unwrap();
        m.insert(b"j", Some(b"1")).unwrap();
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
        m.insert(b"key", Some(b"12345")).unwrap();
        assert_eq!(m.approx_bytes(), Record::put("key", "12345").encoded_len());
        m.insert(b"key", None).unwrap();
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
            m.insert(k, Some(b"v")).unwrap();
        }
        m.insert(b"c", None).unwrap();
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
        m.insert(b"key", Some(&[0u8; 100])).unwrap();
        assert!(m.approx_bytes() >= 100);
    }

    /// Keys of 0–40 bytes: the empty key, keys with long shared prefixes
    /// that differ only in their last byte, and arbitrary bytes.
    fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            Just(Vec::new()),
            (0u8..32).prop_map(|last| {
                let mut k = vec![b'p'; 39];
                k.push(last);
                k
            }),
            (0usize..16, 0u8..8).prop_map(|(len, last)| {
                let mut k = vec![b'0'; len];
                k.push(last);
                k
            }),
            proptest::collection::vec(any::<u8>(), 0..41),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The memtable agrees with a `BTreeMap` model: lookups, key
        /// count, the size accounting rule, ranges, and the flushed
        /// image, over enough keys to double the index several times.
        #[test]
        fn memtable_matches_ordered_model(
            ops in proptest::collection::vec(
                (key_strategy(), proptest::option::of(0usize..48)),
                1..700,
            ),
            probes in proptest::collection::vec(key_strategy(), 0..40),
            bounds in (key_strategy(), key_strategy()),
        ) {
            let mut m = Memtable::new();
            let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
            let mut approx = 0usize;
            for (key, vlen) in &ops {
                let value = vlen.map(|n| vec![key.len() as u8; n]);
                m.insert(key, value.as_deref()).unwrap();
                approx += Record { key: key.clone(), value: value.clone() }.encoded_len();
                if let Some(old) = model.insert(key.clone(), value) {
                    approx = approx.saturating_sub(old.map_or(0, |v| v.len()));
                }
            }
            prop_assert_eq!(m.len(), model.len());
            prop_assert_eq!(m.approx_bytes(), approx);
            for key in model.keys().chain(&probes) {
                prop_assert_eq!(
                    m.get(HashedKey::new(key)),
                    model.get(key).map(|v| v.as_deref()),
                    "key {:?}", key
                );
            }
            let (start, end) = bounds;
            let got: Vec<_> = m.range(&start, &end).collect();
            let want: Vec<_> = model
                .iter()
                .filter(|(k, _)| start <= **k && **k < end)
                .map(|(k, v)| (k.as_slice(), v.as_deref()))
                .collect();
            prop_assert_eq!(got, want);
            let mut image = Vec::new();
            for (key, value) in &model {
                Record { key: key.clone(), value: value.clone() }
                    .encode_into(&mut image)
                    .unwrap();
            }
            prop_assert_eq!(m.drain_sorted().finish("t").as_bytes(), image.as_slice());
            prop_assert!(m.is_empty());
        }
    }
}
