//! Immutable sorted string tables.
//!
//! An SSTable is a file of concatenated [`Record`](crate::Record)s in ascending key
//! order. Files are small (≤ 1 MiB of encoded records per file, within
//! the filesystem's file-size limit), fully loaded on first access, and
//! served from memory thereafter — standing in for RocksDB's block cache
//! and the OS page cache, which is what lets `readwhilewriting` sustain
//! ~10⁵ ops/s on a disk that can only do ~10³.
//!
//! A table in memory is its file image plus the start offset of every
//! record and a hash index over the keys: a lookup is one hash probe and
//! one key comparison in place, and compaction copies verified record
//! bytes from its inputs straight into the output files without decoding
//! them.

use crate::error::DbError;
use crate::index::{HashedKey, KeyIndex};
use crate::record::RecordRef;
use deepnote_blockdev::BlockDevice;
use deepnote_fs::Filesystem;
use std::cmp::Ordering;
use std::iter::Peekable;

/// Target maximum encoded size of one SSTable file.
pub const TARGET_FILE_BYTES: usize = 1 << 20;

/// An encoded sorted run not yet written to a file: the flush and
/// compaction output buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableBuilder {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
}

impl TableBuilder {
    /// An empty run.
    pub fn new() -> Self {
        TableBuilder::default()
    }

    /// An empty run with room for `records` records of `bytes` encoded
    /// bytes in all.
    pub(crate) fn with_capacity(bytes: usize, records: usize) -> Self {
        TableBuilder {
            bytes: Vec::with_capacity(bytes),
            offsets: Vec::with_capacity(records),
        }
    }

    /// Appends a record that is already encoded and verified.
    pub fn push_encoded(&mut self, rec: RecordRef<'_>) {
        self.offsets.push(self.bytes.len() as u32);
        self.bytes.extend_from_slice(rec.encoded);
    }

    /// Encoded bytes so far.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The finished table, to live at `path`; nothing is written yet
    /// (see [`SsTable::write`]).
    pub fn finish(self, path: impl Into<String>) -> SsTable {
        SsTable::new(path.into(), self.bytes, self.offsets)
    }
}

/// A loaded, immutable sorted run: the file image, the offset of each
/// record in it, and a hash index over the keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsTable {
    path: String,
    bytes: Vec<u8>,
    offsets: Vec<u32>,
    index: KeyIndex,
}

impl SsTable {
    fn new(path: String, bytes: Vec<u8>, offsets: Vec<u32>) -> SsTable {
        SsTable {
            index: KeyIndex::of_distinct(&bytes, &offsets),
            path,
            bytes,
            offsets,
        }
    }

    /// Writes the table's file, replacing any file at its path. The
    /// caller is responsible for making the write durable (commit).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write<D: BlockDevice>(&self, fs: &mut Filesystem<D>) -> Result<(), DbError> {
        crate::wal::replace_file(fs, &self.path, &self.bytes)
    }

    /// Loads the table at `path`, verifying every record's checksum and
    /// the key order.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] on a malformed file; filesystem errors
    /// otherwise.
    pub fn load<D: BlockDevice>(
        fs: &mut Filesystem<D>,
        path: impl Into<String>,
    ) -> Result<SsTable, DbError> {
        let path = path.into();
        let size = fs.stat(&path)?.size;
        let bytes = fs.read_file(&path, 0, size as usize)?;
        let mut offsets = Vec::new();
        let mut in_order = true;
        let mut prev: Option<&[u8]> = None;
        let mut at = 0;
        while at < bytes.len() {
            let rec = RecordRef::decode_from(&bytes[at..])?;
            in_order &= prev.is_none_or(|p| p < rec.key);
            prev = Some(rec.key);
            offsets.push(at as u32);
            at += rec.encoded.len();
        }
        // Every checksum is verified before the order is judged.
        if !in_order {
            return Err(DbError::Corruption {
                what: format!("SSTable {path} keys out of order"),
            });
        }
        Ok(SsTable::new(path, bytes, offsets))
    }

    /// The file path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The record at offset `at` in the file image.
    fn record(&self, at: u32) -> RecordRef<'_> {
        RecordRef::parse(self.bytes.get(at as usize..).unwrap_or_default())
    }

    /// The records in key order.
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'_>> + '_ {
        self.offsets.iter().map(|&at| self.record(at))
    }

    /// First key, if any.
    pub fn min_key(&self) -> Option<&[u8]> {
        self.offsets.first().map(|&at| self.record(at).key)
    }

    /// Last key, if any.
    pub fn max_key(&self) -> Option<&[u8]> {
        self.offsets.last().map(|&at| self.record(at).key)
    }

    /// Looks a key up in the index. `Some(None)` is a tombstone hit.
    pub(crate) fn get(&self, key: HashedKey<'_>) -> Option<Option<&[u8]>> {
        let at = self.index.find(&self.bytes, key)?;
        Some(self.record(at).value)
    }
}

/// A sorted run the merge reads from.
type Run<'a> = Peekable<Box<dyn Iterator<Item = RecordRef<'a>> + 'a>>;

/// Merges sorted runs, given newest first, into one sorted stream with
/// one record per key: the newest run holding a key wins, and each
/// run's older versions of that key are skipped.
pub(crate) struct Merge<'a> {
    runs: Vec<Run<'a>>,
    /// Runs whose head holds the key being emitted (scratch space).
    tied: Vec<usize>,
}

impl<'a> Merge<'a> {
    /// A merge over `runs`, newest first. Each run must be strictly
    /// ascending by key.
    pub(crate) fn new(runs: Vec<Box<dyn Iterator<Item = RecordRef<'a>> + 'a>>) -> Self {
        Merge {
            tied: Vec::with_capacity(runs.len()),
            runs: runs.into_iter().map(Iterator::peekable).collect(),
        }
    }
}

impl<'a> Iterator for Merge<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        let mut winner: Option<RecordRef<'a>> = None;
        self.tied.clear();
        for (i, run) in self.runs.iter_mut().enumerate() {
            let Some(&head) = run.peek() else { continue };
            match winner.map(|w| head.key.cmp(w.key)) {
                // Strictly smaller only: on a tie the newer run, seen
                // first, keeps the win.
                None | Some(Ordering::Less) => {
                    winner = Some(head);
                    self.tied.clear();
                    self.tied.push(i);
                }
                Some(Ordering::Equal) => self.tied.push(i),
                Some(Ordering::Greater) => {}
            }
        }
        for &i in &self.tied {
            if let Some(run) = self.runs.get_mut(i) {
                run.next();
            }
        }
        winner
    }
}

/// Compacts tables into the bottom level: a k-way [`Merge`] of `runs`
/// (newest first; each run is one or more tables with ascending,
/// non-overlapping keys) with tombstones dropped, split into files of at
/// most [`TARGET_FILE_BYTES`] encoded bytes (a single larger record gets
/// a file of its own).
pub(crate) fn compact(runs: &[Vec<&SsTable>]) -> Vec<TableBuilder> {
    let merge = Merge::new(
        runs.iter()
            .map(|tables| {
                Box::new(tables.iter().flat_map(|t| t.iter()))
                    as Box<dyn Iterator<Item = RecordRef<'_>> + '_>
            })
            .collect(),
    );
    let mut files = Vec::new();
    let mut current = TableBuilder::new();
    for rec in merge.filter(|r| r.value.is_some()) {
        let len = rec.encoded.len();
        if current.encoded_len() + len > TARGET_FILE_BYTES && !current.is_empty() {
            files.push(std::mem::take(&mut current));
        }
        current.push_encoded(rec);
    }
    if !current.is_empty() {
        files.push(current);
    }
    files
}

#[cfg(test)]
impl SsTable {
    /// The file image, for tests outside this module.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::Memtable;
    use crate::record::Record;
    use deepnote_blockdev::MemDisk;
    use deepnote_sim::Clock;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn fs() -> Filesystem<MemDisk> {
        let mut fs = Filesystem::format(MemDisk::new(1 << 17), Clock::new()).unwrap();
        fs.create("/db").unwrap();
        fs
    }

    fn rec(k: &str, v: &str) -> Record {
        Record::put(k, v)
    }

    /// An in-memory table of `records` (unique keys).
    fn table(path: &str, records: &[Record]) -> SsTable {
        let mut m = Memtable::new();
        for r in records {
            m.apply(r.clone());
        }
        m.drain_sorted().finish(path)
    }

    fn owned(t: &SsTable) -> Vec<Record> {
        t.iter().map(|r| r.to_record()).collect()
    }

    fn write(fs: &mut Filesystem<MemDisk>, path: &str, records: &[Record]) -> SsTable {
        let t = table(path, records);
        t.write(fs).unwrap();
        t
    }

    #[test]
    fn write_load_get() {
        let mut fs = fs();
        let records = vec![rec("a", "1"), Record::delete("b"), rec("c", "3")];
        let written = write(&mut fs, "/db/sst_0_1", &records);
        assert_eq!(written.offsets.len(), 3);
        let loaded = SsTable::load(&mut fs, "/db/sst_0_1").unwrap();
        assert_eq!(loaded, written);
        assert_eq!(owned(&loaded), records);
        assert_eq!(loaded.get(HashedKey::new(b"a")), Some(Some(b"1".as_ref())));
        assert_eq!(loaded.get(HashedKey::new(b"b")), Some(None)); // tombstone
        assert_eq!(loaded.get(HashedKey::new(b"x")), None);
        assert_eq!(loaded.get(HashedKey::new(b"0")), None);
        assert_eq!(loaded.min_key(), Some(b"a".as_ref()));
        assert_eq!(loaded.max_key(), Some(b"c".as_ref()));
    }

    #[test]
    fn index_finds_every_key_and_misses_near_misses() {
        // db_bench-shaped keys: 16 zero-padded digits plus a tail, every
        // seventh a tombstone.
        let stored = |i: u32| format!("{:016}-{i:07}", 2 * i);
        let records: Vec<Record> = (0..2_900)
            .map(|i| match i % 7 {
                0 => Record::delete(stored(i)),
                _ => rec(&stored(i), &format!("v{i}")),
            })
            .collect();
        let t = table("t", &records);
        for r in &records {
            assert_eq!(
                t.get(HashedKey::new(&r.key)),
                Some(r.value.as_deref()),
                "{:?}",
                r.key
            );
        }
        // 1 000 absent keys: same first 16 bytes with another tail, the
        // bare 16-byte prefix, and odd numbers never stored.
        let mut absent = Vec::new();
        for i in 0..400 {
            absent.push(format!("{:016}-{:07}", 2 * i, i + 1));
            absent.push(format!("{:016}", 2 * i));
        }
        absent.extend((0..200).map(|i| format!("{:016}-{i:07}", 2 * i + 1)));
        assert_eq!(absent.len(), 1_000);
        for k in &absent {
            assert_eq!(t.get(HashedKey::new(k.as_bytes())), None, "{k}");
        }
    }

    #[test]
    fn file_bytes_are_concatenated_record_encodings() {
        // The on-disk format is unchanged: a table's file is exactly its
        // records' `Record::encode_into` output, back to back.
        let mut fs = fs();
        let records = vec![
            rec("alpha", "one"),
            Record::delete("beta"),
            rec("gamma", ""),
        ];
        let mut expected = Vec::new();
        for r in &records {
            r.encode_into(&mut expected).unwrap();
        }
        let t = write(&mut fs, "/db/s", &records);
        assert_eq!(t.bytes, expected);
        assert_eq!(fs.read_file("/db/s", 0, 4096).unwrap(), expected);
        assert_eq!(SsTable::load(&mut fs, "/db/s").unwrap().bytes, expected);
    }

    #[test]
    fn overwrite_replaces_file() {
        let mut fs = fs();
        write(&mut fs, "/db/s", &[rec("old", "x")]);
        write(&mut fs, "/db/s", &[rec("new", "y")]);
        let loaded = SsTable::load(&mut fs, "/db/s").unwrap();
        assert_eq!(loaded.offsets.len(), 1);
        assert_eq!(
            loaded.get(HashedKey::new(b"new")),
            Some(Some(b"y".as_ref()))
        );
    }

    #[test]
    fn merge_newest_wins_and_drops_tombstones_at_bottom() {
        let newest = table("n", &[rec("a", "new"), Record::delete("b")]);
        let oldest = table("o", &[rec("a", "old"), rec("b", "old"), rec("c", "keep")]);
        let merged: Vec<Record> =
            Merge::new(vec![Box::new(newest.iter()), Box::new(oldest.iter())])
                .map(|r| r.to_record())
                .collect();
        assert_eq!(
            merged,
            vec![rec("a", "new"), Record::delete("b"), rec("c", "keep")]
        );
        let bottom = compact(&[vec![&newest], vec![&oldest]]);
        assert_eq!(bottom.len(), 1);
        let bottom = bottom.into_iter().next().unwrap().finish("l1");
        assert_eq!(owned(&bottom), vec![rec("a", "new"), rec("c", "keep")]);
    }

    #[test]
    fn split_respects_target_size() {
        let big_val = "v".repeat(300_000);
        let records: Vec<Record> = (0..8).map(|i| rec(&format!("k{i}"), &big_val)).collect();
        let files = compact(&[vec![&table("t", &records)]]);
        assert!(files.len() >= 3, "files = {}", files.len());
        for f in &files {
            assert!(f.encoded_len() <= TARGET_FILE_BYTES);
            assert!(!f.is_empty());
        }
    }

    #[test]
    fn corrupt_file_detected() {
        let mut fs = fs();
        write(&mut fs, "/db/s", &[rec("a", "1")]);
        // Flip a byte in place.
        let mut raw = fs.read_file("/db/s", 0, 4096).unwrap();
        raw[8] ^= 0x55;
        fs.write_file("/db/s", 0, &raw).unwrap();
        assert!(matches!(
            SsTable::load(&mut fs, "/db/s"),
            Err(DbError::Corruption { .. })
        ));
    }

    #[test]
    fn out_of_order_file_detected() {
        let mut fs = fs();
        let mut raw = Vec::new();
        rec("b", "2").encode_into(&mut raw).unwrap();
        rec("a", "1").encode_into(&mut raw).unwrap();
        fs.create_file("/db/s").unwrap();
        fs.write_file("/db/s", 0, &raw).unwrap();
        assert!(matches!(
            SsTable::load(&mut fs, "/db/s"),
            Err(DbError::Corruption { what }) if what.contains("out of order")
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The k-way compaction equals the reference newest-wins
        /// `BTreeMap` merge with tombstones dropped, split greedily into
        /// files of at most `TARGET_FILE_BYTES`.
        #[test]
        fn compaction_matches_reference_merge(
            runs in proptest::collection::vec(
                proptest::collection::vec((0u8..40, any::<bool>(), 0usize..160_000), 0..24),
                1..7,
            ),
        ) {
            // Each run: sorted, one version per key; byte values mark the
            // run so newest-wins mistakes show.
            let runs: Vec<Vec<Record>> = runs
                .iter()
                .enumerate()
                .map(|(age, ops)| {
                    let mut run = BTreeMap::new();
                    for &(k, tomb, vlen) in ops {
                        let value = (!tomb).then(|| vec![age as u8; vlen % 2_000 + vlen / 4]);
                        run.insert(vec![b'k', k], value);
                    }
                    run.into_iter().map(|(key, value)| Record { key, value }).collect()
                })
                .collect();

            let mut reference = BTreeMap::new();
            for run in runs.iter().rev() {
                for r in run {
                    reference.insert(r.key.clone(), r.value.clone());
                }
            }
            let mut want: Vec<Vec<Record>> = vec![Vec::new()];
            let mut bytes = 0;
            for (key, value) in reference {
                let Some(value) = value else { continue };
                let r = Record::put(key, value);
                let last = want.last_mut().unwrap();
                if bytes + r.encoded_len() > TARGET_FILE_BYTES && !last.is_empty() {
                    want.push(Vec::new());
                    bytes = 0;
                }
                bytes += r.encoded_len();
                want.last_mut().unwrap().push(r);
            }
            want.retain(|f| !f.is_empty());

            // The oldest run plays L1: split across several tables.
            let mut tables: Vec<Vec<SsTable>> = runs
                .iter()
                .map(|run| vec![table("t", run)])
                .collect();
            if let Some(oldest) = runs.last() {
                let mid = oldest.len() / 2;
                *tables.last_mut().unwrap() =
                    vec![table("l1a", &oldest[..mid]), table("l1b", &oldest[mid..])];
            }
            let inputs: Vec<Vec<&SsTable>> =
                tables.iter().map(|run| run.iter().collect()).collect();
            let got: Vec<Vec<Record>> = compact(&inputs)
                .into_iter()
                .map(|b| owned(&b.finish("out")))
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
