//! The point-lookup index shared by the memtable and the SSTables.
//!
//! Both keep their records encoded, back to back, in one buffer: the
//! memtable's log and a table's file image. A [`KeyIndex`] maps each key
//! to the offset of its record in that buffer. It is an open-addressing
//! hash table with linear probing whose slots hold `offset + 1` as a
//! `u32` (0 marks an empty slot), kept at most half full. Keys are not
//! copied: a probe compares the wanted key with the key bytes in the
//! buffer, in place, so a lookup is one hash and, almost always, one key
//! comparison. A [`HashedKey`] carries that hash, so a read that probes
//! the memtable and several tables hashes its key once.
//!
//! The hash is fixed and unseeded, so the slot layout is a pure function
//! of the keys inserted. Nothing observable depends on it: the callers
//! sort wherever key order matters.

use crate::record::RecordRef;

/// Slots of the smallest non-empty index.
const MIN_SLOTS: usize = 16;

/// A key with its hash, computed once and handed to every index the
/// key is looked up in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HashedKey<'a> {
    key: &'a [u8],
    hash: u64,
}

impl<'a> HashedKey<'a> {
    /// Hashes `key`.
    pub(crate) fn new(key: &'a [u8]) -> Self {
        HashedKey {
            key,
            hash: hash(key),
        }
    }
}

/// A hash index from keys to the offsets of their records in one
/// encoded buffer. Every call must pass the same buffer (grown, never
/// rewritten, between calls).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct KeyIndex {
    /// `offset + 1` per occupied slot, 0 for an empty one.
    slots: Vec<u32>,
    len: usize,
}

impl KeyIndex {
    /// The index of the records at `offsets` in `buf`, whose keys are
    /// distinct (a table's: they strictly ascend). Each record goes to
    /// the first free slot of its walk without a key comparison.
    pub(crate) fn of_distinct(buf: &[u8], offsets: &[u32]) -> Self {
        let mut index = KeyIndex {
            slots: vec![0; offsets.len().saturating_mul(2).max(MIN_SLOTS)],
            len: offsets.len(),
        };
        for &at in offsets {
            index.place(key_at(buf, at), at.saturating_add(1));
        }
        index
    }

    /// Empties the index, keeping its slots.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(0);
        self.len = 0;
    }

    /// Number of keys indexed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The offset in `buf` of the record holding `key`.
    pub(crate) fn find(&self, buf: &[u8], key: HashedKey<'_>) -> Option<u32> {
        let (_, id) = self.probe(buf, key)?;
        id.checked_sub(1)
    }

    /// Points `key` at the record at offset `at` in `buf`, returning the
    /// offset it pointed at before, if any. Callers keep every record
    /// within the first `u32::MAX` bytes, so `at + 1` fits a slot.
    pub(crate) fn insert(&mut self, buf: &[u8], key: &[u8], at: u32) -> Option<u32> {
        let key = HashedKey::new(key);
        let mut found = self.probe(buf, key);
        if found.is_none_or(|(_, id)| id == 0) && (self.len + 1) * 2 > self.slots.len() {
            self.grow(buf);
            found = self.probe(buf, key);
        }
        let (i, old) = found?;
        let slot = self.slots.get_mut(i)?;
        *slot = at.saturating_add(1);
        if old == 0 {
            self.len += 1;
        }
        old.checked_sub(1)
    }

    /// The offsets of every indexed record, in slot order.
    pub(crate) fn offsets(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().filter_map(|&id| id.checked_sub(1))
    }

    /// The slot holding `key`, or the empty slot where it would go, with
    /// the slot's contents; `None` for an index with no slots.
    fn probe(&self, buf: &[u8], key: HashedKey<'_>) -> Option<(usize, u32)> {
        let mut i = home(key.hash, self.slots.len())?;
        loop {
            // At most half the slots are taken: the walk meets an empty
            // one.
            let id = self.slots.get(i).copied().unwrap_or(0);
            if id == 0 || key_at(buf, id - 1) == key.key {
                return Some((i, id));
            }
            i = next(i, self.slots.len());
        }
    }

    /// Doubles the slot count (or allocates the first slots) and
    /// re-places every key.
    fn grow(&mut self, buf: &[u8]) {
        let doubled = vec![0; (self.slots.len() * 2).max(MIN_SLOTS)];
        let old = std::mem::replace(&mut self.slots, doubled);
        for id in old.into_iter().filter(|&id| id != 0) {
            self.place(key_at(buf, id - 1), id);
        }
    }

    /// Puts `id` in the first free slot of `key`'s walk, for a key not
    /// yet in the index.
    fn place(&mut self, key: &[u8], id: u32) {
        let n = self.slots.len();
        let mut i = home(hash(key), n).unwrap_or(0);
        while let Some(slot) = self.slots.get_mut(i) {
            if *slot == 0 {
                *slot = id;
                return;
            }
            i = next(i, n);
        }
    }
}

/// The slot where the walk for a key with hash `h` starts among `n`
/// (none if `n` is 0): the hash scaled to `0..n` by a widening
/// multiply, so any slot count works and a table needs no power-of-two
/// padding.
fn home(h: u64, n: usize) -> Option<usize> {
    (n > 0).then(|| ((u128::from(h) * n as u128) >> 64) as usize)
}

/// The slot after `i` among `n`, wrapping around.
fn next(i: usize, n: usize) -> usize {
    if i + 1 < n {
        i + 1
    } else {
        0
    }
}

/// The key of the record at offset `at` in `buf`.
fn key_at(buf: &[u8], at: u32) -> &[u8] {
    RecordRef::parse(buf.get(at as usize..).unwrap_or_default()).key
}

/// A fixed 64-bit hash: the key folded in 8-byte words, then murmur3's
/// `fmix64` finalizer, which makes every output bit depend on every key
/// byte. Without it a multiply-only fold leaves the low bits blind to
/// each word's last bytes (a product's low bits see only the factors'
/// low bits), and those are where `db_bench`'s zero-padded decimal keys
/// differ: an index that took its slot from those bits would pile them
/// into long probe runs.
fn hash(key: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = key.len() as u64;
    let mut words = key.chunks_exact(8);
    for word in &mut words {
        h = (h ^ u64::from_le_bytes(word.try_into().unwrap_or_default())).wrapping_mul(K);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(K);
    }
    fmix64(h)
}

/// murmur3's 64-bit finalizer: every input bit reaches every output bit.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    /// A buffer of `keys`' put records and each record's offset.
    fn log(keys: &[Vec<u8>]) -> (Vec<u8>, Vec<u32>) {
        let mut buf = Vec::new();
        let mut offsets = Vec::new();
        for k in keys {
            offsets.push(buf.len() as u32);
            Record::put(k.clone(), "v").encode_into(&mut buf).unwrap();
        }
        (buf, offsets)
    }

    #[test]
    fn finds_every_key_across_doublings_and_misses_the_rest() {
        let keys: Vec<Vec<u8>> = (0..5_000)
            .map(|i| format!("{i:016}").into_bytes())
            .collect();
        let (buf, offsets) = log(&keys);
        let mut index = KeyIndex::default();
        for (k, &at) in keys.iter().zip(&offsets) {
            assert_eq!(index.insert(&buf, k, at), None);
        }
        assert_eq!(index.len(), keys.len());
        for (k, &at) in keys.iter().zip(&offsets) {
            assert_eq!(index.find(&buf, HashedKey::new(k)), Some(at));
        }
        assert_eq!(index.find(&buf, HashedKey::new(b"0000000000005000")), None);
        assert_eq!(index.find(&buf, HashedKey::new(b"")), None);
        let mut all: Vec<u32> = index.offsets().collect();
        all.sort_unstable();
        assert_eq!(all, offsets);
    }

    #[test]
    fn reinsert_replaces_and_reports_the_old_offset() {
        let keys = vec![b"k".to_vec(), b"j".to_vec(), b"k".to_vec()];
        let (buf, offsets) = log(&keys);
        let mut index = KeyIndex::default();
        index.insert(&buf, b"k", offsets[0]);
        index.insert(&buf, b"j", offsets[1]);
        assert_eq!(index.insert(&buf, b"k", offsets[2]), Some(offsets[0]));
        assert_eq!(index.len(), 2);
        assert_eq!(index.find(&buf, HashedKey::new(b"k")), Some(offsets[2]));
    }

    #[test]
    fn empty_index_misses() {
        assert_eq!(KeyIndex::default().find(&[], HashedKey::new(b"k")), None);
        let empty = KeyIndex::of_distinct(&[], &[]);
        assert_eq!(empty.find(&[], HashedKey::new(b"")), None);
    }

    #[test]
    fn decimal_keys_spread_over_the_slots() {
        // Keys that differ only in their last bytes must not share hash
        // bits, low or high, and the longest probe run stays short.
        let keys: Vec<Vec<u8>> = (0..2_048)
            .map(|i| format!("{i:016}").into_bytes())
            .collect();
        let distinct = |bits: fn(u64) -> u64| {
            let mut seen: Vec<u64> = keys.iter().map(|k| bits(hash(k))).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        assert!(distinct(|h| h & 0xFFF) > 1_000);
        assert!(distinct(|h| h >> 52) > 1_000);
        let (buf, offsets) = log(&keys);
        let index = KeyIndex::of_distinct(&buf, &offsets);
        for (k, &at) in keys.iter().zip(&offsets) {
            assert_eq!(index.find(&buf, HashedKey::new(k)), Some(at));
        }
        let mut longest = 0;
        let mut run = 0;
        for &id in index.slots.iter().chain(&index.slots) {
            run = if id == 0 { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        assert!(longest < 40, "longest probe run {longest}");
    }
}
