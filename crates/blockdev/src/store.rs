//! The sparse sector store behind [`crate::MemDisk`] and
//! [`crate::HddDisk`].

use crate::device::BLOCK_SIZE;
use std::collections::hash_map::Entry;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Sectors per page: one 4 KiB filesystem block.
const PAGE_SECTORS: u64 = 8;
/// Bytes per page.
const PAGE_BYTES: usize = PAGE_SECTORS as usize * BLOCK_SIZE;

/// One stored page: a single byte when every byte of it is equal, else
/// a boxed copy of the page up to its last non-zero sector.
#[derive(Debug, Clone)]
enum Page {
    /// Every byte of the page holds this (non-zero) value.
    Fill(u8),
    /// Mixed contents: the page's first whole sectors, through the last
    /// one holding a non-zero byte. The sectors after them read as
    /// zeros.
    Data(Box<[u8]>),
}

/// Sector contents keyed by 4 KiB page (8 sectors, one filesystem
/// block), holding only live bytes:
///
/// * a page with no entry reads as zeros, so writing zeros removes the
///   entry instead of boxing a zeroed copy (formatting a filesystem,
///   whose inode table is written as zeros, stores a handful of pages,
///   and copying a drive image stays cheap);
/// * a page whose bytes are all equal is one byte ([`Page::Fill`]), so a
///   benchmark's constant write buffer costs no boxes;
/// * a mixed page is boxed only up to its last non-zero sector, so a
///   journal descriptor or a log tail that is mostly zeros stays small;
/// * [`SectorStore::discard`] drops pages the host no longer needs.
///
/// A block write costs one hash and at most one allocation. A request
/// that covers part of a page reads the page, changes its sectors and
/// stores it again.
///
/// The map is a `HashMap` under a fixed, unseeded multiplicative hash of
/// the page number. Only [`SectorStore::len`] iterates it, and a sum
/// does not depend on order; every other access is a point lookup, so
/// key order is unobservable and runs stay identical per seed.
#[derive(Debug, Default, Clone)]
pub(crate) struct SectorStore {
    // deepnote-lint: allow(nondet-collection): point lookups and an order-free count only; unseeded hash
    pages: std::collections::HashMap<u64, Page, BuildHasherDefault<PageHasher>>,
}

/// Fibonacci hashing of a `u64` page number: one multiply by 2^64 / φ.
/// The low bits of the product (the bucket index) are a bijection of the
/// page number's low bits, so consecutive pages land in distinct
/// buckets, and the high bits (the probe tag) mix the whole number.
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIBONACCI);
        }
    }

    fn write_u64(&mut self, page: u64) {
        self.0 = page.wrapping_mul(FIBONACCI);
    }
}

impl SectorStore {
    /// Number of sectors holding non-zero data.
    pub(crate) fn len(&self) -> usize {
        self.pages
            .values()
            .map(|page| match page {
                Page::Fill(_) => PAGE_SECTORS as usize,
                Page::Data(data) => data
                    .chunks_exact(BLOCK_SIZE)
                    .filter(|s| !is_zero(s))
                    .count(),
            })
            .sum()
    }

    /// Copies the sectors from `lba` on into `buf` (a whole number of
    /// sectors, already validated by the device).
    pub(crate) fn read(&self, lba: u64, buf: &mut [u8]) {
        let mut rest = buf;
        for (page, at, len) in spans(lba, sectors(rest)) {
            let (dst, tail) = rest.split_at_mut(len.min(rest.len()));
            self.read_part(page, at, dst);
            rest = tail;
        }
    }

    /// Stores `buf` (a whole number of sectors) from `lba` on.
    pub(crate) fn write(&mut self, lba: u64, buf: &[u8]) {
        let mut rest = buf;
        for (page, at, len) in spans(lba, sectors(rest)) {
            let (src, tail) = rest.split_at(len.min(rest.len()));
            if len == PAGE_BYTES {
                self.store(page, src);
            } else {
                self.patch(page, at..at + len, |part| part.copy_from_slice(src));
            }
            rest = tail;
        }
    }

    /// Forgets `blocks` sectors from `lba` on (a range already clamped
    /// to the device): they read as zeros again.
    pub(crate) fn discard(&mut self, lba: u64, blocks: u64) {
        for (page, at, len) in spans(lba, blocks) {
            if len == PAGE_BYTES {
                self.pages.remove(&page);
            } else if self.pages.contains_key(&page) {
                self.patch(page, at..at + len, |part| part.fill(0));
            }
        }
    }

    /// Copies page `page` from byte `at` on into `dst`, which ends within
    /// the page.
    fn read_part(&self, page: u64, at: usize, dst: &mut [u8]) {
        match self.pages.get(&page) {
            Some(Page::Fill(byte)) => dst.fill(*byte),
            Some(Page::Data(data)) => {
                let held = data.get(at..).unwrap_or_default();
                let n = held.len().min(dst.len());
                let (head, tail) = dst.split_at_mut(n);
                head.copy_from_slice(held.get(..n).unwrap_or_default());
                tail.fill(0);
            }
            None => dst.fill(0),
        }
    }

    /// Rewrites the bytes `range` of page `page` (whole sectors within
    /// the page) with `change`, keeping the rest of the page.
    fn patch(&mut self, page: u64, range: Range<usize>, change: impl FnOnce(&mut [u8])) {
        let mut whole = [0; PAGE_BYTES];
        self.read_part(page, 0, &mut whole);
        if let Some(part) = whole.get_mut(range) {
            change(part);
        }
        self.store(page, &whole);
    }

    /// Stores one whole page.
    fn store(&mut self, page: u64, src: &[u8]) {
        if is_uniform(src) {
            match src.first() {
                Some(&byte) if byte != 0 => {
                    self.pages.insert(page, Page::Fill(byte));
                }
                _ => {
                    self.pages.remove(&page);
                }
            }
            return;
        }
        let held = trimmed(src);
        match self.pages.entry(page) {
            Entry::Occupied(mut slot) => match slot.get_mut() {
                Page::Data(data) if data.len() == held.len() => data.copy_from_slice(held),
                other => *other = Page::Data(held.into()),
            },
            Entry::Vacant(slot) => {
                slot.insert(Page::Data(held.into()));
            }
        }
    }
}

/// The whole sectors in `buf`.
fn sectors(buf: &[u8]) -> u64 {
    (buf.len() / BLOCK_SIZE) as u64
}

/// The pages that `count` sectors from `lba` on cover, in order, each
/// as (page number, byte offset of the span in the page, span length in
/// bytes).
fn spans(lba: u64, count: u64) -> impl Iterator<Item = (u64, usize, usize)> {
    let mut sector = lba;
    let mut left = count;
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let first = sector % PAGE_SECTORS;
        let n = (PAGE_SECTORS - first).min(left);
        let span = (
            sector / PAGE_SECTORS,
            first as usize * BLOCK_SIZE,
            n as usize * BLOCK_SIZE,
        );
        sector += n;
        left -= n;
        Some(span)
    })
}

/// The page `src` through its last sector that holds a non-zero byte.
fn trimmed(src: &[u8]) -> &[u8] {
    let sectors = src
        .chunks_exact(BLOCK_SIZE)
        .rposition(|s| !is_zero(s))
        .map_or(0, |last| last + 1);
    src.get(..sectors * BLOCK_SIZE).unwrap_or(src)
}

/// Whether every byte of the sector `src` is zero.
fn is_zero(src: &[u8]) -> bool {
    src.first() == Some(&0) && is_uniform(src)
}

/// Bytes [`is_uniform`] tests without an early exit.
const UNIFORM_CHUNK: usize = 64;
const _: () = assert!(BLOCK_SIZE.is_multiple_of(UNIFORM_CHUNK));

/// Whether every byte of `src` (a sector or a page) equals its first.
/// Each 64-byte chunk is tested whole (an OR of XORs, no early exit
/// inside it), which the compiler turns into a few vector instructions;
/// the scan stops after the first chunk that differs.
fn is_uniform(src: &[u8]) -> bool {
    let first = src.first().copied().unwrap_or(0);
    src.chunks_exact(UNIFORM_CHUNK)
        .all(|chunk| chunk.iter().fold(0, |diff, &b| diff | (b ^ first)) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn read(store: &SectorStore, lba: u64) -> Vec<u8> {
        let mut out = vec![0xFF; BLOCK_SIZE];
        store.read(lba, &mut out);
        out
    }

    fn page(store: &SectorStore, lba: u64) -> Option<&Page> {
        store.pages.get(&(lba / PAGE_SECTORS))
    }

    /// The bytes a `Data` page holds, if it is one.
    fn held(store: &SectorStore, lba: u64) -> Option<usize> {
        match page(store, lba) {
            Some(Page::Data(data)) => Some(data.len()),
            _ => None,
        }
    }

    #[test]
    fn fill_sector_reads_back_and_overwrites_cleanly() {
        let mut store = SectorStore::default();
        store.write(32, &[0xD5; PAGE_BYTES]);
        assert!(matches!(page(&store, 32), Some(Page::Fill(0xD5))));
        assert_eq!(read(&store, 36), vec![0xD5; BLOCK_SIZE]);
        assert_eq!(store.len(), 8);

        let mixed: Vec<u8> = (0..PAGE_BYTES).map(|i| (i % 251) as u8).collect();
        store.write(32, &mixed);
        assert_eq!(held(&store, 32), Some(PAGE_BYTES));
        let mut back = vec![0xAA; PAGE_BYTES];
        store.read(32, &mut back);
        assert_eq!(back, mixed);

        store.write(32, &[0; PAGE_BYTES]);
        assert_eq!(read(&store, 32), vec![0; BLOCK_SIZE]);
        assert_eq!(store.len(), 0);
        assert!(store.pages.is_empty());
    }

    #[test]
    fn one_odd_byte_anywhere_makes_a_data_sector() {
        let mut store = SectorStore::default();
        for at in (0..PAGE_BYTES).step_by(7).chain([PAGE_BYTES - 1]) {
            let mut whole = vec![0xD5; PAGE_BYTES];
            whole[at] = 0xD4;
            store.write(8, &whole);
            assert_eq!(held(&store, 8), Some(PAGE_BYTES), "odd byte at {at}");
            let mut back = vec![0; PAGE_BYTES];
            store.read(8, &mut back);
            assert_eq!(back, whole, "odd byte at {at}");
        }
        store.write(8, &[0; PAGE_BYTES]);
        assert_eq!(store.len(), 0);
        store.write(8, &[0xFF; PAGE_BYTES]);
        assert!(matches!(page(&store, 8), Some(Page::Fill(0xFF))));
    }

    #[test]
    fn one_write_of_zero_fill_and_data_sectors() {
        let mut store = SectorStore::default();
        let mut buf = vec![0u8; PAGE_BYTES * 3];
        buf[PAGE_BYTES..2 * PAGE_BYTES].fill(0xFF);
        buf[2 * PAGE_BYTES + 100] = 1;
        store.write(160, &buf);
        assert!(page(&store, 160).is_none());
        assert!(matches!(page(&store, 168), Some(Page::Fill(0xFF))));
        // Only the first sector of the last page holds data.
        assert_eq!(held(&store, 176), Some(BLOCK_SIZE));
        assert_eq!(store.len(), 9);
        let mut back = vec![0xAA; buf.len()];
        store.read(160, &mut back);
        assert_eq!(back, buf);
    }

    #[test]
    fn mixed_then_fill_then_mixed() {
        let mut store = SectorStore::default();
        let mut mixed = vec![7u8; PAGE_BYTES];
        mixed[PAGE_BYTES - 1] = 8;
        store.write(0, &mixed);
        store.write(0, &[9; PAGE_BYTES]);
        let mut back = vec![0; PAGE_BYTES];
        store.read(0, &mut back);
        assert_eq!(back, vec![9; PAGE_BYTES]);
        store.write(0, &mixed);
        store.read(0, &mut back);
        assert_eq!(back, mixed);
        assert_eq!(store.len(), 8);
        assert_eq!(store.pages.len(), 1);
    }

    #[test]
    fn discard_forgets_only_its_range() {
        let mut store = SectorStore::default();
        let data: Vec<u8> = (0..BLOCK_SIZE * 20).map(|i| (i % 13) as u8 + 1).collect();
        store.write(6, &data);
        // Sectors 10..24 are the end of one page and all of the next.
        store.discard(10, 14);
        assert_eq!(store.len(), 6);
        assert!(page(&store, 16).is_none(), "a whole page is one remove");
        for lba in 10..24 {
            assert_eq!(read(&store, lba), vec![0; BLOCK_SIZE]);
        }
        for lba in (6..10).chain(24..26) {
            let at = (lba - 6) as usize * BLOCK_SIZE;
            assert_eq!(read(&store, lba), data[at..at + BLOCK_SIZE]);
        }
        // The first page now ends in zero sectors: it is trimmed.
        assert_eq!(held(&store, 8), Some(2 * BLOCK_SIZE));
        // Discarding what was never written is a no-op.
        store.discard(1_000, 8);
        assert_eq!(store.len(), 6);
    }

    /// One sector of test data: zeros, one repeated byte, or mixed
    /// bytes that are mostly zero or mostly not, chosen by `kind`.
    fn sector(kind: u64, seed: u64) -> Vec<u8> {
        let byte = (seed % 255) as u8 + 1;
        match kind % 4 {
            0 => vec![0; BLOCK_SIZE],
            1 => vec![byte; BLOCK_SIZE],
            2 => {
                let mut s = vec![0; BLOCK_SIZE];
                s[(seed % BLOCK_SIZE as u64) as usize] = byte;
                s
            }
            _ => (0..BLOCK_SIZE)
                .map(|i| (i as u64).wrapping_mul(seed | 1).to_le_bytes()[1])
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The page store reads back what a map of non-zero sectors
        /// holds, over writes, reads and discards of any alignment and
        /// length, and counts the same non-zero sectors.
        #[test]
        fn matches_a_map_of_nonzero_sectors(
            ops in proptest::collection::vec((0u8..3, 0u64..48, 1u64..20, any::<u64>()), 1..40),
        ) {
            let mut store = SectorStore::default();
            let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for (op, lba, n, seed) in ops {
                match op {
                    0 => {
                        let mut buf = Vec::new();
                        for i in 0..n {
                            let kinds = seed.rotate_left(2 * i as u32);
                            let s = sector(kinds, seed ^ i);
                            if s.iter().any(|&b| b != 0) {
                                model.insert(lba + i, s.clone());
                            } else {
                                model.remove(&(lba + i));
                            }
                            buf.extend_from_slice(&s);
                        }
                        store.write(lba, &buf);
                    }
                    1 => {
                        store.discard(lba, n);
                        for at in lba..lba + n {
                            model.remove(&at);
                        }
                    }
                    _ => {
                        let mut buf = vec![0xA5; n as usize * BLOCK_SIZE];
                        store.read(lba, &mut buf);
                        for (i, got) in buf.chunks_exact(BLOCK_SIZE).enumerate() {
                            let at = lba + i as u64;
                            let want = model.get(&at).cloned().unwrap_or(vec![0; BLOCK_SIZE]);
                            prop_assert_eq!(got, &want[..], "sector {}", at);
                        }
                    }
                }
                prop_assert_eq!(store.len(), model.len());
            }
            let mut all = vec![0xA5; 72 * BLOCK_SIZE];
            store.read(0, &mut all);
            for (at, got) in all.chunks_exact(BLOCK_SIZE).enumerate() {
                let want = model.get(&(at as u64)).cloned().unwrap_or(vec![0; BLOCK_SIZE]);
                prop_assert_eq!(got, &want[..], "final sector {}", at);
            }
        }
    }
}
