//! The sparse sector store behind [`crate::MemDisk`] and
//! [`crate::HddDisk`].

use crate::device::BLOCK_SIZE;
use std::collections::hash_map::Entry;
use std::hash::{BuildHasherDefault, Hasher};

/// One stored sector: a single byte when every byte of it is equal,
/// else a boxed copy.
#[derive(Debug, Clone)]
enum Sector {
    /// Every byte of the sector holds this (non-zero) value.
    Fill(u8),
    /// Mixed contents.
    Data(Box<[u8; BLOCK_SIZE]>),
}

/// Sector contents keyed by LBA, holding only live bytes:
///
/// * a sector with no entry reads as zeros, so writing zeros removes the
///   entry instead of boxing a zeroed copy (formatting a filesystem,
///   whose inode table is written as zeros, stores a handful of sectors,
///   and copying a drive image stays cheap);
/// * a sector whose bytes are all equal is one byte ([`Sector::Fill`]),
///   so a benchmark's constant write buffer costs no boxes;
/// * [`SectorStore::discard`] drops sectors the host no longer needs.
///
/// The map is a `HashMap` under a fixed, unseeded multiplicative hash of
/// the LBA. Nothing iterates it — every access is a point lookup by
/// LBA — so its key order is unobservable and runs stay identical per
/// seed.
#[derive(Debug, Default, Clone)]
pub(crate) struct SectorStore {
    // deepnote-lint: allow(nondet-collection): point lookups only, never iterated; unseeded hash
    sectors: std::collections::HashMap<u64, Sector, BuildHasherDefault<LbaHasher>>,
}

/// Fibonacci hashing of a `u64` LBA: one multiply by 2^64 / φ. The low
/// bits of the product (the bucket index) are a bijection of the LBA's
/// low bits, so consecutive LBAs land in distinct buckets, and the high
/// bits (the probe tag) mix the whole LBA.
#[derive(Debug, Default, Clone, Copy)]
struct LbaHasher(u64);

const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for LbaHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIBONACCI);
        }
    }

    fn write_u64(&mut self, lba: u64) {
        self.0 = lba.wrapping_mul(FIBONACCI);
    }
}

impl SectorStore {
    /// Number of sectors holding non-zero data.
    pub(crate) fn len(&self) -> usize {
        self.sectors.len()
    }

    /// Copies the sectors from `lba` on into `buf` (a whole number of
    /// sectors, already validated by the device).
    pub(crate) fn read(&self, lba: u64, buf: &mut [u8]) {
        for (dst, at) in buf.chunks_exact_mut(BLOCK_SIZE).zip(lba..) {
            match self.sectors.get(&at) {
                Some(Sector::Fill(byte)) => dst.fill(*byte),
                Some(Sector::Data(data)) => dst.copy_from_slice(&data[..]),
                None => dst.fill(0),
            }
        }
    }

    /// Stores `buf` (a whole number of sectors) from `lba` on.
    pub(crate) fn write(&mut self, lba: u64, buf: &[u8]) {
        for (src, at) in buf.chunks_exact(BLOCK_SIZE).zip(lba..) {
            let uniform = is_uniform(src);
            if uniform && src[0] == 0 {
                self.sectors.remove(&at);
                continue;
            }
            match self.sectors.entry(at) {
                Entry::Occupied(mut slot) => match (slot.get_mut(), uniform) {
                    (Sector::Data(data), false) => data.copy_from_slice(src),
                    (sector, _) => *sector = Sector::new(src, uniform),
                },
                Entry::Vacant(slot) => {
                    slot.insert(Sector::new(src, uniform));
                }
            }
        }
    }

    /// Forgets `blocks` sectors from `lba` on (a range already clamped
    /// to the device): they read as zeros again.
    pub(crate) fn discard(&mut self, lba: u64, blocks: u64) {
        for at in lba..lba + blocks {
            self.sectors.remove(&at);
        }
    }
}

/// Bytes [`is_uniform`] tests without an early exit.
const UNIFORM_CHUNK: usize = 64;
const _: () = assert!(BLOCK_SIZE.is_multiple_of(UNIFORM_CHUNK));

/// Whether every byte of the sector `src` equals its first. Each
/// 64-byte chunk is tested whole (an OR of XORs, no early exit inside
/// it), which the compiler turns into a few vector instructions; the
/// scan stops after the first chunk that differs.
fn is_uniform(src: &[u8]) -> bool {
    let first = src[0];
    src.chunks_exact(UNIFORM_CHUNK)
        .all(|chunk| chunk.iter().fold(0, |diff, &b| diff | (b ^ first)) == 0)
}

impl Sector {
    /// The stored form of `src`, one sector whose bytes are all equal
    /// when `uniform`.
    fn new(src: &[u8], uniform: bool) -> Self {
        if uniform {
            return Sector::Fill(src[0]);
        }
        let mut data = Box::new([0; BLOCK_SIZE]);
        data.copy_from_slice(src);
        Sector::Data(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(store: &SectorStore, lba: u64) -> Vec<u8> {
        let mut out = vec![0xFF; BLOCK_SIZE];
        store.read(lba, &mut out);
        out
    }

    #[test]
    fn fill_sector_reads_back_and_overwrites_cleanly() {
        let mut store = SectorStore::default();
        store.write(4, &[0xD5; BLOCK_SIZE]);
        assert!(matches!(store.sectors.get(&4), Some(Sector::Fill(0xD5))));
        assert_eq!(read(&store, 4), vec![0xD5; BLOCK_SIZE]);

        let mixed: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        store.write(4, &mixed);
        assert!(matches!(store.sectors.get(&4), Some(Sector::Data(_))));
        assert_eq!(read(&store, 4), mixed);

        store.write(4, &[0; BLOCK_SIZE]);
        assert_eq!(read(&store, 4), vec![0; BLOCK_SIZE]);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn one_odd_byte_anywhere_makes_a_data_sector() {
        let mut store = SectorStore::default();
        for at in 0..BLOCK_SIZE {
            let mut sector = vec![0xD5; BLOCK_SIZE];
            sector[at] = 0xD4;
            store.write(7, &sector);
            assert!(
                matches!(store.sectors.get(&7), Some(Sector::Data(_))),
                "odd byte at {at}"
            );
            assert_eq!(read(&store, 7), sector);
        }
        store.write(7, &[0; BLOCK_SIZE]);
        assert_eq!(store.len(), 0);
        store.write(7, &[0xFF; BLOCK_SIZE]);
        assert!(matches!(store.sectors.get(&7), Some(Sector::Fill(0xFF))));
    }

    #[test]
    fn one_write_of_zero_fill_and_data_sectors() {
        let mut store = SectorStore::default();
        let mut buf = vec![0u8; BLOCK_SIZE * 3];
        buf[BLOCK_SIZE..2 * BLOCK_SIZE].fill(0xFF);
        buf[2 * BLOCK_SIZE + 100] = 1;
        store.write(20, &buf);
        assert!(!store.sectors.contains_key(&20));
        assert!(matches!(store.sectors.get(&21), Some(Sector::Fill(0xFF))));
        assert!(matches!(store.sectors.get(&22), Some(Sector::Data(_))));
        let mut back = vec![0xAA; buf.len()];
        store.read(20, &mut back);
        assert_eq!(back, buf);
    }

    #[test]
    fn mixed_then_fill_then_mixed() {
        let mut store = SectorStore::default();
        let mut mixed = vec![7u8; BLOCK_SIZE];
        mixed[BLOCK_SIZE - 1] = 8;
        store.write(0, &mixed);
        store.write(0, &[9; BLOCK_SIZE]);
        assert_eq!(read(&store, 0), vec![9; BLOCK_SIZE]);
        store.write(0, &mixed);
        assert_eq!(read(&store, 0), mixed);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn discard_forgets_only_its_range() {
        let mut store = SectorStore::default();
        let data: Vec<u8> = (0..BLOCK_SIZE * 6).map(|i| (i % 13) as u8 + 1).collect();
        store.write(10, &data);
        store.discard(11, 3);
        assert_eq!(store.len(), 3);
        for lba in 11..14 {
            assert_eq!(read(&store, lba), vec![0; BLOCK_SIZE]);
        }
        for lba in [10u64, 14, 15] {
            let at = (lba - 10) as usize * BLOCK_SIZE;
            assert_eq!(read(&store, lba), data[at..at + BLOCK_SIZE]);
        }
        // Discarding what was never written is a no-op.
        store.discard(1_000, 8);
        assert_eq!(store.len(), 3);
    }
}
