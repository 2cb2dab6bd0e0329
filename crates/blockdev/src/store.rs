//! The sparse sector store behind [`crate::MemDisk`] and
//! [`crate::HddDisk`].

use crate::device::BLOCK_SIZE;
use std::collections::BTreeMap;

/// Sector contents keyed by LBA. Only sectors holding non-zero data are
/// stored: a sector with no entry reads as zeros, so writing zeros
/// removes the entry instead of boxing a zeroed copy. Formatting a
/// filesystem (whose inode table is written as zeros) therefore stores
/// a handful of sectors, and copying a drive image stays cheap.
#[derive(Debug, Default, Clone)]
pub(crate) struct SectorStore {
    sectors: BTreeMap<u64, Box<[u8; BLOCK_SIZE]>>,
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
                Some(data) => dst.copy_from_slice(&data[..]),
                None => dst.fill(0),
            }
        }
    }

    /// Stores `buf` (a whole number of sectors) from `lba` on.
    pub(crate) fn write(&mut self, lba: u64, buf: &[u8]) {
        for (src, at) in buf.chunks_exact(BLOCK_SIZE).zip(lba..) {
            if src.iter().all(|&b| b == 0) {
                self.sectors.remove(&at);
            } else {
                self.sectors
                    .entry(at)
                    .or_insert_with(|| Box::new([0; BLOCK_SIZE]))
                    .copy_from_slice(src);
            }
        }
    }
}
