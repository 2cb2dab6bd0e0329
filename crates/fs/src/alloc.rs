//! Bitmap allocators for inodes and data blocks.
//!
//! The bitmaps are held in memory while mounted and persisted through the
//! journal like any other metadata block.

use crate::error::FsError;
use crate::layout::FS_BLOCK_SIZE;
use serde::{Deserialize, Serialize};

/// A simple first-fit bitmap allocator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmap {
    bits: Vec<u8>,
    capacity: u64,
    allocated: u64,
    next_hint: u64,
}

impl Bitmap {
    /// Creates an empty bitmap tracking `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "bitmap capacity must be positive");
        Bitmap {
            bits: vec![0u8; capacity.div_ceil(8) as usize],
            capacity,
            allocated: 0,
            next_hint: 0,
        }
    }

    /// Restores a bitmap from its on-disk bytes. The bytes are kept as
    /// read; bits past `capacity` in the last byte are not counted as
    /// allocated.
    pub fn from_bytes(capacity: u64, bytes: &[u8]) -> Self {
        let mut bm = Bitmap::new(capacity);
        let n = bm.bits.len().min(bytes.len());
        bm.bits[..n].copy_from_slice(&bytes[..n]);
        let whole = (capacity / 8) as usize;
        let tail_mask = (1u16 << (capacity % 8)) as u8 - 1;
        let (full, tail) = bm.bits.split_at(whole);
        bm.allocated = full.iter().map(|b| u64::from(b.count_ones())).sum::<u64>()
            + tail
                .first()
                .map_or(0, |b| u64::from((b & tail_mask).count_ones()));
        bm
    }

    /// The on-disk image of the bitmap's `i`-th filesystem block: its
    /// share of the bytes, zero-padded to a whole block.
    pub(crate) fn block_image(&self, i: u64) -> Vec<u8> {
        let mut block = vec![0u8; FS_BLOCK_SIZE];
        let bytes = self
            .bits
            .chunks(FS_BLOCK_SIZE)
            .nth(i as usize)
            .unwrap_or(&[]);
        block[..bytes.len()].copy_from_slice(bytes);
        block
    }

    /// Number of free items.
    pub fn free(&self) -> u64 {
        self.capacity - self.allocated
    }

    /// Whether item `index` is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn is_set(&self, index: u64) -> bool {
        assert!(index < self.capacity, "bitmap index {index} out of range");
        self.bits[(index / 8) as usize] & (1 << (index % 8)) != 0
    }

    /// Allocates one item, first-fit with a rotating hint.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when full.
    pub fn alloc(&mut self) -> Result<u64, FsError> {
        if self.allocated >= self.capacity {
            return Err(FsError::NoSpace);
        }
        for probe in 0..self.capacity {
            let idx = (self.next_hint + probe) % self.capacity;
            if !self.is_set(idx) {
                self.bits[(idx / 8) as usize] |= 1 << (idx % 8);
                self.allocated += 1;
                self.next_hint = (idx + 1) % self.capacity;
                return Ok(idx);
            }
        }
        Err(FsError::NoSpace)
    }

    /// Marks a specific item allocated (used when replaying / reserving).
    ///
    /// Idempotent: setting an already-set bit is a no-op.
    pub fn set(&mut self, index: u64) {
        assert!(index < self.capacity, "bitmap index {index} out of range");
        if !self.is_set(index) {
            self.bits[(index / 8) as usize] |= 1 << (index % 8);
            self.allocated += 1;
        }
    }

    /// Frees an item.
    ///
    /// # Panics
    ///
    /// Panics if the item is not allocated (double free) or out of range.
    pub fn free_item(&mut self, index: u64) {
        assert!(self.is_set(index), "double free of bitmap item {index}");
        self.bits[(index / 8) as usize] &= !(1 << (index % 8));
        self.allocated -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_free_cycle() {
        let mut bm = Bitmap::new(16);
        let a = bm.alloc().unwrap();
        let b = bm.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(bm.allocated, 2);
        bm.free_item(a);
        assert_eq!(bm.allocated, 1);
        assert!(!bm.is_set(a));
        assert!(bm.is_set(b));
    }

    #[test]
    fn exhaustion_returns_nospace() {
        let mut bm = Bitmap::new(3);
        for _ in 0..3 {
            bm.alloc().unwrap();
        }
        assert_eq!(bm.alloc(), Err(FsError::NoSpace));
        assert_eq!(bm.free(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut bm = Bitmap::new(4);
        let a = bm.alloc().unwrap();
        bm.free_item(a);
        bm.free_item(a);
    }

    #[test]
    fn persistence_roundtrip() {
        let mut bm = Bitmap::new(100);
        for _ in 0..37 {
            bm.alloc().unwrap();
        }
        bm.free_item(5);
        let restored = Bitmap::from_bytes(100, &bm.bits);
        assert_eq!(restored.allocated, bm.allocated);
        for i in 0..100 {
            assert_eq!(restored.is_set(i), bm.is_set(i), "bit {i}");
        }
    }

    #[test]
    fn restore_ignores_bits_past_capacity() {
        // 13 items: the second byte's top three bits are outside the map.
        let on_disk = [0b1000_0001u8, 0b1111_0101];
        let bm = Bitmap::from_bytes(13, &on_disk);
        assert_eq!(bm.allocated, 2 + 3);
        assert_eq!(bm.free(), 13 - 5);
        assert_eq!(bm.bits.as_slice(), on_disk.as_slice());
        // A whole number of bytes has no partial tail.
        let full = Bitmap::from_bytes(16, &on_disk);
        assert_eq!(full.allocated, 2 + 6);
        // Short input leaves the rest free.
        let short = Bitmap::from_bytes(100, &on_disk[..1]);
        assert_eq!(short.allocated, 2);
        assert_eq!(short.bits.len(), 13);
    }

    #[test]
    fn set_is_idempotent() {
        let mut bm = Bitmap::new(8);
        bm.set(3);
        bm.set(3);
        assert_eq!(bm.allocated, 1);
    }

    proptest! {
        /// Alloc never hands out the same item twice without a free.
        #[test]
        fn unique_allocations(n in 1u64..200) {
            let mut bm = Bitmap::new(200);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n {
                let idx = bm.alloc().unwrap();
                prop_assert!(seen.insert(idx));
                prop_assert!(idx < 200);
            }
            prop_assert_eq!(bm.allocated, n);
        }
    }
}
