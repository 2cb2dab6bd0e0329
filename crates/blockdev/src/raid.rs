//! RAID-1 mirroring.
//!
//! An underwater data-center operator's first instinct against an
//! availability attack is redundancy. [`Raid1`] mirrors writes across N
//! devices, serves reads from the first healthy mirror, drops mirrors
//! that fail, and can resync a reinstated mirror from the write log kept
//! while it was out. The core crate's redundancy experiment shows the
//! catch: mirrors in the *same* enclosure die together.

use crate::device::{check_request, BlockDevice, BLOCK_SIZE};
use crate::error::IoError;
use std::collections::BTreeSet;

/// Array health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaidState {
    /// All mirrors healthy.
    Optimal,
    /// Some mirrors failed; data is still served.
    Degraded {
        /// Number of failed mirrors.
        failed: usize,
    },
    /// Every mirror failed; the array is dead.
    Failed,
}

/// An N-way RAID-1 mirror over homogeneous devices.
///
/// # Example
///
/// ```
/// use deepnote_blockdev::{BlockDevice, MemDisk, Raid1, RaidState};
///
/// let mut array = Raid1::new(vec![MemDisk::new(1024), MemDisk::new(1024)]);
/// array.write_blocks(0, &vec![7u8; 512])?;
/// assert_eq!(array.state(), RaidState::Optimal);
/// # Ok::<(), deepnote_blockdev::IoError>(())
/// ```
#[derive(Debug)]
pub struct Raid1<D> {
    mirrors: Vec<D>,
    failed: Vec<bool>,
    /// Blocks written while any mirror was failed (needed for resync).
    dirty_since_failure: BTreeSet<u64>,
}

impl<D: BlockDevice> Raid1<D> {
    /// Builds an array from at least two equal-sized mirrors.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two mirrors or mismatched sizes.
    pub fn new(mirrors: Vec<D>) -> Self {
        assert!(mirrors.len() >= 2, "RAID-1 needs at least two mirrors");
        let n = mirrors[0].num_blocks();
        assert!(
            mirrors.iter().all(|m| m.num_blocks() == n),
            "all mirrors must be the same size"
        );
        let count = mirrors.len();
        Raid1 {
            mirrors,
            failed: vec![false; count],
            dirty_since_failure: BTreeSet::new(),
        }
    }

    /// Number of mirrors (healthy + failed).
    pub fn mirror_count(&self) -> usize {
        self.mirrors.len()
    }

    /// Current array health.
    pub fn state(&self) -> RaidState {
        let failed = self.failed.iter().filter(|&&f| f).count();
        if failed == 0 {
            RaidState::Optimal
        } else if failed == self.mirrors.len() {
            RaidState::Failed
        } else {
            RaidState::Degraded { failed }
        }
    }

    /// Whether mirror `idx` is marked failed.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn mirror_failed(&self, idx: usize) -> bool {
        self.failed[idx]
    }

    /// Resyncs a previously failed mirror from a healthy one by copying
    /// every block written since the failure, then reinstates it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the copy; the mirror stays failed on
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn resync(&mut self, idx: usize) -> Result<u64, IoError> {
        assert!(idx < self.mirrors.len(), "mirror index out of range");
        if !self.failed[idx] {
            return Ok(0);
        }
        let Some(source) = self.failed.iter().position(|&f| !f) else {
            // Every mirror is failed. Nothing diverged if nothing was
            // written while degraded: reinstate in place. Otherwise the
            // array is unrecoverable without an external copy.
            if self.dirty_since_failure.is_empty() {
                self.failed[idx] = false;
                return Ok(0);
            }
            return Err(IoError::NoResponse);
        };
        let blocks: Vec<u64> = self.dirty_since_failure.iter().copied().collect();
        let mut copied = 0;
        let mut buf = vec![0u8; BLOCK_SIZE];
        for block in blocks {
            // Split-borrow via indices.
            {
                let src = &mut self.mirrors[source];
                src.read_blocks(block, &mut buf)?;
            }
            {
                let dst = &mut self.mirrors[idx];
                dst.write_blocks(block, &buf)?;
            }
            copied += 1;
        }
        self.failed[idx] = false;
        if self.state() == RaidState::Optimal {
            self.dirty_since_failure.clear();
        }
        Ok(copied)
    }
}

impl<D: BlockDevice> BlockDevice for Raid1<D> {
    fn num_blocks(&self) -> u64 {
        self.mirrors[0].num_blocks()
    }

    fn read_blocks(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), IoError> {
        check_request(self.num_blocks(), lba, buf.len())?;
        let mut last_err = IoError::NoResponse;
        for i in 0..self.mirrors.len() {
            if self.failed[i] {
                continue;
            }
            match self.mirrors[i].read_blocks(lba, buf) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.failed[i] = true;
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    fn write_blocks(&mut self, lba: u64, buf: &[u8]) -> Result<(), IoError> {
        let blocks = check_request(self.num_blocks(), lba, buf.len())?;
        let mut any_ok = false;
        let mut last_err = IoError::NoResponse;
        for i in 0..self.mirrors.len() {
            if self.failed[i] {
                continue;
            }
            match self.mirrors[i].write_blocks(lba, buf) {
                Ok(()) => any_ok = true,
                Err(e) => {
                    self.failed[i] = true;
                    last_err = e;
                }
            }
        }
        if any_ok {
            if self.state() != RaidState::Optimal {
                for b in lba..lba + blocks {
                    self.dirty_since_failure.insert(b);
                }
            }
            Ok(())
        } else {
            Err(last_err)
        }
    }

    fn flush(&mut self) -> Result<(), IoError> {
        let mut any_ok = false;
        for i in 0..self.mirrors.len() {
            if !self.failed[i] && self.mirrors[i].flush().is_ok() {
                any_ok = true;
            }
        }
        if any_ok {
            Ok(())
        } else {
            Err(IoError::NoResponse)
        }
    }

    fn discard(&mut self, lba: u64, blocks: u64) {
        // Every mirror, failed ones too: a resync copies only blocks
        // written while degraded, so a failed mirror must not keep a
        // discarded block that the healthy mirrors have forgotten.
        for mirror in &mut self.mirrors {
            mirror.discard(lba, blocks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosInjector, ChaosPlan};
    use crate::mem::MemDisk;
    use deepnote_sim::SimRng;

    impl<D: BlockDevice> Raid1<D> {
        /// Mutable access to a mirror, to fault it behind the array's back.
        fn mirror_mut(&mut self, idx: usize) -> &mut D {
            &mut self.mirrors[idx]
        }
    }

    fn array() -> Raid1<ChaosInjector<MemDisk>> {
        Raid1::new(vec![
            ChaosInjector::new(MemDisk::new(256), ChaosPlan::quiet(), SimRng::seeded(0)),
            ChaosInjector::new(MemDisk::new(256), ChaosPlan::quiet(), SimRng::seeded(0)),
        ])
    }

    #[test]
    fn mirrors_stay_in_sync() {
        let mut a = array();
        let data = vec![0x42u8; 512];
        a.write_blocks(3, &data).unwrap();
        let mut from0 = vec![0u8; 512];
        let mut from1 = vec![0u8; 512];
        a.mirror_mut(0).read_blocks(3, &mut from0).unwrap();
        a.mirror_mut(1).read_blocks(3, &mut from1).unwrap();
        assert_eq!(from0, data);
        assert_eq!(from1, data);
        assert_eq!(a.state(), RaidState::Optimal);
    }

    #[test]
    fn one_dead_mirror_degrades_but_serves() {
        let mut a = array();
        a.write_blocks(0, &vec![1u8; 512]).unwrap();
        a.mirror_mut(0)
            .set_plan(ChaosPlan::fail_all(IoError::NoResponse));
        // Write marks mirror 0 failed, succeeds on mirror 1.
        a.write_blocks(1, &vec![2u8; 512]).unwrap();
        assert_eq!(a.state(), RaidState::Degraded { failed: 1 });
        let mut out = vec![0u8; 512];
        a.read_blocks(1, &mut out).unwrap();
        assert_eq!(out, vec![2u8; 512]);
    }

    #[test]
    fn all_mirrors_dead_fails_the_array() {
        let mut a = array();
        for i in 0..2 {
            a.mirror_mut(i)
                .set_plan(ChaosPlan::fail_all(IoError::NoResponse));
        }
        assert_eq!(
            a.write_blocks(0, &vec![0u8; 512]).unwrap_err(),
            IoError::NoResponse
        );
        assert_eq!(a.state(), RaidState::Failed);
    }

    #[test]
    fn read_falls_back_when_primary_dies() {
        let mut a = array();
        a.write_blocks(5, &vec![9u8; 512]).unwrap();
        a.mirror_mut(0)
            .set_plan(ChaosPlan::fail_all(IoError::Medium { errno: 5 }));
        let mut out = vec![0u8; 512];
        a.read_blocks(5, &mut out).unwrap();
        assert_eq!(out, vec![9u8; 512]);
        assert!(a.mirror_failed(0));
    }

    #[test]
    fn resync_copies_only_degraded_writes() {
        let mut a = array();
        a.write_blocks(0, &vec![1u8; 512]).unwrap();
        a.mirror_mut(0)
            .set_plan(ChaosPlan::fail_all(IoError::NoResponse));
        a.write_blocks(1, &vec![2u8; 512]).unwrap(); // degrades + dirty {1}
        a.write_blocks(2, &vec![3u8; 512]).unwrap(); // dirty {1,2}
                                                     // Attack ends: the mirror works again.
        a.mirror_mut(0).set_plan(ChaosPlan::quiet());
        let copied = a.resync(0).unwrap();
        assert_eq!(copied, 2);
        assert_eq!(a.state(), RaidState::Optimal);
        // Mirror 0 now has the degraded-era writes.
        let mut out = vec![0u8; 512];
        a.mirror_mut(0).read_blocks(2, &mut out).unwrap();
        assert_eq!(out, vec![3u8; 512]);
        // Resync of a healthy mirror is a no-op.
        assert_eq!(a.resync(1).unwrap(), 0);
    }

    #[test]
    fn discard_reaches_every_mirror_failed_ones_too() {
        let mut a = array();
        a.write_blocks(4, &[5u8; 1024]).unwrap();
        a.mirror_mut(0)
            .set_plan(ChaosPlan::fail_all(IoError::NoResponse));
        a.write_blocks(9, &[6u8; 512]).unwrap(); // marks mirror 0 failed
        assert!(a.mirror_failed(0));
        a.discard(4, 6);
        for i in 0..2 {
            assert_eq!(a.mirrors[i].inner().blocks_touched(), 0, "mirror {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_mirror_rejected() {
        let _ = Raid1::new(vec![MemDisk::new(16)]);
    }

    #[test]
    #[should_panic(expected = "same size")]
    fn mismatched_sizes_rejected() {
        let _ = Raid1::new(vec![MemDisk::new(16), MemDisk::new(32)]);
    }
}
