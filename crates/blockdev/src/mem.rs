//! An ideal in-memory block device.

use crate::device::{check_request, clip, BlockDevice};
use crate::error::IoError;
use crate::store::SectorStore;
use deepnote_sim::{Clock, SimDuration};

/// An in-memory device: never fails, optionally charges a fixed latency
/// per request against a virtual clock. Unwritten blocks read as zeros;
/// storage is sparse, so huge devices are cheap.
///
/// # Example
///
/// ```
/// use deepnote_blockdev::{BlockDevice, MemDisk};
///
/// let mut d = MemDisk::new(1 << 20);
/// let mut buf = vec![0u8; 512];
/// d.read_blocks(12345, &mut buf)?; // never written: zeros
/// assert!(buf.iter().all(|&b| b == 0));
/// # Ok::<(), deepnote_blockdev::IoError>(())
/// ```
#[derive(Debug, Default)]
pub struct MemDisk {
    num_blocks: u64,
    blocks: SectorStore,
    latency: Option<(Clock, SimDuration)>,
    reads: u64,
    writes: u64,
}

impl MemDisk {
    /// Creates a device with `num_blocks` blocks and no latency model.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` is zero.
    pub fn new(num_blocks: u64) -> Self {
        assert!(num_blocks > 0, "device must have at least one block");
        MemDisk {
            num_blocks,
            blocks: SectorStore::default(),
            latency: None,
            reads: 0,
            writes: 0,
        }
    }

    /// Creates a device that advances `clock` by `latency` per request.
    pub fn with_latency(num_blocks: u64, clock: Clock, latency: SimDuration) -> Self {
        let mut d = MemDisk::new(num_blocks);
        d.latency = Some((clock, latency));
        d
    }

    /// Number of read requests served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write requests served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of blocks holding non-zero data (sparse footprint).
    pub fn blocks_touched(&self) -> usize {
        self.blocks.len()
    }

    fn charge(&self) {
        if let Some((clock, latency)) = &self.latency {
            clock.advance(*latency);
        }
    }
}

impl BlockDevice for MemDisk {
    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read_blocks(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), IoError> {
        check_request(self.num_blocks, lba, buf.len())?;
        self.charge();
        self.blocks.read(lba, buf);
        self.reads += 1;
        Ok(())
    }

    fn write_blocks(&mut self, lba: u64, buf: &[u8]) -> Result<(), IoError> {
        check_request(self.num_blocks, lba, buf.len())?;
        self.charge();
        self.blocks.write(lba, buf);
        self.writes += 1;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), IoError> {
        Ok(())
    }

    fn discard(&mut self, lba: u64, blocks: u64) {
        self.blocks.discard(lba, clip(self.num_blocks, lba, blocks));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BLOCK_SIZE;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_multiblock() {
        let mut d = MemDisk::new(64);
        let data: Vec<u8> = (0..BLOCK_SIZE * 3).map(|i| (i % 251) as u8).collect();
        d.write_blocks(10, &data).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE * 3];
        d.read_blocks(10, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(d.blocks_touched(), 3);
        assert_eq!((d.reads(), d.writes()), (1, 1));
    }

    #[test]
    fn zeros_written_over_data_read_back_as_zeros() {
        let mut d = MemDisk::new(8);
        d.write_blocks(3, &[0xA5; BLOCK_SIZE * 2]).unwrap();
        let mut zeros = vec![0u8; BLOCK_SIZE * 2];
        zeros[BLOCK_SIZE + 7] = 1; // the second block keeps one non-zero byte
        d.write_blocks(3, &zeros).unwrap();
        let mut out = vec![0xFFu8; BLOCK_SIZE * 2];
        d.read_blocks(3, &mut out).unwrap();
        assert_eq!(out, zeros);
        // The all-zero block is no longer stored.
        assert_eq!(d.blocks_touched(), 1);
    }

    #[test]
    fn unwritten_blocks_are_zero() {
        let mut d = MemDisk::new(8);
        let mut buf = vec![0xFFu8; BLOCK_SIZE];
        d.read_blocks(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn request_validation() {
        let mut d = MemDisk::new(4);
        let mut small = vec![0u8; 100];
        assert_eq!(
            d.read_blocks(0, &mut small).unwrap_err(),
            IoError::InvalidRequest
        );
        let mut big = vec![0u8; BLOCK_SIZE * 5];
        assert_eq!(d.read_blocks(0, &mut big).unwrap_err(), IoError::OutOfRange);
        assert_eq!(
            d.write_blocks(4, &vec![0u8; BLOCK_SIZE]).unwrap_err(),
            IoError::OutOfRange
        );
    }

    #[test]
    fn latency_charged_per_request() {
        let clock = Clock::new();
        let mut d = MemDisk::with_latency(16, clock.clone(), SimDuration::from_micros(100));
        let buf = vec![0u8; BLOCK_SIZE];
        d.write_blocks(0, &buf).unwrap();
        d.write_blocks(1, &buf).unwrap();
        d.flush().unwrap();
        assert_eq!(clock.now().as_nanos(), 200_000);
    }

    #[test]
    fn capacity_derived_from_blocks() {
        let d = MemDisk::new(100);
        assert_eq!(d.capacity_bytes(), 51_200);
    }

    proptest! {
        /// Whatever is written most recently is what reads back.
        #[test]
        fn last_write_wins(ops in proptest::collection::vec((0u64..32, 0u8..255), 1..50)) {
            let mut d = MemDisk::new(32);
            let mut model = std::collections::HashMap::new();
            for (lba, fill) in ops {
                let buf = vec![fill; BLOCK_SIZE];
                d.write_blocks(lba, &buf).unwrap();
                model.insert(lba, fill);
            }
            for (lba, fill) in model {
                let mut out = vec![0u8; BLOCK_SIZE];
                d.read_blocks(lba, &mut out).unwrap();
                prop_assert!(out.iter().all(|&b| b == fill));
            }
        }
    }
}
