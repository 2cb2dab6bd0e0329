//! Request tracing.
//!
//! [`TraceDevice`] wraps any device and records every request — time,
//! kind, LBA, length, outcome — into a bounded ring. Tests use it to
//! assert *I/O properties* rather than just outcomes: that journal
//! records are written as one contiguous request, that sequential
//! workloads stay sequential, that failed requests cluster under attack.

use crate::device::{BlockDevice, BLOCK_SIZE};
use crate::error::IoError;
use deepnote_sim::{Clock, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The kind of a traced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A read request.
    Read,
    /// A write request.
    Write,
    /// A flush.
    Flush,
}

/// One traced request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// When the request was issued.
    pub at: SimTime,
    /// Request kind.
    pub kind: TraceKind,
    /// Starting block (0 for flushes).
    pub lba: u64,
    /// Blocks covered (0 for flushes).
    pub blocks: u64,
    /// The error, if the request failed.
    pub error: Option<IoError>,
}

/// A tracing wrapper around any block device.
///
/// # Example
///
/// ```
/// use deepnote_blockdev::{BlockDevice, MemDisk, TraceDevice, TraceKind};
/// use deepnote_sim::Clock;
///
/// let mut dev = TraceDevice::new(MemDisk::new(64), Clock::new(), 100);
/// dev.write_blocks(4, &vec![0u8; 1024])?;
/// let trace = dev.trace();
/// assert_eq!(trace[0].kind, TraceKind::Write);
/// assert_eq!((trace[0].lba, trace[0].blocks), (4, 2));
/// # Ok::<(), deepnote_blockdev::IoError>(())
/// ```
#[derive(Debug)]
pub struct TraceDevice<D> {
    inner: D,
    clock: Clock,
    ring: VecDeque<TraceEntry>,
    capacity: usize,
    dropped: u64,
}

impl<D: BlockDevice> TraceDevice<D> {
    /// Wraps `inner`, retaining the most recent `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(inner: D, clock: Clock, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceDevice {
            inner,
            clock,
            ring: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    fn record(&mut self, kind: TraceKind, lba: u64, blocks: u64, error: Option<IoError>) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEntry {
            at: self.clock.now(),
            kind,
            lba,
            blocks,
            error,
        });
    }

    /// The retained trace, oldest first.
    pub fn trace(&self) -> Vec<TraceEntry> {
        self.ring.iter().cloned().collect()
    }

    /// Entries evicted because the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears the trace (keeps the device).
    pub fn clear(&mut self) {
        self.ring.clear();
    }

    /// The fraction of traced write requests that continue exactly where
    /// the previous write ended (sequentiality), or `None` with fewer
    /// than two writes.
    pub fn write_sequentiality(&self) -> Option<f64> {
        let writes: Vec<&TraceEntry> = self
            .ring
            .iter()
            .filter(|e| e.kind == TraceKind::Write)
            .collect();
        if writes.len() < 2 {
            return None;
        }
        let sequential = writes
            .windows(2)
            .filter(|w| w[0].lba + w[0].blocks == w[1].lba)
            .count();
        Some(sequential as f64 / (writes.len() - 1) as f64)
    }
}

impl<D: BlockDevice> BlockDevice for TraceDevice<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), IoError> {
        let blocks = (buf.len() / BLOCK_SIZE) as u64;
        let result = self.inner.read_blocks(lba, buf);
        self.record(TraceKind::Read, lba, blocks, result.err());
        result
    }

    fn write_blocks(&mut self, lba: u64, buf: &[u8]) -> Result<(), IoError> {
        let blocks = (buf.len() / BLOCK_SIZE) as u64;
        let result = self.inner.write_blocks(lba, buf);
        self.record(TraceKind::Write, lba, blocks, result.err());
        result
    }

    fn flush(&mut self) -> Result<(), IoError> {
        let result = self.inner.flush();
        self.record(TraceKind::Flush, 0, 0, result.err());
        result
    }

    fn discard(&mut self, lba: u64, blocks: u64) {
        // A host-side hint, not a request: nothing is recorded.
        self.inner.discard(lba, blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosInjector, ChaosPlan};
    use crate::mem::MemDisk;
    use deepnote_sim::SimRng;

    #[test]
    fn records_kind_lba_and_outcome() {
        let mut dev = TraceDevice::new(
            ChaosInjector::new(MemDisk::new(64), ChaosPlan::quiet(), SimRng::seeded(0)),
            Clock::new(),
            16,
        );
        let buf = vec![0u8; 512];
        let mut out = vec![0u8; 512];
        dev.write_blocks(1, &buf).unwrap();
        dev.read_blocks(1, &mut out).unwrap();
        dev.flush().unwrap();
        dev.inner.set_plan(ChaosPlan::fail_all(IoError::NoResponse));
        let _ = dev.write_blocks(2, &buf);
        let t = dev.trace();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].kind, TraceKind::Write);
        assert_eq!(t[1].kind, TraceKind::Read);
        assert_eq!(t[2].kind, TraceKind::Flush);
        assert_eq!(t[3].error, Some(IoError::NoResponse));
    }

    #[test]
    fn discard_is_not_recorded() {
        let mut dev = TraceDevice::new(MemDisk::new(64), Clock::new(), 16);
        dev.write_blocks(1, &[0x42; 1024]).unwrap();
        dev.discard(1, 2);
        assert_eq!(dev.trace().len(), 1);
        assert_eq!(dev.dropped(), 0);
        // ... yet it reached the device.
        assert_eq!(dev.inner.blocks_touched(), 0);
    }

    #[test]
    fn ring_is_bounded() {
        let mut dev = TraceDevice::new(MemDisk::new(64), Clock::new(), 3);
        let buf = vec![0u8; 512];
        for i in 0..5 {
            dev.write_blocks(i, &buf).unwrap();
        }
        assert_eq!(dev.trace().len(), 3);
        assert_eq!(dev.dropped(), 2);
        assert_eq!(dev.trace()[0].lba, 2); // oldest retained
        dev.clear();
        assert!(dev.trace().is_empty());
    }

    #[test]
    fn sequentiality_metric() {
        let mut dev = TraceDevice::new(MemDisk::new(1024), Clock::new(), 100);
        let buf = vec![0u8; 512];
        for i in 0..10 {
            dev.write_blocks(i, &buf).unwrap();
        }
        assert_eq!(dev.write_sequentiality(), Some(1.0));
        dev.write_blocks(500, &buf).unwrap();
        assert!(dev.write_sequentiality().unwrap() < 1.0);
        let empty = TraceDevice::new(MemDisk::new(8), Clock::new(), 4);
        assert_eq!(empty.write_sequentiality(), None);
    }
}
