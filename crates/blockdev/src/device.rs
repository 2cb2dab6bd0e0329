//! The [`BlockDevice`] trait.

use crate::error::IoError;

/// Block size used throughout the workspace: one 512-byte sector.
pub const BLOCK_SIZE: usize = 512;

/// A synchronous block device on virtual time.
///
/// Implementations advance their shared [`deepnote_sim::Clock`] by each
/// request's service time. Buffers must be a non-zero multiple of
/// [`BLOCK_SIZE`]. [`BlockDevice::discard`] is not a request but a
/// host-side hint that lets a device forget blocks nobody will read, so
/// the simulator holds only live bytes.
///
/// The trait is object-safe; storage stacks typically hold a
/// `Box<dyn BlockDevice>`.
pub trait BlockDevice {
    /// Total number of addressable blocks.
    fn num_blocks(&self) -> u64;

    /// Reads `buf.len() / BLOCK_SIZE` blocks starting at `lba` into `buf`.
    ///
    /// # Errors
    ///
    /// [`IoError::InvalidRequest`] for empty or misaligned buffers,
    /// [`IoError::OutOfRange`] past the end of the device, and
    /// [`IoError::Medium`] / [`IoError::NoResponse`] for device failures.
    fn read_blocks(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), IoError>;

    /// Writes `buf.len() / BLOCK_SIZE` blocks starting at `lba`.
    ///
    /// # Errors
    ///
    /// As for [`BlockDevice::read_blocks`].
    fn write_blocks(&mut self, lba: u64, buf: &[u8]) -> Result<(), IoError>;

    /// Ensures all previously written data is durable.
    ///
    /// # Errors
    ///
    /// [`IoError`] if the device cannot complete the flush.
    fn flush(&mut self) -> Result<(), IoError>;

    /// Hints that the `blocks` blocks from `lba` on hold nothing the host
    /// will read again, so a device may forget them; a range past the end
    /// is clipped to the device.
    ///
    /// The hint is host-side only, never a request: it costs no virtual
    /// time, draws no RNG, is counted by no statistic and is never traced.
    /// A device that forgets discarded blocks reads them back as zeros;
    /// the default forgets nothing. The filesystem issues it only for
    /// blocks freed by a committed transaction, so a crash at any point
    /// still finds every block the last committed state references.
    fn discard(&mut self, lba: u64, blocks: u64) {
        let _ = (lba, blocks);
    }

    /// Capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.num_blocks() * BLOCK_SIZE as u64
    }
}

/// The number of blocks of a `blocks`-block discard from `lba` that lie
/// on a device of `num_blocks` blocks.
pub(crate) fn clip(num_blocks: u64, lba: u64, blocks: u64) -> u64 {
    blocks.min(num_blocks.saturating_sub(lba))
}

/// Validates a request's buffer and range; shared by implementations.
///
/// Returns the number of blocks covered by `len` bytes.
///
/// # Errors
///
/// [`IoError::InvalidRequest`] or [`IoError::OutOfRange`] as appropriate.
pub fn check_request(num_blocks: u64, lba: u64, len: usize) -> Result<u64, IoError> {
    if len == 0 || !len.is_multiple_of(BLOCK_SIZE) {
        return Err(IoError::InvalidRequest);
    }
    let blocks = (len / BLOCK_SIZE) as u64;
    match lba.checked_add(blocks) {
        Some(end) if end <= num_blocks => Ok(blocks),
        _ => Err(IoError::OutOfRange),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_request_validates() {
        assert_eq!(check_request(100, 0, 512), Ok(1));
        assert_eq!(check_request(100, 99, 512), Ok(1));
        assert_eq!(check_request(100, 0, 512 * 100), Ok(100));
        assert_eq!(check_request(100, 0, 0), Err(IoError::InvalidRequest));
        assert_eq!(check_request(100, 0, 100), Err(IoError::InvalidRequest));
        assert_eq!(check_request(100, 100, 512), Err(IoError::OutOfRange));
        assert_eq!(check_request(100, 0, 512 * 101), Err(IoError::OutOfRange));
        assert_eq!(check_request(100, u64::MAX, 512), Err(IoError::OutOfRange));
    }
}
