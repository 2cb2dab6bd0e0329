//! Benchmark job specifications.

use deepnote_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// The access pattern of a job, mirroring fio's `rw=` parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessPattern {
    /// `rw=read`: sequential reads.
    SeqRead,
    /// `rw=write`: sequential writes.
    SeqWrite,
    /// `rw=randread`: uniformly random reads.
    RandRead,
    /// `rw=randwrite`: uniformly random writes.
    RandWrite,
    /// `rw=rw`: mixed sequential, with the given read percentage (0–100).
    Mixed {
        /// Percentage of operations that are reads.
        read_percent: u8,
    },
}

/// A declarative benchmark job, built fluently.
///
/// Defaults match the paper's methodology: 4 KiB blocks, 10 virtual
/// seconds of runtime, a 1 GiB working-set span, seed 0.
///
/// # Example
///
/// ```
/// use deepnote_iobench::{AccessPattern, JobSpec};
/// use deepnote_sim::SimDuration;
///
/// let job = JobSpec::new("paper", AccessPattern::SeqRead)
///     .with_block_size(4096)
///     .with_runtime(SimDuration::from_secs(10));
/// assert_eq!(job.block_size(), 4096);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    name: String,
    pattern: AccessPattern,
    block_size: usize,
    runtime: SimDuration,
    span_bytes: u64,
    start_offset_bytes: u64,
    seed: u64,
}

impl JobSpec {
    /// Creates a job with the paper-default parameters.
    pub fn new(name: impl Into<String>, pattern: AccessPattern) -> Self {
        JobSpec {
            name: name.into(),
            pattern,
            block_size: 4096,
            runtime: SimDuration::from_secs(10),
            span_bytes: 1 << 30,
            start_offset_bytes: 0,
            seed: 0,
        }
    }

    /// Shorthand for a sequential-read job.
    pub fn seq_read(name: impl Into<String>) -> Self {
        Self::new(name, AccessPattern::SeqRead)
    }

    /// Shorthand for a sequential-write job.
    pub fn seq_write(name: impl Into<String>) -> Self {
        Self::new(name, AccessPattern::SeqWrite)
    }

    /// Sets the I/O unit size in bytes.
    ///
    /// # Panics
    ///
    /// Panics unless the size is a positive multiple of 512.
    pub fn with_block_size(mut self, bytes: usize) -> Self {
        assert!(
            bytes > 0 && bytes.is_multiple_of(512),
            "block size must be a positive multiple of 512, got {bytes}"
        );
        self.block_size = bytes;
        self
    }

    /// Sets the virtual runtime.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_runtime(mut self, runtime: SimDuration) -> Self {
        assert!(!runtime.is_zero(), "runtime must be non-zero");
        self.runtime = runtime;
        self
    }

    /// Sets the working-set span in bytes (the region the job addresses).
    ///
    /// # Panics
    ///
    /// Panics unless the span is a positive multiple of the block size.
    pub fn with_span_bytes(mut self, bytes: u64) -> Self {
        assert!(
            bytes > 0 && bytes.is_multiple_of(self.block_size as u64),
            "span must be a positive multiple of the block size"
        );
        self.span_bytes = bytes;
        self
    }

    /// Sets the starting byte offset of the working set.
    ///
    /// # Panics
    ///
    /// Panics unless aligned to the block size.
    pub fn with_start_offset_bytes(mut self, bytes: u64) -> Self {
        assert!(
            bytes.is_multiple_of(self.block_size as u64),
            "offset must be block-aligned"
        );
        self.start_offset_bytes = bytes;
        self
    }

    /// Sets the RNG seed (random patterns and mixed read/write choice).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Job name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Access pattern.
    pub fn pattern(&self) -> AccessPattern {
        self.pattern
    }

    /// I/O unit size in bytes (getter).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Virtual runtime (getter).
    pub fn runtime(&self) -> SimDuration {
        self.runtime
    }

    /// Working-set start offset in bytes (getter).
    pub fn start_offset_bytes(&self) -> u64 {
        self.start_offset_bytes
    }

    /// RNG seed (getter).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of block-size units in the span.
    pub fn span_units(&self) -> u64 {
        self.span_bytes / self.block_size as u64
    }

    /// One past the last 512-byte block the job addresses: the job fits
    /// a device of at least this many blocks.
    pub fn end_block(&self) -> u64 {
        self.start_offset_bytes / 512 + self.span_units() * (self.block_size / 512) as u64
    }
}

#[cfg(test)]
impl JobSpec {
    /// Working-set span in bytes, for tests outside this module.
    pub(crate) fn span_bytes(&self) -> u64 {
        self.span_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let j = JobSpec::seq_read("x");
        assert_eq!(j.block_size(), 4096);
        assert_eq!(j.runtime(), SimDuration::from_secs(10));
        assert_eq!(j.pattern(), AccessPattern::SeqRead);
        assert_eq!(j.span_units(), (1 << 30) / 4096);
    }

    #[test]
    fn builder_chains() {
        let j = JobSpec::new("y", AccessPattern::RandWrite)
            .with_block_size(8192)
            .with_runtime(SimDuration::from_secs(3))
            .with_span_bytes(1 << 20)
            .with_start_offset_bytes(8192)
            .with_seed(42);
        assert_eq!(j.block_size(), 8192);
        assert_eq!(j.span_units(), 128);
        assert_eq!(j.start_offset_bytes(), 8192);
        assert_eq!(j.seed(), 42);
        assert_eq!(j.pattern(), AccessPattern::RandWrite);
    }

    #[test]
    #[should_panic(expected = "multiple of 512")]
    fn odd_block_size_rejected() {
        JobSpec::seq_read("x").with_block_size(1000);
    }

    #[test]
    #[should_panic(expected = "multiple of the block size")]
    fn misaligned_span_rejected() {
        JobSpec::seq_read("x").with_span_bytes(4097);
    }
}
