//! Block device abstraction for the Deep Note reproduction.
//!
//! Filesystems, databases, and benchmarks in this workspace talk to
//! storage through the [`BlockDevice`] trait. Four implementations are
//! provided:
//!
//! * [`MemDisk`] — an ideal in-memory device with optional fixed latency,
//!   the reference for correctness tests ([`mem`]).
//! * [`HddDisk`] — the real thing: a sparse byte store timed and failed by
//!   the mechanical [`deepnote_hdd`] drive model, including vibration-
//!   induced errors and unresponsiveness ([`hdd_dev`]).
//! * [`ChaosInjector`] — a wrapper that injects *seeded probabilistic*
//!   faults (error bursts, bit flips, torn/misdirected writes, latency
//!   inflation), optionally scaled by vibration, and the scripted
//!   "fail every request / every write" plans that test error paths
//!   without acoustics ([`chaos`]).
//! * [`Raid1`] — N-way mirroring with degradation and resync, for the
//!   redundancy experiments ([`raid`]).
//!
//! # Example
//!
//! ```
//! use deepnote_blockdev::{BlockDevice, MemDisk};
//!
//! let mut disk = MemDisk::new(1024);
//! let data = vec![0xAB; 512];
//! disk.write_blocks(7, &data)?;
//! let mut out = vec![0; 512];
//! disk.read_blocks(7, &mut out)?;
//! assert_eq!(out, data);
//! # Ok::<(), deepnote_blockdev::IoError>(())
//! ```

pub mod chaos;
pub mod device;
pub mod error;
pub mod hdd_dev;
pub mod mem;
pub mod raid;
mod store;
pub mod trace;

pub use chaos::{ChaosInjector, ChaosPlan, ChaosStats, DelayPlan, ErrorBurst, FaultScope};
pub use device::{BlockDevice, BLOCK_SIZE};
pub use error::{IoError, EIO};
pub use hdd_dev::HddDisk;
pub use mem::MemDisk;
pub use raid::{Raid1, RaidState};
pub use trace::{TraceDevice, TraceEntry, TraceKind};
