//! A mechanical hard disk drive model for the Deep Note reproduction.
//!
//! The model implements the attack mechanism established by Bolton et al.
//! (Blue Note, S&P '18) and relied on by the paper: externally induced
//! vibration displaces the read/write head relative to the track centre;
//! when the displacement exceeds the (asymmetric) read/write off-track
//! tolerances, operations fail and are retried, collapsing throughput and
//! eventually timing out entirely.
//!
//! * [`DriveGeometry`] — platters, tracks, zones, spindle speed, track
//!   pitch; preset for the paper's Seagate Barracuda 500 GB ([`geometry`]).
//! * [`TimingModel`] — per-operation service times (command overhead,
//!   seek, rotation, media transfer), calibrated to the paper's no-attack
//!   FIO numbers ([`timing`]).
//! * [`ServoModel`] — track-following servo rejection vs. frequency plus
//!   the shock-sensor head-parking mechanism ([`servo`]).
//! * [`VibrationState`] / [`VibrationInput`] — the externally imposed
//!   chassis vibration, shared with whatever drives the attack
//!   ([`vibration`]).
//! * [`HardDiskDrive`] — the op-level engine: submit reads/writes, get
//!   durations or errors on virtual time ([`drive`]).
//! * [`throughput`] — closed-form steady-state throughput/latency under a
//!   given vibration, used by the fast experiment sweeps.
//!
//! # Example
//!
//! ```
//! use deepnote_hdd::prelude::*;
//! use deepnote_sim::{Clock, SimDuration};
//!
//! let clock = Clock::new();
//! let mut drive = HardDiskDrive::barracuda_500gb(clock.clone());
//! let report = drive.execute(DiskOp::read(0, 8)).unwrap();
//! assert!(report.duration > SimDuration::ZERO);
//! ```

pub mod drive;
pub mod geometry;
pub mod servo;
pub mod throughput;
pub mod timing;
pub mod vibration;

pub use drive::{DiskOp, DiskOpKind, DriveError, HardDiskDrive, OpReport};
pub use geometry::DriveGeometry;
pub use servo::ServoModel;
pub use throughput::{steady_state, SteadyState};
pub use timing::{TimingModel, TimingParams};
pub use vibration::{ToleranceModel, VibrationInput, VibrationState};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::drive::{DiskOp, DiskOpKind, DriveError, HardDiskDrive, OpReport};
    pub use crate::geometry::DriveGeometry;
    pub use crate::servo::ServoModel;
    pub use crate::throughput::{steady_state, SteadyState};
    pub use crate::timing::{TimingModel, TimingParams};
    pub use crate::vibration::{ToleranceModel, VibrationInput, VibrationState};
}
