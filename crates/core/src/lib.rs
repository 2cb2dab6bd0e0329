//! **Deep Note**: can acoustic interference damage the availability of
//! hard disk storage in underwater data centers?
//!
//! This crate is the top of the reproduction stack: it assembles the
//! physics ([`deepnote_acoustics`], [`deepnote_structures`]), the victim
//! drive ([`deepnote_hdd`], [`deepnote_blockdev`]), and the software
//! victims ([`deepnote_fs`], [`deepnote_kv`], [`deepnote_os`]) into the
//! paper's testbed, and provides a harness for every experiment in the
//! paper's evaluation:
//!
//! | Paper artifact | Harness |
//! |---|---|
//! | Fig. 2 (throughput vs frequency, 3 scenarios) | [`experiments::frequency`] |
//! | Table 1 (FIO throughput/latency vs distance)  | [`experiments::range`] |
//! | Table 2 (RocksDB throughput/IO rate vs distance) | [`experiments::range`] |
//! | Table 3 (application time-to-crash) | [`experiments::crash`] |
//! | §5 ablations (water, materials, defenses, tolerances) | [`experiments::ablations`], [`defense`] |
//!
//! # Quickstart
//!
//! ```
//! use deepnote_core::prelude::*;
//!
//! // The paper's Scenario 2 testbed with the AQ339 speaker at 650 Hz.
//! let testbed = Testbed::paper_default(Scenario::PlasticTower);
//! let params = AttackParams::paper_best();
//!
//! // What does the victim drive feel at 1 cm?
//! let vibration = testbed.vibration_at(params.frequency, params.distance);
//! assert!(vibration.displacement_nm() > 100.0); // enough to kill I/O
//! ```

// Not a serving-path crate (see DESIGN.md §7): experiment harnesses run
// on a healthy stack by construction, so setup failures (mkfs on a
// fresh disk, opening a fresh DB) abort the experiment rather than
// plumb Results through every table generator.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod defense;
pub mod detect;
pub mod experiments;
pub mod fleet;
pub mod parallel;
pub mod report;
pub mod testbed;
pub mod threat;

pub use defense::{Defense, DefenseOutcome};
pub use detect::{AttackDetector, Verdict};
pub use fleet::{Fleet, FleetReport};
pub use testbed::{Testbed, TestbedTone};
pub use threat::{AttackObjective, AttackParams, Attacker};

/// Convenience re-exports: everything needed to script an attack study.
pub mod prelude {
    pub use crate::defense::{Defense, DefenseOutcome};
    pub use crate::detect::{AttackDetector, Verdict};
    pub use crate::experiments;
    pub use crate::fleet::{Fleet, FleetReport};
    pub use crate::testbed::{Testbed, TestbedTone};
    pub use crate::threat::{AttackObjective, AttackParams, Attacker};
    pub use deepnote_acoustics::prelude::*;
    pub use deepnote_blockdev::{BlockDevice, HddDisk};
    pub use deepnote_hdd::prelude::*;
    pub use deepnote_sim::{Clock, SimDuration, SimTime};
    pub use deepnote_structures::prelude::*;
}
