//! Underwater acoustic physics for the Deep Note reproduction.
//!
//! This crate models everything between the attacker's signal generator and
//! the outer wall of the victim enclosure, following the formulas the paper
//! cites:
//!
//! * **Units** — strongly typed [`Frequency`], [`Spl`], [`Distance`],
//!   [`Celsius`], [`Salinity`], [`Depth`] ([`units`]).
//! * **Medium** — water conditions and Medwin's sound-speed equation
//!   ([`medium`]).
//! * **Absorption** — the van Moll/Ainslie–McColm simplification of
//!   Fisher & Simmons seawater absorption ([`absorption`]).
//! * **SPL** — sound pressure levels with explicit reference pressures and
//!   the paper's `SPL_water = SPL_air + 26 dB` / `+ 61.5 dB` relations
//!   ([`spl`]).
//! * **Propagation** — near-field-aware spherical spreading plus frequency-
//!   dependent absorption, producing received SPL at a distance
//!   ([`propagation`]).
//! * **Source** — the attacker's signal chain: sine generator → amplifier →
//!   underwater speaker (Clark Synthesis AQ339 preset) ([`source`]).
//! * **Sweep** — frequency-sweep planning used by the paper's §4.1
//!   methodology ([`sweep`]).
//!
//! # Example
//!
//! ```
//! use deepnote_acoustics::prelude::*;
//!
//! let water = WaterConditions::tank_freshwater();
//! let chain = SignalChain::paper_setup(Frequency::from_hz(650.0));
//! let emission = chain.emission();
//! let received = received_spl(&emission, Distance::from_cm(10.0), &water);
//! assert!(received.db() < emission.source_level.db());
//! ```

pub mod absorption;
pub mod medium;
pub mod propagation;
pub mod source;
pub mod spl;
pub mod sweep;
pub mod units;

pub use absorption::absorption_db_per_km;
pub use medium::WaterConditions;
pub use propagation::{
    lloyd_mirror_factor, max_effective_range_m, received_spl, received_spl_lloyd, PropagationModel,
    TonePropagation,
};
pub use source::{AcousticEmission, Amplifier, SignalChain, SineSource, Speaker};
pub use spl::{Spl, SplReference};
pub use sweep::{SweepPlan, SweepStep};
pub use units::{Celsius, Depth, Distance, Frequency, Gain, OutOfRange, Salinity};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::absorption::absorption_db_per_km;
    pub use crate::medium::WaterConditions;
    pub use crate::propagation::{
        lloyd_mirror_factor, max_effective_range_m, received_spl, received_spl_lloyd,
        PropagationModel, TonePropagation,
    };
    pub use crate::source::{AcousticEmission, Amplifier, SignalChain, SineSource, Speaker};
    pub use crate::spl::{Spl, SplReference};
    pub use crate::sweep::{SweepPlan, SweepStep};
    pub use crate::units::{Celsius, Depth, Distance, Frequency, Gain, OutOfRange, Salinity};
}
