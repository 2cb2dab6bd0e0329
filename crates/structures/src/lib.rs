//! Mechanical structures between the water and the victim drive.
//!
//! The paper attributes the attack to a chain of mechanical couplings
//! (§2.1 "Causality"): incident acoustic pressure shakes the enclosure
//! wall, the wall excites the container and rack structure, structural
//! resonances amplify specific frequencies, and the resulting vibration at
//! the drive chassis jostles the read/write head. This crate models that
//! chain:
//!
//! * [`Material`] — wall/structure materials, by density
//!   ([`material`]).
//! * [`Enclosure`] — a submerged container: wall surface mass sets how
//!   much the wall moves per pascal of incident pressure ([`enclosure`]).
//! * [`Resonator`] / [`ResonatorBank`] — second-order modal responses that
//!   give the container + rack + drive assembly its band-pass character
//!   ([`resonator`]).
//! * [`Mount`] — how the drive is held: directly on the container floor or
//!   in a Supermicro-style hot-swap tower ([`mount`]).
//! * [`VibrationPath`] — the composed path from received SPL to
//!   displacement amplitude at the drive chassis ([`path`]), with the
//!   paper's three experimental scenarios as presets ([`scenario`]).
//!
//! # Example
//!
//! ```
//! use deepnote_structures::prelude::*;
//! use deepnote_acoustics::{Frequency, Spl};
//!
//! let path = Scenario::PlasticTower.vibration_path();
//! let in_band = path.drive_displacement_um(Frequency::from_hz(650.0), Spl::water_db(140.0));
//! let out_of_band = path.drive_displacement_um(Frequency::from_khz(8.0), Spl::water_db(140.0));
//! assert!(in_band > 20.0 * out_of_band);
//! ```

pub mod enclosure;
pub mod material;
pub mod mount;
pub mod path;
pub mod resonator;
pub mod scenario;

pub use enclosure::Enclosure;
pub use material::Material;
pub use mount::Mount;
pub use path::{PathResponse, VibrationPath};
pub use resonator::{Resonator, ResonatorBank};
pub use scenario::Scenario;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::enclosure::Enclosure;
    pub use crate::material::Material;
    pub use crate::mount::Mount;
    pub use crate::path::{PathResponse, VibrationPath};
    pub use crate::resonator::{Resonator, ResonatorBank};
    pub use crate::scenario::Scenario;
}
