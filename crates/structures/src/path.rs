//! The composed vibration path: received sound → drive chassis motion.
//!
//! `displacement = p · wall(f) · container(f) · mount(f) · η`
//!
//! where `p` is the received acoustic pressure at the enclosure, `wall(f)`
//! is the enclosure diaphragm admittance (µm/Pa), `container(f)` and
//! `mount(f)` are dimensionless structural resonator gains, and `η` is a
//! coupling efficiency calibrated once against the paper's measured
//! operating point (650 Hz, Scenario 2, 1 cm → total blackout).

use crate::enclosure::Enclosure;
use crate::mount::Mount;
use crate::resonator::ResonatorBank;
use deepnote_acoustics::{Frequency, Spl};
use serde::{Deserialize, Serialize};

/// The full acoustic-to-mechanical coupling path for one victim drive.
///
/// # Example
///
/// ```
/// use deepnote_structures::prelude::*;
/// use deepnote_acoustics::{Frequency, Spl};
///
/// let path = Scenario::PlasticTower.vibration_path();
/// let d = path.drive_displacement_um(Frequency::from_hz(650.0), Spl::water_db(140.0));
/// assert!(d > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VibrationPath {
    enclosure: Enclosure,
    container_modes: ResonatorBank,
    mount: Mount,
    coupling_efficiency: f64,
}

impl VibrationPath {
    /// Default coupling efficiency, calibrated so the paper's operating
    /// point (Scenario 2, 650 Hz, 140 dB at 1 cm) produces a blackout-level
    /// off-track displacement in the drive model (residual ≈ 85 nm after
    /// servo rejection, ≈ 5.7× the read fault threshold).
    pub const DEFAULT_COUPLING: f64 = 0.27;

    /// Creates a path.
    ///
    /// # Panics
    ///
    /// Panics if `coupling_efficiency` is not in `(0, 10]`.
    pub fn new(
        enclosure: Enclosure,
        container_modes: ResonatorBank,
        mount: Mount,
        coupling_efficiency: f64,
    ) -> Self {
        assert!(
            coupling_efficiency > 0.0 && coupling_efficiency <= 10.0,
            "coupling efficiency must be in (0, 10], got {coupling_efficiency}"
        );
        VibrationPath {
            enclosure,
            container_modes,
            mount,
            coupling_efficiency,
        }
    }

    /// The drive mount.
    pub fn mount(&self) -> &Mount {
        &self.mount
    }

    /// Replaces the mount (e.g. to fit dampers).
    pub fn with_mount(mut self, mount: Mount) -> Self {
        self.mount = mount;
        self
    }

    /// Scales the structural response (e.g. absorbing liner defense).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn with_structure_scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.container_modes = self.container_modes.scaled(factor);
        self
    }

    /// Dimensionless structural gain at `f` (container × mount).
    pub fn structural_gain(&self, f: Frequency) -> f64 {
        self.container_modes.response(f) * self.mount.transfer(f)
    }

    /// Displacement amplitude (µm) induced at the drive chassis by a
    /// received level `incident` at frequency `f`.
    ///
    /// Returns zero for a 0 Hz "signal" (static pressure).
    pub fn drive_displacement_um(&self, f: Frequency, incident: Spl) -> f64 {
        self.at_frequency(f).displacement_um(incident)
    }

    /// The path's response at frequency `f`: every factor of
    /// [`Self::drive_displacement_um`] except the incident pressure.
    pub fn at_frequency(&self, f: Frequency) -> PathResponse {
        let factors = if f.hz() <= 0.0 {
            None
        } else {
            Some((
                self.enclosure.wall_displacement_um_per_pa(f),
                self.structural_gain(f),
            ))
        };
        PathResponse {
            factors,
            coupling_efficiency: self.coupling_efficiency,
        }
    }
}

/// A [`VibrationPath`] evaluated at one frequency, ready to turn any
/// received level into chassis displacement.
#[derive(Debug, Clone, Copy)]
pub struct PathResponse {
    /// Wall admittance (µm/Pa) and structural gain; `None` at 0 Hz.
    factors: Option<(f64, f64)>,
    coupling_efficiency: f64,
}

impl PathResponse {
    /// Displacement amplitude (µm) induced at the drive chassis by a
    /// received level `incident`; zero at 0 Hz.
    pub fn displacement_um(&self, incident: Spl) -> f64 {
        let Some((wall, gain)) = self.factors else {
            return 0.0;
        };
        incident.pressure_pa() * wall * gain * self.coupling_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::Material;
    use crate::resonator::Resonator;
    use proptest::prelude::*;

    fn simple_path() -> VibrationPath {
        VibrationPath::new(
            Enclosure::paper_plastic(),
            ResonatorBank::new(0.3).with_mode(Resonator::new(650.0, 2.0, 3.0)),
            Mount::direct_on_floor(),
            1.0,
        )
    }

    #[test]
    fn displacement_scales_linearly_with_pressure() {
        let path = simple_path();
        let f = Frequency::from_hz(650.0);
        let d1 = path.drive_displacement_um(f, Spl::water_db(120.0));
        let d2 = path.drive_displacement_um(f, Spl::water_db(140.0)); // +20 dB = ×10 pressure
        assert!((d2 / d1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn resonance_amplifies() {
        let path = simple_path();
        let spl = Spl::water_db(140.0);
        let on = path.drive_displacement_um(Frequency::from_hz(650.0), spl);
        let off = path.drive_displacement_um(Frequency::from_khz(5.0), spl);
        assert!(on > 10.0 * off, "on = {on}, off = {off}");
    }

    #[test]
    fn zero_hz_produces_no_vibration() {
        let path = simple_path();
        assert_eq!(
            path.drive_displacement_um(Frequency::from_hz(0.0), Spl::water_db(140.0)),
            0.0
        );
    }

    #[test]
    fn damped_mount_reduces_displacement() {
        let path = simple_path();
        let damped = path.clone().with_mount(path.mount().with_dampers(0.9));
        let f = Frequency::from_hz(650.0);
        let spl = Spl::water_db(140.0);
        assert!(damped.drive_displacement_um(f, spl) < 0.2 * path.drive_displacement_um(f, spl));
    }

    #[test]
    fn structure_scaling_reduces_displacement() {
        let path = simple_path();
        let lined = path.clone().with_structure_scaled(0.1);
        let f = Frequency::from_hz(650.0);
        let spl = Spl::water_db(140.0);
        let ratio = lined.drive_displacement_um(f, spl) / path.drive_displacement_um(f, spl);
        assert!((ratio - 0.1).abs() < 1e-9);
    }

    #[test]
    fn heavier_enclosure_attenuates() {
        let plastic = simple_path();
        let steel = VibrationPath::new(
            Enclosure::new(Material::steel(), 0.025),
            plastic.container_modes.clone(),
            plastic.mount().clone(),
            1.0,
        );
        let f = Frequency::from_hz(650.0);
        let spl = Spl::water_db(140.0);
        assert!(steel.drive_displacement_um(f, spl) < 0.05 * plastic.drive_displacement_um(f, spl));
    }

    proptest! {
        /// Displacement is finite and non-negative across band and level.
        #[test]
        fn displacement_well_behaved(hz in 1.0f64..20_000.0, db in 60.0f64..220.0) {
            let path = simple_path();
            let d = path.drive_displacement_um(Frequency::from_hz(hz), Spl::water_db(db));
            prop_assert!(d.is_finite());
            prop_assert!(d >= 0.0);
        }

        /// Louder is never less displacement.
        #[test]
        fn monotone_in_level(hz in 1.0f64..20_000.0, db in 60.0f64..200.0) {
            let path = simple_path();
            let f = Frequency::from_hz(hz);
            let lo = path.drive_displacement_um(f, Spl::water_db(db));
            let hi = path.drive_displacement_um(f, Spl::water_db(db + 10.0));
            prop_assert!(hi > lo);
        }
    }
}
