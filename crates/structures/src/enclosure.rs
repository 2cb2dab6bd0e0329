//! Submerged enclosures.
//!
//! The wall of a submerged container is driven by the incident acoustic
//! pressure. Two views of the wall matter:
//!
//! * **As a barrier** (classic mass law): how much *acoustic* energy makes
//!   it into the internal gas. In water this is tiny at the paper's
//!   frequencies — the walls are nearly transparent — which is why the
//!   attack does not need to "get sound inside" at all.
//! * **As a diaphragm**: the wall itself moves. In the mass-controlled
//!   regime its displacement per pascal is `x = p / (ω² m_s)` where `m_s`
//!   is the surface mass. That structural motion is what couples into the
//!   rack and drive.

use crate::material::Material;
use deepnote_acoustics::Frequency;
use serde::{Deserialize, Serialize};

/// A submerged container with walls of a given material and thickness.
///
/// # Example
///
/// ```
/// use deepnote_structures::{Enclosure, Material};
/// use deepnote_acoustics::Frequency;
///
/// let plastic = Enclosure::paper_plastic();
/// let metal = Enclosure::paper_aluminum();
/// // The aluminum wall is heavier, so it moves less per pascal.
/// let f = Frequency::from_hz(650.0);
/// assert!(metal.wall_displacement_um_per_pa(f) < plastic.wall_displacement_um_per_pa(f));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Enclosure {
    material: Material,
    wall_thickness_m: f64,
}

impl Enclosure {
    /// Creates an enclosure.
    ///
    /// # Panics
    ///
    /// Panics if the wall thickness is not positive or implausibly thick
    /// (> 0.5 m).
    pub fn new(material: Material, wall_thickness_m: f64) -> Self {
        assert!(
            wall_thickness_m > 0.0 && wall_thickness_m <= 0.5,
            "wall thickness must be in (0, 0.5] m, got {wall_thickness_m}"
        );
        Enclosure {
            material,
            wall_thickness_m,
        }
    }

    /// The paper's hard-plastic container (Scenarios 1 and 2): ~5 mm wall,
    /// air filled.
    pub fn paper_plastic() -> Self {
        Enclosure::new(Material::hard_plastic(), 0.005)
    }

    /// The paper's aluminum container (Scenario 3): ~3 mm wall, air
    /// filled.
    pub fn paper_aluminum() -> Self {
        Enclosure::new(Material::aluminum(), 0.003)
    }

    /// Wall surface mass `m_s = ρ·t` in kg/m².
    pub fn surface_mass_kg_m2(&self) -> f64 {
        self.material.density_kg_m3() * self.wall_thickness_m
    }

    /// Wall displacement amplitude per pascal of incident pressure, in
    /// µm/Pa, mass-controlled regime: `x/p = 1/(ω² m_s)`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is zero (static pressure does not vibrate the wall).
    pub fn wall_displacement_um_per_pa(&self, f: Frequency) -> f64 {
        assert!(f.hz() > 0.0, "wall displacement undefined at 0 Hz");
        let omega = f.angular();
        1e6 / (omega * omega * self.surface_mass_kg_m2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn surface_masses() {
        // Plastic: 950 * 0.005 = 4.75 kg/m²; aluminum: 2700 * 0.003 = 8.1.
        assert!((Enclosure::paper_plastic().surface_mass_kg_m2() - 4.75).abs() < 1e-12);
        assert!((Enclosure::paper_aluminum().surface_mass_kg_m2() - 8.1).abs() < 1e-12);
    }

    #[test]
    fn wall_displacement_reference_value() {
        // Plastic at 650 Hz with 1 Pa: 1/( (2π·650)² · 4.75 ) ≈ 1.26e-8 m.
        let d = Enclosure::paper_plastic().wall_displacement_um_per_pa(Frequency::from_hz(650.0));
        assert!((d - 0.0126).abs() / 0.0126 < 0.01, "d = {d}");
    }

    #[test]
    fn heavier_wall_moves_less() {
        let f = Frequency::from_hz(650.0);
        let plastic = Enclosure::paper_plastic().wall_displacement_um_per_pa(f);
        // A Project Natick-style vessel: thick steel, nitrogen filled (§5).
        let steel = Enclosure::new(Material::steel(), 0.025).wall_displacement_um_per_pa(f);
        assert!(steel < plastic / 20.0);
    }

    #[test]
    #[should_panic(expected = "0 Hz")]
    fn zero_hz_rejected() {
        Enclosure::paper_plastic().wall_displacement_um_per_pa(Frequency::from_hz(0.0));
    }

    #[test]
    #[should_panic(expected = "thickness")]
    fn silly_thickness_rejected() {
        Enclosure::new(Material::steel(), 2.0);
    }

    proptest! {
        /// Wall displacement falls with frequency squared.
        #[test]
        fn displacement_falls_as_f_squared(f in 50.0f64..8_000.0) {
            let e = Enclosure::paper_plastic();
            let d1 = e.wall_displacement_um_per_pa(Frequency::from_hz(f));
            let d2 = e.wall_displacement_um_per_pa(Frequency::from_hz(2.0 * f));
            prop_assert!((d1 / d2 - 4.0).abs() < 1e-6);
        }
    }
}
