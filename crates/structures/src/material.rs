//! Structural materials.
//!
//! Only the properties that matter for the vibration chain are modelled:
//! density (sets wall surface mass), internal damping (sets how sharply
//! structural modes ring), and a stiffness proxy used when deriving
//! plausible modal frequencies for containers.

use serde::{Deserialize, Serialize};

/// A structural material.
///
/// # Example
///
/// ```
/// use deepnote_structures::Material;
///
/// let al = Material::aluminum();
/// let hdpe = Material::hard_plastic();
/// assert!(al.density_kg_m3() > hdpe.density_kg_m3());
/// assert!(al.damping_ratio() < hdpe.damping_ratio()); // metal rings longer
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Material {
    name: String,
    density_kg_m3: f64,
    damping_ratio: f64,
    youngs_modulus_gpa: f64,
}

impl Material {
    /// Creates a material.
    ///
    /// # Panics
    ///
    /// Panics if density or Young's modulus is not positive, or damping is
    /// outside `(0, 1)`.
    pub fn new(
        name: impl Into<String>,
        density_kg_m3: f64,
        damping_ratio: f64,
        youngs_modulus_gpa: f64,
    ) -> Self {
        assert!(density_kg_m3 > 0.0, "density must be positive");
        assert!(
            damping_ratio > 0.0 && damping_ratio < 1.0,
            "damping ratio must be in (0, 1)"
        );
        assert!(youngs_modulus_gpa > 0.0, "Young's modulus must be positive");
        Material {
            name: name.into(),
            density_kg_m3,
            damping_ratio,
            youngs_modulus_gpa,
        }
    }

    /// Hard plastic (HDPE-like), the paper's Scenario 1–2 container.
    pub fn hard_plastic() -> Self {
        Material::new("hard plastic (HDPE)", 950.0, 0.05, 1.0)
    }

    /// Aluminum, the paper's Scenario 3 container.
    pub fn aluminum() -> Self {
        Material::new("aluminum", 2_700.0, 0.01, 69.0)
    }

    /// Steel, the material of real data-center pressure vessels (§5).
    pub fn steel() -> Self {
        Material::new("steel", 7_850.0, 0.008, 200.0)
    }

    /// Material name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Density in kg/m³.
    pub fn density_kg_m3(&self) -> f64 {
        self.density_kg_m3
    }

    /// Structural damping ratio ζ (fraction of critical damping).
    pub fn damping_ratio(&self) -> f64 {
        self.damping_ratio
    }

    /// Young's modulus in GPa (stiffness proxy).
    pub fn youngs_modulus_gpa(&self) -> f64 {
        self.youngs_modulus_gpa
    }

    /// Longitudinal sound speed in the material, m/s: `sqrt(E/ρ)`.
    pub fn sound_speed_m_s(&self) -> f64 {
        (self.youngs_modulus_gpa * 1e9 / self.density_kg_m3).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_ordering() {
        let plastic = Material::hard_plastic();
        let al = Material::aluminum();
        let steel = Material::steel();
        assert!(plastic.density_kg_m3() < al.density_kg_m3());
        assert!(al.density_kg_m3() < steel.density_kg_m3());
        // Stiff metals carry sound faster than plastic.
        assert!(al.sound_speed_m_s() > 3.0 * plastic.sound_speed_m_s());
    }

    #[test]
    fn sound_speed_formula() {
        // Steel: sqrt(200e9 / 7850) ≈ 5048 m/s.
        let c = Material::steel().sound_speed_m_s();
        assert!((5_000.0..5_100.0).contains(&c), "c = {c}");
    }

    #[test]
    #[should_panic(expected = "density")]
    fn rejects_nonpositive_density() {
        Material::new("x", 0.0, 0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn rejects_bad_damping() {
        Material::new("x", 1.0, 1.5, 1.0);
    }
}
