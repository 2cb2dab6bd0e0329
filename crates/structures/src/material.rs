//! Structural materials.
//!
//! Only the property that matters for the vibration chain is modelled:
//! density, which sets the wall's surface mass.

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
/// assert!(Material::steel().density_kg_m3() > al.density_kg_m3());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Material {
    density_kg_m3: f64,
}

impl Material {
    /// Creates a material of the given density.
    ///
    /// # Panics
    ///
    /// Panics if density is not positive.
    pub fn new(density_kg_m3: f64) -> Self {
        assert!(density_kg_m3 > 0.0, "density must be positive");
        Material { density_kg_m3 }
    }

    /// Hard plastic (HDPE-like), the paper's Scenario 1–2 container.
    pub fn hard_plastic() -> Self {
        Material::new(950.0)
    }

    /// Aluminum, the paper's Scenario 3 container.
    pub fn aluminum() -> Self {
        Material::new(2_700.0)
    }

    /// Steel, the material of real data-center pressure vessels (§5).
    pub fn steel() -> Self {
        Material::new(7_850.0)
    }

    /// Density in kg/m³.
    pub fn density_kg_m3(&self) -> f64 {
        self.density_kg_m3
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
    }

    #[test]
    #[should_panic(expected = "density")]
    fn rejects_nonpositive_density() {
        Material::new(0.0);
    }
}
