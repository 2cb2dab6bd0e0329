//! Water conditions.
//!
//! Sound speed in water follows Medwin's equation (paper ref. \[30\]):
//!
//! ```text
//! c = 1449.2 + 4.6 T − 0.055 T² + 0.00029 T³ + (1.34 − 0.010 T)(S − 35) + 0.016 z
//! ```
//!
//! with `T` in °C, `S` in PSU, `z` in metres. The paper's §5 observations —
//! speed rises with temperature, salinity, and depth — fall straight out of
//! this formula and are property-tested below.

use crate::units::{Celsius, Depth, Salinity};
use serde::{Deserialize, Serialize};

/// The water state relevant to sound propagation: temperature, salinity,
/// and depth.
///
/// # Example
///
/// ```
/// use deepnote_acoustics::{WaterConditions, Celsius, Salinity, Depth};
///
/// let tank = WaterConditions::tank_freshwater();
/// let natick = WaterConditions::new(
///     Celsius::new(10.0),
///     Salinity::OCEAN,
///     Depth::from_m(36.0),
/// );
/// // Colder but saltier/deeper: Medwin's terms trade off.
/// assert!(natick.sound_speed_m_s() > 1480.0);
/// assert!(tank.sound_speed_m_s() > 1400.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaterConditions {
    temperature: Celsius,
    salinity: Salinity,
    depth: Depth,
}

impl WaterConditions {
    /// Creates water conditions.
    pub fn new(temperature: Celsius, salinity: Salinity, depth: Depth) -> Self {
        WaterConditions {
            temperature,
            salinity,
            depth,
        }
    }

    /// The paper's laboratory tank: room-temperature fresh water at
    /// negligible depth.
    pub fn tank_freshwater() -> Self {
        WaterConditions::new(Celsius::new(21.0), Salinity::FRESH, Depth::from_m(0.5))
    }

    /// Microsoft Project Natick deployment conditions: ~36 m deep seawater
    /// (paper ref. \[22\]), North Sea temperature.
    pub fn natick_seawater() -> Self {
        WaterConditions::new(Celsius::new(10.0), Salinity::OCEAN, Depth::from_m(36.0))
    }

    /// Planned Hainan (Offshore Oil Engineering Co.) deployment, ~20 m deep
    /// warm seawater (paper ref. \[35\]).
    pub fn hainan_seawater() -> Self {
        WaterConditions::new(
            Celsius::new(24.0),
            Salinity::from_psu(33.0),
            Depth::from_m(20.0),
        )
    }

    /// Water temperature.
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Water salinity.
    pub fn salinity(&self) -> Salinity {
        self.salinity
    }

    /// Depth below the surface.
    pub fn depth(&self) -> Depth {
        self.depth
    }

    /// Sound speed via Medwin (1975), m/s.
    pub fn sound_speed_m_s(&self) -> f64 {
        let t = self.temperature.deg_c();
        let s = self.salinity.psu();
        let z = self.depth.m();
        1449.2 + 4.6 * t - 0.055 * t * t
            + 0.00029 * t * t * t
            + (1.34 - 0.010 * t) * (s - 35.0)
            + 0.016 * z
    }
}

impl Default for WaterConditions {
    fn default() -> Self {
        Self::tank_freshwater()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn medwin_reference_value() {
        // T = 10 °C, S = 35 PSU, z = 0: published value ≈ 1490 m/s.
        let w = WaterConditions::new(Celsius::new(10.0), Salinity::OCEAN, Depth::from_m(0.0));
        let c = w.sound_speed_m_s();
        assert!((1489.0..1492.0).contains(&c), "c = {c}");
    }

    #[test]
    fn water_speed_about_4x_air() {
        // §2.2: "Sound wave travels approximately 4 times faster in water
        // than air." Air at room temperature carries sound at 343 m/s.
        let ratio = WaterConditions::tank_freshwater().sound_speed_m_s() / 343.0;
        assert!((3.9..4.6).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn presets_are_distinct() {
        let tank = WaterConditions::tank_freshwater();
        let natick = WaterConditions::natick_seawater();
        assert_ne!(tank, natick);
        assert!(natick.depth().m() > tank.depth().m());
        assert!(natick.salinity().psu() > tank.salinity().psu());
    }

    proptest! {
        /// §5 "Water Conditions": as temperature increases, sound speed
        /// increases (below ~40 °C where the quadratic term wins, Medwin is
        /// monotone; we stay within the validated range).
        #[test]
        fn speed_increases_with_temperature(t in -2.0f64..35.0, s in 0.0f64..45.0, z in 0.0f64..1000.0) {
            let base = WaterConditions::new(Celsius::new(t), Salinity::from_psu(s), Depth::from_m(z));
            let hotter = WaterConditions::new(Celsius::new(t + 2.0_f64.min(35.0 - t).max(0.5)), Salinity::from_psu(s), Depth::from_m(z));
            prop_assert!(hotter.sound_speed_m_s() > base.sound_speed_m_s());
        }

        /// §5: higher salinity increases speed.
        #[test]
        fn speed_increases_with_salinity(t in -2.0f64..40.0, s in 0.0f64..40.0, z in 0.0f64..1000.0) {
            let base = WaterConditions::new(Celsius::new(t), Salinity::from_psu(s), Depth::from_m(z));
            let saltier = WaterConditions::new(Celsius::new(t), Salinity::from_psu(s + 5.0), Depth::from_m(z));
            prop_assert!(saltier.sound_speed_m_s() > base.sound_speed_m_s());
        }

        /// §5: increasing depth increases sound speed.
        #[test]
        fn speed_increases_with_depth(t in -2.0f64..40.0, s in 0.0f64..45.0, z in 0.0f64..5000.0) {
            let base = WaterConditions::new(Celsius::new(t), Salinity::from_psu(s), Depth::from_m(z));
            let deeper = WaterConditions::new(Celsius::new(t), Salinity::from_psu(s), Depth::from_m(z + 100.0));
            prop_assert!(deeper.sound_speed_m_s() > base.sound_speed_m_s());
        }

        /// Sound speed stays within physically plausible water bounds.
        #[test]
        fn speed_plausible(t in -2.0f64..40.0, s in 0.0f64..45.0, z in 0.0f64..11_000.0) {
            let w = WaterConditions::new(Celsius::new(t), Salinity::from_psu(s), Depth::from_m(z));
            let c = w.sound_speed_m_s();
            prop_assert!((1350.0..1750.0).contains(&c), "c = {}", c);
        }
    }
}
