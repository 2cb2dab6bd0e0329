//! Seawater sound absorption.
//!
//! Implements the Ainslie & McColm (1998) simplification of the
//! Fisher & Simmons / François–Garrison absorption model, which is the
//! "simple and accurate formula" of van Moll et al. (paper ref. \[47\]).
//! Absorption has three additive terms — boric acid relaxation, magnesium
//! sulfate relaxation, and pure-water viscosity:
//!
//! ```text
//! α(f) = A1 f1 f²/(f1²+f²) + A2 f2 f²/(f2²+f²) + A3 f²      [dB/km, f in kHz]
//! ```
//!
//! In fresh water the two chemical relaxation terms vanish and only the
//! viscous term remains — which is why the paper's 650 Hz tank signal is
//! attenuated by a negligible ~10⁻⁵ dB/km and the attack is limited by
//! geometric spreading, not absorption.

use crate::medium::WaterConditions;
use crate::units::Frequency;

/// Absorption coefficient in dB/km for a signal of frequency `f` in water
/// `w`, per Ainslie & McColm (1998).
///
/// Validated for 100 Hz – 1 MHz; outside that band the nearest-boundary
/// behaviour is still smooth and monotone, so no clamping is applied.
///
/// # Example
///
/// ```
/// use deepnote_acoustics::{absorption_db_per_km, Frequency, WaterConditions};
///
/// let sea = WaterConditions::natick_seawater();
/// let a500 = absorption_db_per_km(Frequency::from_hz(500.0), &sea);
/// // Baltic-style measurement in the paper: 0.038 dB/km at 500 Hz, 50 m.
/// assert!(a500 > 0.001 && a500 < 0.2, "a500 = {a500}");
/// ```
pub fn absorption_db_per_km(f: Frequency, w: &WaterConditions) -> f64 {
    let f_khz = f.khz();
    let t = w.temperature().deg_c();
    let s = w.salinity().psu();
    let z_km = w.depth().m() / 1_000.0;
    // Ainslie & McColm use pH; coastal/ocean default.
    let ph = 8.0_f64;

    // Boric acid relaxation frequency (kHz).
    let f1 = 0.78 * (s / 35.0_f64).sqrt() * (t / 26.0).exp();
    // Magnesium sulfate relaxation frequency (kHz).
    let f2 = 42.0 * (t / 17.0).exp();

    let f_sq = f_khz * f_khz;

    // Boric acid term.
    let boric = 0.106 * (f1 * f_sq) / (f1 * f1 + f_sq) * ((ph - 8.0) / 0.56).exp();
    // Magnesium sulfate term.
    let mgso4 =
        0.52 * (1.0 + t / 43.0) * (s / 35.0) * (f2 * f_sq) / (f2 * f2 + f_sq) * (-z_km / 6.0).exp();
    // Pure water (viscous) term.
    let water = 0.00049 * f_sq * (-(t / 27.0 + z_km / 17.0)).exp();

    // In fresh water the chemical terms are scaled away by s/35 (MgSO4)
    // and sqrt(s/35) (boric); at s = 0 only the viscous term remains.
    // deepnote-lint: allow(float-eq): Salinity::FRESH is exactly 0.0, an uncalculated sentinel
    let boric = if s == 0.0 { 0.0 } else { boric };
    boric + mgso4 + water
}

/// One tone's absorption coefficient in one water, applied to paths of
/// any length without re-evaluating [`absorption_db_per_km`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Absorption {
    db_per_km: f64,
}

impl Absorption {
    /// The coefficient for frequency `f` in water `w`.
    pub(crate) fn new(f: Frequency, w: &WaterConditions) -> Self {
        Absorption {
            db_per_km: absorption_db_per_km(f, w),
        }
    }

    /// Absorption loss in dB over a path of `distance_km` kilometres.
    pub(crate) fn loss_db(self, distance_km: f64) -> f64 {
        assert!(
            distance_km.is_finite() && distance_km >= 0.0,
            "distance must be finite and non-negative"
        );
        self.db_per_km * distance_km
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Celsius, Depth, Salinity};
    use proptest::prelude::*;

    fn seawater() -> WaterConditions {
        WaterConditions::new(Celsius::new(10.0), Salinity::OCEAN, Depth::from_m(50.0))
    }

    #[test]
    fn low_frequency_absorption_is_tiny() {
        // The paper quotes 0.038 dB/km at 500 Hz, 50 m depth, Baltic-ish
        // water. The Baltic is brackish (S ≈ 8); with that salinity we
        // should land in the same order of magnitude.
        let baltic = WaterConditions::new(
            Celsius::new(8.0),
            Salinity::from_psu(8.0),
            Depth::from_m(50.0),
        );
        let a = absorption_db_per_km(Frequency::from_hz(500.0), &baltic);
        assert!((0.005..0.15).contains(&a), "a = {a}");
    }

    #[test]
    fn freshwater_only_viscous_term() {
        let fresh = WaterConditions::tank_freshwater();
        let a = absorption_db_per_km(Frequency::from_hz(650.0), &fresh);
        // Viscous term at 0.65 kHz: 0.00049 * 0.4225 * exp(-21/27) ≈ 1e-4.
        assert!(a < 1e-3, "a = {a}");
        assert!(a > 0.0);
    }

    #[test]
    fn high_frequencies_absorb_much_more() {
        let w = seawater();
        let a1 = absorption_db_per_km(Frequency::from_khz(1.0), &w);
        let a100 = absorption_db_per_km(Frequency::from_khz(100.0), &w);
        assert!(a100 / a1 > 100.0, "a1 = {a1}, a100 = {a100}");
    }

    #[test]
    fn reference_magnitude_at_10khz() {
        // Published curves put 10 kHz seawater absorption near 1 dB/km.
        let a = absorption_db_per_km(Frequency::from_khz(10.0), &seawater());
        assert!((0.3..3.0).contains(&a), "a = {a}");
    }

    #[test]
    fn loss_scales_with_distance() {
        let w = seawater();
        let f = Frequency::from_khz(10.0);
        let absorption = Absorption::new(f, &w);
        let l1 = absorption.loss_db(1.0);
        let l5 = absorption.loss_db(5.0);
        assert!((l5 - 5.0 * l1).abs() < 1e-9);
        assert_eq!(absorption.loss_db(0.0), 0.0);
    }

    proptest! {
        /// Absorption increases monotonically with frequency.
        #[test]
        fn monotone_in_frequency(f in 0.1f64..500.0, s in 0.0f64..45.0) {
            let w = WaterConditions::new(Celsius::new(10.0), Salinity::from_psu(s), Depth::from_m(50.0));
            let a_lo = absorption_db_per_km(Frequency::from_khz(f), &w);
            let a_hi = absorption_db_per_km(Frequency::from_khz(f * 1.3), &w);
            prop_assert!(a_hi >= a_lo, "a({}) = {} > a({}) = {}", f, a_lo, f * 1.3, a_hi);
        }

        /// Absorption is non-negative everywhere.
        #[test]
        fn non_negative(f in 0.01f64..1_000.0, t in -2.0f64..40.0, s in 0.0f64..45.0, z in 0.0f64..5_000.0) {
            let w = WaterConditions::new(Celsius::new(t), Salinity::from_psu(s), Depth::from_m(z));
            prop_assert!(absorption_db_per_km(Frequency::from_khz(f), &w) >= 0.0);
        }

        /// Salt water absorbs at least as much as fresh water at the same
        /// conditions (chemical relaxation only adds loss).
        #[test]
        fn saltwater_geq_freshwater(f in 0.1f64..100.0, t in 0.0f64..30.0) {
            let fresh = WaterConditions::new(Celsius::new(t), Salinity::FRESH, Depth::from_m(10.0));
            let salty = WaterConditions::new(Celsius::new(t), Salinity::OCEAN, Depth::from_m(10.0));
            let af = absorption_db_per_km(Frequency::from_khz(f), &fresh);
            let as_ = absorption_db_per_km(Frequency::from_khz(f), &salty);
            prop_assert!(as_ >= af);
        }
    }
}
