//! Sound pressure levels with explicit reference pressures.
//!
//! A dB SPL number is meaningless without its reference: in air the
//! convention is 20 µPa, in water 1 µPa. The paper (§2.2) converts with
//!
//! ```text
//! SPL_water = SPL_air + 20·log10(20 µPa / 1 µPa) = SPL_air + 26 dB
//! ```
//!
//! [`Spl`] carries its reference in the type state so the two scales
//! cannot be mixed silently.

use core::fmt;
use serde::{Deserialize, Serialize};

/// Reference pressure of an SPL value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SplReference {
    /// 20 µPa — the in-air convention.
    Air20uPa,
    /// 1 µPa — the underwater convention.
    Water1uPa,
}

impl SplReference {
    /// The reference pressure in pascals.
    pub fn pressure_pa(self) -> f64 {
        match self {
            SplReference::Air20uPa => 20e-6,
            SplReference::Water1uPa => 1e-6,
        }
    }
}

impl fmt::Display for SplReference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplReference::Air20uPa => write!(f, "re 20µPa"),
            SplReference::Water1uPa => write!(f, "re 1µPa"),
        }
    }
}

/// A sound pressure level: decibels relative to an explicit reference.
///
/// # Example
///
/// ```
/// use deepnote_acoustics::{Spl, SplReference};
///
/// // The paper's attack level: 140 dB SPL re 1 µPa underwater.
/// let attack = Spl::water_db(140.0);
/// assert_eq!(attack.reference(), SplReference::Water1uPa);
/// // 140 dB re 1 µPa is exactly 10 Pa RMS.
/// assert!((attack.pressure_pa() - 10.0).abs() < 1e-9);
/// // The same pressure expressed on the in-air scale is ~26 dB lower.
/// let in_air = Spl::from_pressure_pa(attack.pressure_pa(), SplReference::Air20uPa);
/// assert!((in_air.db() - 114.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spl {
    db: f64,
    reference: SplReference,
}

impl Spl {
    /// Creates an SPL with an explicit reference.
    ///
    /// # Panics
    ///
    /// Panics if `db` is non-finite.
    pub fn new(db: f64, reference: SplReference) -> Self {
        assert!(db.is_finite(), "SPL must be finite, got {db}");
        Spl { db, reference }
    }

    /// An underwater SPL (dB re 1 µPa).
    pub fn water_db(db: f64) -> Self {
        Spl::new(db, SplReference::Water1uPa)
    }

    /// The level in decibels (relative to [`Spl::reference`]).
    pub fn db(self) -> f64 {
        self.db
    }

    /// The reference pressure scale.
    pub fn reference(self) -> SplReference {
        self.reference
    }

    /// RMS acoustic pressure in pascals.
    pub fn pressure_pa(self) -> f64 {
        self.reference.pressure_pa() * 10f64.powf(self.db / 20.0)
    }

    /// Builds an SPL from an RMS pressure.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not strictly positive.
    pub fn from_pressure_pa(pa: f64, reference: SplReference) -> Self {
        assert!(
            pa.is_finite() && pa > 0.0,
            "pressure must be positive and finite, got {pa}"
        );
        Spl::new(20.0 * (pa / reference.pressure_pa()).log10(), reference)
    }

    /// Adds a gain (or attenuation, if negative) in dB on the same
    /// reference scale.
    pub fn plus_db(self, gain_db: f64) -> Spl {
        assert!(gain_db.is_finite(), "gain must be finite");
        Spl::new(self.db + gain_db, self.reference)
    }
}

impl fmt::Display for Spl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}dB SPL {}", self.db, self.reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dB offset between the air and water reference scales:
    /// `20·log10(20 µPa / 1 µPa) ≈ 26 dB` (§2.2 of the paper).
    const AIR_TO_WATER_REFERENCE_DB: f64 = 26.020599913279625;

    #[test]
    fn paper_conversion_constant() {
        // §2.2: SPL_water = SPL_air + 26 dB.
        let ratio = SplReference::Air20uPa.pressure_pa() / SplReference::Water1uPa.pressure_pa();
        assert!((20.0 * ratio.log10() - AIR_TO_WATER_REFERENCE_DB).abs() < 1e-9);
        assert!((AIR_TO_WATER_REFERENCE_DB - 26.0).abs() < 0.1);
    }

    #[test]
    fn pressure_of_140db_water() {
        let spl = Spl::water_db(140.0);
        assert!((spl.pressure_pa() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn pressure_of_sonar_220db() {
        // §4: "220 dB SPL pressure level typically used in underwater
        // sonars" → 10^(220/20) µPa = 10^11 µPa = 100 kPa.
        let spl = Spl::water_db(220.0);
        assert!((spl.pressure_pa() - 1e5).abs() / 1e5 < 1e-9);
    }

    #[test]
    fn reference_roundtrip_preserves_pressure() {
        let air = Spl::new(94.0, SplReference::Air20uPa); // 1 Pa in air scale.
        assert!((air.pressure_pa() - 1.0).abs() < 0.02);
        let water = Spl::from_pressure_pa(air.pressure_pa(), SplReference::Water1uPa);
        assert!((water.pressure_pa() - air.pressure_pa()).abs() < 1e-12);
        let back = Spl::from_pressure_pa(water.pressure_pa(), SplReference::Air20uPa);
        assert!((back.db() - 94.0).abs() < 1e-9);
    }

    #[test]
    fn plus_db_attenuates() {
        let spl = Spl::water_db(140.0).plus_db(-20.0);
        assert_eq!(spl.db(), 120.0);
        assert!((spl.pressure_pa() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_shows_reference() {
        assert_eq!(Spl::water_db(140.0).to_string(), "140.0dB SPL re 1µPa");
        assert_eq!(
            Spl::new(94.0, SplReference::Air20uPa).to_string(),
            "94.0dB SPL re 20µPa"
        );
    }

    proptest! {
        /// from_pressure / pressure round-trips.
        #[test]
        fn pressure_roundtrip(db in -20.0f64..240.0) {
            let spl = Spl::water_db(db);
            let back = Spl::from_pressure_pa(spl.pressure_pa(), SplReference::Water1uPa);
            prop_assert!((back.db() - db).abs() < 1e-9);
        }

        /// +6 dB doubles pressure.
        #[test]
        fn six_db_doubles_pressure(db in 0.0f64..200.0) {
            let a = Spl::water_db(db).pressure_pa();
            let b = Spl::water_db(db + 6.020599913279624).pressure_pa();
            prop_assert!((b / a - 2.0).abs() < 1e-9);
        }

        /// Water-referenced numbers are always 26 dB above the same
        /// pressure on the air scale.
        #[test]
        fn reference_offset_constant(db in 0.0f64..200.0) {
            let w = Spl::water_db(db);
            let a = Spl::from_pressure_pa(w.pressure_pa(), SplReference::Air20uPa);
            prop_assert!((w.db() - a.db() - AIR_TO_WATER_REFERENCE_DB).abs() < 1e-9);
        }
    }
}
