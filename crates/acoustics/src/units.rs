//! Strongly typed physical units.
//!
//! Newtypes prevent the classic mixups in acoustic code: Hz vs kHz,
//! metres vs centimetres, dB re 20 µPa vs dB re 1 µPa. Constructors
//! validate ranges; accessors expose raw `f64`s for math.

use core::fmt;
use core::ops::{Add, Div, Mul, RangeInclusive, Sub};
use serde::{Deserialize, Serialize};

macro_rules! assert_finite {
    ($v:expr, $what:literal) => {
        assert!(
            $v.is_finite(),
            concat!($what, " must be finite, got {}"),
            $v
        )
    };
}

/// A number outside the range a checked constructor admits
/// ([`Frequency::checked_hz`], [`Distance::checked_cm`]). NaN is outside
/// every range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutOfRange {
    /// The number given.
    pub value: f64,
    /// The smallest number admitted.
    pub min: f64,
    /// The largest number admitted.
    pub max: f64,
}

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} is outside {} to {}", self.value, self.min, self.max)
    }
}

impl std::error::Error for OutOfRange {}

/// `value` if `range` holds it.
fn within(value: f64, range: RangeInclusive<f64>) -> Result<f64, OutOfRange> {
    if range.contains(&value) {
        Ok(value)
    } else {
        Err(OutOfRange {
            value,
            min: *range.start(),
            max: *range.end(),
        })
    }
}

/// An acoustic frequency.
///
/// # Example
///
/// ```
/// use deepnote_acoustics::Frequency;
///
/// let f = Frequency::from_khz(1.3);
/// assert_eq!(f.hz(), 1300.0);
/// assert_eq!(f.khz(), 1.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Frequency {
    hz: f64,
}

impl Frequency {
    /// The frequencies the transfer path from speaker to drive can
    /// evaluate, in Hz: the paper's sweep with room on either side. At
    /// 0 Hz the path's gain is infinite, and just above it the drive's
    /// displacement is not a number.
    pub const CHECKED_HZ: RangeInclusive<f64> = 1.0..=100_000.0;

    /// A frequency of `hz` hertz, if [`Frequency::CHECKED_HZ`] holds it.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] for any other number, NaN included.
    pub fn checked_hz(hz: f64) -> Result<Self, OutOfRange> {
        within(hz, Self::CHECKED_HZ).map(Self::from_hz)
    }

    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is negative or non-finite.
    pub fn from_hz(hz: f64) -> Self {
        assert_finite!(hz, "frequency");
        assert!(hz >= 0.0, "frequency must be non-negative, got {hz}");
        Frequency { hz }
    }

    /// Creates a frequency from kilohertz.
    pub fn from_khz(khz: f64) -> Self {
        Self::from_hz(khz * 1_000.0)
    }

    /// Hertz.
    pub fn hz(self) -> f64 {
        self.hz
    }

    /// Kilohertz.
    pub fn khz(self) -> f64 {
        self.hz / 1_000.0
    }

    /// Angular frequency ω = 2πf in rad/s.
    pub fn angular(self) -> f64 {
        std::f64::consts::TAU * self.hz
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz >= 1_000.0 {
            write!(f, "{:.3}kHz", self.khz())
        } else {
            write!(f, "{:.1}Hz", self.hz)
        }
    }
}

/// A distance.
///
/// # Example
///
/// ```
/// use deepnote_acoustics::Distance;
///
/// let d = Distance::from_cm(25.0);
/// assert_eq!(d.m(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Distance {
    m: f64,
}

impl Distance {
    /// The distances the transfer path can evaluate, in centimetres: up
    /// to 1 km, far past where the attack fades, and short enough that
    /// every level along the path stays finite.
    pub const CHECKED_CM: RangeInclusive<f64> = 0.0..=100_000.0;

    /// A distance of `cm` centimetres, if [`Distance::CHECKED_CM`] holds
    /// it.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] for any other number, NaN included.
    pub fn checked_cm(cm: f64) -> Result<Self, OutOfRange> {
        within(cm, Self::CHECKED_CM).map(Self::from_cm)
    }

    /// Creates a distance from metres.
    ///
    /// # Panics
    ///
    /// Panics if `m` is negative or non-finite.
    pub fn from_m(m: f64) -> Self {
        assert_finite!(m, "distance");
        assert!(m >= 0.0, "distance must be non-negative, got {m}");
        Distance { m }
    }

    /// Creates a distance from centimetres.
    pub fn from_cm(cm: f64) -> Self {
        Self::from_m(cm / 100.0)
    }

    /// Metres.
    pub fn m(self) -> f64 {
        self.m
    }

    /// Centimetres.
    pub fn cm(self) -> f64 {
        self.m * 100.0
    }

    /// Kilometres.
    pub fn km(self) -> f64 {
        self.m / 1_000.0
    }
}

impl Add for Distance {
    type Output = Distance;
    fn add(self, rhs: Distance) -> Distance {
        Distance::from_m(self.m + rhs.m)
    }
}

impl Sub for Distance {
    type Output = Distance;
    fn sub(self, rhs: Distance) -> Distance {
        Distance::from_m((self.m - rhs.m).max(0.0))
    }
}

impl Mul<f64> for Distance {
    type Output = Distance;
    fn mul(self, rhs: f64) -> Distance {
        Distance::from_m(self.m * rhs)
    }
}

impl Div<f64> for Distance {
    type Output = Distance;
    fn div(self, rhs: f64) -> Distance {
        // deepnote-lint: allow(float-eq): guards exact division by literal zero
        assert!(rhs != 0.0, "division of distance by zero");
        Distance::from_m(self.m / rhs)
    }
}

impl fmt::Display for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.m < 1.0 {
            write!(f, "{:.1}cm", self.cm())
        } else if self.m < 1_000.0 {
            write!(f, "{:.2}m", self.m)
        } else {
            write!(f, "{:.3}km", self.km())
        }
    }
}

/// A gain (or, negative, an attenuation) in decibels — a ratio applied
/// to a signal, not an absolute level like [`crate::Spl`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Gain(f64);

impl Gain {
    /// Creates a gain from decibels.
    ///
    /// # Panics
    ///
    /// Panics if `db` is non-finite.
    pub fn from_db(db: f64) -> Self {
        assert_finite!(db, "gain");
        Gain(db)
    }

    /// Decibels.
    pub fn db(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Gain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.1}dB", self.0)
    }
}

/// A temperature in degrees Celsius.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Celsius(f64);

impl Celsius {
    /// Creates a temperature.
    ///
    /// # Panics
    ///
    /// Panics outside the liquid-water range used by the sound-speed
    /// formulas (−2 °C to 45 °C).
    pub fn new(deg_c: f64) -> Self {
        assert_finite!(deg_c, "temperature");
        assert!(
            (-2.0..=45.0).contains(&deg_c),
            "temperature {deg_c} °C outside the validity range of the water formulas (−2..45)"
        );
        Celsius(deg_c)
    }

    /// Degrees Celsius.
    pub fn deg_c(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}°C", self.0)
    }
}

/// Water salinity in practical salinity units (≈ parts per thousand).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Salinity(f64);

impl Salinity {
    /// Fresh water (0 PSU).
    pub const FRESH: Salinity = Salinity(0.0);
    /// Typical open-ocean salinity (35 PSU).
    pub const OCEAN: Salinity = Salinity(35.0);

    /// Creates a salinity value.
    ///
    /// # Panics
    ///
    /// Panics outside 0–45 PSU (the validity range of Medwin's equation).
    pub fn from_psu(psu: f64) -> Self {
        assert_finite!(psu, "salinity");
        assert!(
            (0.0..=45.0).contains(&psu),
            "salinity {psu} PSU outside 0..45"
        );
        Salinity(psu)
    }

    /// Practical salinity units.
    pub fn psu(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Salinity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}PSU", self.0)
    }
}

/// Depth below the water surface.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Depth(f64);

impl Depth {
    /// Creates a depth in metres.
    ///
    /// # Panics
    ///
    /// Panics if negative, non-finite, or deeper than the ocean (11 km).
    pub fn from_m(m: f64) -> Self {
        assert_finite!(m, "depth");
        assert!(
            (0.0..=11_000.0).contains(&m),
            "depth {m} m outside 0..11000"
        );
        Depth(m)
    }

    /// Metres below the surface.
    pub fn m(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Depth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}m deep", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_conversions() {
        let f = Frequency::from_khz(16.9);
        assert!((f.hz() - 16_900.0).abs() < 1e-9);
        assert!((f.khz() - 16.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn frequency_rejects_negative() {
        Frequency::from_hz(-1.0);
    }

    #[test]
    fn checked_constructors_admit_only_their_range() {
        assert_eq!(Frequency::checked_hz(650.0), Ok(Frequency::from_hz(650.0)));
        assert_eq!(Frequency::checked_hz(1.0).map(Frequency::hz), Ok(1.0));
        assert_eq!(Frequency::checked_hz(1e5).map(Frequency::hz), Ok(1e5));
        for hz in [
            0.0,
            1e-300,
            0.999,
            100_000.5,
            -650.0,
            f64::NAN,
            f64::INFINITY,
        ] {
            let err = Frequency::checked_hz(hz).unwrap_err();
            assert_eq!((err.min, err.max), (1.0, 100_000.0), "{hz}");
        }
        assert_eq!(Distance::checked_cm(25.0), Ok(Distance::from_cm(25.0)));
        assert_eq!(Distance::checked_cm(0.0).map(Distance::m), Ok(0.0));
        assert_eq!(Distance::checked_cm(1e5).map(Distance::m), Ok(1_000.0));
        for cm in [-1.0, 1e308, 100_000.5, f64::NAN, f64::NEG_INFINITY] {
            assert!(Distance::checked_cm(cm).is_err(), "{cm}");
        }
        assert_eq!(
            Distance::checked_cm(-3.0).unwrap_err().to_string(),
            "-3 is outside 0 to 100000"
        );
    }

    #[test]
    fn distance_conversions_and_arithmetic() {
        let d = Distance::from_cm(150.0);
        assert!((d.m() - 1.5).abs() < 1e-12);
        assert_eq!((d + Distance::from_cm(50.0)).m(), 2.0);
        assert_eq!((d * 2.0).m(), 3.0);
        assert_eq!((d / 3.0).cm(), 50.0);
        // Subtraction saturates at zero.
        assert_eq!((Distance::from_m(1.0) - Distance::from_m(5.0)).m(), 0.0);
    }

    #[test]
    fn displays_pick_units() {
        assert_eq!(Frequency::from_hz(650.0).to_string(), "650.0Hz");
        assert_eq!(Frequency::from_khz(1.3).to_string(), "1.300kHz");
        assert_eq!(Distance::from_cm(25.0).to_string(), "25.0cm");
        assert_eq!(Distance::from_m(36.0).to_string(), "36.00m");
        assert_eq!(Distance::from_m(1_000.0).to_string(), "1.000km");
    }

    #[test]
    fn environment_units_validate() {
        assert_eq!(Celsius::new(20.0).deg_c(), 20.0);
        assert_eq!(Salinity::OCEAN.psu(), 35.0);
        assert_eq!(Depth::from_m(36.0).m(), 36.0);
    }

    #[test]
    #[should_panic(expected = "salinity")]
    fn salinity_range_checked() {
        Salinity::from_psu(99.0);
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn temperature_range_checked() {
        Celsius::new(80.0);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn depth_range_checked() {
        Depth::from_m(-3.0);
    }
}
