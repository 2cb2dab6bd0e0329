//! Virtual time primitives.
//!
//! [`SimTime`] is an absolute instant on the simulation timeline and
//! [`SimDuration`] a span between instants, both with nanosecond resolution
//! backed by `u64`. The zero instant is the start of the simulation.
//!
//! These types deliberately mirror `std::time::{Instant, Duration}` but are
//! fully ordered, serializable, and constructible from constants so that
//! experiment configurations can be written down as data.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Nanoseconds in one microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds in one millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A span of virtual time with nanosecond resolution.
///
/// # Example
///
/// ```
/// use deepnote_sim::SimDuration;
///
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d, SimDuration::from_micros(2_500));
/// assert_eq!(d.as_secs_f64(), 0.0025);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration {
    nanos: u64,
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration { nanos: 0 };
    /// The maximum representable duration (~584 years).
    pub const MAX: SimDuration = SimDuration { nanos: u64::MAX };

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration { nanos }
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration {
            nanos: micros * NANOS_PER_MICRO,
        }
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            nanos: millis * NANOS_PER_MILLI,
        }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration {
            nanos: secs * NANOS_PER_SEC,
        }
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let nanos = secs * NANOS_PER_SEC as f64;
        assert!(
            nanos <= u64::MAX as f64,
            "duration of {secs} s overflows SimDuration"
        );
        SimDuration {
            nanos: nanos.round() as u64,
        }
    }

    /// Creates a duration from fractional milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative, non-finite, or too large to represent.
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1_000.0)
    }

    /// Whole nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Whole seconds in this duration (truncating).
    pub const fn as_secs(self) -> u64 {
        self.nanos / NANOS_PER_SEC
    }

    /// This duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / NANOS_PER_SEC as f64
    }

    /// This duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.nanos as f64 / NANOS_PER_MILLI as f64
    }

    /// Returns `true` if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.nanos == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(rhs.nanos),
        }
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        match self.nanos.checked_add(rhs.nanos) {
            Some(nanos) => Some(SimDuration { nanos }),
            None => None,
        }
    }

    /// Multiplies the duration by a fractional factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self
                .nanos
                .checked_add(rhs.nanos)
                .expect("SimDuration overflow in addition"),
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self
                .nanos
                .checked_sub(rhs.nanos)
                .expect("SimDuration underflow in subtraction"),
        }
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            nanos: self
                .nanos
                .checked_mul(rhs)
                .expect("SimDuration overflow in multiplication"),
        }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration {
            nanos: self.nanos / rhs,
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.nanos >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.nanos >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", self.nanos as f64 / NANOS_PER_MICRO as f64)
        } else {
            write!(f, "{}ns", self.nanos)
        }
    }
}

/// An absolute instant on the virtual timeline.
///
/// Time zero is the start of the simulation. Instants are totally ordered
/// and support the usual instant/duration arithmetic.
///
/// # Example
///
/// ```
/// use deepnote_sim::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_secs(3);
/// assert_eq!(t1 - t0, SimDuration::from_secs(3));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime {
    nanos: u64,
}

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime { nanos: 0 };
    /// The farthest representable instant.
    pub const MAX: SimTime = SimTime { nanos: u64::MAX };

    /// Creates an instant `nanos` nanoseconds after the start of the
    /// simulation.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime { nanos }
    }

    /// Creates an instant `secs` seconds after the start of the simulation.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime {
            nanos: secs * NANOS_PER_SEC,
        }
    }

    /// Nanoseconds since the start of the simulation.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Seconds since the start of the simulation, fractional.
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / NANOS_PER_SEC as f64
    }

    /// Milliseconds since the start of the simulation, fractional.
    pub fn as_millis_f64(self) -> f64 {
        self.nanos as f64 / NANOS_PER_MILLI as f64
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration {
            nanos: self
                .nanos
                .checked_sub(earlier.nanos)
                .expect("duration_since called with a later instant"),
        }
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    pub const fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(earlier.nanos),
        }
    }

    /// Checked addition of a duration; `None` on overflow.
    pub const fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        match self.nanos.checked_add(d.as_nanos()) {
            Some(nanos) => Some(SimTime { nanos }),
            None => None,
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime {
            nanos: self
                .nanos
                .checked_add(rhs.as_nanos())
                .expect("SimTime overflow in addition"),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime {
            nanos: self
                .nanos
                .checked_sub(rhs.as_nanos())
                .expect("SimTime underflow in subtraction"),
        }
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
    }

    #[test]
    fn duration_float_roundtrip() {
        let d = SimDuration::from_secs_f64(1.25);
        assert_eq!(d.as_nanos(), 1_250_000_000);
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-12);
        let m = SimDuration::from_millis_f64(0.2);
        assert_eq!(m, SimDuration::from_micros(200));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(2);
        assert_eq!(a + b, SimDuration::from_millis(5));
        assert_eq!(a - b, SimDuration::from_millis(1));
        assert_eq!(a * 4, SimDuration::from_millis(12));
        assert_eq!(a / 3, SimDuration::from_millis(1));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_subtraction_underflow_panics() {
        let _ = SimDuration::from_millis(1) - SimDuration::from_millis(2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn duration_from_negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10);
        let later = t + SimDuration::from_millis(500);
        assert_eq!(later.duration_since(t), SimDuration::from_millis(500));
        assert_eq!(later - t, SimDuration::from_millis(500));
        assert_eq!(later - SimDuration::from_millis(500), t);
        assert_eq!(t.saturating_duration_since(later), SimDuration::ZERO);
    }

    #[test]
    fn time_is_ordered() {
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_nanos(1);
        assert!(t0 < t1);
        assert!(t1 <= SimTime::MAX);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_secs(2).to_string(), "t+2.000000s");
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(10).mul_f64(0.5);
        assert_eq!(d.as_secs(), 5);
    }

    #[test]
    fn checked_ops_catch_overflow() {
        assert!(SimDuration::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert!(SimTime::ZERO
            .checked_add(SimDuration::from_secs(1))
            .is_some());
    }
}
