//! Externally imposed vibration and off-track tolerances.
//!
//! The attack's mechanical endpoint: a sinusoidal chassis vibration
//! ([`VibrationState`]) shared with the drive through a [`VibrationInput`]
//! handle, and the asymmetric read/write off-track tolerances
//! ([`ToleranceModel`]) that Bolton et al. identified (writes have the
//! tighter threshold, which is why Fig. 2 shows writes dying over a wider
//! band than reads).

use deepnote_acoustics::Frequency;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Standard gravity, m/s².
pub const G: f64 = 9.80665;

/// A sinusoidal vibration imposed on the drive chassis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VibrationState {
    frequency: Frequency,
    displacement_um: f64,
}

impl VibrationState {
    /// Creates a vibration of `displacement_um` µm amplitude at
    /// `frequency`.
    ///
    /// # Panics
    ///
    /// Panics if the displacement is negative or non-finite.
    pub fn new(frequency: Frequency, displacement_um: f64) -> Self {
        assert!(
            displacement_um.is_finite() && displacement_um >= 0.0,
            "displacement must be finite and non-negative, got {displacement_um}"
        );
        VibrationState {
            frequency,
            displacement_um,
        }
    }

    /// Vibration frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// Displacement amplitude in micrometres.
    pub fn displacement_um(&self) -> f64 {
        self.displacement_um
    }

    /// Displacement amplitude in nanometres.
    pub fn displacement_nm(&self) -> f64 {
        self.displacement_um * 1_000.0
    }

    /// Peak acceleration `ω²·A` in units of g — what the drive's shock
    /// sensor responds to.
    pub fn acceleration_g(&self) -> f64 {
        let omega = self.frequency.angular();
        omega * omega * self.displacement_um * 1e-6 / G
    }

    /// Combines several simultaneous tones into one effective vibration:
    /// RMS-summed displacement (independent sinusoids add in power)
    /// reported at the frequency of the strongest component. An
    /// approximation — the duty-cycle model then treats the combination
    /// as a single tone — adequate for comparing tone vs. spread-spectrum
    /// attacks.
    ///
    /// Returns `None` for an empty set.
    pub fn combined(tones: &[VibrationState]) -> Option<VibrationState> {
        let dominant = tones
            .iter()
            .max_by(|a, b| a.displacement_um.total_cmp(&b.displacement_um))?;
        let rms_sum = tones
            .iter()
            .map(|t| t.displacement_um * t.displacement_um)
            .sum::<f64>()
            .sqrt();
        Some(VibrationState::new(dominant.frequency, rms_sum))
    }
}

/// A shared, cheaply cloneable handle through which the attack updates the
/// vibration seen by a drive.
///
/// # Example
///
/// ```
/// use deepnote_hdd::{VibrationInput, VibrationState};
/// use deepnote_acoustics::Frequency;
///
/// let input = VibrationInput::quiescent();
/// let observer = input.clone();
/// input.set(Some(VibrationState::new(Frequency::from_hz(650.0), 0.1)));
/// assert!(observer.current().is_some());
/// input.clear();
/// assert!(observer.current().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct VibrationInput {
    state: Arc<RwLock<Option<VibrationState>>>,
}

impl VibrationInput {
    /// A handle with no vibration applied.
    pub fn quiescent() -> Self {
        VibrationInput::default()
    }

    /// Sets (or clears, with `None`) the current vibration.
    pub fn set(&self, state: Option<VibrationState>) {
        *self.state.write() = state;
    }

    /// Clears any vibration.
    pub fn clear(&self) {
        self.set(None);
    }

    /// The vibration currently applied, if any.
    pub fn current(&self) -> Option<VibrationState> {
        *self.state.read()
    }
}

/// Read/write off-track tolerance thresholds, as fractions of the track
/// pitch.
///
/// Reads tolerate more off-track displacement than writes: a misplaced
/// read just re-reads, while a misplaced write would destroy the adjacent
/// track, so drives abort writes much earlier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ToleranceModel {
    read_fraction: f64,
    write_fraction: f64,
}

impl ToleranceModel {
    /// Creates a tolerance model from track-pitch fractions.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < write_fraction <= read_fraction <= 1`.
    // deepnote-lint: allow(raw-f64-params): dimensionless track-pitch fractions; the write<=read assert makes swapped (distinct) arguments fail fast at construction
    pub fn new(read_fraction: f64, write_fraction: f64) -> Self {
        assert!(
            write_fraction > 0.0 && write_fraction <= read_fraction && read_fraction <= 1.0,
            "need 0 < write ({write_fraction}) <= read ({read_fraction}) <= 1"
        );
        ToleranceModel {
            read_fraction,
            write_fraction,
        }
    }

    /// Industry-typical thresholds: reads fault beyond ~15% of track
    /// pitch, writes beyond ~10%.
    pub fn typical() -> Self {
        ToleranceModel::new(0.15, 0.10)
    }

    /// Absolute tolerance in nm for the given track pitch.
    pub fn tolerance_nm(&self, track_pitch_nm: f64, read: bool) -> f64 {
        assert!(track_pitch_nm > 0.0, "track pitch must be positive");
        track_pitch_nm
            * if read {
                self.read_fraction
            } else {
                self.write_fraction
            }
    }

    /// The fraction of each vibration cycle during which a sinusoidal
    /// off-track displacement of amplitude `offtrack_nm` stays inside the
    /// tolerance: 1 if the amplitude is within tolerance, otherwise
    /// `(2/π)·asin(tol/A)`.
    // deepnote-lint: allow(raw-f64-params): both lengths are nanometres by crate-wide convention; a shared Nm newtype would not stop a transposition, and the _nm suffixes name the roles at every call site
    pub fn on_track_duty(&self, track_pitch_nm: f64, offtrack_nm: f64, read: bool) -> f64 {
        assert!(
            offtrack_nm.is_finite() && offtrack_nm >= 0.0,
            "off-track amplitude must be finite and non-negative"
        );
        let tol = self.tolerance_nm(track_pitch_nm, read);
        if offtrack_nm <= tol {
            1.0
        } else {
            (2.0 / std::f64::consts::PI) * (tol / offtrack_nm).asin()
        }
    }
}

impl Default for ToleranceModel {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn acceleration_of_known_vibration() {
        // 1 µm at 5 kHz: ω = 31416 rad/s, a = ω²·1e-6 ≈ 987 m/s² ≈ 100 g.
        let v = VibrationState::new(Frequency::from_khz(5.0), 1.0);
        assert!(
            (v.acceleration_g() - 100.6).abs() < 1.0,
            "{}",
            v.acceleration_g()
        );
    }

    #[test]
    fn input_shares_state_between_clones() {
        let a = VibrationInput::quiescent();
        let b = a.clone();
        a.set(Some(VibrationState::new(Frequency::from_hz(650.0), 0.2)));
        assert_eq!(b.current().unwrap().displacement_um(), 0.2);
        b.clear();
        assert!(a.current().is_none());
    }

    #[test]
    fn combined_tones_rms_sum_at_dominant_frequency() {
        let tones = [
            VibrationState::new(Frequency::from_hz(400.0), 0.3),
            VibrationState::new(Frequency::from_hz(650.0), 0.4),
        ];
        let c = VibrationState::combined(&tones).unwrap();
        assert_eq!(c.frequency().hz(), 650.0);
        assert!((c.displacement_um() - 0.5).abs() < 1e-12); // 3-4-5
        assert!(VibrationState::combined(&[]).is_none());
        // A single tone combines to itself.
        let single = VibrationState::combined(&tones[..1]).unwrap();
        assert_eq!(single, tones[0]);
    }

    #[test]
    fn tolerances_read_wider_than_write() {
        let t = ToleranceModel::typical();
        assert!(t.tolerance_nm(100.0, true) > t.tolerance_nm(100.0, false));
        assert_eq!(t.tolerance_nm(100.0, true), 15.0);
        assert_eq!(t.tolerance_nm(100.0, false), 10.0);
    }

    #[test]
    fn duty_is_one_within_tolerance() {
        let t = ToleranceModel::typical();
        assert_eq!(t.on_track_duty(100.0, 9.9, false), 1.0);
        assert_eq!(t.on_track_duty(100.0, 0.0, true), 1.0);
    }

    #[test]
    fn duty_known_value() {
        // A = 2·tol: duty = (2/π)·asin(0.5) = 1/3.
        let t = ToleranceModel::typical();
        let duty = t.on_track_duty(100.0, 20.0, false);
        assert!((duty - 1.0 / 3.0).abs() < 1e-12, "duty = {duty}");
    }

    #[test]
    #[should_panic(expected = "write")]
    fn tolerance_ordering_enforced() {
        ToleranceModel::new(0.05, 0.10);
    }

    proptest! {
        /// Duty decreases as amplitude grows; reads always have at least
        /// the write duty.
        #[test]
        fn duty_monotone_and_read_geq_write(a in 0.0f64..500.0, da in 0.1f64..100.0) {
            let t = ToleranceModel::typical();
            let d1 = t.on_track_duty(100.0, a, false);
            let d2 = t.on_track_duty(100.0, a + da, false);
            prop_assert!(d2 <= d1);
            prop_assert!(t.on_track_duty(100.0, a, true) >= d1);
        }

        /// Duty is a valid probability.
        #[test]
        fn duty_in_unit_interval(a in 0.0f64..10_000.0) {
            let t = ToleranceModel::typical();
            let d = t.on_track_duty(100.0, a, true);
            prop_assert!((0.0..=1.0).contains(&d));
        }
    }
}
