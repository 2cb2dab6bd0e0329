//! Track-following servo and shock sensing.
//!
//! The head positioning servo rejects disturbances well below its
//! bandwidth (the sensitivity function of a double-integrator loop climbs
//! ~40 dB/decade toward the bandwidth), passes disturbances near and above
//! it, and cannot help at all against components far above — but those are
//! attenuated structurally anyway. This low-frequency rejection combined
//! with the structural band-pass is what produces the paper's 300 Hz–
//! 1.7 kHz vulnerable band.
//!
//! The shock sensor is the second Blue Note mechanism: sustained high
//! acceleration makes the drive park its heads defensively, blocking all
//! I/O regardless of off-track margins.

use crate::vibration::VibrationState;
use deepnote_acoustics::Frequency;
use deepnote_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// The drive's servo loop and shock-sensing behaviour.
///
/// # Example
///
/// ```
/// use deepnote_hdd::ServoModel;
/// use deepnote_acoustics::Frequency;
///
/// let servo = ServoModel::typical();
/// // Strong rejection well below bandwidth, none above.
/// assert!(servo.rejection(Frequency::from_hz(50.0)) < 0.01);
/// assert!(servo.rejection(Frequency::from_khz(5.0)) > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServoModel {
    bandwidth_hz: f64,
    rolloff_order: i32,
    shock_threshold_g: f64,
    park_duration_s: f64,
    /// Fraction of the residual disturbance cancelled by rotational-
    /// vibration feed-forward (enterprise drives carry RV sensors;
    /// desktop drives have none).
    rv_compensation: f64,
}

impl ServoModel {
    /// Creates a servo model.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth/threshold/park duration are not positive or the
    /// roll-off order is not in `1..=4`.
    pub fn new(
        bandwidth: Frequency,
        rolloff_order: i32,
        shock_threshold_g: f64,
        park_duration: SimDuration,
    ) -> Self {
        assert!(bandwidth.hz() > 0.0, "servo bandwidth must be positive");
        assert!(
            (1..=4).contains(&rolloff_order),
            "roll-off order must be 1..=4"
        );
        assert!(shock_threshold_g > 0.0, "shock threshold must be positive");
        assert!(
            park_duration > SimDuration::ZERO,
            "park duration must be positive"
        );
        ServoModel {
            bandwidth_hz: bandwidth.hz(),
            rolloff_order,
            shock_threshold_g,
            park_duration_s: park_duration.as_secs_f64(),
            rv_compensation: 0.0,
        }
    }

    /// A desktop-drive servo: ~800 Hz loop bandwidth, double-integrator
    /// rejection, 40 g shock-parking threshold, 300 ms park, no RV
    /// sensors (the paper's Barracuda class).
    pub fn typical() -> Self {
        ServoModel::new(
            Frequency::from_hz(800.0),
            2,
            40.0,
            SimDuration::from_millis(300),
        )
    }

    /// An enterprise/nearline servo of the kind actually deployed in
    /// data-center JBODs: higher loop bandwidth plus rotational-vibration
    /// feed-forward sensors that cancel most externally imposed
    /// vibration. The §5 "HDD types" ablation compares this against the
    /// desktop servo.
    pub fn enterprise_rv() -> Self {
        ServoModel::new(
            Frequency::from_hz(1_100.0),
            2,
            60.0,
            SimDuration::from_millis(300),
        )
        .with_rv_compensation(0.85)
    }

    /// Returns a copy with the given RV feed-forward cancellation
    /// fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` is in `[0, 1)`.
    pub fn with_rv_compensation(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "RV compensation must be in [0, 1), got {fraction}"
        );
        self.rv_compensation = fraction;
        self
    }

    /// How long the heads stay parked after a shock event.
    pub fn park_duration_s(&self) -> f64 {
        self.park_duration_s
    }

    /// A copy with a higher loop bandwidth (the "augmented feedback
    /// controller" defense of §5 / Blue Note).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn with_bandwidth_scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "bandwidth factor must be positive");
        self.bandwidth_hz *= factor;
        self
    }

    /// The disturbance sensitivity at frequency `f`: the fraction of an
    /// imposed displacement that survives as head-to-track error.
    ///
    /// `|S(f)| = (f² / (f² + f_bw²))^order`, which tends to 0 at DC and to
    /// 1 far above the loop bandwidth.
    pub fn rejection(&self, f: Frequency) -> f64 {
        let f2 = f.hz() * f.hz();
        let fb2 = self.bandwidth_hz * self.bandwidth_hz;
        (f2 / (f2 + fb2)).powi(self.rolloff_order)
    }

    /// The residual off-track amplitude (nm) after the servo loop and any
    /// RV feed-forward fight the imposed chassis vibration.
    pub fn residual_offtrack_nm(&self, vibration: &VibrationState) -> f64 {
        vibration.displacement_nm()
            * self.rejection(vibration.frequency())
            * (1.0 - self.rv_compensation)
    }

    /// Whether this vibration trips the shock sensor and parks the heads.
    pub fn triggers_shock_park(&self, vibration: &VibrationState) -> bool {
        vibration.acceleration_g() > self.shock_threshold_g
    }
}

impl Default for ServoModel {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejection_at_bandwidth_is_quarter_for_order_2() {
        // f = f_bw: (1/2)^2 = 0.25.
        let servo = ServoModel::typical();
        let r = servo.rejection(Frequency::from_hz(800.0));
        assert!((r - 0.25).abs() < 1e-12, "r = {r}");
    }

    #[test]
    fn strong_low_frequency_rejection() {
        let servo = ServoModel::typical();
        let r100 = servo.rejection(Frequency::from_hz(100.0));
        // (100²/(100²+800²))² = (0.01538)² ≈ 2.4e-4.
        assert!(r100 < 3e-4, "r100 = {r100}");
    }

    #[test]
    fn residual_offtrack_scales_displacement() {
        let servo = ServoModel::typical();
        let v = VibrationState::new(Frequency::from_hz(650.0), 0.5); // 500 nm
        let expected = 500.0 * servo.rejection(Frequency::from_hz(650.0));
        assert!((servo.residual_offtrack_nm(&v) - expected).abs() < 1e-9);
    }

    #[test]
    fn shock_park_requires_high_acceleration() {
        let servo = ServoModel::typical();
        // 650 Hz at 0.5 µm: a = (2π·650)²·0.5e-6 / 9.81 ≈ 0.85 g — no park.
        let gentle = VibrationState::new(Frequency::from_hz(650.0), 0.5);
        assert!(!servo.triggers_shock_park(&gentle));
        // 20 kHz at 0.05 µm: a ≈ 80 g — parks (the ultrasonic mechanism).
        let ultrasonic = VibrationState::new(Frequency::from_khz(20.0), 0.05);
        assert!(servo.triggers_shock_park(&ultrasonic));
    }

    #[test]
    fn enterprise_rv_servo_shrinks_residual() {
        let desktop = ServoModel::typical();
        let enterprise = ServoModel::enterprise_rv();
        let v = VibrationState::new(Frequency::from_hz(650.0), 0.5);
        let d = desktop.residual_offtrack_nm(&v);
        let e = enterprise.residual_offtrack_nm(&v);
        // RV feed-forward (85 %) plus higher bandwidth: at least ~8x less.
        assert!(e < d / 8.0, "desktop {d} nm vs enterprise {e} nm");
        assert!((enterprise.rv_compensation - 0.85).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "RV compensation")]
    fn full_rv_cancellation_is_invalid() {
        ServoModel::typical().with_rv_compensation(1.0);
    }

    #[test]
    fn augmented_controller_rejects_more() {
        let base = ServoModel::typical();
        let upgraded = base.with_bandwidth_scaled(2.0);
        let f = Frequency::from_hz(650.0);
        assert!(upgraded.rejection(f) < base.rejection(f));
    }

    proptest! {
        /// Rejection is within [0, 1] and monotone increasing in frequency.
        #[test]
        fn rejection_valid_and_monotone(hz in 1.0f64..20_000.0, scale in 1.01f64..4.0) {
            let servo = ServoModel::typical();
            let lo = servo.rejection(Frequency::from_hz(hz));
            let hi = servo.rejection(Frequency::from_hz(hz * scale));
            prop_assert!((0.0..=1.0).contains(&lo));
            prop_assert!(hi >= lo);
        }
    }
}
