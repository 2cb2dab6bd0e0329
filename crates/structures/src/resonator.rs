//! Second-order structural resonators.
//!
//! Rigid assemblies vibrate preferentially at their natural frequencies
//! (§2.1 of the paper, citing Halliday & Resnick). Each [`Resonator`] is a
//! standard second-order mode with centre frequency `f0`, quality factor
//! `Q`, and peak gain; a [`ResonatorBank`] sums the magnitude responses of
//! several modes plus a broadband floor. The bank is the frequency-
//! selective element that turns a flat acoustic drive into the paper's
//! 300 Hz–1.7 kHz vulnerable band.

use deepnote_acoustics::Frequency;
use serde::{Deserialize, Serialize};

/// A single structural mode.
///
/// The magnitude response is the classic resonance curve
/// `|H(f)| = gain / sqrt((1 − r²)² + (r/Q)²)` with `r = f/f0`, normalized
/// so that the response *at* `f0` equals `gain` exactly.
///
/// # Example
///
/// ```
/// use deepnote_structures::Resonator;
/// use deepnote_acoustics::Frequency;
///
/// let mode = Resonator::new(650.0, 2.0, 4.0);
/// let peak = mode.response(Frequency::from_hz(650.0));
/// let off = mode.response(Frequency::from_hz(6_500.0));
/// assert!((peak - 4.0).abs() < 1e-12);
/// assert!(off < 0.1 * peak);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Resonator {
    f0_hz: f64,
    q: f64,
    gain: f64,
}

impl Resonator {
    /// Creates a mode at `f0_hz` with quality factor `q` and peak gain
    /// `gain`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not positive.
    pub fn new(f0_hz: f64, q: f64, gain: f64) -> Self {
        assert!(f0_hz > 0.0, "resonant frequency must be positive");
        assert!(q > 0.0, "Q must be positive");
        assert!(gain > 0.0, "gain must be positive");
        Resonator { f0_hz, q, gain }
    }

    /// Centre frequency in Hz.
    pub fn f0_hz(&self) -> f64 {
        self.f0_hz
    }

    /// Quality factor.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Peak gain (response at `f0`).
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Magnitude response at `f`, equal to `gain` at `f0`.
    pub fn response(&self, f: Frequency) -> f64 {
        let r = f.hz() / self.f0_hz;
        let denom = ((1.0 - r * r).powi(2) + (r / self.q).powi(2)).sqrt();
        // At r = 1 the denominator is 1/Q; normalize so peak == gain.
        self.gain * (1.0 / self.q) / denom.max(1e-12)
    }
}

/// A sum of structural modes plus a broadband floor.
///
/// # Example
///
/// ```
/// use deepnote_structures::{Resonator, ResonatorBank};
/// use deepnote_acoustics::Frequency;
///
/// let bank = ResonatorBank::new(0.1)
///     .with_mode(Resonator::new(400.0, 2.0, 3.0))
///     .with_mode(Resonator::new(900.0, 2.5, 2.0));
/// assert!(bank.response(Frequency::from_hz(400.0)) > 2.5);
/// assert!(bank.response(Frequency::from_khz(10.0)) < 0.3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ResonatorBank {
    floor: f64,
    modes: Vec<Resonator>,
}

impl ResonatorBank {
    /// Creates an empty bank with a broadband floor gain.
    ///
    /// # Panics
    ///
    /// Panics if `floor` is negative.
    pub fn new(floor: f64) -> Self {
        assert!(floor >= 0.0, "floor gain must be non-negative");
        ResonatorBank {
            floor,
            modes: Vec::new(),
        }
    }

    /// Adds a mode (builder style).
    pub fn with_mode(mut self, mode: Resonator) -> Self {
        self.modes.push(mode);
        self
    }

    /// The modes in the bank.
    pub fn modes(&self) -> &[Resonator] {
        &self.modes
    }

    /// The broadband floor gain.
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Total magnitude response at `f`: floor + Σ mode responses.
    pub fn response(&self, f: Frequency) -> f64 {
        self.floor + self.modes.iter().map(|m| m.response(f)).sum::<f64>()
    }

    /// Scales every mode gain and the floor by `factor` — used by defenses
    /// (dampers reduce structural gain).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative.
    pub fn scaled(&self, factor: f64) -> ResonatorBank {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        ResonatorBank {
            floor: self.floor * factor,
            modes: self
                .modes
                .iter()
                .map(|m| Resonator::new(m.f0_hz, m.q, (m.gain * factor).max(1e-12)))
                .collect(),
        }
    }

    /// Returns a copy with every mode's centre frequency scaled by
    /// `factor` — structural stiffness changes (e.g. a plastic container
    /// warming up) shift all modes together, since `f₀ ∝ √(E)`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn with_frequencies_scaled(&self, factor: f64) -> ResonatorBank {
        assert!(factor > 0.0, "frequency scale must be positive");
        ResonatorBank {
            floor: self.floor,
            modes: self
                .modes
                .iter()
                .map(|m| Resonator::new(m.f0_hz * factor, m.q, m.gain))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn peak_at_f0_has_configured_gain() {
        let r = Resonator::new(650.0, 3.0, 5.0);
        assert!((r.response(Frequency::from_hz(650.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn higher_q_is_narrower() {
        let wide = Resonator::new(650.0, 1.0, 1.0);
        let narrow = Resonator::new(650.0, 10.0, 1.0);
        // Same peak, but at 1.5x f0 the narrow mode is much further down.
        let f = Frequency::from_hz(975.0);
        assert!(narrow.response(f) < wide.response(f));
    }

    #[test]
    fn asymmetric_tails() {
        // Below resonance the mode follows the drive with its static
        // compliance (≈ gain/Q); above resonance it is mass-controlled and
        // falls as 1/f².
        let r = Resonator::new(650.0, 2.0, 1.0);
        let below = r.response(Frequency::from_hz(65.0));
        let above = r.response(Frequency::from_hz(6_500.0));
        assert!((below - 0.5).abs() < 0.02, "below = {below}");
        assert!(above < 0.01, "above = {above}");
    }

    #[test]
    fn bank_sums_modes_and_floor() {
        let bank = ResonatorBank::new(0.5)
            .with_mode(Resonator::new(400.0, 2.0, 3.0))
            .with_mode(Resonator::new(800.0, 2.0, 2.0));
        let at_400 = bank.response(Frequency::from_hz(400.0));
        assert!(at_400 > 3.5, "at_400 = {at_400}"); // 0.5 floor + 3 peak + tail
        assert_eq!(bank.modes().len(), 2);
    }

    #[test]
    fn scaled_bank_shrinks_uniformly() {
        let bank = ResonatorBank::new(0.4).with_mode(Resonator::new(650.0, 2.0, 4.0));
        let damped = bank.scaled(0.25);
        let f = Frequency::from_hz(650.0);
        assert!((damped.response(f) / bank.response(f) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn frequency_scaling_shifts_every_mode() {
        let bank = ResonatorBank::new(0.1)
            .with_mode(Resonator::new(400.0, 3.0, 2.0))
            .with_mode(Resonator::new(700.0, 3.0, 5.0));
        let shifted = bank.with_frequencies_scaled(0.9);
        assert!((shifted.modes()[0].f0_hz() - 360.0).abs() < 1e-9);
        assert!((shifted.modes()[1].f0_hz() - 630.0).abs() < 1e-9);
        // Peak gains preserved at the new centres.
        assert!(
            (shifted.response(Frequency::from_hz(630.0))
                - bank.response(Frequency::from_hz(700.0)))
            .abs()
                < 0.2
        );
    }

    #[test]
    fn peak_frequency_finds_strongest_mode() {
        let bank = ResonatorBank::new(0.1)
            .with_mode(Resonator::new(400.0, 3.0, 2.0))
            .with_mode(Resonator::new(700.0, 3.0, 5.0));
        // The analytic maximum of a Q = 3 mode sits at
        // f0·sqrt(1 − 1/(2Q²)) ≈ 0.97·f0, so allow a little slack.
        // Scan 100 Hz..2 kHz in 10 Hz steps for the strongest response.
        let peak = (10..=200)
            .map(|step| Frequency::from_hz(step as f64 * 10.0))
            .max_by(|a, b| bank.response(*a).total_cmp(&bank.response(*b)))
            .unwrap();
        assert!((peak.hz() - 700.0).abs() <= 40.0, "peak = {peak}");
    }

    #[test]
    fn empty_bank_is_flat_floor() {
        let bank = ResonatorBank::new(0.3);
        assert_eq!(bank.response(Frequency::from_hz(100.0)), 0.3);
        assert_eq!(bank.response(Frequency::from_khz(10.0)), 0.3);
    }

    proptest! {
        /// Resonator response is positive and (for underdamped modes) is
        /// essentially maximal at f0 — the true analytic maximum sits at
        /// `f0·sqrt(1 − 1/(2Q²))` and exceeds the f0 value by at most
        /// `1/sqrt(1 − 1/(4Q²))`, which is < 1.16 for Q ≥ 1.
        #[test]
        fn peak_dominates(f0 in 100.0f64..2_000.0, q in 1.0f64..10.0, g in 0.1f64..10.0, probe in 50.0f64..17_000.0) {
            let r = Resonator::new(f0, q, g);
            let at_peak = r.response(Frequency::from_hz(f0));
            let elsewhere = r.response(Frequency::from_hz(probe));
            prop_assert!(elsewhere > 0.0);
            prop_assert!(elsewhere <= at_peak * 1.16);
        }
    }
}
