//! The attacker's signal chain: generator → amplifier → underwater speaker.
//!
//! The paper drives a Clark Synthesis AQ339 "Diluvio" underwater speaker
//! from a TOA BG-2120 amplifier, fed by a laptop running GNU Radio emitting
//! sine waves. [`SignalChain`] assembles those pieces and produces an
//! [`AcousticEmission`]: the frequency and source level actually radiated
//! into the water, including the speaker's band limits.

use crate::spl::Spl;
use crate::units::{Distance, Frequency, Gain};
use serde::{Deserialize, Serialize};

/// A pure sine-wave source (what GNU Radio generates in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SineSource {
    frequency: Frequency,
    /// Drive level as a fraction of full scale, `0.0..=1.0`.
    drive: f64,
}

impl SineSource {
    /// Creates a full-scale sine source at `frequency`.
    pub fn new(frequency: Frequency) -> Self {
        SineSource {
            frequency,
            drive: 1.0,
        }
    }

    /// Sets the drive level (fraction of full scale).
    ///
    /// # Panics
    ///
    /// Panics if `drive` is outside `0.0..=1.0`.
    pub fn with_drive(mut self, drive: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drive),
            "drive must be within 0..=1, got {drive}"
        );
        self.drive = drive;
        self
    }

    /// The generated frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// The drive level fraction.
    pub fn drive(&self) -> f64 {
        self.drive
    }

    /// Drive level in dB relative to full scale (≤ 0).
    pub fn drive_db(&self) -> f64 {
        if self.drive <= 0.0 {
            f64::NEG_INFINITY
        } else {
            20.0 * self.drive.log10()
        }
    }
}

/// A power amplifier with a gain and a clipping ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Amplifier {
    gain_db: f64,
    max_output_db: f64,
}

impl Amplifier {
    /// Creates an amplifier with the given gain, clipping at
    /// `max_output_db` (dB relative to chain full scale).
    ///
    /// # Panics
    ///
    /// Panics if `max_output_db` is non-finite.
    pub fn new(gain: Gain, max_output_db: f64) -> Self {
        assert!(max_output_db.is_finite());
        Amplifier {
            gain_db: gain.db(),
            max_output_db,
        }
    }

    /// The TOA BG-2120 mixer/amplifier used in the paper: 120 W into the
    /// speaker, modelled as 40 dB of gain with the rail at exactly the
    /// level that drives the speaker to full output.
    pub fn toa_bg2120() -> Self {
        Amplifier::new(Gain::from_db(40.0), SignalChain::FULL_SCALE_LINE_DB)
    }

    /// Gain applied to the input level, with clipping at `max_output_db`
    /// (dB relative to chain full scale).
    pub fn amplify_db(&self, input_db: f64) -> f64 {
        (input_db + self.gain_db).min(self.max_output_db)
    }
}

/// An underwater loudspeaker: band limits, maximum source level, and an
/// effective radiating radius used by near-field propagation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Speaker {
    band_low: Frequency,
    band_high: Frequency,
    max_source_level: Spl,
    radius: Distance,
    rolloff_db_per_octave: f64,
}

impl Speaker {
    /// Creates a speaker model.
    ///
    /// # Panics
    ///
    /// Panics if the band is empty or the rolloff is negative.
    pub fn new(
        band_low: Frequency,
        band_high: Frequency,
        max_source_level: Spl,
        radius: Distance,
        rolloff_db_per_octave: f64,
    ) -> Self {
        assert!(
            band_low.hz() < band_high.hz(),
            "speaker band must be non-empty"
        );
        assert!(rolloff_db_per_octave >= 0.0, "rolloff must be non-negative");
        Speaker {
            band_low,
            band_high,
            max_source_level,
            radius,
            rolloff_db_per_octave,
        }
    }

    /// The Clark Synthesis AQ339 "Diluvio" underwater loudspeaker used in
    /// the paper: usable from ~20 Hz to ~17 kHz, capable of the paper's
    /// 140 dB re 1 µPa source level, ~20 cm diameter.
    pub fn aq339_diluvio() -> Self {
        Speaker::new(
            Frequency::from_hz(20.0),
            Frequency::from_khz(17.0),
            Spl::water_db(140.0),
            Distance::from_cm(6.0),
            24.0,
        )
    }

    /// A military-grade projector for the paper's §5 "Effective Range"
    /// discussion: far higher source level.
    pub fn military_projector() -> Self {
        Speaker::new(
            Frequency::from_hz(10.0),
            Frequency::from_khz(40.0),
            Spl::water_db(200.0),
            Distance::from_cm(25.0),
            24.0,
        )
    }

    /// Effective radiating radius (sets the near-field boundary).
    pub fn radius(&self) -> Distance {
        self.radius
    }

    /// Frequency response in dB (≤ 0): flat in the passband, rolling off
    /// at `rolloff_db_per_octave` outside it.
    pub fn response_db(&self, f: Frequency) -> f64 {
        let hz = f.hz();
        if hz <= 0.0 {
            return f64::NEG_INFINITY;
        }
        if hz < self.band_low.hz() {
            let octaves = (self.band_low.hz() / hz).log2();
            -self.rolloff_db_per_octave * octaves
        } else if hz > self.band_high.hz() {
            let octaves = (hz / self.band_high.hz()).log2();
            -self.rolloff_db_per_octave * octaves
        } else {
            0.0
        }
    }

    /// The source level radiated for a given drive level (dB rel. full
    /// scale, ≤ 0) at frequency `f`.
    pub fn radiate(&self, drive_db: f64, f: Frequency) -> Spl {
        self.max_source_level
            .plus_db(drive_db.min(0.0))
            .plus_db(self.response_db(f))
    }
}

/// What actually leaves the speaker: a tone at `frequency` with source
/// level `source_level` (defined at the transducer face), radiating from an
/// aperture of radius `source_radius`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcousticEmission {
    /// Transmitted tone frequency.
    pub frequency: Frequency,
    /// Source level at the transducer face (dB re 1 µPa).
    pub source_level: Spl,
    /// Effective radiating radius (near-field boundary).
    pub source_radius: Distance,
}

/// The attacker's full signal chain.
///
/// # Example
///
/// ```
/// use deepnote_acoustics::{SignalChain, Frequency};
///
/// // The paper's setup at its best attack frequency.
/// let chain = SignalChain::paper_setup(Frequency::from_hz(650.0));
/// let e = chain.emission();
/// assert!((e.source_level.db() - 140.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalChain {
    source: SineSource,
    amplifier: Amplifier,
    speaker: Speaker,
}

impl SignalChain {
    /// Line level (dB) that corresponds to the speaker's full output; the
    /// paper's TOA amplifier at full gain with a full-scale sine reaches
    /// exactly this level.
    pub const FULL_SCALE_LINE_DB: f64 = 40.0;

    /// Assembles a chain from parts.
    pub fn new(source: SineSource, amplifier: Amplifier, speaker: Speaker) -> Self {
        SignalChain {
            source,
            amplifier,
            speaker,
        }
    }

    /// The paper's setup: GNU Radio sine → TOA BG-2120 → AQ339 Diluvio at
    /// full drive (140 dB re 1 µPa source level).
    pub fn paper_setup(frequency: Frequency) -> Self {
        SignalChain::new(
            SineSource::new(frequency),
            Amplifier::toa_bg2120(),
            Speaker::aq339_diluvio(),
        )
    }

    /// Returns a copy of the chain retuned to a different frequency,
    /// keeping drive/amplifier/speaker.
    pub fn retuned(&self, frequency: Frequency) -> Self {
        let mut chain = self.clone();
        chain.source = SineSource::new(frequency).with_drive(self.source.drive());
        chain
    }

    /// Computes the radiated emission.
    pub fn emission(&self) -> AcousticEmission {
        self.emission_at(self.source.frequency())
    }

    /// The emission of this chain retuned to `frequency`: the same as
    /// `self.retuned(frequency).emission()`, without copying the chain.
    pub fn emission_at(&self, frequency: Frequency) -> AcousticEmission {
        // Drive (≤0 dBFS) through the amp, then re-referenced so that the
        // full-scale line level maps to the speaker's maximum output.
        let line_db = self.amplifier.amplify_db(self.source.drive_db()) - Self::FULL_SCALE_LINE_DB;
        AcousticEmission {
            frequency,
            source_level: self.speaker.radiate(line_db.min(0.0), frequency),
            source_radius: self.speaker.radius(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_drive_reaches_max_source_level() {
        let chain = SignalChain::paper_setup(Frequency::from_hz(650.0));
        let e = chain.emission();
        assert!((e.source_level.db() - 140.0).abs() < 1e-9);
        assert_eq!(e.frequency.hz(), 650.0);
    }

    #[test]
    fn reduced_drive_reduces_level() {
        let chain = SignalChain::new(
            SineSource::new(Frequency::from_hz(650.0)).with_drive(0.5),
            Amplifier::toa_bg2120(),
            Speaker::aq339_diluvio(),
        );
        let db = chain.emission().source_level.db();
        assert!((db - (140.0 - 6.0206)).abs() < 0.01, "db = {db}");
    }

    #[test]
    fn emission_at_matches_a_retuned_chain() {
        let chain = SignalChain::new(
            SineSource::new(Frequency::from_hz(650.0)).with_drive(0.3),
            Amplifier::toa_bg2120(),
            Speaker::aq339_diluvio(),
        );
        for hz in [5.0, 650.0, 25_000.0] {
            let f = Frequency::from_hz(hz);
            assert_eq!(chain.emission_at(f), chain.retuned(f).emission());
        }
    }

    #[test]
    fn speaker_band_edges_roll_off() {
        let sp = Speaker::aq339_diluvio();
        assert_eq!(sp.response_db(Frequency::from_hz(650.0)), 0.0);
        assert_eq!(sp.response_db(Frequency::from_khz(16.9)), 0.0);
        // One octave below the low edge: one full rolloff step down.
        let below = sp.response_db(Frequency::from_hz(10.0));
        assert!((below + 24.0).abs() < 0.1, "below = {below}");
        let above = sp.response_db(Frequency::from_khz(34.0));
        assert!((above + 24.0).abs() < 0.1, "above = {above}");
    }

    #[test]
    fn out_of_band_emission_is_weaker() {
        let in_band = SignalChain::paper_setup(Frequency::from_hz(650.0))
            .emission()
            .source_level
            .db();
        let out_band = SignalChain::paper_setup(Frequency::from_hz(5.0))
            .emission()
            .source_level
            .db();
        assert!(out_band < in_band - 20.0);
    }

    #[test]
    fn retuned_keeps_drive() {
        let chain = SignalChain::new(
            SineSource::new(Frequency::from_hz(100.0)).with_drive(0.25),
            Amplifier::toa_bg2120(),
            Speaker::aq339_diluvio(),
        );
        let retuned = chain.retuned(Frequency::from_hz(650.0));
        assert_eq!(retuned.source.frequency().hz(), 650.0);
        assert_eq!(
            retuned.emission().source_level,
            chain.emission().source_level
        );
    }

    #[test]
    fn military_projector_outguns_aq339() {
        assert!(
            Speaker::military_projector().max_source_level.db()
                > Speaker::aq339_diluvio().max_source_level.db() + 50.0
        );
    }

    #[test]
    #[should_panic(expected = "drive")]
    fn drive_out_of_range_panics() {
        SineSource::new(Frequency::from_hz(100.0)).with_drive(1.5);
    }
}
