//! The experimental testbed (paper §4, Figure 1).
//!
//! A [`Testbed`] is the assembled physics column: water conditions, the
//! attacker's signal chain, the propagation law, and one of the three
//! enclosure/mount scenarios. It converts attack parameters into the
//! [`VibrationState`] the victim drive experiences, and can mount
//! attacks on any drive's [`VibrationInput`].

use crate::threat::AttackParams;
use deepnote_acoustics::{
    Distance, Frequency, PropagationModel, SignalChain, Spl, TonePropagation, WaterConditions,
};
use deepnote_hdd::{VibrationInput, VibrationState};
use deepnote_structures::{PathResponse, Scenario, VibrationPath};

/// The assembled tank-scale testbed.
#[derive(Debug, Clone)]
pub struct Testbed {
    water: WaterConditions,
    chain: SignalChain,
    propagation: PropagationModel,
    scenario: Scenario,
    path: VibrationPath,
}

impl Testbed {
    /// The paper's testbed for a given scenario: freshwater tank, AQ339 +
    /// TOA chain at full drive, tank-reverberant propagation.
    pub fn paper_default(scenario: Scenario) -> Self {
        Testbed {
            water: WaterConditions::tank_freshwater(),
            chain: SignalChain::paper_setup(Frequency::from_hz(650.0)),
            propagation: PropagationModel::TankReverberant,
            scenario,
            path: scenario.vibration_path(),
        }
    }

    /// The scenario under test.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The signal chain.
    pub fn chain(&self) -> &SignalChain {
        &self.chain
    }

    /// The vibration path (enclosure + structure + mount).
    pub fn vibration_path(&self) -> &VibrationPath {
        &self.path
    }

    /// Returns a copy with different water (the §5 water-conditions
    /// ablation).
    pub fn with_water(mut self, water: WaterConditions) -> Self {
        self.water = water;
        self
    }

    /// Returns a copy with a different propagation model (open-water
    /// studies).
    pub fn with_propagation(mut self, model: PropagationModel) -> Self {
        self.propagation = model;
        self
    }

    /// Returns a copy with a modified vibration path (defenses).
    pub fn with_vibration_path(mut self, path: VibrationPath) -> Self {
        self.path = path;
        self
    }

    /// The testbed driven at `frequency`: the transfer path with every
    /// term that does not depend on distance already evaluated. Sweeps
    /// over many distances at one frequency build this once.
    pub fn at_frequency(&self, frequency: Frequency) -> TestbedTone {
        TestbedTone {
            frequency,
            propagation: self.tone_propagation(frequency),
            path: self.path.at_frequency(frequency),
        }
    }

    /// The acoustic half of [`Self::at_frequency`].
    fn tone_propagation(&self, frequency: Frequency) -> TonePropagation {
        TonePropagation::new(
            &self.chain.emission_at(frequency),
            &self.water,
            self.propagation,
        )
    }

    /// The SPL received at the enclosure for an attack at `frequency`
    /// from `distance`.
    pub fn received_spl(&self, params: AttackParams) -> Spl {
        self.tone_propagation(params.frequency)
            .received_spl(params.distance)
    }

    /// The chassis vibration the victim drive experiences under the given
    /// attack parameters.
    pub fn vibration_at(&self, frequency: Frequency, distance: Distance) -> VibrationState {
        self.at_frequency(frequency).vibration_at(distance)
    }

    /// Starts (or retunes) an attack on a drive's vibration input;
    /// [`VibrationInput::clear`] stops it.
    pub fn mount_attack(&self, input: &VibrationInput, params: AttackParams) {
        input.set(Some(self.vibration_at(params.frequency, params.distance)));
    }
}

/// A [`Testbed`] driven at one frequency (see [`Testbed::at_frequency`]).
#[derive(Debug, Clone, Copy)]
pub struct TestbedTone {
    frequency: Frequency,
    propagation: TonePropagation,
    path: PathResponse,
}

impl TestbedTone {
    /// The attack frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// The SPL received at the enclosure from `distance`.
    pub fn received_spl(&self, distance: Distance) -> Spl {
        self.propagation.received_spl(distance)
    }

    /// The chassis vibration the victim drive experiences from
    /// `distance`.
    pub fn vibration_at(&self, distance: Distance) -> VibrationState {
        let displacement_um = self.path.displacement_um(self.received_spl(distance));
        VibrationState::new(self.frequency, displacement_um)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_acoustics::Distance;
    use deepnote_structures::Scenario;

    #[test]
    fn received_level_falls_with_distance() {
        let tb = Testbed::paper_default(Scenario::PlasticTower);
        let near = tb.received_spl(AttackParams::paper_best());
        let far = tb.received_spl(AttackParams::paper_best().at_distance(Distance::from_cm(25.0)));
        assert!(near.db() > far.db() + 5.0);
    }

    #[test]
    fn best_params_produce_blackout_scale_vibration() {
        let tb = Testbed::paper_default(Scenario::PlasticTower);
        let p = AttackParams::paper_best();
        let v = tb.vibration_at(p.frequency, p.distance);
        // Calibration: ~85 nm residual after servo rejection at 650 Hz,
        // i.e. raw chassis displacement in the ~500 nm class.
        assert!(
            (300.0..900.0).contains(&v.displacement_nm()),
            "displacement = {} nm",
            v.displacement_nm()
        );
    }

    #[test]
    fn out_of_band_vibration_is_weak() {
        let tb = Testbed::paper_default(Scenario::PlasticTower);
        let p = AttackParams::paper_best();
        let in_band = tb.vibration_at(p.frequency, p.distance);
        let out = tb.vibration_at(Frequency::from_khz(8.0), p.distance);
        assert!(in_band.displacement_nm() > 20.0 * out.displacement_nm());
    }

    #[test]
    fn mount_and_stop_attack_toggle_input() {
        let tb = Testbed::paper_default(Scenario::PlasticTower);
        let input = VibrationInput::quiescent();
        tb.mount_attack(&input, AttackParams::paper_best());
        assert!(input.current().is_some());
        input.clear();
        assert!(input.current().is_none());
    }

    #[test]
    fn tone_rows_match_per_point_calls_bit_for_bit() {
        let tb = Testbed::paper_default(Scenario::PlasticTower);
        for hz in [120.0, 650.0, 1_234.5] {
            let f = Frequency::from_hz(hz);
            let tone = tb.at_frequency(f);
            assert_eq!(tone.frequency().hz(), hz);
            for cm in [0.5, 1.0, 7.0, 49.0] {
                let d = Distance::from_cm(cm);
                let params = AttackParams::paper_best().at_frequency(f).at_distance(d);
                assert_eq!(
                    tone.vibration_at(d).displacement_um().to_bits(),
                    tb.vibration_at(f, d).displacement_um().to_bits()
                );
                assert_eq!(
                    tone.received_spl(d).db().to_bits(),
                    tb.received_spl(params).db().to_bits()
                );
            }
        }
    }

    #[test]
    fn scenarios_differ() {
        let p = AttackParams::paper_best();
        let s1 =
            Testbed::paper_default(Scenario::PlasticDirect).vibration_at(p.frequency, p.distance);
        let s2 =
            Testbed::paper_default(Scenario::PlasticTower).vibration_at(p.frequency, p.distance);
        assert_ne!(s1.displacement_nm(), s2.displacement_nm());
    }
}
