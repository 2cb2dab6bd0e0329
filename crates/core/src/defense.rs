//! Defense evaluation (§5 "In-air Defenses").
//!
//! The paper lists candidate defenses from the in-air literature:
//! augmented feedback controllers, firmware changes, acoustically
//! absorbing materials, and vibration dampers — and notes that passive
//! treatments "may cause overheating" in a sealed vessel. Each
//! [`Defense`] here modifies the testbed or the drive, and
//! [`evaluate_defense`] quantifies the residual attack surface plus the
//! thermal side effect.

use crate::testbed::Testbed;
use crate::threat::AttackParams;
use deepnote_acoustics::Distance;
use deepnote_hdd::{DiskOpKind, DriveModel};
use serde::{Deserialize, Serialize};

/// A deployable countermeasure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Defense {
    /// No defense (baseline).
    None,
    /// An acoustically absorbing viscoelastic liner on the container
    /// interior: scales the structural response down, but insulates —
    /// costing cooling headroom (paper refs. \[27\]\[41\]).
    AcousticLiner {
        /// Fraction of structural response remaining (0–1).
        remaining_response: f64,
    },
    /// Vibration-isolating drive mounts: scales the mount transfer.
    VibrationDampers {
        /// Isolation fraction (0–1); 0.8 = 80 % of vibration removed.
        isolation: f64,
    },
    /// An augmented feedback controller in the drive servo (Blue Note's
    /// firmware defense): higher loop bandwidth rejects more of the band.
    AugmentedServo {
        /// Bandwidth multiplier (> 1).
        bandwidth_factor: f64,
    },
}

impl Defense {
    /// The defenses evaluated by the `defense_eval` example and bench.
    pub fn catalog() -> Vec<Defense> {
        vec![
            Defense::None,
            Defense::AcousticLiner {
                remaining_response: 0.25,
            },
            Defense::VibrationDampers { isolation: 0.8 },
            Defense::AugmentedServo {
                bandwidth_factor: 2.5,
            },
        ]
    }

    /// Short display label.
    pub fn label(&self) -> String {
        match self {
            Defense::None => "no defense".to_string(),
            Defense::AcousticLiner { remaining_response } => {
                format!(
                    "acoustic liner ({:.0}% damped)",
                    (1.0 - remaining_response) * 100.0
                )
            }
            Defense::VibrationDampers { isolation } => {
                format!("vibration dampers ({:.0}% isolation)", isolation * 100.0)
            }
            Defense::AugmentedServo { bandwidth_factor } => {
                format!("augmented servo ({bandwidth_factor:.1}x bandwidth)")
            }
        }
    }

    /// The cooling penalty of the defense in °C of extra drive
    /// temperature inside a sealed nitrogen vessel (passive treatments
    /// insulate; the servo change is free thermally).
    pub fn cooling_penalty_c(&self) -> f64 {
        match self {
            Defense::None => 0.0,
            Defense::AcousticLiner { remaining_response } => {
                // More absorption ⇒ more insulation.
                8.0 * (1.0 - remaining_response)
            }
            Defense::VibrationDampers { .. } => 1.5,
            Defense::AugmentedServo { .. } => 0.0,
        }
    }
}

/// The measured effect of a defense.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseOutcome {
    /// The defense evaluated.
    pub defense: Defense,
    /// Display label.
    pub label: String,
    /// Write throughput at the paper's best attack point, MB/s
    /// (22.7 = fully defended, 0 = still dead).
    pub write_mb_s_at_paper_point: f64,
    /// Maximum speaker distance (cm) at which the attack still causes a
    /// write blackout; `None` if no blackout at any distance ≥ 1 cm.
    pub blackout_reach_cm: Option<f64>,
    /// Thermal side effect, °C.
    pub cooling_penalty_c: f64,
}

/// Applies `defense` to the testbed/drive and measures what is left of
/// the attack.
pub fn evaluate_defense(base: &Testbed, defense: Defense) -> DefenseOutcome {
    let stock = DriveModel::barracuda_500gb();
    let (testbed, drive) = match defense {
        Defense::None => (base.clone(), stock),
        Defense::AcousticLiner { remaining_response } => (
            base.clone().with_vibration_path(
                base.vibration_path()
                    .clone()
                    .with_structure_scaled(remaining_response),
            ),
            stock,
        ),
        Defense::VibrationDampers { isolation } => (
            base.clone().with_vibration_path(
                base.vibration_path()
                    .clone()
                    .with_mount(base.vibration_path().mount().with_dampers(isolation)),
            ),
            stock,
        ),
        Defense::AugmentedServo { bandwidth_factor } => (
            base.clone(),
            DriveModel {
                servo: stock.servo.with_bandwidth_scaled(bandwidth_factor),
                ..stock
            },
        ),
    };

    let params = AttackParams::paper_best();
    let write_at = |distance_cm: f64| {
        let v = testbed.vibration_at(params.frequency, Distance::from_cm(distance_cm));
        drive.steady_state(Some(&v), DiskOpKind::Write)
    };

    let at_point = write_at(1.0);
    // Blackout reach: scan outward from 1 cm.
    let mut reach = None;
    let mut cm = 1.0;
    while cm <= 100.0 {
        if !write_at(cm).responsive() {
            reach = Some(cm);
        }
        cm += 1.0;
    }

    DefenseOutcome {
        defense,
        label: defense.label(),
        write_mb_s_at_paper_point: at_point.throughput_mb_s,
        blackout_reach_cm: reach,
        cooling_penalty_c: defense.cooling_penalty_c(),
    }
}

/// Evaluates the whole catalog against a testbed.
pub fn evaluate_catalog(base: &Testbed) -> Vec<DefenseOutcome> {
    Defense::catalog()
        .into_iter()
        .map(|d| evaluate_defense(base, d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_structures::Scenario;

    fn base() -> Testbed {
        Testbed::paper_default(Scenario::PlasticTower)
    }

    #[test]
    fn baseline_is_vulnerable() {
        let outcome = evaluate_defense(&base(), Defense::None);
        assert_eq!(outcome.write_mb_s_at_paper_point, 0.0);
        let reach = outcome.blackout_reach_cm.unwrap();
        assert!((5.0..12.0).contains(&reach), "reach = {reach}");
        assert_eq!(outcome.cooling_penalty_c, 0.0);
    }

    #[test]
    fn every_defense_shrinks_the_blackout_reach() {
        let outcomes = evaluate_catalog(&base());
        let baseline_reach = outcomes[0].blackout_reach_cm.unwrap();
        for o in &outcomes[1..] {
            let reach = o.blackout_reach_cm.unwrap_or(0.0);
            assert!(
                reach < baseline_reach,
                "{}: reach {reach} vs baseline {baseline_reach}",
                o.label
            );
        }
    }

    #[test]
    fn liner_trades_protection_for_heat() {
        let outcome = evaluate_defense(
            &base(),
            Defense::AcousticLiner {
                remaining_response: 0.25,
            },
        );
        assert!(outcome.cooling_penalty_c > 5.0);
        // Point-blank (1 cm) the attack still wins — the residual is just
        // above the escalation point — but the blackout reach collapses
        // from ~8 cm to contact distance.
        assert!(
            outcome.blackout_reach_cm.unwrap_or(0.0) <= 2.0,
            "{outcome:?}"
        );
    }

    #[test]
    fn augmented_servo_helps_without_heat() {
        let outcome = evaluate_defense(
            &base(),
            Defense::AugmentedServo {
                bandwidth_factor: 2.5,
            },
        );
        assert_eq!(outcome.cooling_penalty_c, 0.0);
        let baseline = evaluate_defense(&base(), Defense::None);
        assert!(outcome.blackout_reach_cm.unwrap_or(0.0) < baseline.blackout_reach_cm.unwrap(),);
    }

    #[test]
    fn labels_are_descriptive() {
        assert!(Defense::VibrationDampers { isolation: 0.8 }
            .label()
            .contains("80"));
        assert!(Defense::AcousticLiner {
            remaining_response: 0.25
        }
        .label()
        .contains("75"));
    }
}
