//! §5 ablations: the open problems the paper calls out, quantified.
//!
//! * [`water_conditions`] — how temperature, salinity, and depth move the
//!   attack's effective range (§5 "Water Conditions").
//! * [`materials`] — enclosure material and wall thickness (§5 "Data
//!   Center Structure and HDD types").
//! * [`tolerance_sensitivity`] — how the read/write off-track threshold
//!   ratio shapes the asymmetry seen in Fig. 2 (§2.1/§4.1).
//! * [`attacker_power`] — commercial vs military source levels vs
//!   effective range (§5 "Effective Range").

use crate::testbed::Testbed;
use crate::threat::{AttackParams, Attacker};
use deepnote_acoustics::propagation::{max_effective_range_m, received_spl_lloyd};
use deepnote_acoustics::{
    Celsius, Depth, Distance, Frequency, PropagationModel, Salinity, Spl, WaterConditions,
};
use deepnote_hdd::{DiskOpKind, DriveModel, ToleranceModel};
use deepnote_structures::{Enclosure, Material, Scenario, VibrationPath};
use serde::{Deserialize, Serialize};

/// One row of the water-conditions study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaterRow {
    /// Condition label.
    pub label: String,
    /// Sound speed under these conditions, m/s.
    pub sound_speed_m_s: f64,
    /// Absorption at 650 Hz, dB/km.
    pub absorption_db_km: f64,
    /// Maximum range (m) at which the received level still reaches the
    /// blackout threshold, under open-water spherical spreading.
    pub blackout_range_m: Option<f64>,
}

/// The received level at the enclosure needed for a write blackout at
/// 650 Hz in Scenario 2, derived from the calibrated chain.
pub fn blackout_threshold_spl(testbed: &Testbed) -> Spl {
    // Search the received level at which the residual off-track equals
    // the recovery-escalation point. We invert numerically over source
    // distance using the testbed's own path.
    let drive = DriveModel::barracuda_500gb();
    let f = Frequency::from_hz(650.0);
    // Residual needed: read duty = escalation floor.
    let tol_nm = drive
        .tolerance
        .tolerance_nm(drive.geometry.track_pitch_nm(), true);
    let needed_residual =
        tol_nm / (deepnote_hdd::drive::RECOVERY_ESCALATION_DUTY * std::f64::consts::PI / 2.0).sin();
    let needed_displacement_um = needed_residual / drive.servo.rejection(f) / 1_000.0;
    // displacement = pressure × path_gain  ⇒  pressure = displacement / gain.
    let gain_per_pa = testbed.vibration_path().drive_displacement_um(
        f,
        Spl::from_pressure_pa(1.0, deepnote_acoustics::SplReference::Water1uPa),
    );
    let needed_pa = needed_displacement_um / gain_per_pa;
    Spl::from_pressure_pa(needed_pa, deepnote_acoustics::SplReference::Water1uPa)
}

/// Sweeps water conditions and reports attack range (military-grade
/// source, open-water spherical spreading — the §5 long-range scenario).
pub fn water_conditions() -> Vec<WaterRow> {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let threshold = blackout_threshold_spl(&testbed);
    let attacker = Attacker::military_attacker();
    let emission = attacker
        .chain()
        .retuned(Frequency::from_hz(650.0))
        .emission();

    let cases = vec![
        (
            "tank freshwater 21°C".to_string(),
            WaterConditions::tank_freshwater(),
        ),
        (
            "cold sea 4°C / 35 PSU / 100 m".to_string(),
            WaterConditions::new(Celsius::new(4.0), Salinity::OCEAN, Depth::from_m(100.0)),
        ),
        (
            "Natick site 10°C / 35 PSU / 36 m".to_string(),
            WaterConditions::natick_seawater(),
        ),
        (
            "Hainan site 24°C / 33 PSU / 20 m".to_string(),
            WaterConditions::hainan_seawater(),
        ),
        (
            "warm shallow 30°C / 35 PSU / 5 m".to_string(),
            WaterConditions::new(Celsius::new(30.0), Salinity::OCEAN, Depth::from_m(5.0)),
        ),
    ];

    cases
        .into_iter()
        .map(|(label, water)| {
            let range = max_effective_range_m(
                &emission,
                threshold,
                &water,
                PropagationModel::Spherical,
                100_000.0,
            );
            WaterRow {
                label,
                sound_speed_m_s: water.sound_speed_m_s(),
                absorption_db_km: deepnote_acoustics::absorption_db_per_km(
                    Frequency::from_hz(650.0),
                    &water,
                ),
                blackout_range_m: range,
            }
        })
        .collect()
}

/// One row of the materials study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaterialRow {
    /// Material / thickness label.
    pub label: String,
    /// Wall surface mass, kg/m².
    pub surface_mass_kg_m2: f64,
    /// Write throughput under the paper's best attack, MB/s.
    pub write_mb_s_under_attack: f64,
    /// Whether the attack still causes a blackout.
    pub blackout: bool,
}

/// Sweeps enclosure materials and thicknesses at the paper's operating
/// point (650 Hz, 1 cm, Scenario 2 structure).
pub fn materials() -> Vec<MaterialRow> {
    let cases = vec![
        (
            "hard plastic 5 mm (paper S1/S2)",
            Material::hard_plastic(),
            0.005,
        ),
        ("aluminum 3 mm (paper S3)", Material::aluminum(), 0.003),
        ("aluminum 10 mm", Material::aluminum(), 0.010),
        ("steel 10 mm", Material::steel(), 0.010),
        (
            "steel 25 mm (Natick-class vessel)",
            Material::steel(),
            0.025,
        ),
    ];
    let drive = DriveModel::barracuda_500gb();
    let params = AttackParams::paper_best();

    cases
        .into_iter()
        .map(|(label, material, thickness)| {
            let enclosure = Enclosure::new(material, thickness);
            let surface_mass = enclosure.surface_mass_kg_m2();
            let base = Scenario::PlasticTower;
            let path = VibrationPath::new(
                enclosure,
                base.container_modes(),
                base.mount(),
                VibrationPath::DEFAULT_COUPLING,
            );
            let testbed = Testbed::paper_default(base).with_vibration_path(path);
            let v = testbed.vibration_at(params.frequency, params.distance);
            let ss = drive.steady_state(Some(&v), DiskOpKind::Write);
            MaterialRow {
                label: label.to_string(),
                surface_mass_kg_m2: surface_mass,
                write_mb_s_under_attack: ss.throughput_mb_s,
                blackout: !ss.responsive(),
            }
        })
        .collect()
}

/// One row of the tolerance study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToleranceRow {
    /// Read-tolerance fraction of track pitch.
    pub read_fraction: f64,
    /// Write-tolerance fraction of track pitch.
    pub write_fraction: f64,
    /// Width of the write-dead frequency band (Hz).
    pub write_dead_band_hz: f64,
    /// Width of the read-dead frequency band (Hz).
    pub read_dead_band_hz: f64,
}

/// Sweeps the off-track tolerance thresholds and reports the dead bands:
/// the mechanism behind the paper's read/write asymmetry.
pub fn tolerance_sensitivity() -> Vec<ToleranceRow> {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let stock = DriveModel::barracuda_500gb();
    let distance = Distance::from_cm(1.0);

    let cases = [
        (0.15, 0.10),
        (0.20, 0.10),
        (0.15, 0.05),
        (0.30, 0.20),
        (0.10, 0.10),
    ];
    cases
        .iter()
        .map(|&(read_fraction, write_fraction)| {
            let drive = DriveModel {
                tolerance: ToleranceModel::new(read_fraction, write_fraction),
                ..stock.clone()
            };
            let mut write_band = 0.0;
            let mut read_band = 0.0;
            let mut hz = 100.0;
            while hz <= 16_900.0 {
                let v = testbed.vibration_at(Frequency::from_hz(hz), distance);
                let w = drive.steady_state(Some(&v), DiskOpKind::Write);
                let r = drive.steady_state(Some(&v), DiskOpKind::Read);
                if w.throughput_mb_s < 1.0 {
                    write_band += 100.0;
                }
                if r.throughput_mb_s < 1.0 {
                    read_band += 100.0;
                }
                hz += 100.0;
            }
            ToleranceRow {
                read_fraction,
                write_fraction,
                write_dead_band_hz: write_band,
                read_dead_band_hz: read_band,
            }
        })
        .collect()
}

/// One row of the attacker-depth (Lloyd mirror) study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepthRow {
    /// Source description.
    pub label: String,
    /// Source depth, metres.
    pub source_depth_m: f64,
    /// Maximum horizontal range (m) with blackout-level received SPL,
    /// `None` if unreachable even at 100 m.
    pub blackout_range_m: Option<f64>,
}

/// Attacker depth vs reach, with the surface-reflection (Lloyd mirror)
/// path included: a shallow source loses its low-frequency energy to the
/// phase-inverted surface image, so deep deployments are partially
/// shielded from surface vessels — the attacker must dive.
pub fn attacker_depth() -> Vec<DepthRow> {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let threshold = blackout_threshold_spl(&testbed);
    let water = WaterConditions::natick_seawater();
    let target_depth_m = 36.0; // Project Natick
    let emission = Attacker::military_attacker()
        .chain()
        .retuned(Frequency::from_hz(650.0))
        .emission();

    [
        ("surface vessel (2 m)", 2.0),
        ("shallow diver (10 m)", 10.0),
        ("at target depth (36 m)", 36.0),
    ]
    .iter()
    .map(|&(label, source_depth_m)| {
        // Scan outward for the farthest range that still meets the
        // threshold (the field has interference fringes, so take the
        // maximum passing range rather than bisecting).
        let mut best = None;
        let mut r = 100.0;
        while r <= 20_000.0 {
            let rx = received_spl_lloyd(
                &emission,
                &water,
                Distance::from_m(r),
                Depth::from_m(source_depth_m),
                Depth::from_m(target_depth_m),
            );
            if rx.db() >= threshold.db() {
                best = Some(r);
            }
            r += 50.0;
        }
        DepthRow {
            label: label.to_string(),
            source_depth_m,
            blackout_range_m: best,
        }
    })
    .collect()
}

/// One row of the seasonal-drift study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeasonRow {
    /// Water temperature label.
    pub label: String,
    /// Structural mode shift applied (1.0 = calibration temperature).
    pub frequency_scale: f64,
    /// Write throughput when attacking at the stale 650 Hz tuning, MB/s.
    pub write_at_stale_tuning_mb_s: f64,
    /// Best (most damaging) frequency after retuning, Hz.
    pub retuned_best_hz: f64,
    /// Write throughput at the retuned frequency, MB/s.
    pub write_at_retuned_mb_s: f64,
}

/// Seasonal resonance drift: a plastic container's stiffness (and with it
/// every structural mode, `f₀ ∝ √E`) changes with water temperature —
/// HDPE softens roughly 1.5 %/°C. An attacker who tuned to 650 Hz in
/// summer may find the band shifted in winter; re-sweeping recovers the
/// attack. Quantifies the §5 "Water Conditions" interaction the paper
/// flags for future work.
pub fn seasonal_drift() -> Vec<SeasonRow> {
    let drive = DriveModel::barracuda_500gb();
    let base = Scenario::PlasticTower;
    let calibration_temp_c = 21.0; // the paper's tank
    let stiffness_slope_per_c = -0.015;

    [
        ("winter 4°C", 4.0),
        ("tank 21°C (calibration)", 21.0),
        ("tropical 30°C", 30.0),
    ]
    .iter()
    .map(|&(label, temp_c)| {
        let stiffness = (1.0_f64 + stiffness_slope_per_c * (temp_c - calibration_temp_c)).max(0.2);
        let scale = stiffness.sqrt();
        let path = VibrationPath::new(
            base.enclosure(),
            base.container_modes().with_frequencies_scaled(scale),
            base.mount(),
            VibrationPath::DEFAULT_COUPLING,
        );
        let testbed = Testbed::paper_default(base).with_vibration_path(path);
        let write_at = |hz: f64| {
            let v = testbed.vibration_at(Frequency::from_hz(hz), Distance::from_cm(10.0));
            drive
                .steady_state(Some(&v), DiskOpKind::Write)
                .throughput_mb_s
        };
        // Stale tuning: the paper's 650 Hz (probed at 10 cm where the
        // margin is thin enough for drift to matter).
        let stale = write_at(650.0);
        // Retune: coarse scan for the most damaging frequency.
        let mut best = (650.0, stale);
        let mut hz = 100.0;
        while hz <= 2_500.0 {
            let w = write_at(hz);
            if w < best.1 {
                best = (hz, w);
            }
            hz += 25.0;
        }
        SeasonRow {
            label: label.to_string(),
            frequency_scale: scale,
            write_at_stale_tuning_mb_s: stale,
            retuned_best_hz: best.0,
            write_at_retuned_mb_s: best.1,
        }
    })
    .collect()
}

/// One row of the tone-vs-noise study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectrumRow {
    /// Signal label.
    pub label: String,
    /// Number of simultaneous tones the source power is spread over.
    pub tones: usize,
    /// Effective off-track-driving displacement at the drive, nm.
    pub displacement_nm: f64,
    /// Write throughput under the attack, MB/s.
    pub write_mb_s: f64,
}

/// Compares a pure 650 Hz tone against the same acoustic power spread
/// over N tones across the vulnerable band (a band-noise attack). The
/// pure tone wins decisively — concentrating energy on the structural
/// resonance is what makes the paper's sine-wave methodology effective,
/// but broadband noise needs no frequency discovery at all.
pub fn noise_vs_tone() -> Vec<SpectrumRow> {
    use deepnote_hdd::VibrationState;
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let drive = DriveModel::barracuda_500gb();
    let distance = Distance::from_cm(1.0);
    let total_level = testbed
        .chain()
        .retuned(Frequency::from_hz(650.0))
        .emission()
        .source_level;

    let mut rows = Vec::new();
    for &n in &[1usize, 4, 16, 64] {
        // Spread the power: each tone carries total − 10·log10(n) dB.
        let per_tone = total_level.plus_db(-10.0 * (n as f64).log10());
        let tones: Vec<VibrationState> = (0..n)
            .map(|i| {
                let hz = if n == 1 {
                    650.0
                } else {
                    300.0 + 1_400.0 * i as f64 / (n - 1) as f64
                };
                let f = Frequency::from_hz(hz);
                // Per-tone received level: same propagation loss as the
                // full-power chain, shifted by the power split.
                let full = testbed.vibration_at(f, distance);
                let scale = per_tone.pressure_pa() / total_level.pressure_pa();
                VibrationState::new(f, full.displacement_um() * scale)
            })
            .collect();
        let combined = VibrationState::combined(&tones).expect("non-empty");
        let ss = drive.steady_state(Some(&combined), DiskOpKind::Write);
        rows.push(SpectrumRow {
            label: if n == 1 {
                "pure 650 Hz tone (the paper's attack)".to_string()
            } else {
                format!("band noise over {n} tones, 300–1700 Hz")
            },
            tones: n,
            displacement_nm: drive.servo.residual_offtrack_nm(&combined),
            write_mb_s: ss.throughput_mb_s,
        });
    }
    rows
}

/// One row of the attacker-power study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerRow {
    /// Attacker label.
    pub label: String,
    /// Source level, dB re 1 µPa.
    pub source_level_db: f64,
    /// Open-water blackout range in the Natick-site conditions, metres.
    pub blackout_range_m: Option<f64>,
}

/// Compares the commercial rig with a military projector for open-water
/// reach (§5 "Effective Range").
pub fn attacker_power() -> Vec<PowerRow> {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let threshold = blackout_threshold_spl(&testbed);
    let water = WaterConditions::natick_seawater();
    [Attacker::paper_attacker(), Attacker::military_attacker()]
        .into_iter()
        .map(|attacker| {
            let emission = attacker
                .chain()
                .retuned(Frequency::from_hz(650.0))
                .emission();
            PowerRow {
                label: attacker.name().to_string(),
                source_level_db: emission.source_level.db(),
                blackout_range_m: max_effective_range_m(
                    &emission,
                    threshold,
                    &water,
                    PropagationModel::Spherical,
                    1e6,
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shallow_attackers_lose_reach_to_the_surface_mirror() {
        let rows = attacker_depth();
        assert_eq!(rows.len(), 3);
        let surface = rows[0].blackout_range_m.unwrap_or(0.0);
        let deep = rows[2].blackout_range_m.unwrap_or(0.0);
        assert!(
            deep > 1.5 * surface.max(100.0),
            "surface {surface} m vs deep {deep} m"
        );
    }

    #[test]
    fn seasonal_drift_moves_the_best_frequency() {
        let rows = seasonal_drift();
        assert_eq!(rows.len(), 3);
        let winter = &rows[0];
        let calib = &rows[1];
        let tropical = &rows[2];
        // At the calibration temperature the stale tuning is near-optimal.
        assert!(
            calib.write_at_stale_tuning_mb_s <= calib.write_at_retuned_mb_s + 0.5,
            "{calib:?}"
        );
        // Cold water stiffens the container: modes shift up; warm water
        // shifts them down.
        assert!(winter.frequency_scale > 1.0 && tropical.frequency_scale < 1.0);
        assert!(
            winter.retuned_best_hz > tropical.retuned_best_hz,
            "winter {winter:?} vs tropical {tropical:?}"
        );
        // Retuning never loses to the stale tuning.
        for r in &rows {
            assert!(
                r.write_at_retuned_mb_s <= r.write_at_stale_tuning_mb_s + 1e-9,
                "{r:?}"
            );
        }
    }

    #[test]
    fn pure_tone_beats_band_noise_at_equal_power() {
        let rows = noise_vs_tone();
        assert_eq!(rows.len(), 4);
        let tone = &rows[0];
        // The focused tone drives far more off-track displacement than
        // any equal-power spread…
        for noise in &rows[1..] {
            assert!(
                tone.displacement_nm > noise.displacement_nm,
                "tone {tone:?} vs {noise:?}"
            );
        }
        // …and the tone blacks the drive out at the paper point.
        assert_eq!(tone.write_mb_s, 0.0);
    }

    #[test]
    fn blackout_threshold_is_plausible() {
        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        let t = blackout_threshold_spl(&testbed);
        // Must sit below the 1 cm received level (≈140 dB) and above the
        // 25 cm received level (≈126 dB), since the blackout boundary in
        // Table 1 is between 5 and 10 cm.
        assert!((126.0..140.0).contains(&t.db()), "threshold = {t}");
    }

    #[test]
    fn warmer_water_carries_sound_faster_not_farther_here() {
        let rows = water_conditions();
        assert_eq!(rows.len(), 5);
        let natick = rows.iter().find(|r| r.label.contains("Natick")).unwrap();
        let warm = rows.iter().find(|r| r.label.contains("warm")).unwrap();
        assert!(warm.sound_speed_m_s > natick.sound_speed_m_s);
        // A military projector reaches useful blackout ranges.
        assert!(natick.blackout_range_m.unwrap() > 1.0);
    }

    #[test]
    fn heavier_walls_blunt_the_attack() {
        let rows = materials();
        let plastic = &rows[0];
        let vessel = rows.last().unwrap();
        assert!(plastic.blackout, "{plastic:?}");
        assert!(
            vessel.write_mb_s_under_attack > plastic.write_mb_s_under_attack,
            "vessel {vessel:?} vs plastic {plastic:?}"
        );
    }

    #[test]
    fn wider_write_tolerance_narrows_the_dead_band() {
        let rows = tolerance_sensitivity();
        let paper = &rows[0]; // (0.15, 0.10)
        let hardened = rows.iter().find(|r| r.write_fraction == 0.20).unwrap();
        assert!(hardened.write_dead_band_hz <= paper.write_dead_band_hz);
        // And writes always die over at least as wide a band as reads.
        for r in &rows {
            assert!(r.write_dead_band_hz >= r.read_dead_band_hz, "{r:?}");
        }
    }

    #[test]
    fn military_projector_reaches_much_farther() {
        let rows = attacker_power();
        let commercial = rows[0].blackout_range_m.unwrap_or(0.0);
        let military = rows[1].blackout_range_m.unwrap_or(0.0);
        assert!(
            military > 10.0 * commercial.max(0.1),
            "c={commercial} m={military}"
        );
    }
}
