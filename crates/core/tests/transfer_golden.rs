//! Golden bits of the transfer path.
//!
//! Every value below was captured from the per-point transfer path as it
//! stood before the per-frequency split (`Testbed::at_frequency`). A
//! refactor of acoustics, structures or the testbed that reorders a
//! floating-point operation (reassociating `p * wall * gain * coupling`,
//! say) moves at least one of these bits and fails here.

use deepnote_acoustics::{Distance, Frequency, PropagationModel, WaterConditions};
use deepnote_core::experiments::heatmap;
use deepnote_core::{AttackParams, Testbed};
use deepnote_structures::Scenario;

/// `(frequency Hz, distance cm, displacement µm bits, received SPL dB bits)`.
type Golden = (f64, f64, u64, u64);

/// The paper's tank testbed (Scenario 2): 650 Hz at every Table 1
/// distance, then off-grid frequencies and distances.
const TANK: [Golden; 10] = [
    (650.0, 1.0, 0x3fe13719275a2edc, 0x40617fffffff7d48),
    (650.0, 5.0, 0x3fc5c99f898d00d1, 0x40604026bd4ab378),
    (650.0, 10.0, 0x3fba8bd555d71258, 0x405f6cccccc29671),
    (650.0, 15.0, 0x3fb3dd8b6c675156, 0x405ecba42ad8ee1f),
    (650.0, 20.0, 0x3fb02c0e7988a185, 0x405e594c1eeaaac4),
    (650.0, 25.0, 0x3fab930a18f30bd6, 0x405e009af51b7c55),
    (123.4, 3.7, 0x401259c6467ce795, 0x40607bfdab0964fd),
    (987.65, 12.3, 0x3f95012aa0c04485, 0x405f1a84d2b77b63),
    (1700.0, 0.5, 0x3f88f98c4708e8a2, 0x40617ffffffe40ee),
    (3999.9, 49.9, 0x3eeffded1298293c, 0x405cede5f4bc67d4),
];

/// Scenario 3 in open seawater with spherical spreading, where the
/// absorption term is no longer negligible.
const SEA: [Golden; 4] = [
    (650.0, 1.0, 0x3fcf2b036462fd95, 0x406155276f6d4a70),
    (650.0, 25.0, 0x3fac26d813d58061, 0x405f6f1710cc1137),
    (2345.6, 7.5, 0x3f33a7c0e96af047, 0x40609e9a538ec1bb),
    (8000.0, 150.0, 0x3ea3d5e04cf6ebce, 0x405becc4f998bf35),
];

/// FNV-1a-style fold of the value bits of `heatmap::default_grid` on
/// the tank testbed, row-major.
const DEFAULT_GRID_DIGEST: u64 = 0x0a99af11efe1b34f;

fn assert_golden(testbed: &Testbed, golden: &[Golden]) {
    for &(hz, cm, displacement, spl) in golden {
        let (f, d) = (Frequency::from_hz(hz), Distance::from_cm(cm));
        let params = AttackParams::paper_best().at_frequency(f).at_distance(d);
        let tone = testbed.at_frequency(f);
        let checks = [
            (
                "vibration_at",
                testbed.vibration_at(f, d).displacement_um(),
                displacement,
            ),
            ("received_spl", testbed.received_spl(params).db(), spl),
            (
                "at_frequency(..).vibration_at",
                tone.vibration_at(d).displacement_um(),
                displacement,
            ),
            (
                "at_frequency(..).received_spl",
                tone.received_spl(d).db(),
                spl,
            ),
        ];
        for (what, got, want) in checks {
            assert_eq!(
                got.to_bits(),
                want,
                "{what} at {hz} Hz, {cm} cm: got {got} ({:#018x})",
                got.to_bits()
            );
        }
    }
}

#[test]
fn tank_transfer_path_bits_are_unchanged() {
    assert_golden(&Testbed::paper_default(Scenario::PlasticTower), &TANK);
}

#[test]
fn seawater_transfer_path_bits_are_unchanged() {
    let sea = Testbed::paper_default(Scenario::MetalTower)
        .with_water(WaterConditions::natick_seawater())
        .with_propagation(PropagationModel::Spherical);
    assert_golden(&sea, &SEA);
}

#[test]
fn default_heatmap_bits_are_unchanged() {
    let map = heatmap::default_grid(&Testbed::paper_default(Scenario::PlasticTower));
    assert_eq!(map.values.iter().flatten().count(), 40 * 50);
    let digest = map
        .values
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!(digest, DEFAULT_GRID_DIGEST, "digest {digest:#018x}");
}
