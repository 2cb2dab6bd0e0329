//! The attack surface as a heatmap: write throughput over the full
//! frequency × distance grid.
//!
//! Figure 2 is one slice (distance = 1 cm) and Table 1 another
//! (frequency = 650 Hz) of the same two-dimensional surface; this
//! experiment computes the whole thing, which is what an operator would
//! want when assessing a deployment ("at what standoff does every
//! frequency become safe?").

use crate::testbed::Testbed;
use deepnote_acoustics::{Distance, Frequency};
use deepnote_hdd::{DiskOpKind, DriveModel};
use serde::{Deserialize, Serialize};
use std::fmt::Write;

/// The computed surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heatmap {
    /// Frequency axis, Hz (rows).
    pub frequencies_hz: Vec<f64>,
    /// Distance axis, cm (columns).
    pub distances_cm: Vec<f64>,
    /// `values[row][col]` = write throughput MB/s at
    /// `(frequencies_hz[row], distances_cm[col])`.
    pub values: Vec<Vec<f64>>,
}

impl Heatmap {
    /// The safe standoff per frequency: the smallest sampled distance at
    /// which throughput is at least `fraction` of nominal, or `None` if
    /// even the farthest sample is degraded.
    pub fn safe_distance_cm(&self, row: usize, fraction: f64, nominal: f64) -> Option<f64> {
        let threshold = fraction * nominal;
        self.distances_cm
            .iter()
            .zip(&self.values[row])
            .find(|(_, &v)| v >= threshold)
            .map(|(&d, _)| d)
    }

    /// The worst (largest) safe standoff over all frequencies — the
    /// exclusion radius an operator must enforce around the enclosure.
    pub fn exclusion_radius_cm(&self, fraction: f64, nominal: f64) -> Option<f64> {
        (0..self.frequencies_hz.len())
            .map(|row| self.safe_distance_cm(row, fraction, nominal))
            .collect::<Option<Vec<f64>>>()
            .and_then(|v| v.into_iter().max_by(f64::total_cmp))
    }

    /// Renders the surface as TSV (`frequency<TAB>distance<TAB>value`).
    pub fn to_tsv(&self) -> String {
        const HEADER: &str = "# frequency_hz\tdistance_cm\twrite_mb_s\n";
        /// Typical bytes per rendered cell, to size the buffer once.
        const CELL_BYTES: usize = 32;
        let cells = self.frequencies_hz.len() * self.distances_cm.len();
        let mut out = String::with_capacity(HEADER.len() + cells * CELL_BYTES);
        out.push_str(HEADER);
        for (r, &hz) in self.frequencies_hz.iter().enumerate() {
            for (c, &cm) in self.distances_cm.iter().enumerate() {
                // Writing to a `String` cannot fail.
                let _ = writeln!(out, "{hz}\t{cm}\t{:.3}", self.values[r][c]);
            }
        }
        out
    }
}

/// Computes the surface with the closed-form model.
///
/// # Panics
///
/// Panics on an empty axis.
pub fn compute(testbed: &Testbed, frequencies_hz: Vec<f64>, distances_cm: Vec<f64>) -> Heatmap {
    assert!(
        !frequencies_hz.is_empty() && !distances_cm.is_empty(),
        "heatmap axes must be non-empty"
    );
    let drive = DriveModel::barracuda_500gb();

    let values = frequencies_hz
        .iter()
        .map(|&hz| {
            let tone = testbed.at_frequency(Frequency::from_hz(hz));
            distances_cm
                .iter()
                .map(|&cm| {
                    let v = tone.vibration_at(Distance::from_cm(cm));
                    drive
                        .steady_state(Some(&v), DiskOpKind::Write)
                        .throughput_mb_s
                })
                .collect()
        })
        .collect();
    Heatmap {
        frequencies_hz,
        distances_cm,
        values,
    }
}

/// The default grid: 100 Hz–4 kHz in 100 Hz rows, 1–50 cm in 1 cm
/// columns.
pub fn default_grid(testbed: &Testbed) -> Heatmap {
    let frequencies: Vec<f64> = (1..=40).map(|i| i as f64 * 100.0).collect();
    let distances: Vec<f64> = (1..=50).map(|i| i as f64).collect();
    compute(testbed, frequencies, distances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_structures::Scenario;

    fn map() -> Heatmap {
        default_grid(&Testbed::paper_default(Scenario::PlasticTower))
    }

    #[test]
    fn surface_contains_both_paper_slices() {
        let m = map();
        // The 650 Hz row at 1 cm: blackout (Fig. 2 / Table 1).
        let row_650 = m.frequencies_hz.iter().position(|&f| f == 650.0);
        // 650 is not on the 100 Hz grid; use 600 and 700 instead.
        assert!(row_650.is_none());
        let row_600 = m.frequencies_hz.iter().position(|&f| f == 600.0).unwrap();
        assert_eq!(m.values[row_600][0], 0.0); // 1 cm
                                               // Far column recovered.
        let last_col = m.distances_cm.len() - 1;
        assert!((m.values[row_600][last_col] - 22.7).abs() < 0.1);
        // Out-of-band row never degraded.
        let row_4k = m.frequencies_hz.iter().position(|&f| f == 4_000.0).unwrap();
        assert!(m.values[row_4k].iter().all(|&v| (v - 22.7).abs() < 0.1));
    }

    #[test]
    fn throughput_monotone_along_distance() {
        let m = map();
        for row in &m.values {
            for pair in row.windows(2) {
                assert!(pair[1] >= pair[0] - 1e-9, "{pair:?}");
            }
        }
    }

    #[test]
    fn exclusion_radius_matches_table1_boundary() {
        let m = map();
        let radius = m.exclusion_radius_cm(0.9, 22.7).expect("all rows recover");
        // Table 1 shows recovery by 20 cm at 650 Hz, the worst frequency;
        // the exclusion radius over all frequencies lands nearby.
        assert!((14.0..30.0).contains(&radius), "radius = {radius} cm");
    }

    #[test]
    fn tsv_dumps_every_cell() {
        let m = compute(
            &Testbed::paper_default(Scenario::PlasticTower),
            vec![650.0],
            vec![1.0, 25.0],
        );
        let tsv = m.to_tsv();
        assert_eq!(tsv.lines().count(), 3); // header + 2 cells
        assert!(tsv.contains("650\t1\t0.000"), "{tsv}");
    }

    #[test]
    fn tsv_matches_per_cell_format_rendering() {
        let m = compute(
            &Testbed::paper_default(Scenario::PlasticTower),
            vec![100.0, 650.0, 1_234.5],
            vec![0.5, 1.0, 12.25, 50.0],
        );
        let mut expected = String::from("# frequency_hz\tdistance_cm\twrite_mb_s\n");
        for (r, &hz) in m.frequencies_hz.iter().enumerate() {
            for (c, &cm) in m.distances_cm.iter().enumerate() {
                expected.push_str(&format!("{hz}\t{cm}\t{:.3}\n", m.values[r][c]));
            }
        }
        assert_eq!(m.to_tsv(), expected);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_axis_rejected() {
        compute(
            &Testbed::paper_default(Scenario::PlasticTower),
            vec![],
            vec![1.0],
        );
    }
}
