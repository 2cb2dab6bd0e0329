//! A rack of victims: how much of a data-center deployment does one
//! speaker take out?
//!
//! The paper attacks a single drive; an operator cares about blast
//! radius. [`Fleet`] places several drives at increasing distances from
//! the sound source (a column of enclosures, or one enclosure with a deep
//! rack) and classifies each drive's state under a given attack.

use crate::parallel::run_chunked;
use crate::testbed::Testbed;
use crate::threat::AttackParams;
use deepnote_acoustics::Distance;
use deepnote_hdd::{DiskOpKind, DriveModel};
use serde::{Deserialize, Serialize};

/// Impact classification for one drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Impact {
    /// No measurable effect (≥ 95 % of baseline write throughput).
    Unaffected,
    /// Degraded but serving.
    Degraded,
    /// Not serving I/O.
    Blackout,
}

impl Impact {
    /// The unaffected cut: at least this fraction of the quiet baseline.
    pub const UNAFFECTED_FRACTION: f64 = 0.95;

    /// Classifies a drive from its responsiveness and write throughput
    /// relative to the quiet baseline.
    pub fn classify(responsive: bool, throughput_mb_s: f64, baseline_mb_s: f64) -> Impact {
        if !responsive {
            Impact::Blackout
        } else if throughput_mb_s >= Self::UNAFFECTED_FRACTION * baseline_mb_s {
            Impact::Unaffected
        } else {
            Impact::Degraded
        }
    }
}

/// One drive's row in the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriveImpact {
    /// Index in the fleet.
    pub index: usize,
    /// Distance from the sound source.
    pub distance_cm: f64,
    /// Write throughput under attack, MB/s.
    pub write_mb_s: f64,
    /// Classification.
    pub impact: Impact,
}

/// The aggregated result of attacking a fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-drive rows, nearest first.
    pub drives: Vec<DriveImpact>,
}

impl FleetReport {
    /// Number of drives in blackout.
    pub fn blacked_out(&self) -> usize {
        self.drives
            .iter()
            .filter(|d| d.impact == Impact::Blackout)
            .count()
    }

    /// Number of drives degraded (including blackout).
    pub fn affected(&self) -> usize {
        self.drives
            .iter()
            .filter(|d| d.impact != Impact::Unaffected)
            .count()
    }
}

/// A line of drives at fixed spacing from the attack point.
#[derive(Debug, Clone)]
pub struct Fleet {
    testbed: Testbed,
    positions: Vec<Distance>,
}

impl Fleet {
    /// Builds a fleet of `count` drives spaced `spacing` apart, the first
    /// at `first` from the source.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(testbed: Testbed, first: Distance, spacing: Distance, count: usize) -> Self {
        assert!(count > 0, "fleet must contain at least one drive");
        let positions = (0..count)
            .map(|i| Distance::from_m(first.m() + spacing.m() * i as f64))
            .collect();
        Fleet { testbed, positions }
    }

    /// Classifies every drive under the given attack. Drives are
    /// independent operating points, so large fleets are assessed in
    /// chunks on the experiment pool — the report is identical to a
    /// sequential walk down the line.
    pub fn assess(&self, params: AttackParams) -> FleetReport {
        let drive = DriveModel::barracuda_500gb();
        let baseline = drive.steady_state(None, DiskOpKind::Write).throughput_mb_s;
        // One tone at every position: evaluate its frequency terms once.
        let tone = self.testbed.at_frequency(params.frequency);

        let jobs: Vec<_> = self
            .positions
            .iter()
            .enumerate()
            .map(|(index, &pos)| {
                let (tone, drive) = (&tone, &drive);
                move || {
                    let v = tone.vibration_at(pos);
                    let ss = drive.steady_state(Some(&v), DiskOpKind::Write);
                    let impact = Impact::classify(ss.responsive(), ss.throughput_mb_s, baseline);
                    DriveImpact {
                        index,
                        distance_cm: pos.cm(),
                        write_mb_s: ss.throughput_mb_s,
                        impact,
                    }
                }
            })
            .collect();
        // Each point is closed-form math: chunk so dispatch stays a
        // rounding error even for thousand-drive fleets.
        FleetReport {
            drives: run_chunked(jobs, 16),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_structures::Scenario;

    fn fleet() -> Fleet {
        Fleet::new(
            Testbed::paper_default(Scenario::PlasticTower),
            Distance::from_cm(1.0),
            Distance::from_cm(5.0),
            8,
        )
    }

    #[test]
    fn impact_decreases_with_distance() {
        let report = fleet().assess(AttackParams::paper_best());
        assert_eq!(report.drives.len(), 8);
        // Nearest drives dead, farthest untouched.
        assert_eq!(report.drives[0].impact, Impact::Blackout);
        assert_eq!(report.drives.last().unwrap().impact, Impact::Unaffected);
        // Monotone non-decreasing throughput along the line.
        for pair in report.drives.windows(2) {
            assert!(pair[1].write_mb_s >= pair[0].write_mb_s - 1e-9);
        }
        assert!(report.blacked_out() >= 1);
        assert!(report.affected() > report.blacked_out() - 1);
    }

    #[test]
    fn out_of_band_attack_hits_nothing() {
        let params =
            AttackParams::paper_best().at_frequency(deepnote_acoustics::Frequency::from_khz(10.0));
        let report = fleet().assess(params);
        assert_eq!(report.affected(), 0);
    }

    #[test]
    fn classification_boundary_is_inclusive_at_95_percent() {
        let baseline = 100.0;
        assert_eq!(Impact::classify(true, 95.0, baseline), Impact::Unaffected);
        assert_eq!(Impact::classify(true, 94.999, baseline), Impact::Degraded);
        assert_eq!(
            Impact::classify(true, baseline, baseline),
            Impact::Unaffected
        );
        // Responsive but crawling is degraded, never blackout.
        assert_eq!(Impact::classify(true, 0.0, baseline), Impact::Degraded);
        // Unresponsive is blackout regardless of the throughput figure.
        assert_eq!(
            Impact::classify(false, baseline, baseline),
            Impact::Blackout
        );
        assert_eq!(Impact::classify(false, 0.0, baseline), Impact::Blackout);
    }

    #[test]
    fn empty_report_counts_are_zero() {
        let report = FleetReport { drives: Vec::new() };
        assert_eq!(report.blacked_out(), 0);
        assert_eq!(report.affected(), 0);
    }

    #[test]
    fn affected_includes_blackout_and_degraded() {
        let row = |impact| DriveImpact {
            index: 0,
            distance_cm: 1.0,
            write_mb_s: 0.0,
            impact,
        };
        let report = FleetReport {
            drives: vec![
                row(Impact::Blackout),
                row(Impact::Degraded),
                row(Impact::Unaffected),
            ],
        };
        assert_eq!(report.blacked_out(), 1);
        assert_eq!(report.affected(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_fleet_rejected() {
        Fleet::new(
            Testbed::paper_default(Scenario::PlasticTower),
            Distance::from_cm(1.0),
            Distance::from_cm(5.0),
            0,
        );
    }
}
