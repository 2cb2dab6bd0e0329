//! Defender-side attack detection.
//!
//! The paper's §5 asks for defenses; before a data center can react
//! (failover, acoustic countermeasures, dispatching a diver) it must
//! *notice* the attack. [`AttackDetector`] watches the per-request
//! latency/error stream a storage node already has and raises an alarm
//! on the signature acoustic interference leaves: a burst of timeouts
//! and order-of-magnitude latency inflation, sustained across a window.

use deepnote_sim::OnlineStats;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Samples used to learn the healthy baseline.
pub(crate) const CALIBRATION_SAMPLES: usize = 64;

/// Sliding-window length (requests).
const WINDOW: usize = 32;

/// Latency multiple (vs baseline mean) considered anomalous.
const LATENCY_FACTOR: f64 = 8.0;

/// Fraction of the window that must be anomalous to alarm.
const ALARM_FRACTION: f64 = 0.5;

/// Detector verdict after each observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Still learning the healthy baseline.
    Calibrating,
    /// Traffic looks healthy.
    Normal,
    /// Some anomalous samples in the window, below the alarm threshold.
    Suspicious,
    /// Sustained anomaly: raise the alarm.
    UnderAttack,
}

/// A sliding-window latency/error anomaly detector; `default()` has
/// seen no traffic yet.
///
/// # Example
///
/// ```
/// use deepnote_core::detect::{AttackDetector, Verdict};
///
/// let mut d = AttackDetector::default();
/// for _ in 0..64 {
///     d.observe(Some(0.2)); // healthy 0.2 ms requests
/// }
/// assert_eq!(d.observe(Some(0.2)), Verdict::Normal);
/// // The attack starts: timeouts.
/// let mut verdict = Verdict::Normal;
/// for _ in 0..32 {
///     verdict = d.observe(None);
/// }
/// assert_eq!(verdict, Verdict::UnderAttack);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AttackDetector {
    baseline: OnlineStats,
    window: VecDeque<bool>,
    anomalies_in_window: usize,
    alarms: u64,
}

impl AttackDetector {
    /// The learned healthy mean latency (ms), once calibrated.
    pub fn baseline_ms(&self) -> Option<f64> {
        (self.baseline.count() >= CALIBRATION_SAMPLES as u64).then(|| self.baseline.mean())
    }

    /// Alarms raised so far.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Feeds one request observation: `Some(latency_ms)` for a completed
    /// request, `None` for a timeout/error. Returns the current verdict.
    pub fn observe(&mut self, latency_ms: Option<f64>) -> Verdict {
        // Calibration phase: learn from completed requests only.
        if self.baseline.count() < CALIBRATION_SAMPLES as u64 {
            if let Some(ms) = latency_ms {
                self.baseline.record(ms);
            }
            return Verdict::Calibrating;
        }
        let threshold = self.baseline.mean() * LATENCY_FACTOR;
        let anomalous = match latency_ms {
            None => true,
            Some(ms) => ms > threshold,
        };
        if self.window.len() == WINDOW && self.window.pop_front() == Some(true) {
            self.anomalies_in_window -= 1;
        }
        self.window.push_back(anomalous);
        if anomalous {
            self.anomalies_in_window += 1;
        }

        let frac = self.anomalies_in_window as f64 / WINDOW as f64;
        if frac >= ALARM_FRACTION && self.window.len() == WINDOW {
            self.alarms += 1;
            Verdict::UnderAttack
        } else if self.anomalies_in_window > 0 {
            Verdict::Suspicious
        } else {
            Verdict::Normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;
    use crate::threat::AttackParams;
    use deepnote_blockdev::{BlockDevice, HddDisk};
    use deepnote_sim::{Clock, SimRng};
    use deepnote_structures::Scenario;

    #[test]
    fn calibrates_then_reports_normal() {
        let mut d = AttackDetector::default();
        for _ in 0..63 {
            assert_eq!(d.observe(Some(0.2)), Verdict::Calibrating);
        }
        d.observe(Some(0.2)); // 64th completes calibration
        assert_eq!(d.observe(Some(0.25)), Verdict::Normal);
        assert!((d.baseline_ms().unwrap() - 0.2).abs() < 0.01);
    }

    #[test]
    fn healthy_jitter_does_not_alarm() {
        let mut d = AttackDetector::default();
        let mut rng = SimRng::seeded(11);
        for _ in 0..64 {
            d.observe(Some(0.18 + 0.06 * rng.unit_f64()));
        }
        let mut worst = Verdict::Normal;
        for _ in 0..500 {
            let v = d.observe(Some(0.18 + 0.08 * rng.unit_f64()));
            if v == Verdict::UnderAttack {
                worst = v;
            }
        }
        assert_ne!(worst, Verdict::UnderAttack);
        assert_eq!(d.alarms(), 0);
    }

    #[test]
    fn single_glitch_is_only_suspicious() {
        let mut d = AttackDetector::default();
        for _ in 0..64 {
            d.observe(Some(0.2));
        }
        assert_eq!(d.observe(None), Verdict::Suspicious);
        // Back to normal traffic: the glitch ages out of the window.
        let mut last = Verdict::Suspicious;
        for _ in 0..40 {
            last = d.observe(Some(0.2));
        }
        assert_eq!(last, Verdict::Normal);
    }

    #[test]
    fn detects_a_real_acoustic_attack_quickly() {
        // End-to-end: the detector sits on a storage node's request
        // stream; the paper's attack must be flagged within a window.
        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock.clone());
        let vibration = disk.vibration();
        let mut d = AttackDetector::default();

        let request = |disk: &mut HddDisk, cursor: &mut u64| -> Option<f64> {
            let start = disk.drive().clock().now();
            let lba = (*cursor * 8) % (1 << 16);
            *cursor += 1;
            let ok = disk.write_blocks(lba, &vec![0u8; 4096]).is_ok();
            let end = disk.drive().clock().now();
            ok.then(|| (end - start).as_millis_f64())
        };

        let mut cursor = 0;
        for _ in 0..80 {
            d.observe(request(&mut disk, &mut cursor));
        }
        assert!(d.baseline_ms().is_some());

        testbed.mount_attack(&vibration, AttackParams::paper_best());
        let mut detected_after = None;
        for i in 0..64 {
            if d.observe(request(&mut disk, &mut cursor)) == Verdict::UnderAttack {
                detected_after = Some(i + 1);
                break;
            }
        }
        let n = detected_after.expect("attack must be detected");
        // Alarm within one window of requests (32 × ~200 ms of burned
        // time ≈ seconds of virtual time — long before the 81 s crash).
        assert!(n <= 32, "detected after {n} requests");
    }
}
