//! Closed-form steady-state throughput under vibration.
//!
//! The frequency and distance sweeps (Fig. 2, Tables 1–2) evaluate
//! hundreds of operating points; rather than simulate each op-by-op, this
//! module computes the *expected* sequential throughput and latency
//! directly from the per-attempt success probability, matching the op
//! engine in expectation (verified by tests).

use crate::drive::{attempt_probability, DiskOpKind};
use crate::geometry::DriveGeometry;
use crate::servo::ServoModel;
use crate::timing::TimingModel;
use crate::vibration::{ToleranceModel, VibrationState};
use serde::{Deserialize, Serialize};

/// The expected steady-state behaviour of sequential I/O at one operating
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SteadyState {
    /// Expected throughput in decimal MB/s. Zero when unresponsive.
    pub throughput_mb_s: f64,
    /// Expected per-op completion latency in ms, or `None` when the drive
    /// never completes ops ("-" in the paper's tables).
    pub mean_latency_ms: Option<f64>,
    /// Per-attempt success probability (1.0 when quiescent, 0.0 when
    /// escalated).
    pub attempt_probability: f64,
}

impl SteadyState {
    /// Whether the drive is still serving any I/O at this point.
    pub fn responsive(&self) -> bool {
        self.throughput_mb_s > 0.0
    }
}

/// Computes the expected steady state of sequential I/O of `sectors`
/// sectors; `vibration = None` is the quiescent baseline. Experiments
/// call [`DriveModel::steady_state`](crate::DriveModel::steady_state),
/// which fixes `sectors` at 8 to match [`attempt_probability`]'s
/// transfer window.
///
/// # Example
///
/// ```
/// use deepnote_hdd::prelude::*;
/// use deepnote_acoustics::Frequency;
///
/// let drive = DriveModel::barracuda_500gb();
/// let base = drive.steady_state(None, DiskOpKind::Write);
/// assert!((base.throughput_mb_s - 22.7).abs() < 0.1);
///
/// let attack = VibrationState::new(Frequency::from_hz(650.0), 0.6);
/// let hit = drive.steady_state(Some(&attack), DiskOpKind::Write);
/// assert_eq!(hit.throughput_mb_s, 0.0);
/// assert_eq!(hit.mean_latency_ms, None);
/// let DriveModel { geometry, timing, servo, tolerance } = &drive;
/// let kind = DiskOpKind::Write;
/// assert_eq!(hit, steady_state(geometry, timing, servo, tolerance, Some(&attack), 8, kind));
/// ```
pub fn steady_state(
    geometry: &DriveGeometry,
    timing: &TimingModel,
    servo: &ServoModel,
    tolerance: &ToleranceModel,
    vibration: Option<&VibrationState>,
    sectors: u64,
    kind: DiskOpKind,
) -> SteadyState {
    assert!(sectors > 0, "sectors must be positive");
    let read = kind.is_read();
    let p = match vibration {
        None => Some(1.0),
        Some(v) => attempt_probability(geometry, timing, servo, tolerance, v, kind),
    };
    let Some(p) = p else {
        return SteadyState {
            throughput_mb_s: 0.0,
            mean_latency_ms: None,
            attempt_probability: 0.0,
        };
    };
    if p <= 0.0 {
        return SteadyState {
            throughput_mb_s: 0.0,
            mean_latency_ms: None,
            attempt_probability: 0.0,
        };
    }

    let base = timing.sequential_op_s(geometry, sectors, read);
    // Expected retries: attempts are geometric with success p, truncated
    // at max_retries. If success within the horizon is too unlikely the
    // device is effectively unresponsive.
    let max = timing.max_retries() as f64;
    let p_success_within_horizon = 1.0 - (1.0 - p).powf(max);
    if p_success_within_horizon < 0.5 {
        return SteadyState {
            throughput_mb_s: 0.0,
            mean_latency_ms: None,
            attempt_probability: p,
        };
    }
    let expected_failures = (1.0 - p) / p;
    let op_s = base + expected_failures * timing.retry_delay_s(read);
    let bytes = sectors as f64 * crate::geometry::SECTOR_SIZE as f64;
    SteadyState {
        throughput_mb_s: bytes / op_s / 1e6,
        mean_latency_ms: Some(op_s * 1e3),
        attempt_probability: p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_acoustics::Frequency;
    use deepnote_sim::Clock;
    use proptest::prelude::*;

    fn parts() -> (DriveGeometry, TimingModel, ServoModel, ToleranceModel) {
        (
            DriveGeometry::barracuda_500gb(),
            TimingModel::barracuda_500gb(),
            ServoModel::typical(),
            ToleranceModel::typical(),
        )
    }

    #[test]
    fn baseline_matches_paper() {
        let (geo, t, s, tol) = parts();
        let read = steady_state(&geo, &t, &s, &tol, None, 8, DiskOpKind::Read);
        let write = steady_state(&geo, &t, &s, &tol, None, 8, DiskOpKind::Write);
        assert!((read.throughput_mb_s - 18.0).abs() < 0.05, "{read:?}");
        assert!((write.throughput_mb_s - 22.7).abs() < 0.05, "{write:?}");
        assert!((read.mean_latency_ms.unwrap() - 0.228).abs() < 0.01);
        assert!((write.mean_latency_ms.unwrap() - 0.180).abs() < 0.01);
    }

    #[test]
    fn strong_vibration_unresponsive() {
        let (geo, t, s, tol) = parts();
        let v = VibrationState::new(Frequency::from_hz(650.0), 1.0);
        for kind in [DiskOpKind::Read, DiskOpKind::Write] {
            let ss = steady_state(&geo, &t, &s, &tol, Some(&v), 8, kind);
            assert!(!ss.responsive(), "{kind}: {ss:?}");
            assert_eq!(ss.mean_latency_ms, None);
        }
    }

    #[test]
    fn moderate_vibration_degrades_writes_more_than_reads() {
        let (geo, t, s, tol) = parts();
        // Residual ≈ 16 nm at 650 Hz.
        let amp_um = 16.0 / s.rejection(Frequency::from_hz(650.0)) / 1000.0;
        let v = VibrationState::new(Frequency::from_hz(650.0), amp_um);
        let read = steady_state(&geo, &t, &s, &tol, Some(&v), 8, DiskOpKind::Read);
        let write = steady_state(&geo, &t, &s, &tol, Some(&v), 8, DiskOpKind::Write);
        assert!(read.responsive() && write.responsive());
        assert!(read.throughput_mb_s > 10.0, "{read:?}");
        assert!(write.throughput_mb_s < 3.0, "{write:?}");
        assert!(write.mean_latency_ms.unwrap() > read.mean_latency_ms.unwrap());
    }

    #[test]
    fn out_of_band_vibration_is_harmless() {
        let (geo, t, s, tol) = parts();
        // Strong displacement at 30 Hz: the servo tracks it out.
        let v = VibrationState::new(Frequency::from_hz(30.0), 2.0);
        let write = steady_state(&geo, &t, &s, &tol, Some(&v), 8, DiskOpKind::Write);
        assert!((write.throughput_mb_s - 22.7).abs() < 0.1, "{write:?}");
    }

    #[test]
    fn analytic_matches_op_engine_in_expectation() {
        use crate::drive::{DiskOp, HardDiskDrive};
        let (geo, t, s, tol) = parts();
        let amp_um = 14.0 / s.rejection(Frequency::from_hz(650.0)) / 1000.0;
        let v = VibrationState::new(Frequency::from_hz(650.0), amp_um);
        let predicted = steady_state(&geo, &t, &s, &tol, Some(&v), 8, DiskOpKind::Write);

        let clock = Clock::new();
        let mut drive = HardDiskDrive::barracuda_500gb(clock.clone());
        drive.vibration().set(Some(v));
        let t0 = clock.now();
        let n = 3000u64;
        let mut completed = 0u64;
        let mut lba = 0;
        for _ in 0..n {
            if drive.execute(DiskOp::write(lba, 8)).is_ok() {
                completed += 1;
            }
            lba += 8;
        }
        let elapsed = (clock.now() - t0).as_secs_f64();
        let measured = completed as f64 * 4096.0 / elapsed / 1e6;
        let rel = (measured - predicted.throughput_mb_s).abs() / predicted.throughput_mb_s;
        assert!(
            rel < 0.15,
            "measured = {measured}, predicted = {}",
            predicted.throughput_mb_s
        );
    }

    proptest! {
        /// More displacement never helps throughput.
        #[test]
        fn monotone_in_displacement(a in 0.0f64..0.5, da in 0.001f64..0.5) {
            let (geo, t, s, tol) = parts();
            let f = Frequency::from_hz(650.0);
            let lo = steady_state(&geo, &t, &s, &tol, Some(&VibrationState::new(f, a)), 8, DiskOpKind::Write);
            let hi = steady_state(&geo, &t, &s, &tol, Some(&VibrationState::new(f, a + da)), 8, DiskOpKind::Write);
            prop_assert!(hi.throughput_mb_s <= lo.throughput_mb_s + 1e-9);
        }

        /// Reads always beat (or match) writes under the same vibration —
        /// the paper's core asymmetry.
        #[test]
        fn reads_geq_writes(a in 0.0f64..2.0, hz in 100.0f64..5_000.0) {
            let (geo, t, s, tol) = parts();
            let v = VibrationState::new(Frequency::from_hz(hz), a);
            let r = steady_state(&geo, &t, &s, &tol, Some(&v), 8, DiskOpKind::Read);
            let w = steady_state(&geo, &t, &s, &tol, Some(&v), 8, DiskOpKind::Write);
            // Compare degradation fractions relative to each baseline.
            let rb = steady_state(&geo, &t, &s, &tol, None, 8, DiskOpKind::Read).throughput_mb_s;
            let wb = steady_state(&geo, &t, &s, &tol, None, 8, DiskOpKind::Write).throughput_mb_s;
            prop_assert!(r.throughput_mb_s / rb >= w.throughput_mb_s / wb - 1e-9);
        }
    }
}
