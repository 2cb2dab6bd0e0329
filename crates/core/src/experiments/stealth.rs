//! Stealth attacks: duty-cycled interference vs. detection.
//!
//! §3 distinguishes a *controlled throughput loss* objective from an
//! outright crash. A patient adversary can pulse the speaker — short
//! bursts separated by quiet — to degrade service while starving a
//! latency-anomaly detector of the sustained signal it needs. This
//! experiment sweeps the duty cycle and reports both sides: throughput
//! stolen vs. whether (and when) the defender's alarm fires.

use crate::detect::{AttackDetector, Verdict, CALIBRATION_SAMPLES};
use crate::testbed::Testbed;
use crate::threat::AttackParams;
use deepnote_blockdev::{BlockDevice, HddDisk};
use deepnote_sim::{Clock, SimDuration};
use serde::{Deserialize, Serialize};

/// One duty-cycle operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StealthRow {
    /// Fraction of time the speaker is on (0–1).
    pub duty: f64,
    /// Burst length, seconds.
    pub burst_s: f64,
    /// Victim write throughput over the whole window, MB/s.
    pub throughput_mb_s: f64,
    /// Fraction of baseline throughput destroyed (0–1).
    pub damage_fraction: f64,
    /// Whether the defender's detector ever alarmed.
    pub detected: bool,
    /// Seconds until the first alarm, if any.
    pub detected_after_s: Option<f64>,
}

/// Runs one pulsed attack: bursts of `burst` every `period`, for
/// `total` seconds of virtual time, against a storage node with an
/// [`AttackDetector`] on its request stream.
pub fn pulsed_attack(
    testbed: &Testbed,
    params: AttackParams,
    burst: SimDuration,
    period: SimDuration,
    total: SimDuration,
) -> StealthRow {
    assert!(
        burst.as_nanos() <= period.as_nanos(),
        "burst cannot exceed the period"
    );
    let clock = Clock::new();
    let mut disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();
    let mut detector = AttackDetector::default();

    // Calibrate the detector on healthy traffic.
    let mut cursor = 0u64;
    let buf = vec![0u8; 4096];
    let request = |disk: &mut HddDisk, cursor: &mut u64| -> Option<f64> {
        let start = disk.drive().clock().now();
        let lba = (*cursor * 8) % (1 << 20);
        *cursor += 1;
        let ok = disk.write_blocks(lba, &buf).is_ok();
        let end = disk.drive().clock().now();
        ok.then(|| (end - start).as_millis_f64())
    };
    for _ in 0..CALIBRATION_SAMPLES + 4 {
        detector.observe(request(&mut disk, &mut cursor));
    }

    // Baseline throughput for damage accounting.
    let baseline_mb_s = 22.7;

    let t0 = clock.now();
    let deadline = t0 + total;
    let mut completed = 0u64;
    let mut detected_after = None;
    while clock.now() < deadline {
        // Is the speaker on right now?
        let phase_ns = (clock.now() - t0).as_nanos() % period.as_nanos();
        let on = phase_ns < burst.as_nanos();
        if on {
            if vibration.current().is_none() {
                testbed.mount_attack(&vibration, params);
            }
        } else if vibration.current().is_some() {
            testbed.stop_attack(&vibration);
        }

        let obs = request(&mut disk, &mut cursor);
        if obs.is_some() {
            completed += 1;
        }
        if detector.observe(obs) == Verdict::UnderAttack && detected_after.is_none() {
            detected_after = Some((clock.now() - t0).as_secs_f64());
        }
    }
    testbed.stop_attack(&vibration);

    let elapsed = (clock.now() - t0).as_secs_f64();
    let throughput = completed as f64 * 4096.0 / 1e6 / elapsed;
    StealthRow {
        duty: burst.as_secs_f64() / period.as_secs_f64(),
        burst_s: burst.as_secs_f64(),
        throughput_mb_s: throughput,
        damage_fraction: (1.0 - throughput / baseline_mb_s).clamp(0.0, 1.0),
        detected: detected_after.is_some(),
        detected_after_s: detected_after,
    }
}

/// Sweeps duty cycles from continuous down to sparse pulses.
pub fn duty_cycle_sweep(testbed: &Testbed) -> Vec<StealthRow> {
    let params = AttackParams::paper_best();
    let total = SimDuration::from_secs(30);
    let period = SimDuration::from_secs(2);
    [1.0, 0.5, 0.25, 0.1, 0.05]
        .iter()
        .map(|&duty| {
            let burst = period.mul_f64(duty);
            pulsed_attack(testbed, params, burst, period, total)
        })
        .collect()
}

/// Renders the sweep.
pub fn render(rows: &[StealthRow]) -> String {
    let mut out = String::from("Stealth study: pulsed attack duty cycle vs damage vs detection\n");
    for r in rows {
        let det = match r.detected_after_s {
            Some(s) => format!("alarm at {s:.1} s"),
            None => "undetected".to_string(),
        };
        out.push_str(&format!(
            "  duty {:>4.0}% (burst {:>4.1} s): throughput {:>5.1} MB/s, damage {:>4.0}%, {det}\n",
            r.duty * 100.0,
            r.burst_s,
            r.throughput_mb_s,
            r.damage_fraction * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_structures::Scenario;

    #[test]
    fn continuous_attack_maximizes_damage_and_is_detected() {
        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        let rows = duty_cycle_sweep(&testbed);
        let continuous = &rows[0];
        assert!(continuous.damage_fraction > 0.95, "{continuous:?}");
        assert!(continuous.detected, "{continuous:?}");
        assert!(continuous.detected_after_s.unwrap() < 10.0);
    }

    #[test]
    fn damage_decreases_with_duty() {
        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        let rows = duty_cycle_sweep(&testbed);
        for pair in rows.windows(2) {
            assert!(
                pair[1].damage_fraction <= pair[0].damage_fraction + 0.05,
                "{pair:?}"
            );
        }
        // Even sparse pulses steal real throughput: a 5 % duty burns far
        // more than 5 % of throughput because every burst costs retry
        // storms (the attacker's leverage).
        let sparse = rows.last().unwrap();
        assert!(
            sparse.damage_fraction > sparse.duty,
            "damage {} vs duty {}",
            sparse.damage_fraction,
            sparse.duty
        );
    }

    #[test]
    fn some_duty_cycle_evades_the_default_detector() {
        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        let rows = duty_cycle_sweep(&testbed);
        let evasive: Vec<&StealthRow> = rows.iter().filter(|r| !r.detected).collect();
        assert!(
            !evasive.is_empty(),
            "at least one sparse duty cycle should slip under the default detector: {rows:?}"
        );
        // And such evasion still causes measurable damage.
        assert!(evasive.iter().any(|r| r.damage_fraction > 0.1));
    }
}
