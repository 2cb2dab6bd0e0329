//! The adaptive remote attacker (§3's methodology, made concrete).
//!
//! The paper's threat model requires no inside access: "the attacker
//! should perform a frequency sweep … by remotely varying the attack
//! sound waves and observing resultant delays in online applications
//! that use the target data center." This harness implements exactly
//! that loop: a storage node services block requests; the attacker dwells
//! on each sweep frequency, fires a handful of requests, and classifies
//! the frequency by the latency/timeout signal alone.

use crate::testbed::Testbed;
use crate::threat::AttackParams;
use deepnote_acoustics::{Distance, Frequency, SweepPlan};
use deepnote_blockdev::{BlockDevice, HddDisk};
use deepnote_sim::Clock;
use serde::{Deserialize, Serialize};

/// What the remote observer saw while dwelling on one frequency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Probe {
    /// The transmitted frequency, Hz.
    pub frequency_hz: f64,
    /// Mean latency of completed requests, ms (`None` if all timed out).
    pub mean_latency_ms: Option<f64>,
    /// Requests that errored/timed out.
    pub timeouts: u32,
    /// Classified vulnerable (timeouts, or latency far above baseline).
    pub vulnerable: bool,
}

/// The attacker's findings after the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Discovery {
    /// Every coarse and refinement probe, in sweep order.
    pub probes: Vec<Probe>,
    /// The vulnerable frequencies found, Hz, ascending.
    pub vulnerable_hz: Vec<f64>,
    /// The most damaging frequency observed (most timeouts, then highest
    /// latency), if any frequency was vulnerable.
    pub best_frequency_hz: Option<f64>,
    /// Healthy-baseline mean request latency, ms.
    pub baseline_latency_ms: f64,
}

impl Discovery {
    /// The contiguous vulnerable band `(lo, hi)` in Hz, if any.
    pub fn vulnerable_band(&self) -> Option<(f64, f64)> {
        Some((*self.vulnerable_hz.first()?, *self.vulnerable_hz.last()?))
    }
}

/// A storage node servicing remote block requests — the only interface
/// the attacker can observe.
struct StorageNode {
    disk: HddDisk,
    clock: Clock,
    cursor: u64,
}

impl StorageNode {
    fn new(clock: Clock) -> Self {
        StorageNode {
            disk: HddDisk::barracuda_500gb(clock.clone()),
            clock,
            cursor: 0,
        }
    }

    /// Services one request (a 4 KiB write then a 4 KiB read) and returns
    /// the observed latency in ms, or `None` on timeout/error.
    fn request(&mut self) -> Option<f64> {
        let start = self.clock.now();
        let lba = (self.cursor * 8) % (1 << 20);
        self.cursor += 1;
        let buf = vec![0xC3u8; 4096];
        let mut out = vec![0u8; 4096];
        let ok = self.disk.write_blocks(lba, &buf).is_ok()
            && self.disk.read_blocks(lba, &mut out).is_ok();
        let elapsed = (self.clock.now() - start).as_millis_f64();
        ok.then_some(elapsed)
    }
}

/// Runs the remote discovery sweep: `requests_per_probe` requests per
/// dwell, classifying a frequency as vulnerable when any request times
/// out or mean latency exceeds `10×` the healthy baseline.
pub fn remote_frequency_discovery(
    testbed: &Testbed,
    distance: Distance,
    plan: &SweepPlan,
    requests_per_probe: u32,
) -> Discovery {
    assert!(
        requests_per_probe > 0,
        "need at least one request per probe"
    );
    let clock = Clock::new();
    let mut node = StorageNode::new(clock.clone());
    let vibration = node.disk.vibration();

    // Healthy baseline.
    let mut baseline = 0.0;
    for _ in 0..requests_per_probe {
        baseline += node.request().expect("healthy node serves requests");
    }
    let baseline_latency_ms = baseline / requests_per_probe as f64;
    let threshold_ms = baseline_latency_ms * 10.0;

    let mut probes = Vec::new();
    let mut probe_fn = |f: Frequency| -> bool {
        testbed.mount_attack(
            &vibration,
            AttackParams {
                frequency: f,
                distance,
            },
        );
        let mut latencies = Vec::new();
        let mut timeouts = 0;
        for _ in 0..requests_per_probe {
            match node.request() {
                Some(ms) => latencies.push(ms),
                None => timeouts += 1,
            }
        }
        vibration.clear();
        // Drain any retry debris so the next probe starts clean.
        let _ = node.request();

        let mean =
            (!latencies.is_empty()).then(|| latencies.iter().sum::<f64>() / latencies.len() as f64);
        let vulnerable = timeouts > 0 || mean.is_some_and(|m| m > threshold_ms);
        probes.push(Probe {
            frequency_hz: f.hz(),
            mean_latency_ms: mean,
            timeouts,
            vulnerable,
        });
        vulnerable
    };

    let _steps = plan.run_adaptive(&mut probe_fn);

    let mut vulnerable_hz: Vec<f64> = probes
        .iter()
        .filter(|p| p.vulnerable)
        .map(|p| p.frequency_hz)
        .collect();
    vulnerable_hz.sort_by(f64::total_cmp);
    vulnerable_hz.dedup();

    let best_frequency_hz = probes
        .iter()
        .filter(|p| p.vulnerable)
        .max_by(|a, b| {
            (a.timeouts, a.mean_latency_ms.map_or(f64::INFINITY, |m| m))
                .partial_cmp(&(b.timeouts, b.mean_latency_ms.map_or(f64::INFINITY, |m| m)))
                .expect("no NaNs here")
        })
        .map(|p| p.frequency_hz);

    Discovery {
        probes,
        vulnerable_hz,
        best_frequency_hz,
        baseline_latency_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_structures::Scenario;

    fn quick_plan() -> SweepPlan {
        // Coarse 200 Hz steps over 100 Hz..4 kHz keeps the test fast.
        SweepPlan::new(
            Frequency::from_hz(100.0),
            Frequency::from_khz(4.0),
            Frequency::from_hz(200.0),
            Frequency::from_hz(50.0),
        )
    }

    #[test]
    fn attacker_finds_the_band_without_inside_access() {
        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        let discovery =
            remote_frequency_discovery(&testbed, Distance::from_cm(1.0), &quick_plan(), 6);
        let (lo, hi) = discovery.vulnerable_band().expect("band must be found");
        // The paper's vulnerable band is 300 Hz–1.7 kHz; remote probing
        // must land inside/around it.
        assert!((100.0..=500.0).contains(&lo), "band starts {lo}");
        assert!((900.0..=2_000.0).contains(&hi), "band ends {hi}");
        // The best frequency is in the heart of the band, like the
        // paper's 650 Hz choice.
        let best = discovery.best_frequency_hz.unwrap();
        assert!((300.0..=1_400.0).contains(&best), "best = {best}");
        // Healthy baseline is sub-millisecond.
        assert!(discovery.baseline_latency_ms < 1.0);
    }

    #[test]
    fn no_false_positives_out_of_band() {
        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        let plan = SweepPlan::new(
            Frequency::from_khz(5.0),
            Frequency::from_khz(10.0),
            Frequency::from_hz(1_000.0),
            Frequency::from_hz(500.0),
        );
        let discovery = remote_frequency_discovery(&testbed, Distance::from_cm(1.0), &plan, 6);
        assert!(
            discovery.vulnerable_hz.is_empty(),
            "{:?}",
            discovery.vulnerable_hz
        );
        assert!(discovery.best_frequency_hz.is_none());
    }

    #[test]
    fn farther_speaker_finds_a_narrower_band() {
        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        let near = remote_frequency_discovery(&testbed, Distance::from_cm(1.0), &quick_plan(), 4);
        let far = remote_frequency_discovery(&testbed, Distance::from_cm(15.0), &quick_plan(), 4);
        assert!(far.vulnerable_hz.len() <= near.vulnerable_hz.len());
    }
}
