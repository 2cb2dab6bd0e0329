//! Service-level measurement: per-phase goodput, tail latency, and SLOs.
//!
//! Built on [`deepnote_sim::stats`]: each phase of the attack timeline
//! gets its own read/write [`Histogram`]s (p50/p99/p999 straight off the
//! log buckets) and counters, plus a coarse availability time series
//! sampled over fixed windows — the chart an operator would stare at
//! during the incident.

use deepnote_sim::{Histogram, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Latency bound counted as an SLO pass.
const SLO_LATENCY: SimDuration = SimDuration::from_millis(50);

/// Counters and latency for one operation class (reads or writes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpClassMetrics {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that reached quorum in time.
    pub ok: u64,
    /// Operations meeting the SLO (success within the 50 ms bound).
    pub slo_ok: u64,
    /// Latency of every operation, microseconds.
    pub latency_us: Histogram,
}

impl Default for OpClassMetrics {
    fn default() -> Self {
        OpClassMetrics {
            attempted: 0,
            ok: 0,
            slo_ok: 0,
            latency_us: Histogram::new_latency(),
        }
    }
}

impl OpClassMetrics {
    /// Records one operation. An SLO pass requires *both* success and
    /// the latency bound, so `slo_ok <= ok <= attempted` always holds —
    /// a failed operation can never count toward the SLO, no matter how
    /// quickly it failed.
    pub fn record(&mut self, ok: bool, latency: SimDuration) {
        self.attempted += 1;
        if ok {
            self.ok += 1;
            self.slo_ok += u64::from(latency <= SLO_LATENCY);
        }
        self.latency_us.record(latency.as_nanos() as f64 / 1_000.0);
    }

    /// Fraction of attempts that succeeded (1.0 when idle).
    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.ok as f64 / self.attempted as f64
        }
    }

    /// The `p`-th latency percentile in milliseconds, if any samples.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        self.latency_us.percentile(p).map(|us| us / 1_000.0)
    }
}

/// All measurements for one timeline phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseMetrics {
    /// Phase label from the timeline.
    pub label: String,
    /// Phase start on the cluster timeline.
    pub start: SimTime,
    /// Phase end on the cluster timeline.
    pub end: SimTime,
    /// Read-side counters.
    pub reads: OpClassMetrics,
    /// Write-side counters.
    pub writes: OpClassMetrics,
}

impl PhaseMetrics {
    /// Creates an empty phase record.
    pub fn new(label: impl Into<String>, start: SimTime, end: SimTime) -> Self {
        PhaseMetrics {
            label: label.into(),
            start,
            end,
            reads: OpClassMetrics::default(),
            writes: OpClassMetrics::default(),
        }
    }

    /// Successful operations per second of phase time.
    pub fn goodput_ops_per_s(&self) -> f64 {
        let secs = self.end.saturating_duration_since(self.start).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (self.reads.ok + self.writes.ok) as f64 / secs
        }
    }

    /// Success ratio across both classes.
    pub fn success_ratio(&self) -> f64 {
        let attempted = self.reads.attempted + self.writes.attempted;
        if attempted == 0 {
            1.0
        } else {
            (self.reads.ok + self.writes.ok) as f64 / attempted as f64
        }
    }
}

/// Counters for the resilient client path ([`crate::client`]): how much
/// work retries, hedges, and breakers did on top of the raw quorum path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceStats {
    /// Client operations completed (after any retries/hedges).
    pub ops: u64,
    /// Quorum executions issued on the primary/retry path.
    pub attempts: u64,
    /// Retries issued after a failed attempt.
    pub retries: u64,
    /// Operations that failed at least once but ultimately succeeded.
    pub recovered_by_retry: u64,
    /// Hedge requests issued on slow reads.
    pub hedges: u64,
    /// Hedges that beat (or rescued) the primary request.
    pub hedges_won: u64,
    /// Circuit breakers tripped open.
    pub breaker_trips: u64,
    /// Replica dispatches suppressed by an open breaker.
    pub breaker_denied: u64,
    /// Operations abandoned because the deadline budget ran out.
    pub deadline_exhausted: u64,
}

/// One point of the availability time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AvailabilitySample {
    /// Window end, seconds from campaign start.
    pub at_s: f64,
    /// Success ratio over the window (1.0 when idle).
    pub ratio: f64,
    /// Operations attempted in the window.
    pub attempted: u64,
}

/// The campaign-wide measurement sink.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterMetrics {
    /// Per-phase breakdown, in timeline order.
    pub phases: Vec<PhaseMetrics>,
    /// Success ratio per sampling window.
    pub availability: Vec<AvailabilitySample>,
    window_ok: u64,
    window_attempted: u64,
    current_phase: usize,
}

impl ClusterMetrics {
    /// A sink with one record per timeline phase.
    pub fn new(phases: Vec<PhaseMetrics>) -> Self {
        assert!(!phases.is_empty(), "campaign needs at least one phase");
        ClusterMetrics {
            phases,
            availability: Vec::new(),
            window_ok: 0,
            window_attempted: 0,
            current_phase: 0,
        }
    }

    /// Switches attribution to phase `idx`.
    pub fn enter_phase(&mut self, idx: usize) {
        assert!(idx < self.phases.len());
        self.current_phase = idx;
    }

    /// The phase currently attributed to.
    pub fn current_phase(&self) -> &PhaseMetrics {
        &self.phases[self.current_phase]
    }

    /// Records one client operation into the current phase.
    pub fn record_op(&mut self, is_read: bool, ok: bool, latency: SimDuration) {
        let phase = &mut self.phases[self.current_phase];
        if is_read {
            phase.reads.record(ok, latency);
        } else {
            phase.writes.record(ok, latency);
        }
        self.window_attempted += 1;
        if ok {
            self.window_ok += 1;
        }
    }

    /// Closes the current sampling window at `now`.
    pub fn sample_availability(&mut self, now: SimTime) {
        let ratio = if self.window_attempted == 0 {
            1.0
        } else {
            self.window_ok as f64 / self.window_attempted as f64
        };
        self.availability.push(AvailabilitySample {
            at_s: now.as_secs_f64(),
            ratio,
            attempted: self.window_attempted,
        });
        self.window_ok = 0;
        self.window_attempted = 0;
    }

    /// The phase record labelled `label`, if present.
    pub fn phase(&self, label: &str) -> Option<&PhaseMetrics> {
        self.phases.iter().find(|p| p.label == label)
    }

    /// The worst availability sample that saw traffic.
    pub fn worst_availability(&self) -> Option<AvailabilitySample> {
        self.availability
            .iter()
            .filter(|s| s.attempted > 0)
            .cloned()
            .reduce(|a, b| if b.ratio < a.ratio { b } else { a })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phases() -> ClusterMetrics {
        ClusterMetrics::new(vec![
            PhaseMetrics::new("baseline", SimTime::ZERO, SimTime::from_secs(10)),
            PhaseMetrics::new("attack", SimTime::from_secs(10), SimTime::from_secs(20)),
        ])
    }

    #[test]
    fn ops_land_in_the_current_phase() {
        let mut m = two_phases();
        m.record_op(true, true, SimDuration::from_millis(2));
        m.enter_phase(1);
        m.record_op(false, false, SimDuration::from_millis(250));
        assert_eq!(m.phase("baseline").unwrap().reads.ok, 1);
        assert_eq!(m.phase("attack").unwrap().writes.attempted, 1);
        assert_eq!(m.phase("attack").unwrap().writes.ok, 0);
    }

    #[test]
    fn slo_requires_success_and_speed() {
        let mut c = OpClassMetrics::default();
        c.record(true, SimDuration::from_millis(10));
        c.record(true, SimDuration::from_millis(200)); // slow success
        c.record(false, SimDuration::from_millis(1)); // fast failure
        assert_eq!(c.attempted, 3);
        assert_eq!(c.ok, 2);
        assert_eq!(c.slo_ok, 1);
        assert!((c.success_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn slo_ok_never_exceeds_ok() {
        // Regression: a fast failure must not count toward the SLO, so
        // `slo_ok <= ok <= attempted` holds after any op sequence.
        let mut c = OpClassMetrics::default();
        for i in 0..200u64 {
            let ok = i % 3 != 0;
            let latency = SimDuration::from_millis((i * 7) % 120);
            c.record(ok, latency);
            assert!(
                c.slo_ok <= c.ok && c.ok <= c.attempted,
                "after op {i}: slo_ok={} ok={} attempted={}",
                c.slo_ok,
                c.ok,
                c.attempted
            );
        }
        assert!(c.slo_ok > 0, "sequence should contain SLO passes");
        assert!(c.ok < c.attempted, "sequence should contain failures");
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let mut c = OpClassMetrics::default();
        for ms in 1..=100u64 {
            c.record(true, SimDuration::from_millis(ms));
        }
        let p50 = c.percentile_ms(50.0).unwrap();
        let p99 = c.percentile_ms(99.0).unwrap();
        assert!((40.0..70.0).contains(&p50), "p50={p50}");
        assert!(p99 >= p50);
    }

    #[test]
    fn availability_windows_reset() {
        let mut m = two_phases();
        m.record_op(true, true, SimDuration::from_millis(1));
        m.record_op(true, false, SimDuration::from_millis(1));
        m.sample_availability(SimTime::from_secs(5));
        m.record_op(true, true, SimDuration::from_millis(1));
        m.sample_availability(SimTime::from_secs(10));
        // An idle window reads as fully available.
        m.sample_availability(SimTime::from_secs(15));
        assert_eq!(m.availability.len(), 3);
        assert!((m.availability[0].ratio - 0.5).abs() < 1e-12);
        assert!((m.availability[1].ratio - 1.0).abs() < 1e-12);
        assert_eq!(m.availability[2].attempted, 0);
        let worst = m.worst_availability().unwrap();
        assert!((worst.ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn goodput_uses_phase_duration() {
        let mut m = two_phases();
        for _ in 0..50 {
            m.record_op(true, true, SimDuration::from_millis(1));
        }
        let p = m.phase("baseline").unwrap();
        assert!((p.goodput_ops_per_s() - 5.0).abs() < 1e-9);
        assert!((p.success_ratio() - 1.0).abs() < 1e-12);
    }
}
