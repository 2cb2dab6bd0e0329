//! Online SLO burn-rate incident detection.
//!
//! The classic SRE formulation: with an availability objective `o`, the
//! error *budget* is `1 − o`, and the burn rate over a trailing window
//! is `error_ratio / (1 − o)` — burn 1 spends the budget exactly on
//! schedule, burn 10 exhausts a 30-day budget in 3 days. Two windows
//! watch the same stream: a **fast** window with a high threshold
//! (pages within seconds of a real outage) and a **slow** window with a
//! low threshold (catches a simmering degradation the fast window's
//! noise gate would forgive). Each window is a raised/cleared state
//! machine; every transition lands in the alert timeline with the burn
//! rate and sample count that justified it.
//!
//! Operations are folded into fixed-width buckets keyed by integer
//! bucket index, so the monitor is O(window/bucket) per tick and — like
//! everything else in this workspace — a pure function of its inputs.

use deepnote_sim::{SimDuration, SimTime};

// 99% availability, 10 s fast window paging at 10× burn, 40 s slow
// window paging at 2× burn — scaled to campaign timelines the way the
// canonical 5 m/1 h/6 h windows scale to a 30-day budget.

/// Availability objective; the error budget is `1 − OBJECTIVE`.
const OBJECTIVE: f64 = 0.99;

/// The fast-burn window (short, high threshold).
const FAST_WINDOW: SimDuration = SimDuration::from_secs(10);

/// Burn rate at or above which the fast window raises.
const FAST_THRESHOLD: f64 = 10.0;

/// The slow-burn window (long, low threshold).
const SLOW_WINDOW: SimDuration = SimDuration::from_secs(40);

/// Burn rate at or above which the slow window raises.
const SLOW_THRESHOLD: f64 = 2.0;

/// Bucket width for the trailing aggregation, in nanoseconds.
const BUCKET_NANOS: u64 = SimDuration::from_secs(1).as_nanos();

/// Minimum operations in a window before it may raise (noise gate).
const MIN_OPS: u64 = 20;

/// One transition of a window's raised/cleared state.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// When the monitor observed the transition.
    pub at: SimTime,
    /// `"fast"` or `"slow"`.
    pub window: &'static str,
    /// `true` for raised, `false` for cleared.
    pub raised: bool,
    /// Burn rate over the window at the transition.
    pub burn_rate: f64,
    /// Error ratio over the window at the transition.
    pub error_ratio: f64,
    /// Operations observed in the window at the transition.
    pub ops: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    index: u64,
    ok: u64,
    err: u64,
}

/// The online monitor; `default()` has no history. Feed every operation
/// outcome through [`record_op`](Self::record_op) and call
/// [`tick`](Self::tick) at a fixed cadence; transitions accumulate in
/// the alert timeline.
#[derive(Debug, Clone, Default)]
pub struct BurnRateMonitor {
    buckets: Vec<Bucket>,
    alerts: Vec<SloAlert>,
    fast_raised: bool,
    slow_raised: bool,
}

impl BurnRateMonitor {
    /// Folds one operation outcome into the trailing buckets.
    pub fn record_op(&mut self, at: SimTime, ok: bool) {
        let index = at.as_nanos() / BUCKET_NANOS;
        // The campaign feeds time-ordered events; scan from the back so
        // the common case is O(1) and stragglers still land correctly.
        let pos = self.buckets.iter().rposition(|b| b.index <= index);
        let bucket = match pos {
            Some(i) if self.buckets[i].index == index => &mut self.buckets[i],
            Some(i) => {
                self.buckets.insert(i + 1, Bucket::default());
                self.buckets[i + 1].index = index;
                &mut self.buckets[i + 1]
            }
            None => {
                self.buckets.insert(0, Bucket::default());
                self.buckets[0].index = index;
                &mut self.buckets[0]
            }
        };
        if ok {
            bucket.ok += 1;
        } else {
            bucket.err += 1;
        }
    }

    fn window_totals(&self, now: SimTime, window: SimDuration) -> (u64, u64) {
        let now_index = now.as_nanos() / BUCKET_NANOS;
        let span = window.as_nanos() / BUCKET_NANOS;
        let floor = now_index.saturating_sub(span - 1);
        self.buckets
            .iter()
            .filter(|b| b.index >= floor && b.index <= now_index)
            .fold((0, 0), |(ok, err), b| (ok + b.ok, err + b.err))
    }

    /// Evaluates both windows at `now`, appending any transitions to
    /// the timeline, and prunes buckets older than the slow window.
    pub fn tick(&mut self, now: SimTime) {
        let fast = Self::evaluate(self.window_totals(now, FAST_WINDOW), FAST_THRESHOLD);
        let slow = Self::evaluate(self.window_totals(now, SLOW_WINDOW), SLOW_THRESHOLD);
        let mut fast_raised = self.fast_raised;
        let mut slow_raised = self.slow_raised;
        Self::transition(&mut self.alerts, now, "fast", &mut fast_raised, fast);
        Self::transition(&mut self.alerts, now, "slow", &mut slow_raised, slow);
        self.fast_raised = fast_raised;
        self.slow_raised = slow_raised;
        // Retention: the slow window plus one bucket of slack.
        let keep = SLOW_WINDOW.as_nanos() / BUCKET_NANOS + 1;
        let floor = (now.as_nanos() / BUCKET_NANOS).saturating_sub(keep);
        self.buckets.retain(|b| b.index >= floor);
    }

    /// `(raise?, burn, error_ratio, ops)` for one window's totals.
    fn evaluate((ok, err): (u64, u64), threshold: f64) -> (bool, f64, f64, u64) {
        let ops = ok + err;
        if ops == 0 {
            return (false, 0.0, 0.0, 0);
        }
        let error_ratio = err as f64 / ops as f64;
        let burn = error_ratio / (1.0 - OBJECTIVE);
        let raise = burn >= threshold && ops >= MIN_OPS;
        (raise, burn, error_ratio, ops)
    }

    fn transition(
        alerts: &mut Vec<SloAlert>,
        now: SimTime,
        window: &'static str,
        raised: &mut bool,
        (raise, burn_rate, error_ratio, ops): (bool, f64, f64, u64),
    ) {
        if raise == *raised {
            return;
        }
        *raised = raise;
        alerts.push(SloAlert {
            at: now,
            window,
            raised: raise,
            burn_rate,
            error_ratio,
            ops,
        });
    }

    /// The transition timeline so far.
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// Consumes the monitor into its timeline.
    pub fn into_alerts(self) -> Vec<SloAlert> {
        self.alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(m: &mut BurnRateMonitor, from_s: u64, to_s: u64, per_s: u64, ok: bool) {
        for s in from_s..to_s {
            for i in 0..per_s {
                m.record_op(SimTime::from_nanos(s * 1_000_000_000 + i * 1_000_000), ok);
            }
        }
    }

    #[test]
    fn healthy_traffic_never_alerts() {
        let mut m = BurnRateMonitor::default();
        feed(&mut m, 0, 60, 20, true);
        for s in (0..60).step_by(5) {
            m.tick(SimTime::from_secs(s));
        }
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn outage_raises_fast_then_clears_after_recovery() {
        let mut m = BurnRateMonitor::default();
        feed(&mut m, 0, 20, 20, true);
        m.tick(SimTime::from_secs(20));
        assert!(m.alerts().is_empty(), "{:?}", m.alerts());
        // Total outage for 20 s.
        feed(&mut m, 20, 40, 20, false);
        m.tick(SimTime::from_secs(30));
        let raised: Vec<_> = m.alerts().iter().filter(|a| a.raised).collect();
        assert!(
            raised.iter().any(|a| a.window == "fast"),
            "{:?}",
            m.alerts()
        );
        assert!(raised.iter().all(|a| a.burn_rate >= 10.0));
        // Recovery: everything succeeds again, both windows drain.
        feed(&mut m, 40, 120, 20, true);
        for s in (40..120).step_by(5) {
            m.tick(SimTime::from_secs(s));
        }
        let last_fast = m.alerts().iter().rfind(|a| a.window == "fast").unwrap();
        assert!(!last_fast.raised, "{:?}", m.alerts());
    }

    #[test]
    fn slow_window_catches_a_simmering_burn_the_fast_window_forgives() {
        let mut m = BurnRateMonitor::default();
        // 5% errors: burn 5 — under the fast threshold (10), over the
        // slow one (2).
        for s in 0..60u64 {
            for i in 0..20u64 {
                let ok = i != 0; // 1 in 20 fails
                m.record_op(SimTime::from_nanos(s * 1_000_000_000 + i * 1_000_000), ok);
            }
            m.tick(SimTime::from_secs(s));
        }
        assert!(m.alerts().iter().any(|a| a.window == "slow" && a.raised));
        assert!(!m.alerts().iter().any(|a| a.window == "fast" && a.raised));
    }

    #[test]
    fn thin_traffic_is_gated_by_min_ops() {
        let mut m = BurnRateMonitor::default();
        // Five failures in ten seconds: a 100% error ratio, but far too
        // few samples to page on.
        for s in 0..5u64 {
            m.record_op(SimTime::from_secs(s), false);
        }
        m.tick(SimTime::from_secs(5));
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn out_of_order_records_still_land() {
        let mut m = BurnRateMonitor::default();
        m.record_op(SimTime::from_secs(5), false);
        m.record_op(SimTime::from_secs(3), false);
        m.record_op(SimTime::from_secs(5), false);
        let (ok, err) = m.window_totals(SimTime::from_secs(5), SimDuration::from_secs(10));
        assert_eq!((ok, err), (0, 3));
    }
}
