//! The resilient client path: deadlines, retries, hedges, breakers.
//!
//! The raw quorum coordinator ([`crate::cluster::Cluster::execute`])
//! gives one shot per operation; under transient fault bursts that
//! wastes successes that were one retry away. [`ResilientClient`] wraps
//! the same coordinator with the standard production defenses:
//!
//! * a per-request **deadline budget** the whole attempt chain must fit
//!   in;
//! * deterministic **exponential backoff** with seeded jitter between
//!   retries ([`backoff_delay`]);
//! * **hedged reads** — once enough read latencies are observed, a slow
//!   read is raced by a second request after a p99-derived delay;
//! * per-node **circuit breakers** ([`CircuitBreaker`]) that stop
//!   dispatching to replicas that keep failing and feed their verdicts
//!   to the cluster's [`crate::health::HealthMonitor`] through
//!   [`crate::cluster::Cluster::report_breaker_trip`].
//!
//! Everything is drawn from a forked [`SimRng`], so a campaign with a
//! resilient client is exactly as reproducible as one without.

use crate::cluster::Cluster;
use crate::metrics::ResilienceStats;
use deepnote_sim::{Histogram, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Consecutive failures that trip a breaker open.
const FAILURE_THRESHOLD: u32 = 4;

/// How long an open breaker refuses dispatches.
const OPEN_FOR: SimDuration = SimDuration::from_secs(2);

/// Successes required in half-open before a breaker closes again.
const HALF_OPEN_TRIALS: u32 = 2;

/// Total per-request budget: attempts, backoffs, and hedges must all
/// fit inside it.
const DEADLINE: SimDuration = SimDuration::from_secs(2);

/// Retries after the first attempt.
const MAX_RETRIES: u32 = 3;

/// First backoff delay; doubles per retry.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(20);

/// Backoff ceiling.
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(200);

/// Jitter fraction: each backoff delay is scaled by a seeded factor
/// drawn from `[1 - JITTER, 1]`.
const JITTER: f64 = 0.5;

/// Observed read latencies needed before hedging activates.
const HEDGE_AFTER_SAMPLES: u64 = 64;

/// Floor for the p99-derived hedge delay.
const HEDGE_MIN: SimDuration = SimDuration::from_millis(10);

/// A circuit breaker's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Dispatching normally, counting consecutive failures.
    Closed {
        /// Consecutive failures so far.
        failures: u32,
    },
    /// Refusing dispatches until the cooldown expires.
    Open {
        /// When the breaker transitions to half-open.
        until: SimTime,
    },
    /// Probing with real traffic, counting consecutive successes.
    HalfOpen {
        /// Consecutive successes so far.
        oks: u32,
    },
}

/// The classic closed → open → half-open state machine, per node.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    trips: u64,
}

impl Default for CircuitBreaker {
    /// A closed breaker.
    fn default() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed { failures: 0 },
            trips: 0,
        }
    }
}

impl CircuitBreaker {
    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times this breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether a dispatch to this node is allowed at `now`. An open
    /// breaker whose cooldown has expired moves to half-open and lets
    /// the request through as a trial.
    pub fn allows(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Open { until } if now >= until => {
                self.state = BreakerState::HalfOpen { oks: 0 };
                true
            }
            BreakerState::Open { .. } => false,
            _ => true,
        }
    }

    /// Records one dispatch outcome at `now`; returns whether this
    /// outcome tripped the breaker open.
    pub fn record(&mut self, ok: bool, now: SimTime) -> bool {
        match (&mut self.state, ok) {
            (BreakerState::Closed { failures }, true) => {
                *failures = 0;
                false
            }
            (BreakerState::Closed { failures }, false) => {
                *failures += 1;
                if *failures >= FAILURE_THRESHOLD {
                    self.trip(now);
                    true
                } else {
                    false
                }
            }
            (BreakerState::HalfOpen { oks }, true) => {
                *oks += 1;
                if *oks >= HALF_OPEN_TRIALS {
                    self.state = BreakerState::Closed { failures: 0 };
                }
                false
            }
            (BreakerState::HalfOpen { .. }, false) => {
                // The trial failed: straight back to open.
                self.trip(now);
                true
            }
            (BreakerState::Open { .. }, _) => false,
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open {
            until: now + OPEN_FOR,
        };
        self.trips += 1;
    }
}

/// Selects the resilient client path for a campaign. The policy itself
/// (deadline, retries, backoff, hedging, breakers) is fixed: the
/// constants at the top of this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientPolicy;

impl ClientPolicy {
    /// The standard production-shaped policy.
    pub fn standard() -> Self {
        ClientPolicy
    }
}

/// The seeded backoff delay before retry number `attempt` (1-based):
/// exponential from `BACKOFF_BASE`, capped at `BACKOFF_CAP`, scaled
/// by a jitter factor drawn from `[1 - JITTER, 1]`.
pub fn backoff_delay(attempt: u32, rng: &mut SimRng) -> SimDuration {
    let exp = BACKOFF_BASE.mul_f64(f64::from(1u32 << (attempt - 1).min(20)));
    exp.min(BACKOFF_CAP).mul_f64(1.0 - JITTER * rng.unit_f64())
}

/// What the resilient path reports for one client operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// Whether any attempt (or hedge) reached quorum in time.
    pub ok: bool,
    /// Latency from first dispatch to final completion.
    pub latency: SimDuration,
    /// Value served (reads).
    pub value: Option<Vec<u8>>,
    /// Retries issued beyond the first attempt.
    pub retries: u32,
}

/// The resilient driver: one per campaign, fronting every client.
#[derive(Debug)]
pub struct ResilientClient {
    breakers: Vec<CircuitBreaker>,
    read_latency_us: Histogram,
    rng: SimRng,
    stats: ResilienceStats,
}

impl ResilientClient {
    /// A driver for a cluster of `nodes` nodes.
    pub fn new(nodes: usize, rng: SimRng) -> Self {
        ResilientClient {
            breakers: vec![CircuitBreaker::default(); nodes],
            read_latency_us: Histogram::new_latency(),
            rng,
            stats: ResilienceStats::default(),
        }
    }

    /// Resilience counters so far.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// The hedge delay once enough read latencies are banked: the
    /// observed p99, floored at `HEDGE_MIN`.
    fn hedge_delay(&self) -> Option<SimDuration> {
        if self.read_latency_us.count() < HEDGE_AFTER_SAMPLES {
            return None;
        }
        let p99_us = self.read_latency_us.percentile(99.0)?;
        let delay = SimDuration::from_millis_f64(p99_us / 1_000.0);
        Some(delay.max(HEDGE_MIN))
    }

    /// The deny mask breakers impose at `t` (`None` when nothing is
    /// denied).
    fn denied_mask(&mut self, t: SimTime) -> Option<Vec<bool>> {
        let mask: Vec<bool> = self.breakers.iter_mut().map(|b| !b.allows(t)).collect();
        let denied = mask.iter().filter(|&&d| d).count() as u64;
        if denied == 0 {
            return None;
        }
        self.stats.breaker_denied += denied;
        Some(mask)
    }

    /// Feeds one quorum outcome's per-replica replies to the breakers,
    /// reporting fresh trips to the cluster's health monitor.
    fn feed_breakers(
        &mut self,
        cluster: &mut Cluster,
        outcome: &crate::replication::QuorumOutcome,
    ) {
        for r in &outcome.replies {
            if self.breakers[r.node].record(r.ok, r.done) {
                self.stats.breaker_trips += 1;
                cluster.report_breaker_trip(r.node, r.done);
            }
        }
    }

    /// Executes one client operation with the full resilience stack.
    pub fn execute(
        &mut self,
        cluster: &mut Cluster,
        is_read: bool,
        key: &[u8],
        value: &[u8],
        at: SimTime,
    ) -> ClientOutcome {
        self.stats.ops += 1;
        let deadline = at + DEADLINE;
        let mut attempt: u32 = 0;
        let mut t = at;
        let mut failed_once = false;
        loop {
            self.stats.attempts += 1;
            let denied = self.denied_mask(t);
            let primary = cluster.execute_masked(is_read, key, value, t, denied.as_deref());
            self.feed_breakers(cluster, &primary);
            let mut ok = primary.ok;
            let mut done = t + primary.latency;
            let mut served = primary.value;
            // Hedge: if the primary ran longer than the p99-derived
            // delay, a second request would have been issued at
            // t + delay — race it and keep the earlier success.
            if is_read {
                if let Some(delay) = self.hedge_delay() {
                    if primary.latency > delay && t + delay < deadline {
                        self.stats.hedges += 1;
                        let hedge_at = t + delay;
                        let hedge = cluster.execute_masked(
                            is_read,
                            key,
                            value,
                            hedge_at,
                            denied.as_deref(),
                        );
                        self.feed_breakers(cluster, &hedge);
                        let hedge_done = hedge_at + hedge.latency;
                        if hedge.ok && (!ok || hedge_done < done) {
                            self.stats.hedges_won += 1;
                            done = if ok { done.min(hedge_done) } else { hedge_done };
                            served = hedge.value;
                            ok = true;
                        }
                    }
                }
            }
            if ok {
                if is_read {
                    let us = done.saturating_duration_since(t).as_nanos() as f64 / 1_000.0;
                    self.read_latency_us.record(us);
                }
                if failed_once {
                    self.stats.recovered_by_retry += 1;
                }
                return ClientOutcome {
                    ok: true,
                    latency: done.saturating_duration_since(at),
                    value: served,
                    retries: attempt,
                };
            }
            failed_once = true;
            attempt += 1;
            if attempt > MAX_RETRIES {
                return self.give_up(at, done, attempt - 1);
            }
            let next = done + backoff_delay(attempt, &mut self.rng);
            if next >= deadline {
                self.stats.deadline_exhausted += 1;
                return self.give_up(at, done, attempt - 1);
            }
            self.stats.retries += 1;
            t = next;
        }
    }

    fn give_up(&mut self, at: SimTime, done: SimTime, retries: u32) -> ClientOutcome {
        ClientOutcome {
            ok: false,
            latency: done.saturating_duration_since(at),
            value: None,
            retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_jitter_stays_in_band_and_is_seeded() {
        let mut rng = SimRng::seeded(9);
        // Doubling from 20 ms; attempt 5's 320 ms is capped at 200 ms.
        for (attempt, ms) in (1..=5).zip([20, 40, 80, 160, 200]) {
            let exp = SimDuration::from_millis(ms);
            let d = backoff_delay(attempt, &mut rng);
            assert!(d <= exp, "attempt {attempt}: {d:?} above nominal {exp:?}");
            assert!(
                d >= exp.mul_f64(0.5),
                "attempt {attempt}: {d:?} below jitter floor"
            );
        }
        // Same seed, same schedule.
        let a: Vec<_> = {
            let mut r = SimRng::seeded(77);
            (1..=4).map(|i| backoff_delay(i, &mut r)).collect()
        };
        let b: Vec<_> = {
            let mut r = SimRng::seeded(77);
            (1..=4).map(|i| backoff_delay(i, &mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn breaker_trips_after_threshold_and_cools_down() {
        let mut b = CircuitBreaker::default();
        let t = SimTime::from_secs(10);
        assert!(b.allows(t));
        for _ in 0..3 {
            assert!(!b.record(false, t));
        }
        assert!(b.record(false, t), "fourth failure must trip");
        assert_eq!(b.trips(), 1);
        // Open: refuses until the 2 s cooldown expires.
        assert!(!b.allows(t + SimDuration::from_millis(1_500)));
        // Cooldown over: half-open lets a trial through.
        let t2 = t + SimDuration::from_secs(2);
        assert!(b.allows(t2));
        assert_eq!(b.state(), BreakerState::HalfOpen { oks: 0 });
        // Two successes close it.
        assert!(!b.record(true, t2));
        assert!(!b.record(true, t2));
        assert_eq!(b.state(), BreakerState::Closed { failures: 0 });
    }

    #[test]
    fn half_open_failure_reopens_immediately() {
        let mut b = CircuitBreaker::default();
        let t = SimTime::from_secs(5);
        for _ in 0..3 {
            b.record(false, t);
        }
        assert!(b.record(false, t));
        let t2 = t + SimDuration::from_secs(2);
        assert!(b.allows(t2));
        assert!(b.record(false, t2), "half-open failure must re-trip");
        assert_eq!(b.trips(), 2);
        assert!(!b.allows(t2 + SimDuration::from_millis(10)));
    }

    #[test]
    fn closed_breaker_success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::default();
        let t = SimTime::ZERO;
        for _ in 0..3 {
            b.record(false, t);
        }
        b.record(true, t);
        for _ in 0..3 {
            assert!(!b.record(false, t), "streak should have reset");
        }
    }
}
