//! Seeded, composable chaos injection for block devices.
//!
//! Real drives under acoustic stress misbehave *probabilistically* —
//! bursts of medium errors while the head is off-track, the occasional
//! flipped bit, a write that only partially lands, a seek that puts data
//! on the wrong track, service times stretched by retries.
//! [`ChaosInjector`] wraps any [`BlockDevice`] and draws those faults
//! from a forked [`SimRng`], so a chaos campaign is exactly as
//! reproducible as everything else in the workspace: same seed, same
//! faults, same trace. It is also the one injector for *scripted*
//! failures: [`ChaosPlan::fail_all`] and [`ChaosPlan::fail_writes`] fail
//! every request (or every write) deterministically, and
//! [`ChaosInjector::set_plan`] switches plans mid-run.
//!
//! Fault taxonomy (one injected fault per request, checked in this
//! precedence order; each kind's traced `fault` name in italics):
//!
//! 1. **Error bursts** ([`ErrorBurst`]) — the request fails with the
//!    burst's [`IoError`]; once entered, a burst persists for a seeded
//!    number of requests (mean [`ErrorBurst::mean_burst`]). *burst_error*,
//!    or *burst_drop* for [`IoError::NoResponse`].
//! 2. **Latency inflation** ([`DelayPlan`]) — the device clock is
//!    advanced by `extra` before serving; combines with faults below.
//!    *delay*.
//! 3. **Misdirected write** — the payload lands at a nearby wrong LBA
//!    and the request reports success. *misdirected_write*.
//! 4. **Torn write** — only a prefix of the blocks is written; success
//!    is reported. *torn_write*.
//! 5. **Bit flips** — per-block probability of one flipped bit, on the
//!    read path (transient: the medium is fine, the transfer lied) or
//!    the write path (persistent: wrong bits hit the platter).
//!    *read_flip*, *write_flip*.
//!
//! All probabilities can be scaled by the wrapped drive's current
//! vibration level ([`ChaosPlan::vibration_boost`]), tying fault rates
//! to the acoustic attack the way the paper observes.

use crate::device::{BlockDevice, BLOCK_SIZE};
use crate::error::IoError;
use deepnote_hdd::VibrationInput;
use deepnote_sim::{Clock, SimDuration, SimRng, SimTime};
use deepnote_telemetry::{Layer, Tracer, Value};
use serde::{Deserialize, Serialize};

/// Which requests a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultScope {
    /// Reads, writes, and flushes.
    All,
    /// Read requests only.
    Reads,
    /// Write requests (and flushes) only.
    Writes,
}

impl FaultScope {
    fn covers(self, is_write: bool) -> bool {
        match self {
            FaultScope::All => true,
            FaultScope::Reads => !is_write,
            FaultScope::Writes => is_write,
        }
    }
}

/// A probabilistic burst of request failures.
///
/// Each request outside a burst enters one with probability
/// `enter_per_request` (vibration-scaled); a burst then fails every
/// in-scope request for a seeded length drawn uniformly from
/// `[1, 2 * mean_burst - 1]`. Out-of-scope requests still age the burst
/// (it is device state, not per-request luck).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorBurst {
    /// Probability of entering a burst, per request.
    pub enter_per_request: f64,
    /// Mean burst length in requests (min 1).
    pub mean_burst: u64,
    /// The error returned while the burst lasts.
    pub error: IoError,
    /// Which requests the burst fails.
    pub scope: FaultScope,
}

/// Probabilistic service-time inflation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayPlan {
    /// Probability of inflating one request.
    pub per_request: f64,
    /// Extra time charged to the device clock.
    pub extra: SimDuration,
}

/// The composable chaos recipe for one device.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Transient error bursts, checked in order (first in-scope burst
    /// active on a request decides its error).
    pub bursts: Vec<ErrorBurst>,
    /// Latency inflation.
    pub delay: Option<DelayPlan>,
    /// Per-block probability of a transient bit flip on the read path.
    pub read_flip_per_block: f64,
    /// Per-block probability of a persistent bit flip on the write path.
    pub write_flip_per_block: f64,
    /// Per-request probability a write lands only partially.
    pub torn_write_per_request: f64,
    /// Per-request probability a write lands at a nearby wrong LBA.
    pub misdirect_per_request: f64,
    /// Probability multiplier per g of vibration acceleration: the
    /// effective probability is `p * (1 + vibration_boost * accel_g)`,
    /// clamped to `[0, 1]`. Zero decouples chaos from the attack.
    pub vibration_boost: f64,
}

impl ChaosPlan {
    /// The do-nothing plan (all probabilities zero).
    pub fn quiet() -> Self {
        ChaosPlan::default()
    }

    /// Fails every request — reads, writes, and flushes — with `error`.
    pub fn fail_all(error: IoError) -> Self {
        Self::fail_every(error, FaultScope::All)
    }

    /// Fails every write (and flush) with `error`; reads pass.
    pub fn fail_writes(error: IoError) -> Self {
        Self::fail_every(error, FaultScope::Writes)
    }

    /// One burst entered on every request and lasting one request, so
    /// every in-scope request fails whatever the seed.
    fn fail_every(error: IoError, scope: FaultScope) -> Self {
        ChaosPlan {
            bursts: vec![ErrorBurst {
                enter_per_request: 1.0,
                mean_burst: 1,
                error,
                scope,
            }],
            ..ChaosPlan::quiet()
        }
    }

    /// Whether this plan can ever inject anything.
    pub fn is_quiet(&self) -> bool {
        self.bursts.is_empty()
            && self.delay.is_none()
            && self.read_flip_per_block <= 0.0
            && self.write_flip_per_block <= 0.0
            && self.torn_write_per_request <= 0.0
            && self.misdirect_per_request <= 0.0
    }
}

/// Per-kind injection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChaosStats {
    /// Requests failed by a medium-error burst.
    pub burst_errors: u64,
    /// Requests failed by a no-response burst.
    pub burst_drops: u64,
    /// Requests with inflated service time.
    pub delays: u64,
    /// Total extra service time injected.
    pub delay_total: SimDuration,
    /// Blocks returned with a flipped bit on read.
    pub read_flips: u64,
    /// Blocks written with a flipped bit.
    pub write_flips: u64,
    /// Writes that landed only partially.
    pub torn_writes: u64,
    /// Writes that landed at the wrong LBA.
    pub misdirected_writes: u64,
}

impl ChaosStats {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.burst_errors
            + self.burst_drops
            + self.delays
            + self.read_flips
            + self.write_flips
            + self.torn_writes
            + self.misdirected_writes
    }

    /// Folds another device's counters into this one (used when a node
    /// retires a drive but the campaign report must keep its history).
    pub fn merge(&mut self, other: &ChaosStats) {
        self.burst_errors += other.burst_errors;
        self.burst_drops += other.burst_drops;
        self.delays += other.delays;
        self.delay_total += other.delay_total;
        self.read_flips += other.read_flips;
        self.write_flips += other.write_flips;
        self.torn_writes += other.torn_writes;
        self.misdirected_writes += other.misdirected_writes;
    }
}

/// A [`BlockDevice`] wrapper injecting seeded probabilistic faults.
///
/// # Example
///
/// ```
/// use deepnote_blockdev::{
///     BlockDevice, ChaosInjector, ChaosPlan, ErrorBurst, FaultScope, IoError, MemDisk,
/// };
/// use deepnote_sim::SimRng;
///
/// let plan = ChaosPlan {
///     bursts: vec![ErrorBurst {
///         enter_per_request: 1.0, // always in a burst: every request fails
///         mean_burst: 4,
///         error: IoError::NoResponse,
///         scope: FaultScope::All,
///     }],
///     ..ChaosPlan::quiet()
/// };
/// let mut dev = ChaosInjector::new(MemDisk::new(64), plan, SimRng::seeded(7));
/// let buf = vec![0u8; 512];
/// assert!(dev.write_blocks(0, &buf).is_err());
/// assert!(dev.stats().burst_drops >= 1);
/// ```
#[derive(Debug)]
pub struct ChaosInjector<D> {
    inner: D,
    plan: ChaosPlan,
    rng: SimRng,
    clock: Option<Clock>,
    vibration: Option<VibrationInput>,
    burst_left: Vec<u64>,
    requests: u64,
    stats: ChaosStats,
    tracer: Tracer,
}

impl<D: BlockDevice> ChaosInjector<D> {
    /// Wraps `inner` with `plan`, drawing faults from `rng`.
    pub fn new(inner: D, plan: ChaosPlan, rng: SimRng) -> Self {
        let bursts = plan.bursts.len();
        ChaosInjector {
            inner,
            plan,
            rng,
            clock: None,
            vibration: None,
            burst_left: vec![0; bursts],
            requests: 0,
            stats: ChaosStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// A copy of this injector around `inner` (usually a replica of this
    /// injector's device), drawing from `rng`. Plan, burst state, request
    /// count and counters carry over, so the `request` index of traced
    /// faults continues where this injector's left off. Clock and
    /// vibration are shared handles and are not copied: attach the
    /// replica's own with
    /// [`ChaosInjector::with_clock`] and
    /// [`ChaosInjector::with_vibration`]. The tracer starts disabled.
    pub fn replica(&self, inner: D, rng: SimRng) -> Self {
        ChaosInjector {
            inner,
            plan: self.plan.clone(),
            rng,
            clock: None,
            vibration: None,
            burst_left: self.burst_left.clone(),
            requests: self.requests,
            stats: self.stats,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches the clock latency inflation charges time to.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attaches the vibration input that scales fault probabilities
    /// (usually the wrapped drive's own input).
    pub fn with_vibration(mut self, vibration: VibrationInput) -> Self {
        self.vibration = Some(vibration);
        self
    }

    /// Replaces the plan mid-run; active bursts are cancelled.
    pub fn set_plan(&mut self, plan: ChaosPlan) {
        self.burst_left = vec![0; plan.bursts.len()];
        self.plan = plan;
    }

    /// Injection counters so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Total injected faults (all kinds).
    pub fn injected(&self) -> u64 {
        self.stats.total()
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The wrapped device, mutably.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// The vibration-scaled effective probability for base rate `p`.
    fn scaled(&self, p: f64) -> f64 {
        if self.plan.vibration_boost <= 0.0 {
            return p;
        }
        let g = self
            .vibration
            .as_ref()
            .and_then(|v| v.current())
            .map(|s| s.acceleration_g())
            .unwrap_or(0.0);
        (p * (1.0 + self.plan.vibration_boost * g)).min(1.0)
    }

    /// Attaches a tracer; every injected fault becomes a blockdev-layer
    /// `chaos_fault` instant (fault, LBA, request index) on the tracer's
    /// track, timestamped by the attached clock (the same clock latency
    /// inflation charges), so fault injection and its mechanical
    /// consequences line up on one timeline.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Traces one injected fault of kind `fault` at `lba`.
    fn record(&self, fault: &'static str, lba: u64) {
        if self.tracer.is_enabled() {
            let at = self.clock.as_ref().map(Clock::now).unwrap_or(SimTime::ZERO);
            self.tracer.instant(
                Layer::Blockdev,
                "chaos_fault",
                at,
                vec![
                    ("fault", Value::Str(fault)),
                    ("lba", Value::U64(lba)),
                    ("request", Value::U64(self.requests)),
                ],
            );
        }
    }

    /// Advances burst state for one request and returns the error of
    /// the first in-scope active burst, if any. RNG consumption is
    /// identical for every request (one entry draw per idle burst), so
    /// the fault sequence is a pure function of the seed and the
    /// request sequence.
    fn burst_fault(&mut self, is_write: bool, lba: u64) -> Option<IoError> {
        let mut fault = None;
        for i in 0..self.plan.bursts.len() {
            let b = self.plan.bursts[i];
            if self.burst_left[i] == 0 {
                let p = self.scaled(b.enter_per_request);
                if self.rng.chance(p) {
                    let mean = b.mean_burst.max(1);
                    self.burst_left[i] = 1 + self.rng.below(2 * mean - 1);
                }
            }
            if self.burst_left[i] > 0 {
                self.burst_left[i] -= 1;
                if fault.is_none() && b.scope.covers(is_write) {
                    fault = Some((i, b.error));
                }
            }
        }
        fault.map(|(i, error)| {
            let drop = matches!(self.plan.bursts[i].error, IoError::NoResponse);
            if drop {
                self.stats.burst_drops += 1;
                self.record("burst_drop", lba);
            } else {
                self.stats.burst_errors += 1;
                self.record("burst_error", lba);
            }
            error
        })
    }

    /// Applies latency inflation for one request.
    fn maybe_delay(&mut self, lba: u64) {
        let Some(d) = self.plan.delay else {
            return;
        };
        let p = self.scaled(d.per_request);
        if !self.rng.chance(p) {
            return;
        }
        if let Some(clock) = &self.clock {
            clock.advance(d.extra);
        }
        self.stats.delays += 1;
        self.stats.delay_total += d.extra;
        self.record("delay", lba);
    }

    /// The draws every read and write makes first: a burst fault (the
    /// request's error), then a delay. The request is counted either way.
    fn admit(&mut self, is_write: bool, lba: u64) -> Result<(), IoError> {
        let fault = self.burst_fault(is_write, lba);
        self.maybe_delay(lba);
        self.requests += 1;
        fault.map_or(Ok(()), Err)
    }

    /// Flips one seeded bit inside the `block`-th 512-byte block of
    /// `buf`.
    fn flip_bit(rng: &mut SimRng, buf: &mut [u8], block: usize) {
        let base = block * BLOCK_SIZE;
        let bit = rng.below((BLOCK_SIZE * 8) as u64) as usize;
        if let Some(byte) = buf.get_mut(base + bit / 8) {
            *byte ^= 1 << (bit % 8);
        }
    }
}

impl<D: BlockDevice> BlockDevice for ChaosInjector<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), IoError> {
        self.admit(false, lba)?;
        self.inner.read_blocks(lba, buf)?;
        let p = self.plan.read_flip_per_block;
        if p > 0.0 {
            let p = self.scaled(p);
            for block in 0..buf.len() / BLOCK_SIZE {
                if self.rng.chance(p) {
                    Self::flip_bit(&mut self.rng, buf, block);
                    self.stats.read_flips += 1;
                    self.record("read_flip", lba + block as u64);
                }
            }
        }
        Ok(())
    }

    fn write_blocks(&mut self, lba: u64, buf: &[u8]) -> Result<(), IoError> {
        self.admit(true, lba)?;
        let blocks = (buf.len() / BLOCK_SIZE) as u64;
        // Misdirect: the whole payload lands at a nearby wrong LBA and
        // the request lies about it.
        if self
            .rng
            .chance(self.scaled(self.plan.misdirect_per_request))
        {
            let shift = 1 + self.rng.below(8);
            let back = self.rng.chance(0.5);
            let capacity = self.inner.num_blocks();
            let target = if back {
                lba.saturating_sub(shift)
            } else {
                lba + shift
            };
            let target = target.min(capacity.saturating_sub(blocks));
            self.stats.misdirected_writes += 1;
            self.record("misdirected_write", target);
            return self.inner.write_blocks(target, buf);
        }
        // Torn: only a prefix of the blocks is written (possibly none),
        // and the request reports success.
        if self
            .rng
            .chance(self.scaled(self.plan.torn_write_per_request))
        {
            let keep = if blocks > 1 {
                1 + self.rng.below(blocks - 1)
            } else {
                0
            };
            self.stats.torn_writes += 1;
            self.record("torn_write", lba);
            if keep == 0 {
                return Ok(());
            }
            return self
                .inner
                .write_blocks(lba, &buf[..keep as usize * BLOCK_SIZE]);
        }
        // Persistent flips: corrupt the payload before it hits the
        // medium.
        let p = self.plan.write_flip_per_block;
        if p > 0.0 {
            let p = self.scaled(p);
            let mut corrupted: Option<Vec<u8>> = None;
            for block in 0..blocks as usize {
                if self.rng.chance(p) {
                    let data = corrupted.get_or_insert_with(|| buf.to_vec());
                    Self::flip_bit(&mut self.rng, data, block);
                    self.stats.write_flips += 1;
                    self.record("write_flip", lba + block as u64);
                }
            }
            if let Some(data) = corrupted {
                return self.inner.write_blocks(lba, &data);
            }
        }
        self.inner.write_blocks(lba, buf)
    }

    fn flush(&mut self) -> Result<(), IoError> {
        let fault = self.burst_fault(true, 0);
        self.requests += 1;
        if let Some(e) = fault {
            return Err(e);
        }
        self.inner.flush()
    }

    fn discard(&mut self, lba: u64, blocks: u64) {
        // Not a request: no fault draw, no count, no trace entry.
        self.inner.discard(lba, blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EIO;
    use crate::mem::MemDisk;

    fn medium_burst(p: f64, mean: u64, scope: FaultScope) -> ErrorBurst {
        ErrorBurst {
            enter_per_request: p,
            mean_burst: mean,
            error: IoError::Medium { errno: EIO },
            scope,
        }
    }

    fn dev(plan: ChaosPlan, seed: u64) -> ChaosInjector<MemDisk> {
        ChaosInjector::new(MemDisk::new(64), plan, SimRng::seeded(seed))
    }

    /// Attaches an unbounded ring tracer to `d` and returns its handle.
    fn traced(d: &mut ChaosInjector<MemDisk>) -> Tracer {
        let tracer = Tracer::ring(usize::MAX);
        d.set_tracer(tracer.clone());
        tracer
    }

    /// Reads the medium directly, bypassing chaos.
    fn raw(d: &mut ChaosInjector<MemDisk>, lba: u64) -> Vec<u8> {
        let mut out = vec![0u8; 512];
        d.inner_mut().read_blocks(lba, &mut out).unwrap();
        out
    }

    #[test]
    fn quiet_plan_is_a_passthrough() {
        let mut d = dev(ChaosPlan::quiet(), 1);
        let buf = vec![0xCD; 512];
        d.write_blocks(3, &buf).unwrap();
        let mut out = vec![0u8; 512];
        d.read_blocks(3, &mut out).unwrap();
        assert_eq!(out, buf);
        assert_eq!(d.injected(), 0);
    }

    #[test]
    fn passthrough_when_no_plan() {
        // A quiet plan forwards every request to the medium unchanged.
        let mut d = dev(ChaosPlan::quiet(), 0);
        let buf = vec![3u8; 512];
        d.write_blocks(2, &buf).unwrap();
        assert_eq!(raw(&mut d, 2), buf);
        let mut out = vec![0u8; 512];
        d.read_blocks(2, &mut out).unwrap();
        assert_eq!(out, buf);
        assert_eq!(d.stats().total(), 0);
        assert_eq!(d.inner.writes(), 1);
    }

    #[test]
    fn discards_leave_the_fault_stream_unchanged() {
        // The campaign's `full` device plan, with its torn and misdirect
        // rates raised so every fault kind fires in a short run.
        let plan = ChaosPlan {
            bursts: vec![medium_burst(0.004, 12, FaultScope::Reads)],
            delay: Some(DelayPlan {
                per_request: 0.03,
                extra: SimDuration::from_millis(400),
            }),
            torn_write_per_request: 0.02,
            misdirect_per_request: 0.01,
            vibration_boost: 1.0,
            ..ChaosPlan::quiet()
        };
        let run = |discard: bool| {
            let clock = Clock::new();
            let mut d = ChaosInjector::new(MemDisk::new(64), plan.clone(), SimRng::seeded(13))
                .with_clock(clock.clone());
            let tracer = traced(&mut d);
            let buf = vec![0xEE; 512 * 2];
            let mut out = vec![0u8; 512 * 2];
            for i in 0..2_000u64 {
                let lba = i % 32;
                let _ = d.write_blocks(lba, &buf);
                if discard {
                    d.discard((lba + 7) % 32, 3);
                }
                let _ = d.read_blocks(lba, &mut out);
            }
            let medium = (d.inner().reads(), d.inner().writes());
            (d.stats(), tracer.take(), clock.now(), medium)
        };
        let with = run(true);
        let stats = with.0;
        assert!(
            stats.burst_errors > 0
                && stats.delays > 0
                && stats.torn_writes > 0
                && stats.misdirected_writes > 0,
            "{stats:?}"
        );
        assert_eq!(with, run(false));
    }

    #[test]
    fn bursts_fail_consecutive_requests() {
        let plan = ChaosPlan {
            bursts: vec![medium_burst(0.05, 10, FaultScope::All)],
            ..ChaosPlan::quiet()
        };
        let mut d = dev(plan, 42);
        let buf = vec![0u8; 512];
        let outcomes: Vec<bool> = (0..400).map(|_| d.write_blocks(0, &buf).is_ok()).collect();
        let failures = outcomes.iter().filter(|ok| !**ok).count() as u64;
        assert_eq!(failures, d.stats().burst_errors);
        assert!(failures > 0, "no burst entered in 400 requests at p=0.05");
        // Burstiness: at least one run of >= 3 consecutive failures.
        let longest = outcomes
            .split(|&ok| ok)
            .map(<[bool]>::len)
            .max()
            .unwrap_or(0);
        assert!(longest >= 3, "longest failure run {longest}");
    }

    #[test]
    fn read_scoped_bursts_spare_writes() {
        let plan = ChaosPlan {
            bursts: vec![medium_burst(1.0, 1_000, FaultScope::Reads)],
            ..ChaosPlan::quiet()
        };
        let mut d = dev(plan, 7);
        let buf = vec![0u8; 512];
        let mut out = vec![0u8; 512];
        assert!(d.write_blocks(0, &buf).is_ok());
        assert!(d.read_blocks(0, &mut out).is_err());
        assert!(d.flush().is_ok()); // flush counts as a write
    }

    #[test]
    fn fail_writes_only() {
        let mut d = dev(ChaosPlan::fail_writes(IoError::Medium { errno: EIO }), 0);
        let buf = vec![0u8; 512];
        let mut out = vec![0u8; 512];
        assert!(d.write_blocks(0, &buf).is_err());
        assert!(d.read_blocks(0, &mut out).is_ok());
    }

    #[test]
    fn plan_can_change_mid_run() {
        let mut d = dev(ChaosPlan::quiet(), 0);
        let buf = vec![0u8; 512];
        assert!(d.write_blocks(0, &buf).is_ok());
        d.set_plan(ChaosPlan::fail_all(IoError::NoResponse));
        assert!(d.write_blocks(0, &buf).is_err());
        assert_eq!(d.inner.writes(), 1);
    }

    #[test]
    fn read_flips_corrupt_the_buffer_not_the_medium() {
        let plan = ChaosPlan {
            read_flip_per_block: 1.0,
            ..ChaosPlan::quiet()
        };
        let mut d = dev(plan, 9);
        let buf = vec![0xAA; 512];
        d.write_blocks(5, &buf).unwrap();
        let mut out = vec![0u8; 512];
        d.read_blocks(5, &mut out).unwrap();
        assert_ne!(out, buf, "read flip did not corrupt the transfer");
        assert_eq!(d.stats().read_flips, 1);
        // The medium still holds the clean data.
        assert_eq!(raw(&mut d, 5), buf);
    }

    #[test]
    fn write_flips_are_persistent() {
        let plan = ChaosPlan {
            write_flip_per_block: 1.0,
            ..ChaosPlan::quiet()
        };
        let mut d = dev(plan, 9);
        let buf = vec![0x55; 512];
        d.write_blocks(2, &buf).unwrap();
        assert_eq!(d.stats().write_flips, 1);
        assert_ne!(raw(&mut d, 2), buf, "flip never hit the medium");
    }

    #[test]
    fn torn_writes_keep_only_a_prefix() {
        let plan = ChaosPlan {
            torn_write_per_request: 1.0,
            ..ChaosPlan::quiet()
        };
        let mut d = dev(plan, 3);
        let clean = vec![0x11; 512 * 4];
        assert!(d.write_blocks(0, &clean).is_ok(), "torn writes report ok");
        assert_eq!(d.stats().torn_writes, 1);
        // The tail blocks never landed.
        let torn = raw(&mut d, 3);
        assert_eq!(torn, vec![0u8; 512]);
    }

    #[test]
    fn misdirected_writes_land_elsewhere() {
        let plan = ChaosPlan {
            misdirect_per_request: 1.0,
            ..ChaosPlan::quiet()
        };
        let mut d = dev(plan, 11);
        let buf = vec![0x77; 512];
        assert!(d.write_blocks(30, &buf).is_ok());
        assert_eq!(d.stats().misdirected_writes, 1);
        assert_eq!(raw(&mut d, 30), vec![0u8; 512]);
        let landed = (0..64).filter(|&l| raw(&mut d, l) == buf).count();
        assert_eq!(landed, 1, "payload landed {landed} times");
    }

    #[test]
    fn delay_advances_the_attached_clock() {
        let clock = Clock::new();
        let plan = ChaosPlan {
            delay: Some(DelayPlan {
                per_request: 1.0,
                extra: SimDuration::from_millis(80),
            }),
            ..ChaosPlan::quiet()
        };
        let mut d =
            ChaosInjector::new(MemDisk::new(16), plan, SimRng::seeded(1)).with_clock(clock.clone());
        let buf = vec![0u8; 512];
        d.write_blocks(0, &buf).unwrap();
        assert_eq!(clock.now().as_millis_f64(), 80.0);
        assert_eq!(d.stats().delays, 1);
        assert_eq!(d.stats().delay_total, SimDuration::from_millis(80));
    }

    #[test]
    fn same_seed_same_fault_trace() {
        let plan = ChaosPlan {
            bursts: vec![medium_burst(0.03, 6, FaultScope::All)],
            read_flip_per_block: 0.01,
            write_flip_per_block: 0.01,
            torn_write_per_request: 0.01,
            misdirect_per_request: 0.01,
            ..ChaosPlan::quiet()
        };
        let run = |seed: u64| {
            let mut d = dev(plan.clone(), seed);
            let tracer = traced(&mut d);
            let buf = vec![0xEE; 512 * 2];
            let mut out = vec![0u8; 512 * 2];
            for i in 0..300u64 {
                let _ = d.write_blocks(i % 32, &buf);
                let _ = d.read_blocks(i % 32, &mut out);
            }
            (d.stats(), tracer.take())
        };
        assert_eq!(run(5), run(5));
        let (a, log) = run(5);
        // One traced instant per counted fault, nothing dropped.
        assert_eq!(log.events.len() as u64, a.total());
        assert_eq!(log.dropped, 0);
        let (b, _) = run(6);
        assert!(a.total() > 0);
        assert_ne!((a, 0), (b, 0), "different seeds produced identical chaos");
    }

    #[test]
    fn vibration_boost_raises_fault_rates() {
        use deepnote_acoustics::Frequency;
        use deepnote_hdd::VibrationState;
        let count_failures = |vibrate: bool| {
            let plan = ChaosPlan {
                bursts: vec![medium_burst(0.002, 3, FaultScope::All)],
                vibration_boost: 2.0,
                ..ChaosPlan::quiet()
            };
            let vib = VibrationInput::quiescent();
            if vibrate {
                vib.set(Some(VibrationState::new(Frequency::from_hz(650.0), 5.0)));
            }
            let mut d =
                ChaosInjector::new(MemDisk::new(16), plan, SimRng::seeded(77)).with_vibration(vib);
            let buf = vec![0u8; 512];
            (0..2_000)
                .filter(|_| d.write_blocks(0, &buf).is_err())
                .count()
        };
        let quiet = count_failures(false);
        let shaking = count_failures(true);
        assert!(
            shaking > quiet * 3,
            "vibration did not raise fault rate: quiet {quiet}, shaking {shaking}"
        );
    }
}
