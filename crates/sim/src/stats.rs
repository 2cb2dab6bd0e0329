//! Online statistics: running moments and latency histograms.
//!
//! These are the measurement instruments the benchmark harnesses use to
//! produce the numbers in the paper's tables: mean and percentile
//! latency.

use serde::{Deserialize, Serialize};

/// Running count/mean/min/max.
///
/// # Example
///
/// ```
/// use deepnote_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN (statistics would silently poison).
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN sample");
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// A log-bucketed histogram for latencies in microseconds, 1 µs to 1000 s.
///
/// Buckets grow geometrically from 1 µs with 20 buckets per factor of
/// ten, giving bounded relative quantile error across many orders of
/// magnitude — the same trick HdrHistogram and fio use.
///
/// # Example
///
/// ```
/// use deepnote_sim::Histogram;
///
/// let mut h = Histogram::new_latency();
/// for us in [100.0, 200.0, 300.0, 10_000.0] {
///     h.record(us);
/// }
/// let p50 = h.percentile(50.0).unwrap();
/// assert!(p50 >= 100.0 && p50 <= 400.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
    stats: OnlineStats,
}

impl Histogram {
    /// The smallest bucketed value (1 µs); the top bucket starts at
    /// `MIN_VALUE * 10^DECADES` (1000 s).
    const MIN_VALUE: f64 = 1.0;
    /// Factors of ten covered above `MIN_VALUE`.
    const DECADES: usize = 9;
    /// Buckets per factor of ten (~12 % relative quantile error).
    const BUCKETS_PER_DECADE: usize = 20;

    /// An empty histogram.
    pub fn new_latency() -> Self {
        Histogram {
            counts: vec![0; Self::DECADES * Self::BUCKETS_PER_DECADE + 1],
            underflow: 0,
            total: 0,
            stats: OnlineStats::new(),
        }
    }

    fn bucket_of(&self, x: f64) -> Option<usize> {
        if x < Self::MIN_VALUE {
            return None;
        }
        let pos = (x / Self::MIN_VALUE).log10() * Self::BUCKETS_PER_DECADE as f64;
        Some((pos as usize).min(self.counts.len() - 1))
    }

    /// Records one sample. Values below `MIN_VALUE` (1 µs) are counted
    /// in an underflow bin and treated as `MIN_VALUE` for
    /// quantiles; values above the top are clamped into the last bucket.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or negative.
    pub fn record(&mut self, x: f64) {
        assert!(
            x.is_finite() && x >= 0.0,
            "histogram sample must be finite and >= 0"
        );
        self.total += 1;
        self.stats.record(x);
        match self.bucket_of(x) {
            Some(b) => self.counts[b] += 1,
            None => self.underflow += 1,
        }
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sample mean (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Exact minimum and maximum of recorded samples.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        Some((self.stats.min()?, self.stats.max()?))
    }

    /// The `p`-th percentile (`0 <= p <= 100`) from bucket boundaries.
    ///
    /// Returns `None` if the histogram is empty or `p` is NaN or
    /// outside `[0, 100]`. `p = 0` returns the exact minimum sample;
    /// higher ranks return the upper edge of the bucket holding the
    /// rank (so `p = 100` brackets the exact maximum from above).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if !(0.0..=100.0).contains(&p) {
            return None;
        }
        if self.total == 0 {
            return None;
        }
        if p <= 0.0 {
            return self.min_max().map(|(min, _)| min);
        }
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let mut seen = self.underflow;
        if seen >= rank {
            return Some(Self::MIN_VALUE);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket i.
                let edge = Self::MIN_VALUE
                    * 10f64.powf((i as f64 + 1.0) / Self::BUCKETS_PER_DECADE as f64);
                return Some(edge);
            }
        }
        self.min_max().map(|(_, max)| max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn online_stats_rejects_nan() {
        OnlineStats::new().record(f64::NAN);
    }

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let mut h = Histogram::new_latency();
        for i in 1..=1000u32 {
            h.record(i as f64);
        }
        let p50 = h.percentile(50.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        // Relative bucket error at 20 buckets/decade is ~12%.
        assert!((450.0..650.0).contains(&p50), "p50={p50}");
        assert!((900.0..1300.0).contains(&p99), "p99={p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn histogram_underflow_and_clamp() {
        let mut h = Histogram::new_latency(); // buckets [1 µs, 1000 s)
        h.record(0.5); // underflow
        h.record(1e12); // clamped into the top bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(25.0), Some(Histogram::MIN_VALUE));
        assert!(h.percentile(100.0).unwrap() >= 1e9);
    }

    #[test]
    fn histogram_empty_has_no_percentile() {
        let h = Histogram::new_latency();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(100.0), None);
    }

    #[test]
    fn histogram_percentile_rejects_out_of_range_gracefully() {
        let mut h = Histogram::new_latency();
        h.record(42.0);
        assert_eq!(h.percentile(-1.0), None);
        assert_eq!(h.percentile(100.1), None);
        assert_eq!(h.percentile(f64::NAN), None);
    }

    #[test]
    fn histogram_percentile_zero_is_the_exact_minimum() {
        let mut h = Histogram::new_latency();
        h.record(17.0);
        h.record(400.0);
        h.record(9000.0);
        assert_eq!(h.percentile(0.0), Some(17.0));
    }

    #[test]
    fn histogram_single_sample_percentiles_bracket_it() {
        let mut h = Histogram::new_latency();
        h.record(250.0);
        assert_eq!(h.percentile(0.0), Some(250.0));
        // Every positive rank lands in the one occupied bucket; its
        // upper edge brackets the sample within one bucket's error.
        for p in [1.0, 50.0, 99.0, 100.0] {
            let v = h.percentile(p).unwrap();
            assert!((250.0..300.0).contains(&v), "p{p}={v}");
        }
    }
}
