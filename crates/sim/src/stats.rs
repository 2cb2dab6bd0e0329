//! Online statistics: running moments and latency histograms.
//!
//! These are the measurement instruments the benchmark harnesses use to
//! produce the numbers in the paper's tables: mean and percentile
//! latency.

use serde::{Deserialize, Serialize};

/// Running count/mean/variance/min/max via Welford's algorithm.
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
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
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
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
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

    /// Population variance, or 0 if fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
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

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A log-bucketed histogram for positive values (latencies, sizes).
///
/// Buckets grow geometrically from `min_value` with `buckets_per_decade`
/// buckets per factor of ten, giving bounded relative quantile error across
/// many orders of magnitude — the same trick HdrHistogram and fio use.
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
    min_value: f64,
    buckets_per_decade: usize,
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
    stats: OnlineStats,
}

impl Histogram {
    /// Creates a histogram covering `[min_value, min_value * 10^decades)`.
    ///
    /// # Panics
    ///
    /// Panics if `min_value <= 0`, `decades == 0`, or
    /// `buckets_per_decade == 0`.
    pub fn new(min_value: f64, decades: usize, buckets_per_decade: usize) -> Self {
        assert!(min_value > 0.0, "min_value must be positive");
        assert!(decades > 0 && buckets_per_decade > 0);
        Histogram {
            min_value,
            buckets_per_decade,
            counts: vec![0; decades * buckets_per_decade + 1],
            underflow: 0,
            total: 0,
            stats: OnlineStats::new(),
        }
    }

    /// A histogram suitable for latencies in microseconds: 1 µs to 1000 s.
    pub fn new_latency() -> Self {
        Self::new(1.0, 9, 20)
    }

    fn bucket_of(&self, x: f64) -> Option<usize> {
        if x < self.min_value {
            return None;
        }
        let pos = (x / self.min_value).log10() * self.buckets_per_decade as f64;
        Some((pos as usize).min(self.counts.len() - 1))
    }

    /// Records one sample. Values below `min_value` are counted in an
    /// underflow bin and treated as `min_value` for quantiles; values above
    /// the top are clamped into the last bucket.
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
            return Some(self.min_value);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket i.
                let edge =
                    self.min_value * 10f64.powf((i as f64 + 1.0) / self.buckets_per_decade as f64);
                return Some(edge);
            }
        }
        self.min_max().map(|(_, max)| max)
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if geometries differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.min_value, other.min_value,
            "histogram geometry mismatch"
        );
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram geometry mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.total += other.total;
        self.stats.merge(&other.stats);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new_latency()
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
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * i % 37) as f64).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..33] {
            a.record(x);
        }
        for &x in &xs[33..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
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
        let mut h = Histogram::new(1.0, 2, 10); // covers [1, 100)
        h.record(0.5); // underflow
        h.record(1e9); // clamped into top bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(25.0), Some(1.0));
        assert!(h.percentile(100.0).unwrap() >= 100.0);
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

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Histogram::new_latency();
        let mut b = Histogram::new_latency();
        a.record(10.0);
        b.record(1000.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_max(), Some((10.0, 1000.0)));
    }
}
