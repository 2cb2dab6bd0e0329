//! Time-series and sweep-series recording.
//!
//! A [`TimeSeries`] stores `(x, y)` points — either virtual time vs. a
//! metric, or an independent sweep variable (frequency, distance) vs. a
//! metric — and offers the small set of queries the experiment harnesses
//! need: the sample nearest an `x`, and contiguous regions below a
//! threshold (e.g. "the frequency band where throughput is zero").

use serde::{Deserialize, Serialize};

/// An ordered series of `(x, y)` samples.
///
/// `x` is whatever the experiment sweeps (seconds, Hz, cm); `y` is the
/// measured metric. Points must be appended in non-decreasing `x` order.
///
/// # Example
///
/// ```
/// use deepnote_sim::TimeSeries;
///
/// let mut s = TimeSeries::new("throughput", "Hz", "MB/s");
/// s.push(100.0, 22.7);
/// s.push(650.0, 0.0);
/// s.push(2000.0, 22.5);
/// let dead = s.regions_below(1.0);
/// assert_eq!(dead, vec![(650.0, 650.0)]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    x_unit: String,
    y_unit: String,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with descriptive labels.
    pub fn new(
        name: impl Into<String>,
        x_unit: impl Into<String>,
        y_unit: impl Into<String>,
    ) -> Self {
        TimeSeries {
            name: name.into(),
            x_unit: x_unit.into(),
            y_unit: y_unit.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `x` is less than the previous point's `x`, or if either
    /// coordinate is NaN.
    pub fn push(&mut self, x: f64, y: f64) {
        assert!(!x.is_nan() && !y.is_nan(), "series point must not be NaN");
        if let Some(&(last_x, _)) = self.points.last() {
            assert!(
                x >= last_x,
                "series x must be non-decreasing ({x} after {last_x})"
            );
        }
        self.points.push((x, y));
    }

    /// The recorded points in order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// `y` at the sample closest to `x`, or `None` if empty.
    pub fn nearest_y(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| (a.0 - x).abs().total_cmp(&(b.0 - x).abs()))
            .map(|p| p.1)
    }

    /// Maximal contiguous `x` regions where `y < threshold`, returned as
    /// `(first_x, last_x)` pairs of the *samples* inside the region.
    pub fn regions_below(&self, threshold: f64) -> Vec<(f64, f64)> {
        let mut regions = Vec::new();
        let mut current: Option<(f64, f64)> = None;
        for &(x, y) in &self.points {
            if y < threshold {
                current = Some(match current {
                    Some((start, _)) => (start, x),
                    None => (x, x),
                });
            } else if let Some(region) = current.take() {
                regions.push(region);
            }
        }
        if let Some(region) = current {
            regions.push(region);
        }
        regions
    }

    /// The widest region below `threshold`, by `x` span.
    pub fn widest_region_below(&self, threshold: f64) -> Option<(f64, f64)> {
        self.regions_below(threshold)
            .into_iter()
            .max_by(|a, b| (a.1 - a.0).total_cmp(&(b.1 - b.0)))
    }

    /// Renders the series as simple tab-separated text (header + rows),
    /// convenient for dumping into plots.
    pub fn to_tsv(&self) -> String {
        let mut out = format!("# {} ({} vs {})\n", self.name, self.y_unit, self.x_unit);
        for &(x, y) in &self.points {
            out.push_str(&format!("{x}\t{y}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> TimeSeries {
        let mut s = TimeSeries::new("tp", "Hz", "MB/s");
        for (x, y) in [
            (100.0, 20.0),
            (300.0, 0.5),
            (650.0, 0.0),
            (1000.0, 0.2),
            (2000.0, 19.0),
            (4000.0, 20.0),
        ] {
            s.push(x, y);
        }
        s
    }

    #[test]
    fn nearest_lookup() {
        let s = sample_series();
        assert_eq!(s.nearest_y(640.0), Some(0.0));
        assert_eq!(s.nearest_y(90.0), Some(20.0));
        assert_eq!(TimeSeries::new("e", "x", "y").nearest_y(1.0), None);
    }

    #[test]
    fn regions_below_finds_dead_band() {
        let s = sample_series();
        let regions = s.regions_below(1.0);
        assert_eq!(regions, vec![(300.0, 1000.0)]);
        assert_eq!(s.widest_region_below(1.0), Some((300.0, 1000.0)));
    }

    #[test]
    fn regions_below_handles_trailing_region() {
        let mut s = TimeSeries::new("t", "x", "y");
        s.push(1.0, 0.0);
        s.push(2.0, 5.0);
        s.push(3.0, 0.0);
        s.push(4.0, 0.0);
        assert_eq!(s.regions_below(1.0), vec![(1.0, 1.0), (3.0, 4.0)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn push_rejects_unordered_x() {
        let mut s = TimeSeries::new("t", "x", "y");
        s.push(2.0, 0.0);
        s.push(1.0, 0.0);
    }

    #[test]
    fn tsv_contains_points() {
        let s = sample_series();
        let tsv = s.to_tsv();
        assert!(tsv.contains("650\t0\n"));
        assert!(tsv.starts_with("# tp"));
    }
}
