//! The unified metrics registry: named per-layer time series.
//!
//! Unlike a production registry there is no background scraper thread —
//! the campaign event loop *is* the scraper: it registers its series up
//! front, then records one point per series at every fixed-interval
//! scrape event. Series order is registration order and points arrive
//! in time order, so the resulting report sections are deterministic.

use crate::tracer::Layer;
use deepnote_sim::SimTime;

/// What a series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone running total (faults injected, retries, syncs).
    Counter,
    /// Point-in-time level (SPL, queue depth, off-track excursion).
    Gauge,
}

impl MetricKind {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One sampled point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPoint {
    /// Sample instant on the cluster timeline.
    pub at: SimTime,
    /// Sampled value.
    pub value: f64,
}

/// One named series.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Originating layer.
    pub layer: Layer,
    /// Series name (includes the node, e.g. `node0/seek_retries`).
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Points in scrape order.
    pub points: Vec<MetricPoint>,
}

/// Handle returned by [`MetricsRegistry::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// The registry: series are registered once, then recorded into by id.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    series: Vec<MetricSeries>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry { series: Vec::new() }
    }

    /// Registers a series; ids are dense and deterministic.
    pub fn register(
        &mut self,
        layer: Layer,
        name: impl Into<String>,
        kind: MetricKind,
    ) -> MetricId {
        self.series.push(MetricSeries {
            layer,
            name: name.into(),
            kind,
            points: Vec::new(),
        });
        MetricId(self.series.len() - 1)
    }

    /// Appends one point to a series (out-of-range ids are ignored —
    /// the registry is internal and never panics the serving path).
    pub fn record(&mut self, id: MetricId, at: SimTime, value: f64) {
        if let Some(s) = self.series.get_mut(id.0) {
            s.points.push(MetricPoint { at, value });
        }
    }

    /// Consumes the registry into its series, in registration order.
    pub fn into_series(self) -> Vec<MetricSeries> {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_keep_registration_and_time_order() {
        let mut r = MetricsRegistry::new();
        let spl = r.register(Layer::Acoustics, "node0/spl_db", MetricKind::Gauge);
        let retries = r.register(Layer::Hdd, "node0/seek_retries", MetricKind::Counter);
        assert_eq!(r.series.len(), 2);
        r.record(spl, SimTime::from_secs(1), 120.0);
        r.record(retries, SimTime::from_secs(1), 3.0);
        r.record(spl, SimTime::from_secs(2), 131.5);
        let series = r.into_series();
        assert_eq!(series[0].name, "node0/spl_db");
        assert_eq!(series[0].points.len(), 2);
        assert_eq!(series[0].points[1].at, SimTime::from_secs(2));
        assert_eq!(series[1].kind, MetricKind::Counter);
        assert_eq!(series[1].points.len(), 1);
    }

    #[test]
    fn recording_into_a_bogus_id_is_a_no_op() {
        let mut r = MetricsRegistry::new();
        r.record(MetricId(99), SimTime::ZERO, 1.0);
        assert!(r.series.is_empty());
    }
}
