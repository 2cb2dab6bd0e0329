//! Deterministic cross-layer observability for the deepnote stack.
//!
//! The paper's causal chain — received SPL → head off-track → throughput
//! collapse → filesystem/application failure — spans five layers of this
//! workspace. This crate makes the whole chain visible on one timeline
//! without giving up the property everything else here is built on:
//! **a campaign is a pure function of its seed**. Every timestamp is a
//! [`deepnote_sim::SimTime`]; there are no wall clocks, no global state,
//! and the disabled tracer is a no-op handle a hot path can carry for
//! free.
//!
//! Three pieces:
//!
//! * [`tracer`] — span/instant events with per-layer filtering, a
//!   bounded ring buffer, and per-track time-offset mapping so events
//!   emitted on a node's *private* virtual clock land on the cluster's
//!   shared timeline.
//! * [`chrome`] — Chrome trace-event JSON export; the file loads in
//!   Perfetto (`ui.perfetto.dev`) and shows tone arrivals,
//!   servo excursions, device retries, quorum decisions, failovers, and
//!   scrubber repairs side by side.
//! * [`metrics`] + [`slo`] — a registry of named per-layer time series
//!   scraped at fixed intervals, and an online multi-window SLO
//!   burn-rate monitor (fast/slow burn, à la SRE) that produces the
//!   alert timeline the paper's victims lacked.
//!
//! [`json`] is the one JSON writer every artifact goes through and the
//! one reader beside it; [`schema`] uses that reader in the CI job (and
//! the `deepnote trace-check` subcommand) to validate emitted traces and
//! reports without any external dependency.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod schema;
pub mod slo;
pub mod tracer;

pub use chrome::export as export_chrome_trace;
pub use metrics::{MetricId, MetricKind, MetricPoint, MetricSeries, MetricsRegistry};
pub use slo::{BurnRateMonitor, SloAlert};
pub use tracer::{EventKind, Layer, TraceEvent, TraceLog, Tracer, Value, CONTROL_TRACK};
