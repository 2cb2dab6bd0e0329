//! Campaign results, their human-readable rendering, and a dependency-
//! free JSON serialization for machine consumers (CI artifacts).

use crate::integrity::{IntegrityStats, ScrubStats};
use crate::metrics::{ClusterMetrics, OpClassMetrics, ResilienceStats};
use crate::node::NodeCounters;
use crate::placement::PlacementPolicy;
use crate::replication::RepairStats;
use deepnote_blockdev::ChaosStats;
use deepnote_telemetry::json::JsonWriter;
use deepnote_telemetry::{MetricSeries, SloAlert, TraceLog};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The incident-detection headline: which replica degraded first and
/// how much warning the burn-rate alerts gave before quorum loss.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EarlyWarning {
    /// First node the health monitor marked down: `(node, seconds)`.
    pub first_node_down: Option<(usize, f64)>,
    /// When the first burn-rate alert raised, in campaign seconds.
    pub first_alert_s: Option<f64>,
    /// First availability sample that found shards below write quorum.
    pub quorum_loss_s: Option<f64>,
}

impl EarlyWarning {
    /// Seconds of warning the alerts gave before quorum loss; negative
    /// when the alert only raised after shards were already lost.
    pub fn lead_time_s(&self) -> Option<f64> {
        match (self.first_alert_s, self.quorum_loss_s) {
            (Some(alert), Some(loss)) => Some(loss - alert),
            _ => None,
        }
    }
}

/// One invariant a report's numbers break: see
/// [`CampaignReport::violations`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant, as written in the field doc it restates.
    pub check: &'static str,
    /// Where it broke, and the numbers that break it.
    pub detail: String,
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Run label (usually the placement policy).
    pub label: String,
    /// Placement policy the cluster ran under.
    pub placement: PlacementPolicy,
    /// Root RNG seed.
    pub seed: u64,
    /// Per-phase service metrics and the availability series.
    pub metrics: ClusterMetrics,
    /// Re-replication totals.
    pub repair: RepairStats,
    /// Lifecycle counters per node, in node-id order.
    pub node_counters: Vec<NodeCounters>,
    /// Shard failovers executed.
    pub failovers: u64,
    /// Shards still below write quorum when the campaign ended.
    pub final_unavailable_shards: usize,
    /// Control-plane event log.
    pub events: Vec<String>,
    /// Resilient-client counters, when the campaign ran one.
    pub resilience: Option<ResilienceStats>,
    /// End-to-end integrity outcomes (checksum detections, read repairs,
    /// oracle verdicts).
    pub integrity: IntegrityStats,
    /// Background scrubber totals.
    pub scrub: ScrubStats,
    /// Per-device fault-injection counters, in node-id order.
    pub chaos: Vec<ChaosStats>,
    /// Faults injected by each node's current drive, in node-id order
    /// (a blank swap starts a new count).
    pub drive_faults: Vec<u64>,
    /// Repair jobs still queued when the campaign ended.
    pub pending_repairs: usize,
    /// SLO burn-rate alert transitions, in time order.
    pub alerts: Vec<SloAlert>,
    /// Scraped metric series (empty unless the campaign configured a
    /// metrics interval).
    pub series: Vec<MetricSeries>,
    /// Who degraded first, and the alert lead time before quorum loss.
    pub early_warning: EarlyWarning,
    /// Raw cross-layer trace when tracing was enabled. Exported
    /// separately (Chrome trace-event JSON); deliberately excluded from
    /// [`render`](Self::render) and [`to_json`](Self::to_json) so that
    /// enabling tracing never changes either output.
    pub trace: Option<TraceLog>,
}

impl CampaignReport {
    /// Total engine crashes across the cluster.
    pub fn total_crashes(&self) -> u64 {
        self.node_counters.iter().map(|c| c.crashes).sum()
    }

    /// Total successful restarts across the cluster.
    pub fn total_restarts(&self) -> u64 {
        self.node_counters.iter().map(|c| c.restarts).sum()
    }

    /// The worst concurrently-unavailable shard count across all phases.
    pub fn worst_unavailable_shards(&self) -> usize {
        self.metrics
            .phases
            .iter()
            .map(|p| p.max_unavailable)
            .max()
            .unwrap_or(0)
    }

    /// Device fault-injection counters summed across all nodes.
    pub fn total_chaos(&self) -> ChaosStats {
        let mut sum = ChaosStats::default();
        for s in &self.chaos {
            sum.merge(s);
        }
        sum
    }

    /// Total device faults injected across the cluster.
    pub fn total_injected_faults(&self) -> u64 {
        self.total_chaos().total()
    }

    /// Every invariant the report's own numbers break, each with the
    /// numbers involved; empty for a consistent report. Each check
    /// restates a field doc:
    /// - per phase and op class, `slo_ok <= ok <= attempted`
    ///   ([`OpClassMetrics::record`]);
    /// - every availability ratio is in [0, 1] (a window's successes
    ///   over its attempts);
    /// - `recovered_by_retry <= retries` and `hedges_won <= hedges`
    ///   ([`ResilienceStats`]: only a retried operation recovers, only a
    ///   hedge issued wins);
    /// - `oracle_wrong <= oracle_checked` ([`IntegrityStats`]);
    /// - `corrupt_found + missing_found <= replicas_read` ([`ScrubStats`]:
    ///   each finding is one replica read);
    /// - per node, `restarts <= crashes` ([`NodeCounters`]: only a
    ///   crashed engine is restarted).
    pub fn violations(&self) -> Vec<Violation> {
        let mut found = Vec::new();
        let mut check = |holds: bool, check: &'static str, detail: String| {
            if !holds {
                found.push(Violation { check, detail });
            }
        };
        for p in &self.metrics.phases {
            for (class, m) in [("reads", &p.reads), ("writes", &p.writes)] {
                check(
                    m.slo_ok <= m.ok && m.ok <= m.attempted,
                    "slo_ok <= ok <= attempted",
                    format!(
                        "phase {} {class}: slo_ok {}, ok {}, attempted {}",
                        p.label, m.slo_ok, m.ok, m.attempted
                    ),
                );
            }
        }
        for s in &self.metrics.availability {
            check(
                (0.0..=1.0).contains(&s.ratio),
                "availability ratio in [0, 1]",
                format!("window ending at {} s: ratio {}", s.at_s, s.ratio),
            );
        }
        if let Some(r) = &self.resilience {
            check(
                r.recovered_by_retry <= r.retries,
                "recovered_by_retry <= retries",
                format!(
                    "recovered_by_retry {}, retries {}",
                    r.recovered_by_retry, r.retries
                ),
            );
            check(
                r.hedges_won <= r.hedges,
                "hedges_won <= hedges",
                format!("hedges_won {}, hedges {}", r.hedges_won, r.hedges),
            );
        }
        let i = &self.integrity;
        check(
            i.oracle_wrong <= i.oracle_checked,
            "oracle_wrong <= oracle_checked",
            format!(
                "oracle_wrong {}, oracle_checked {}",
                i.oracle_wrong, i.oracle_checked
            ),
        );
        let s = &self.scrub;
        check(
            s.corrupt_found + s.missing_found <= s.replicas_read,
            "corrupt_found + missing_found <= replicas_read",
            format!(
                "corrupt_found {}, missing_found {}, replicas_read {}",
                s.corrupt_found, s.missing_found, s.replicas_read
            ),
        );
        for (n, c) in self.node_counters.iter().enumerate() {
            check(
                c.restarts <= c.crashes,
                "restarts <= crashes",
                format!("node {n}: restarts {}, crashes {}", c.restarts, c.crashes),
            );
        }
        found
    }

    /// Renders the full report as fixed-width text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== campaign: {} (placement {}, seed {:#x}) ===",
            self.label,
            self.placement.label(),
            self.seed
        );
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>10} {:>7} {:>7} {:>9} {:>9} {:>9} {:>7}",
            "phase", "ops", "goodput/s", "ok%", "slo%", "r_p50ms", "r_p99ms", "w_p99ms", "unavail"
        );
        for p in &self.metrics.phases {
            let ops = p.reads.attempted + p.writes.attempted;
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>10.1} {:>6.1}% {:>6.1}% {:>9} {:>9} {:>9} {:>7}",
                p.label,
                ops,
                p.goodput_ops_per_s(),
                p.success_ratio() * 100.0,
                (p.reads.slo_ok + p.writes.slo_ok) as f64 / ops.max(1) as f64 * 100.0,
                fmt_ms(p.reads.percentile_ms(50.0)),
                fmt_ms(p.reads.percentile_ms(99.0)),
                fmt_ms(p.writes.percentile_ms(99.0)),
                p.max_unavailable,
            );
        }
        if let Some(worst) = self.metrics.worst_availability() {
            let _ = writeln!(
                out,
                "worst availability window: {:.1}% at t={:.0}s ({} ops)",
                worst.ratio * 100.0,
                worst.at_s,
                worst.attempted
            );
        }
        let _ = writeln!(
            out,
            "nodes: {} crashes, {} restarts; {} failovers; repairs: {} jobs, {} keys, {} bytes, {} copy failures",
            self.total_crashes(),
            self.total_restarts(),
            self.failovers,
            self.repair.jobs_done,
            self.repair.keys_copied,
            self.repair.bytes_copied,
            self.repair.copy_failures
        );
        let chaos = self.total_chaos();
        if chaos.total() > 0 {
            let _ = writeln!(
                out,
                "chaos: {} device faults injected ({} burst errors, {} drops, {} delays, {} read flips, {} write flips, {} torn, {} misdirected)",
                chaos.total(),
                chaos.burst_errors,
                chaos.burst_drops,
                chaos.delays,
                chaos.read_flips,
                chaos.write_flips,
                chaos.torn_writes,
                chaos.misdirected_writes
            );
        }
        let (cw, cr) = self.node_counters.iter().fold((0u64, 0u64), |(w, r), c| {
            (w + c.corrupted_writes, r + c.corrupted_reads)
        });
        if cw + cr > 0 {
            let _ = writeln!(
                out,
                "data-path corruption injected: {cw} durable write flips, {cr} transient read flips"
            );
        }
        let ig = &self.integrity;
        if ig.corrupt_acks + ig.read_repairs + ig.unserveable_reads + ig.oracle_checked > 0 {
            let _ = writeln!(
                out,
                "integrity: {} corrupt acks rejected, {} read repairs ({} failed), {} unserveable reads; oracle: {} checked, {} wrong",
                ig.corrupt_acks,
                ig.read_repairs,
                ig.read_repair_failures,
                ig.unserveable_reads,
                ig.oracle_checked,
                ig.oracle_wrong
            );
        }
        if self.scrub.keys_scanned > 0 {
            let _ = writeln!(
                out,
                "scrub: {} keys scanned over {} passes, {} replicas read ({} bytes), {} corrupt + {} missing found, {} repairs enqueued",
                self.scrub.keys_scanned,
                self.scrub.passes,
                self.scrub.replicas_read,
                self.scrub.bytes_read,
                self.scrub.corrupt_found,
                self.scrub.missing_found,
                self.scrub.repairs_enqueued
            );
        }
        if let Some(rs) = &self.resilience {
            let _ = writeln!(
                out,
                "client: {} ops in {} attempts, {} retries ({} recovered), {} hedges ({} won), {} breaker trips ({} dispatches denied), {} deadline-exhausted",
                rs.ops,
                rs.attempts,
                rs.retries,
                rs.recovered_by_retry,
                rs.hedges,
                rs.hedges_won,
                rs.breaker_trips,
                rs.breaker_denied,
                rs.deadline_exhausted
            );
        }
        if self.pending_repairs > 0 {
            let _ = writeln!(out, "repair jobs still pending: {}", self.pending_repairs);
        }
        let _ = writeln!(
            out,
            "shards below write quorum at campaign end: {}",
            self.final_unavailable_shards
        );
        if !self.series.is_empty() {
            let points: usize = self.series.iter().map(|s| s.points.len()).sum();
            let _ = writeln!(
                out,
                "metrics: {} series scraped, {points} points",
                self.series.len()
            );
        }
        if !self.alerts.is_empty() {
            let _ = writeln!(out, "--- slo burn-rate alerts ---");
            for a in &self.alerts {
                let _ = writeln!(
                    out,
                    "t={:7.1}s  {} {} (burn {:.1}x, errors {:.1}%, {} ops)",
                    a.at.as_secs_f64(),
                    a.window,
                    if a.raised { "RAISED" } else { "cleared" },
                    a.burn_rate,
                    a.error_ratio * 100.0,
                    a.ops
                );
            }
        }
        let ew = &self.early_warning;
        if let Some((node, at_s)) = ew.first_node_down {
            let _ = writeln!(
                out,
                "early warning: node {node} degraded first at t={at_s:.1}s"
            );
        }
        if let (Some(alert), Some(loss)) = (ew.first_alert_s, ew.quorum_loss_s) {
            let lead = loss - alert;
            if lead >= 0.0 {
                let _ = writeln!(
                    out,
                    "early warning: alert at t={alert:.1}s, quorum loss at t={loss:.1}s ({lead:.1}s of warning)"
                );
            } else {
                let _ = writeln!(
                    out,
                    "early warning: quorum loss at t={loss:.1}s preceded the first alert at t={alert:.1}s ({:.1}s late)",
                    -lead
                );
            }
        }
        if !self.events.is_empty() {
            let _ = writeln!(out, "--- control-plane events ---");
            for e in &self.events {
                let _ = writeln!(out, "{e}");
            }
        }
        out
    }

    /// Serializes the report as a JSON object with a stable key order,
    /// written through the telemetry crate's [`JsonWriter`] so machine
    /// consumers (CI artifacts, plotting scripts) need no extra
    /// dependencies on our side. Identical campaigns produce
    /// byte-identical JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_obj();
        w.key("label").str(&self.label);
        w.key("placement").str(self.placement.label());
        w.key("seed").u64(self.seed);
        w.key("phases").begin_arr();
        for p in &self.metrics.phases {
            w.begin_obj().key("label").str(&p.label);
            w.key("goodput_ops_per_s").f64(p.goodput_ops_per_s());
            w.key("success_ratio").f64(p.success_ratio());
            w.key("max_unavailable").u64(p.max_unavailable as u64);
            op_class_json(w.key("reads"), &p.reads);
            op_class_json(w.key("writes"), &p.writes);
            w.end_obj();
        }
        w.end_arr().key("availability").begin_arr();
        for s in &self.metrics.availability {
            w.begin_obj()
                .key("at_s")
                .f64(s.at_s)
                .key("ratio")
                .f64(s.ratio);
            w.key("attempted").u64(s.attempted).end_obj();
        }
        w.end_arr().key("nodes").begin_arr();
        for c in &self.node_counters {
            w.begin_obj();
            w.key("crashes").u64(c.crashes);
            w.key("restarts").u64(c.restarts);
            w.key("failed_restarts").u64(c.failed_restarts);
            w.key("injected_faults").u64(c.injected_faults);
            w.key("corrupted_writes").u64(c.corrupted_writes);
            w.key("corrupted_reads").u64(c.corrupted_reads);
            w.end_obj();
        }
        w.end_arr().key("chaos").begin_arr();
        for s in &self.chaos {
            let delay_ms = s.delay_total.as_nanos() as f64 / 1_000_000.0;
            w.begin_obj();
            w.key("burst_errors").u64(s.burst_errors);
            w.key("burst_drops").u64(s.burst_drops);
            w.key("delays").u64(s.delays);
            w.key("delay_total_ms").f64(delay_ms);
            w.key("read_flips").u64(s.read_flips);
            w.key("write_flips").u64(s.write_flips);
            w.key("torn_writes").u64(s.torn_writes);
            w.key("misdirected_writes").u64(s.misdirected_writes);
            w.end_obj();
        }
        // Readers of this field expect a per-device fault-log length of
        // at most 256 entries, one per fault; the faults themselves are
        // in the trace.
        w.end_arr().key("fault_trace_lengths").begin_arr();
        for &n in &self.drive_faults {
            w.u64(n.min(256));
        }
        w.end_arr().key("repair").begin_obj();
        w.key("jobs_done").u64(self.repair.jobs_done);
        w.key("keys_copied").u64(self.repair.keys_copied);
        w.key("bytes_copied").u64(self.repair.bytes_copied);
        w.key("copy_failures").u64(self.repair.copy_failures);
        w.end_obj();
        w.key("pending_repairs").u64(self.pending_repairs as u64);
        w.key("failovers").u64(self.failovers);
        w.key("final_unavailable_shards")
            .u64(self.final_unavailable_shards as u64);
        w.key("worst_unavailable_shards")
            .u64(self.worst_unavailable_shards() as u64);
        let ig = &self.integrity;
        w.key("integrity").begin_obj();
        w.key("corrupt_acks").u64(ig.corrupt_acks);
        w.key("read_repairs").u64(ig.read_repairs);
        w.key("read_repair_failures").u64(ig.read_repair_failures);
        w.key("unserveable_reads").u64(ig.unserveable_reads);
        w.key("oracle_checked").u64(ig.oracle_checked);
        w.key("oracle_wrong").u64(ig.oracle_wrong);
        w.end_obj();
        let sc = &self.scrub;
        w.key("scrub").begin_obj();
        w.key("keys_scanned").u64(sc.keys_scanned);
        w.key("replicas_read").u64(sc.replicas_read);
        w.key("bytes_read").u64(sc.bytes_read);
        w.key("corrupt_found").u64(sc.corrupt_found);
        w.key("missing_found").u64(sc.missing_found);
        w.key("repairs_enqueued").u64(sc.repairs_enqueued);
        w.key("passes").u64(sc.passes);
        w.end_obj();
        w.key("resilience");
        match &self.resilience {
            Some(rs) => {
                w.begin_obj();
                w.key("ops").u64(rs.ops);
                w.key("attempts").u64(rs.attempts);
                w.key("retries").u64(rs.retries);
                w.key("recovered_by_retry").u64(rs.recovered_by_retry);
                w.key("hedges").u64(rs.hedges);
                w.key("hedges_won").u64(rs.hedges_won);
                w.key("breaker_trips").u64(rs.breaker_trips);
                w.key("breaker_denied").u64(rs.breaker_denied);
                w.key("deadline_exhausted").u64(rs.deadline_exhausted);
                w.end_obj();
            }
            None => {
                w.null();
            }
        }
        w.key("alerts").begin_arr();
        for a in &self.alerts {
            w.begin_obj().key("at_s").f64(a.at.as_secs_f64());
            w.key("window").str(a.window).key("raised").bool(a.raised);
            w.key("burn_rate").f64(a.burn_rate);
            w.key("error_ratio").f64(a.error_ratio);
            w.key("ops").u64(a.ops).end_obj();
        }
        w.end_arr().key("series").begin_arr();
        for s in &self.series {
            w.begin_obj().key("layer").str(s.layer.name());
            w.key("name").str(&s.name).key("kind").str(s.kind.name());
            w.key("points").begin_arr();
            for p in &s.points {
                w.begin_obj().key("at_s").f64(p.at.as_secs_f64());
                w.key("value").f64(p.value).end_obj();
            }
            w.end_arr().end_obj();
        }
        let ew = &self.early_warning;
        w.end_arr().key("early_warning").begin_obj();
        w.key("first_node_down");
        match ew.first_node_down {
            Some((node, at_s)) => {
                w.begin_obj().key("node").u64(node as u64);
                w.key("at_s").f64(at_s).end_obj();
            }
            None => {
                w.null();
            }
        }
        w.key("first_alert_s").opt_f64(ew.first_alert_s);
        w.key("quorum_loss_s").opt_f64(ew.quorum_loss_s);
        w.key("lead_time_s").opt_f64(ew.lead_time_s());
        w.end_obj().key("events").begin_arr();
        for e in &self.events {
            w.str(e);
        }
        w.end_arr().end_obj();
        w.finish()
    }
}

/// One op class as a JSON object (percentiles may be `null`).
fn op_class_json(w: &mut JsonWriter, c: &OpClassMetrics) {
    w.begin_obj();
    w.key("attempted").u64(c.attempted);
    w.key("ok").u64(c.ok);
    w.key("slo_ok").u64(c.slo_ok);
    w.key("p50_ms").opt_f64(c.percentile_ms(50.0));
    w.key("p99_ms").opt_f64(c.percentile_ms(99.0));
    w.end_obj();
}

/// Renders several runs side by side: one availability row per run, then
/// each full report.
pub fn render_duel(reports: &[CampaignReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "run", "attack ok%", "recovery ok%", "crashes", "failovers", "unavail"
    );
    for r in reports {
        let ratio = |label: &str| {
            r.metrics
                .phase(label)
                .map(|p| format!("{:.1}%", p.success_ratio() * 100.0))
                .unwrap_or_else(|| "-".to_string())
        };
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>12} {:>10} {:>10} {:>9}",
            r.label,
            ratio("attack"),
            ratio("recovery"),
            r.total_crashes(),
            r.failovers,
            r.worst_unavailable_shards(),
        );
    }
    for r in reports {
        let _ = writeln!(out);
        out.push_str(&r.render());
    }
    out
}

fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.2}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PhaseMetrics;
    use deepnote_sim::{SimDuration, SimTime};

    fn tiny_report() -> CampaignReport {
        let mut metrics = ClusterMetrics::new(vec![
            PhaseMetrics::new("baseline", SimTime::ZERO, SimTime::from_secs(10)),
            PhaseMetrics::new("attack", SimTime::from_secs(10), SimTime::from_secs(20)),
        ]);
        metrics.record_op(true, true, SimDuration::from_millis(2));
        metrics.enter_phase(1);
        metrics.record_op(false, false, SimDuration::from_millis(250));
        metrics.sample_availability(SimTime::from_secs(20));
        metrics.phases[1].max_unavailable = 3;
        CampaignReport {
            label: "test".into(),
            placement: PlacementPolicy::Separated,
            seed: 7,
            metrics,
            repair: RepairStats::default(),
            node_counters: vec![
                NodeCounters {
                    crashes: 2,
                    restarts: 1,
                    failed_restarts: 3,
                    ..NodeCounters::default()
                },
                NodeCounters::default(),
            ],
            failovers: 4,
            final_unavailable_shards: 1,
            events: vec!["t=   12.0s  node 0 crashed".into()],
            resilience: None,
            integrity: IntegrityStats::default(),
            scrub: ScrubStats::default(),
            chaos: vec![ChaosStats::default(), ChaosStats::default()],
            drive_faults: vec![0, 0],
            pending_repairs: 0,
            alerts: vec![SloAlert {
                at: SimTime::from_secs(12),
                window: "fast",
                raised: true,
                burn_rate: 25.0,
                error_ratio: 0.25,
                ops: 120,
            }],
            series: Vec::new(),
            early_warning: EarlyWarning {
                first_node_down: Some((0, 12.0)),
                first_alert_s: Some(12.0),
                quorum_loss_s: Some(15.0),
            },
            trace: None,
        }
    }

    /// `tiny_report` extended to reach every null branch of the JSON:
    /// no resilience stats, a phase without ops (null percentiles), no
    /// quorum loss (null lead time), a non-finite series point, and an
    /// event that needs escaping.
    fn null_branch_report() -> CampaignReport {
        use deepnote_telemetry::{Layer, MetricKind, MetricPoint};
        let mut r = tiny_report();
        r.metrics.phases.push(PhaseMetrics::new(
            "idle",
            SimTime::from_secs(20),
            SimTime::from_secs(20),
        ));
        r.early_warning.quorum_loss_s = None;
        r.events.push("quote \" newline \n ctrl \u{1} end".into());
        r.chaos[0].delay_total = SimDuration::from_micros(1_500);
        r.series.push(MetricSeries {
            layer: Layer::Hdd,
            name: "node0/seek_retries".into(),
            kind: MetricKind::Counter,
            points: vec![
                MetricPoint {
                    at: SimTime::from_nanos(500_000_000),
                    value: 3.0,
                },
                MetricPoint {
                    at: SimTime::from_secs(1),
                    value: f64::NAN,
                },
            ],
        });
        r
    }

    #[test]
    fn json_matches_its_golden_bytes() {
        // Captured from the hand-written serializer this one replaced.
        let golden = concat!(
            r#"{"label":"test","placement":"separated","seed":7,"phases":["#,
            r#"{"label":"baseline","goodput_ops_per_s":0.1,"success_ratio":1,"max_unavailable":0,"#,
            r#""reads":{"attempted":1,"ok":1,"slo_ok":1,"p50_ms":2.23872113856834,"p99_ms":2.23872113856834},"#,
            r#""writes":{"attempted":0,"ok":0,"slo_ok":0,"p50_ms":null,"p99_ms":null}},"#,
            r#"{"label":"attack","goodput_ops_per_s":0,"success_ratio":0,"max_unavailable":3,"#,
            r#""reads":{"attempted":0,"ok":0,"slo_ok":0,"p50_ms":null,"p99_ms":null},"#,
            r#""writes":{"attempted":1,"ok":0,"slo_ok":0,"p50_ms":251.1886431509582,"p99_ms":251.1886431509582}},"#,
            r#"{"label":"idle","goodput_ops_per_s":0,"success_ratio":1,"max_unavailable":0,"#,
            r#""reads":{"attempted":0,"ok":0,"slo_ok":0,"p50_ms":null,"p99_ms":null},"#,
            r#""writes":{"attempted":0,"ok":0,"slo_ok":0,"p50_ms":null,"p99_ms":null}}],"#,
            r#""availability":[{"at_s":20,"ratio":0.5,"attempted":2}],"#,
            r#""nodes":[{"crashes":2,"restarts":1,"failed_restarts":3,"injected_faults":0,"corrupted_writes":0,"corrupted_reads":0},"#,
            r#"{"crashes":0,"restarts":0,"failed_restarts":0,"injected_faults":0,"corrupted_writes":0,"corrupted_reads":0}],"#,
            r#""chaos":[{"burst_errors":0,"burst_drops":0,"delays":0,"delay_total_ms":1.5,"read_flips":0,"write_flips":0,"torn_writes":0,"misdirected_writes":0},"#,
            r#"{"burst_errors":0,"burst_drops":0,"delays":0,"delay_total_ms":0,"read_flips":0,"write_flips":0,"torn_writes":0,"misdirected_writes":0}],"#,
            r#""fault_trace_lengths":[0,0],"repair":{"jobs_done":0,"keys_copied":0,"bytes_copied":0,"copy_failures":0},"#,
            r#""pending_repairs":0,"failovers":4,"final_unavailable_shards":1,"worst_unavailable_shards":3,"#,
            r#""integrity":{"corrupt_acks":0,"read_repairs":0,"read_repair_failures":0,"unserveable_reads":0,"oracle_checked":0,"oracle_wrong":0},"#,
            r#""scrub":{"keys_scanned":0,"replicas_read":0,"bytes_read":0,"corrupt_found":0,"missing_found":0,"repairs_enqueued":0,"passes":0},"#,
            r#""resilience":null,"#,
            r#""alerts":[{"at_s":12,"window":"fast","raised":true,"burn_rate":25,"error_ratio":0.25,"ops":120}],"#,
            r#""series":[{"layer":"hdd","name":"node0/seek_retries","kind":"counter","points":[{"at_s":0.5,"value":3},{"at_s":1,"value":null}]}],"#,
            r#""early_warning":{"first_node_down":{"node":0,"at_s":12},"first_alert_s":12,"quorum_loss_s":null,"lead_time_s":null},"#,
            r#""events":["t=   12.0s  node 0 crashed","quote \" newline \n ctrl \u0001 end"]}"#,
        );
        assert_eq!(null_branch_report().to_json(), golden);
    }

    /// The checks `r` breaks.
    fn broken(r: &CampaignReport) -> Vec<&'static str> {
        r.violations().iter().map(|v| v.check).collect()
    }

    #[test]
    fn a_consistent_report_has_no_violations() {
        assert_eq!(tiny_report().violations(), Vec::new());
        let mut r = null_branch_report();
        r.resilience = Some(ResilienceStats {
            retries: 2,
            recovered_by_retry: 2,
            hedges: 1,
            hedges_won: 1,
            ..ResilienceStats::default()
        });
        r.integrity.oracle_checked = 5;
        r.integrity.oracle_wrong = 5;
        r.scrub.replicas_read = 3;
        r.scrub.corrupt_found = 2;
        r.scrub.missing_found = 1;
        assert_eq!(r.violations(), Vec::new());
    }

    #[test]
    fn violations_catch_slo_ok_above_ok_and_ok_above_attempted() {
        let mut r = tiny_report();
        r.metrics.phases[0].reads.slo_ok = 2;
        let v = r.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "slo_ok <= ok <= attempted");
        assert_eq!(
            v[0].detail,
            "phase baseline reads: slo_ok 2, ok 1, attempted 1"
        );
        let mut r = tiny_report();
        r.metrics.phases[1].writes.ok = 2;
        assert_eq!(broken(&r), vec!["slo_ok <= ok <= attempted"]);
    }

    #[test]
    fn violations_catch_an_availability_ratio_outside_0_1() {
        for ratio in [1.5, -0.25, f64::NAN] {
            let mut r = tiny_report();
            r.metrics.availability[0].ratio = ratio;
            assert_eq!(broken(&r), vec!["availability ratio in [0, 1]"], "{ratio}");
        }
    }

    #[test]
    fn violations_catch_resilience_wins_without_tries() {
        let mut r = tiny_report();
        r.resilience = Some(ResilienceStats {
            retries: 1,
            recovered_by_retry: 2,
            ..ResilienceStats::default()
        });
        assert_eq!(broken(&r), vec!["recovered_by_retry <= retries"]);
        r.resilience = Some(ResilienceStats {
            hedges: 3,
            hedges_won: 4,
            ..ResilienceStats::default()
        });
        assert_eq!(broken(&r), vec!["hedges_won <= hedges"]);
    }

    #[test]
    fn violations_catch_more_oracle_verdicts_wrong_than_checked() {
        let mut r = tiny_report();
        r.integrity.oracle_wrong = 1;
        assert_eq!(broken(&r), vec!["oracle_wrong <= oracle_checked"]);
    }

    #[test]
    fn violations_catch_more_scrub_findings_than_reads() {
        let mut r = tiny_report();
        r.scrub.replicas_read = 2;
        r.scrub.corrupt_found = 2;
        r.scrub.missing_found = 1;
        assert_eq!(
            broken(&r),
            vec!["corrupt_found + missing_found <= replicas_read"]
        );
    }

    #[test]
    fn violations_catch_a_restart_without_a_crash() {
        let mut r = tiny_report();
        r.node_counters[1].restarts = 1;
        let v = r.violations();
        assert_eq!(broken(&r), vec!["restarts <= crashes"]);
        assert_eq!(v[0].detail, "node 1: restarts 1, crashes 0");
    }

    #[test]
    fn totals_sum_over_nodes() {
        let r = tiny_report();
        assert_eq!(r.total_crashes(), 2);
        assert_eq!(r.total_restarts(), 1);
        assert_eq!(r.worst_unavailable_shards(), 3);
    }

    #[test]
    fn render_mentions_every_phase_and_the_events() {
        let text = tiny_report().render();
        assert!(text.contains("baseline"));
        assert!(text.contains("attack"));
        assert!(text.contains("4 failovers"));
        assert!(text.contains("node 0 crashed"));
    }

    #[test]
    fn json_has_stable_keys_and_escapes_strings() {
        let mut r = tiny_report();
        r.events.push("quote \" and\nnewline".into());
        let a = r.to_json();
        assert_eq!(a, r.to_json(), "serialization must be deterministic");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"label\":\"test\""));
        assert!(a.contains("\"placement\":\"separated\""));
        assert!(a.contains("\\\" and\\nnewline"));
        assert!(a.contains("\"resilience\":null"));
        assert!(a.contains("\"oracle_wrong\":0"));
        // The write phase had no successful ops: percentile present,
        // since attempts are recorded regardless of success.
        assert!(a.contains("\"p99_ms\":"));
    }

    #[test]
    fn fault_trace_lengths_cap_drive_faults_at_256() {
        let mut r = tiny_report();
        r.drive_faults = vec![256, 257];
        assert!(r.to_json().contains("\"fault_trace_lengths\":[256,256]"));
    }

    #[test]
    fn render_only_mentions_chaos_when_faults_were_injected() {
        let mut r = tiny_report();
        assert!(!r.render().contains("chaos:"));
        r.chaos[0].read_flips = 5;
        let text = r.render();
        assert!(text.contains("chaos: 5 device faults injected"));
    }

    #[test]
    fn duel_table_has_one_row_per_run() {
        let text = render_duel(&[tiny_report(), tiny_report()]);
        assert!(text.lines().next().unwrap().contains("attack ok%"));
        assert_eq!(text.matches("=== campaign:").count(), 2);
    }
}
