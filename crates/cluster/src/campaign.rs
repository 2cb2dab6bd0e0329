//! The campaign driver: a deterministic event loop that runs an attack
//! timeline against a serving cluster.
//!
//! Six event streams interleave on one priority queue — phase changes,
//! heartbeat rounds, repair steps, scrub steps, availability samples,
//! and closed-loop client turns — ordered by `(time, stream priority,
//! insertion order)`, so a fixed seed replays the identical campaign
//! operation for operation. The sweep phase retunes the speaker at
//! heartbeat granularity; health probes, failover, and restarts all ride
//! the same heartbeat cadence a real control plane would use.
//!
//! A campaign can additionally run under a [`ChaosProfile`] (seeded
//! device and data-path fault injection), route every client operation
//! through a [`crate::client::ResilientClient`], and check each read
//! against the workload oracle — the ground-truth value the key was
//! provisioned with — to count end-to-end wrong answers.

use crate::chaos::ChaosProfile;
use crate::client::{ClientPolicy, ResilientClient};
use crate::cluster::{Cluster, ClusterConfig};
use crate::error::ClusterError;
use crate::integrity::{IntegrityConfig, IntegrityStats};
use crate::metrics::{ClusterMetrics, PhaseMetrics};
use crate::node::StorageNode;
use crate::placement::PlacementPolicy;
use crate::report::{CampaignReport, EarlyWarning};
use crate::timeline::AttackTimeline;
use crate::workload::{ClientPool, WorkloadSpec, THINK_TIME};
use deepnote_core::parallel::try_run_all;
use deepnote_sim::{EventQueue, SimDuration, SimRng, SimTime};
use deepnote_telemetry::{
    BurnRateMonitor, Layer, MetricId, MetricKind, MetricsRegistry, Tracer, Value,
};
use serde::{Deserialize, Serialize};

/// Salt folded into the root seed for the chaos RNG tree, so adding
/// fault injection never perturbs the client streams of a chaos-free
/// run with the same seed.
const CHAOS_SALT: u64 = 0xC4A0_5EED_D15C_0DE5;

/// Salt folded into the root seed for the resilient client's RNG
/// (backoff jitter), independent of both workload and chaos streams.
const CLIENT_SALT: u64 = 0xBAC0_FF5A_17ED_B175;

/// Interval between heartbeat rounds (probes, restarts, failover).
const HEARTBEAT_EVERY: SimDuration = SimDuration::from_millis(500);

/// Availability sampling window.
const SAMPLE_EVERY: SimDuration = SimDuration::from_secs(5);

/// Interval between background repair steps.
const REPAIR_EVERY: SimDuration = SimDuration::from_millis(200);

/// Interval between background scrub steps (only scheduled when the
/// cluster runs with integrity on).
const SCRUB_EVERY: SimDuration = SimDuration::from_millis(200);

/// Ring-buffer capacity for trace events; when full, the earliest
/// window is kept and later events are counted as dropped.
const TRACE_CAP: usize = 1 << 16;

/// Observability settings for one campaign run. Everything here is a
/// pure observer: enabling tracing or metrics scraping never changes
/// what the campaign does, only what it records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Record a cross-layer trace (spans and instants from every
    /// instrumented layer, exportable as Chrome trace-event JSON).
    pub trace: bool,
    /// Scrape the unified metrics registry at this fixed interval
    /// (`None` disables scraping; the report's series come out empty).
    pub metrics_interval: Option<SimDuration>,
}

/// Everything one campaign run needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Report label for this run.
    pub label: String,
    /// Cluster layout and policies.
    pub cluster: ClusterConfig,
    /// Client population.
    pub workload: WorkloadSpec,
    /// What the adversary transmits, and when.
    pub timeline: AttackTimeline,
    /// Keys moved per repair step.
    pub repair_batch: usize,
    /// Seeded fault injection applied to every node.
    pub chaos: ChaosProfile,
    /// Route operations through the resilient client (`None` keeps the
    /// raw one-shot quorum path).
    pub client: Option<ClientPolicy>,
    /// Keys examined per scrub step.
    pub scrub_batch: usize,
    /// Check every successful read against the workload oracle and
    /// count wrong answers in the integrity stats.
    pub verify_responses: bool,
    /// Tracing and metrics scraping.
    pub telemetry: TelemetryConfig,
    /// Root RNG seed; fixes every client stream.
    pub seed: u64,
}

impl CampaignConfig {
    /// The paper-shaped duel run: the standard three-rack cluster under
    /// the given placement, serving the default workload through a
    /// baseline → sweep → `attack`-long 650 Hz tone → recovery timeline.
    pub fn paper_duel(placement: PlacementPolicy, attack: SimDuration) -> Self {
        CampaignConfig {
            label: placement.label().to_string(),
            cluster: ClusterConfig::three_racks(placement),
            workload: WorkloadSpec::default(),
            timeline: AttackTimeline::paper_campaign(attack),
            repair_batch: 32,
            chaos: ChaosProfile::off(),
            client: None,
            scrub_batch: 8,
            verify_responses: false,
            telemetry: TelemetryConfig::default(),
            seed: deepnote_sim::rng::DEFAULT_SEED,
        }
    }

    /// A hardened-vs-naive duel under one chaos profile: the same
    /// placement, timeline, and faults, run twice — once with the full
    /// defense stack (end-to-end checksums, read repair, scrubbing, and
    /// the resilient client) and once with the bare one-shot quorum
    /// path. Both runs verify responses against the workload oracle, so
    /// the naive run *proves* it serves wrong answers while the
    /// hardened run proves it does not.
    pub fn chaos_pair(
        placement: PlacementPolicy,
        attack: SimDuration,
        chaos: &ChaosProfile,
    ) -> (Self, Self) {
        let mut hardened = Self::paper_duel(placement, attack);
        hardened.label = format!("{}+defenses", chaos.label);
        hardened.chaos = chaos.clone();
        hardened.cluster.integrity = IntegrityConfig::full();
        hardened.client = Some(ClientPolicy::standard());
        hardened.verify_responses = true;
        let mut naive = Self::paper_duel(placement, attack);
        naive.label = format!("{}+naive", chaos.label);
        naive.chaos = chaos.clone();
        naive.verify_responses = true;
        (hardened, naive)
    }
}

/// Event streams, in tie-break priority order at equal times: the phase
/// boundary applies before the heartbeat that would probe under it, and
/// control-plane work precedes client traffic.
#[derive(Debug, Clone, Copy)]
enum EvKind {
    /// Enter timeline phase `i`.
    PhaseChange(usize),
    /// Probe, restart, and failover round.
    Heartbeat,
    /// One bounded repair step.
    Repair,
    /// One bounded scrub step.
    Scrub,
    /// Close an availability window.
    Sample,
    /// Client `i` issues its next operation.
    Client(usize),
    /// Scrape the metrics registry (read-only; scheduled only when a
    /// metrics interval is configured, and runs after client traffic at
    /// equal times so the scrape sees the instant's final state).
    Scrape,
}

impl EvKind {
    /// The queue's tie-break at an equal instant: lower pops first.
    fn priority(&self) -> u8 {
        match self {
            EvKind::PhaseChange(_) => 0,
            EvKind::Heartbeat => 1,
            EvKind::Repair => 2,
            EvKind::Scrub => 3,
            EvKind::Sample => 4,
            EvKind::Client(_) => 5,
            EvKind::Scrape => 6,
        }
    }
}

/// Schedules `kind` at `at` under its stream's tie-break priority.
fn schedule(q: &mut EventQueue<EvKind>, at: SimTime, kind: EvKind) {
    q.push(at, kind.priority(), kind);
}

/// The series scraped from every node, in registration order: layer,
/// name (prefixed `node{n}.`) and kind. [`Scraper::scrape`] records the
/// probe values in this order.
const NODE_SERIES: [(Layer, &str, MetricKind); 10] = [
    (Layer::Acoustics, "spl_db", MetricKind::Gauge),
    (Layer::Hdd, "offtrack_nm", MetricKind::Gauge),
    (Layer::Hdd, "seek_retries", MetricKind::Counter),
    (Layer::Blockdev, "io_errors", MetricKind::Counter),
    (Layer::Blockdev, "injected_faults", MetricKind::Counter),
    (Layer::Kv, "wal_syncs", MetricKind::Counter),
    (Layer::Kv, "flushes", MetricKind::Counter),
    (Layer::Kv, "compactions", MetricKind::Counter),
    (Layer::Fs, "journal_commits", MetricKind::Counter),
    (Layer::Cluster, "up", MetricKind::Gauge),
];

/// The cluster-wide series, registered after every node's, in the
/// order [`Scraper::scrape`] records them.
const CLUSTER_SERIES: [(&str, MetricKind); 4] = [
    ("pending_repairs", MetricKind::Gauge),
    ("unavailable_shards", MetricKind::Gauge),
    ("failovers", MetricKind::Counter),
    ("nodes_down", MetricKind::Gauge),
];

/// The unified registry plus every handle a campaign scrapes into it.
/// Scraping is strictly read-only: it probes node state and records
/// values, so enabling it cannot perturb the campaign.
struct Scraper {
    registry: MetricsRegistry,
    /// Scrape period.
    interval: SimDuration,
    /// Per node, one handle per [`NODE_SERIES`] entry.
    nodes: Vec<[MetricId; NODE_SERIES.len()]>,
    /// One handle per [`CLUSTER_SERIES`] entry.
    cluster: [MetricId; CLUSTER_SERIES.len()],
}

impl Scraper {
    fn new(num_nodes: usize, interval: SimDuration) -> Self {
        let mut registry = MetricsRegistry::new();
        let nodes = (0..num_nodes)
            .map(|n| {
                std::array::from_fn(|i| {
                    let (layer, name, kind) = NODE_SERIES[i];
                    registry.register(layer, format!("node{n}.{name}"), kind)
                })
            })
            .collect();
        let cluster = std::array::from_fn(|i| {
            let (name, kind) = CLUSTER_SERIES[i];
            registry.register(Layer::Cluster, name, kind)
        });
        Scraper {
            registry,
            interval,
            nodes,
            cluster,
        }
    }

    /// One read-only pass over the whole cluster at `now`. Engine
    /// counters restart from zero after a reboot — visible as cliffs in
    /// the series, which is the point.
    fn scrape(&mut self, cluster: &Cluster, now: SimTime) {
        for (n, (ids, node)) in self.nodes.iter().zip(cluster.nodes()).enumerate() {
            let p = node.probe();
            let values: [f64; NODE_SERIES.len()] = [
                cluster.received_spl_db(n),
                p.offtrack_nm,
                p.seek_retries as f64,
                p.io_errors as f64,
                p.injected_faults as f64,
                p.wal_syncs as f64,
                p.flushes as f64,
                p.compactions as f64,
                p.journal_commits as f64,
                if p.running { 1.0 } else { 0.0 },
            ];
            for (&id, value) in ids.iter().zip(values) {
                self.registry.record(id, now, value);
            }
        }
        let down = cluster.monitor().up_mask().iter().filter(|u| !**u).count();
        let values: [f64; CLUSTER_SERIES.len()] = [
            cluster.pending_repairs() as f64,
            cluster.unavailable_shards(now) as f64,
            cluster.failovers() as f64,
            down as f64,
        ];
        for (&id, value) in self.cluster.iter().zip(values) {
            self.registry.record(id, now, value);
        }
    }
}

/// What a campaign watches as it serves: the service metrics, the
/// burn-rate alerts, and the first window close that found a shard below
/// write quorum.
struct Watch {
    metrics: ClusterMetrics,
    burn: BurnRateMonitor,
    first_quorum_loss: Option<SimTime>,
}

impl Watch {
    /// Closes the availability window ending at `at`, in the phase `at`
    /// falls in. Returns the shards below write quorum.
    fn close_window(&mut self, at: SimTime, cluster: &Cluster, timeline: &AttackTimeline) -> usize {
        self.metrics.sample_availability(at);
        let unavailable = cluster.unavailable_shards(at);
        let phase = &mut self.metrics.phases[timeline.phase_at(at)];
        phase.max_unavailable = phase.max_unavailable.max(unavailable);
        if unavailable > 0 && self.first_quorum_loss.is_none() {
            self.first_quorum_loss = Some(at);
        }
        self.burn.tick(at);
        unavailable
    }
}

/// Runs one campaign to completion and reports.
///
/// # Errors
///
/// [`ClusterError`] if the cluster fails to launch or provision; the
/// campaign itself (attacks, crashes, failed quorums) never errors —
/// those are results, captured in the report.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignReport, ClusterError> {
    let spec = config.workload;
    let timeline = &config.timeline;
    let mut chaos_rng = SimRng::seeded(config.seed ^ CHAOS_SALT);
    let mut cluster = Cluster::with_chaos(config.cluster.clone(), &config.chaos, &mut chaos_rng)?;
    cluster.provision(&spec)?;
    // Telemetry attaches after provisioning so preload traffic (off the
    // cluster timeline) never lands in the trace.
    let tracer = if config.telemetry.trace {
        Tracer::ring(TRACE_CAP)
    } else {
        Tracer::disabled()
    };
    cluster.set_tracer(tracer.clone());
    let num_nodes = cluster.nodes().len();
    let mut scraper = config
        .telemetry
        .metrics_interval
        .map(|interval| Scraper::new(num_nodes, interval));
    let mut rng = SimRng::seeded(config.seed);
    let mut pool = ClientPool::new(&spec, &mut rng);
    let mut driver = config
        .client
        .map(|_| ResilientClient::new(num_nodes, SimRng::seeded(config.seed ^ CLIENT_SALT)));
    let (mut oracle_checked, mut oracle_wrong) = (0u64, 0u64);

    let phase_records: Vec<PhaseMetrics> = timeline
        .phases()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let start = timeline.phase_start(i);
            PhaseMetrics::new(p.label.clone(), start, start + p.duration)
        })
        .collect();
    let mut watch = Watch {
        metrics: ClusterMetrics::new(phase_records),
        burn: BurnRateMonitor::default(),
        first_quorum_loss: None,
    };

    let end = SimTime::ZERO + timeline.total();
    // Steady-state queue population: every phase change plus one slot
    // per recurring stream (heartbeat, repair, scrub, sample, scrape)
    // and one per client, so the heap never reallocates mid-loop.
    let mut q = EventQueue::with_capacity(timeline.phases().len() + 5 + pool.len());
    for i in 0..timeline.phases().len() {
        schedule(&mut q, timeline.phase_start(i), EvKind::PhaseChange(i));
    }
    schedule(&mut q, SimTime::ZERO, EvKind::Heartbeat);
    schedule(&mut q, SimTime::ZERO + REPAIR_EVERY, EvKind::Repair);
    if config.cluster.integrity.enabled {
        schedule(&mut q, SimTime::ZERO + SCRUB_EVERY, EvKind::Scrub);
    }
    schedule(&mut q, SimTime::ZERO + SAMPLE_EVERY, EvKind::Sample);
    if scraper.is_some() {
        schedule(&mut q, SimTime::ZERO, EvKind::Scrape);
    }
    for i in 0..pool.len() {
        schedule(&mut q, pool.first_issue(i), EvKind::Client(i));
    }

    while let Some((at, kind)) = q.pop() {
        if at >= end {
            break;
        }
        match kind {
            EvKind::PhaseChange(i) => {
                watch.metrics.enter_phase(i);
                if let (Some(p), true) = (timeline.phases().get(i), tracer.is_enabled()) {
                    tracer.span(
                        Layer::Cluster,
                        "phase",
                        at,
                        p.duration,
                        vec![("label", Value::Text(p.label.clone()))],
                    );
                }
                cluster.set_attack(timeline.frequency_at(at), at);
            }
            EvKind::Heartbeat => {
                // Retune mid-sweep; a steady tone is a no-op here.
                cluster.set_attack(timeline.frequency_at(at), at);
                cluster.heartbeat(at);
                schedule(&mut q, at + HEARTBEAT_EVERY, EvKind::Heartbeat);
            }
            EvKind::Repair => {
                cluster.repair_step(at, config.repair_batch);
                schedule(&mut q, at + REPAIR_EVERY, EvKind::Repair);
            }
            EvKind::Scrub => {
                cluster.scrub_step(at, config.scrub_batch);
                schedule(&mut q, at + SCRUB_EVERY, EvKind::Scrub);
            }
            EvKind::Sample => {
                watch.close_window(at, &cluster, timeline);
                schedule(&mut q, at + SAMPLE_EVERY, EvKind::Sample);
            }
            EvKind::Client(i) => {
                let op = pool.next_op(i, &spec);
                let key = spec.key(op.key_index);
                let value = spec.value(op.key_index);
                let (ok, latency, served) = match driver.as_mut() {
                    Some(client) => {
                        let out = client.execute(&mut cluster, op.is_read, &key, &value, at);
                        (out.ok, out.latency, out.value)
                    }
                    None => {
                        let out = cluster.execute(op.is_read, &key, &value, at);
                        (out.ok, out.latency, out.value)
                    }
                };
                if config.verify_responses && op.is_read && ok {
                    if let Some(got) = &served {
                        oracle_checked += 1;
                        oracle_wrong += u64::from(*got != value);
                    }
                }
                watch.metrics.record_op(op.is_read, ok, latency);
                watch.burn.record_op(at + latency, ok);
                schedule(&mut q, at + latency + THINK_TIME, EvKind::Client(i));
            }
            EvKind::Scrape => {
                if let Some(s) = scraper.as_mut() {
                    s.scrape(&cluster, at);
                    schedule(&mut q, at + s.interval, EvKind::Scrape);
                }
            }
        }
    }
    // The last window closes at `end`, in the last phase.
    let final_unavailable = watch.close_window(end, &cluster, timeline);
    if let Some(s) = scraper.as_mut() {
        s.scrape(&cluster, end);
    }

    let report = CampaignReport {
        label: config.label.clone(),
        placement: config.cluster.placement,
        seed: config.seed,
        metrics: watch.metrics,
        repair: cluster.repair_stats(),
        node_counters: cluster.nodes().iter().map(|n| n.counters()).collect(),
        failovers: cluster.failovers(),
        final_unavailable_shards: final_unavailable,
        events: cluster.events().to_vec(),
        resilience: driver.as_ref().map(ResilientClient::stats),
        integrity: IntegrityStats {
            oracle_checked,
            oracle_wrong,
            ..cluster.integrity_stats()
        },
        scrub: cluster.scrub_stats(),
        chaos: cluster.chaos_stats(),
        drive_faults: cluster
            .nodes()
            .iter()
            .map(StorageNode::drive_faults)
            .collect(),
        pending_repairs: cluster.pending_repairs(),
        early_warning: EarlyWarning {
            first_node_down: cluster.first_down().map(|(n, t)| (n, t.as_secs_f64())),
            first_alert_s: watch
                .burn
                .alerts()
                .iter()
                .find(|a| a.raised)
                .map(|a| a.at.as_secs_f64()),
            quorum_loss_s: watch.first_quorum_loss.map(|t| t.as_secs_f64()),
        },
        alerts: watch.burn.into_alerts(),
        series: scraper
            .map(|s| s.registry.into_series())
            .unwrap_or_default(),
        trace: tracer.is_enabled().then(|| tracer.take()),
    };
    debug_assert_eq!(
        report.violations(),
        Vec::new(),
        "campaign {:?} (seed {}) breaks its report invariants",
        report.label,
        report.seed
    );
    Ok(report)
}

/// Runs a batch of campaigns on parallel OS threads (each is its own
/// virtual-time world); a panicking or erroring run surfaces as `Err`
/// without discarding its siblings.
pub fn run_matrix(configs: Vec<CampaignConfig>) -> Vec<Result<CampaignReport, String>> {
    try_run_all(
        configs
            .into_iter()
            .map(|c| move || run_campaign(&c))
            .collect::<Vec<_>>(),
    )
    .into_iter()
    .map(|r| match r {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(panic),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short campaign so unit tests stay fast: tiny keyspace, brisk
    /// phases, still long enough for the attack to kill the near rack.
    fn short_config(placement: PlacementPolicy) -> CampaignConfig {
        let mut c = CampaignConfig::paper_duel(placement, SimDuration::from_secs(30));
        c.workload.num_keys = 240;
        c.workload.clients = 4;
        c.timeline = AttackTimeline::new(vec![
            crate::timeline::Phase {
                label: "baseline".into(),
                duration: SimDuration::from_secs(5),
                load: crate::timeline::AttackLoad::Off,
            },
            crate::timeline::Phase {
                label: "attack".into(),
                duration: SimDuration::from_secs(30),
                load: crate::timeline::AttackLoad::Tone { hz: 650.0 },
            },
            crate::timeline::Phase {
                label: "recovery".into(),
                duration: SimDuration::from_secs(30),
                load: crate::timeline::AttackLoad::Off,
            },
        ]);
        c
    }

    #[test]
    fn baseline_phase_serves_cleanly() {
        let report = run_campaign(&short_config(PlacementPolicy::Separated)).expect("campaign");
        let baseline = report.metrics.phase("baseline").unwrap();
        assert!(
            baseline.success_ratio() > 0.99,
            "{}",
            baseline.success_ratio()
        );
        assert!(baseline.goodput_ops_per_s() > 1.0);
    }

    #[test]
    fn separated_placement_survives_what_colocated_does_not() {
        let sep = run_campaign(&short_config(PlacementPolicy::Separated)).expect("campaign");
        let col = run_campaign(&short_config(PlacementPolicy::CoLocated)).expect("campaign");
        let sep_attack = sep.metrics.phase("attack").unwrap().success_ratio();
        let col_attack = col.metrics.phase("attack").unwrap().success_ratio();
        assert!(
            sep_attack > col_attack,
            "separated {sep_attack} vs co-located {col_attack}"
        );
        assert_eq!(sep.worst_unavailable_shards(), 0, "{:#?}", sep.events);
        assert!(col.worst_unavailable_shards() > 0);
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let a = run_campaign(&short_config(PlacementPolicy::CoLocated)).expect("campaign");
        let b = run_campaign(&short_config(PlacementPolicy::CoLocated)).expect("campaign");
        assert_eq!(a.render(), b.render());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn matrix_runs_both_placements() {
        let results = run_matrix(vec![
            short_config(PlacementPolicy::Separated),
            short_config(PlacementPolicy::CoLocated),
        ]);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn single_thread_override_matches_parallel_matrix() {
        // Each campaign is an isolated virtual-time world, so the pool
        // width must not be able to change a single byte of any report.
        let configs = vec![
            short_config(PlacementPolicy::Separated),
            short_config(PlacementPolicy::CoLocated),
        ];
        let parallel = run_matrix(configs.clone());
        std::env::set_var(deepnote_core::parallel::THREADS_ENV, "1");
        let serial = run_matrix(configs);
        std::env::remove_var(deepnote_core::parallel::THREADS_ENV);
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(serial.iter()) {
            let p = p.as_ref().expect("parallel run");
            let s = s.as_ref().expect("serial run");
            assert_eq!(p.render(), s.render());
            assert_eq!(p.events, s.events);
        }
    }
}
