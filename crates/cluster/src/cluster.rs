//! The assembled cluster: nodes in a tank, a shard map, a health
//! monitor, and a repair queue, all driven from one control plane.
//!
//! [`Cluster`] owns the physics wiring — every node's drive hangs off
//! the same [`Testbed`], so mounting an attack frequency applies each
//! node's distance-specific vibration — and the distributed-systems
//! wiring: quorum dispatch, failure detection, failover, and
//! re-replication.

use crate::chaos::ChaosProfile;
use crate::error::ClusterError;
use crate::health::{HealthMonitor, Transition, PROBE_TIMEOUT};
use crate::integrity::{self, IntegrityConfig, IntegrityStats, ScrubStats, Scrubber};
use crate::node::{commission, RestartOutcome, StorageNode};
use crate::placement::{shard_of, NodeId, PlacementPolicy, RackSpec, ShardId, ShardMap, Topology};
use crate::replication::{
    OpKind, QuorumOutcome, RepairQueue, RepairStats, ReplicaReply, ReplicationConfig,
    REQUEST_TIMEOUT,
};
use crate::workload::WorkloadSpec;
use deepnote_acoustics::Frequency;
use deepnote_blockdev::ChaosStats;
use deepnote_core::testbed::{Testbed, TestbedTone};
use deepnote_kv::DbConfig;
use deepnote_sim::{SimDuration, SimRng, SimTime};
use deepnote_structures::Scenario;
use deepnote_telemetry::{Layer, Tracer, Value};
use serde::{Deserialize, Serialize};

/// Everything needed to stand a cluster up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Enclosure/mount scenario for the testbed physics.
    pub scenario: Scenario,
    /// Physical racks, nearest to the attack point first.
    pub racks: Vec<RackSpec>,
    /// Number of shards the keyspace hashes onto.
    pub num_shards: usize,
    /// Replica placement policy.
    pub placement: PlacementPolicy,
    /// Quorum settings.
    pub replication: ReplicationConfig,
    /// End-to-end integrity machinery (off by default).
    pub integrity: IntegrityConfig,
}

impl ClusterConfig {
    /// The standard three-rack duel layout: one rack inside the blast
    /// radius (1 cm) and two acoustically safe racks (60 cm, 120 cm),
    /// three nodes each, majority quorums over three replicas.
    pub fn three_racks(placement: PlacementPolicy) -> Self {
        ClusterConfig {
            scenario: Scenario::PlasticTower,
            racks: vec![
                RackSpec {
                    distance_cm: 1.0,
                    spacing_cm: 1.0,
                    nodes: 3,
                },
                RackSpec {
                    distance_cm: 60.0,
                    spacing_cm: 1.0,
                    nodes: 3,
                },
                RackSpec {
                    distance_cm: 120.0,
                    spacing_cm: 1.0,
                    nodes: 3,
                },
            ],
            num_shards: 12,
            placement,
            replication: ReplicationConfig::majority(3),
            integrity: IntegrityConfig::off(),
        }
    }

    /// Database tuning for serving nodes: small memtables and frequent
    /// group commits, like an online store rather than a bulk loader.
    pub fn node_db_config() -> DbConfig {
        DbConfig {
            memtable_limit_bytes: 64 << 10,
            wal_sync_every_ops: 128,
            ..DbConfig::default()
        }
    }
}

/// The running cluster.
#[derive(Debug)]
pub struct Cluster {
    pub(crate) config: ClusterConfig,
    testbed: Testbed,
    topo: Topology,
    pub(crate) nodes: Vec<StorageNode>,
    pub(crate) map: ShardMap,
    monitor: HealthMonitor,
    pub(crate) repairs: RepairQueue,
    /// Every key each shard holds, in provisioning order: what repair
    /// copies and the scrubber walks.
    pub(crate) shard_keys: Vec<Vec<Vec<u8>>>,
    /// The tone the speaker transmits, if any.
    tone: Option<TestbedTone>,
    failovers: u64,
    events: Vec<String>,
    integrity: IntegrityStats,
    scrubber: Scrubber,
    tracer: Tracer,
    /// The first node the monitor ever marked down, and when — the
    /// incident report's "which replica degraded first".
    first_down: Option<(NodeId, SimTime)>,
}

/// Health probes read this key; it never collides with workload keys.
const PROBE_KEY: &[u8] = b"__health_probe__";

/// Down-time after which a node's replica slots are failed over.
const FAILOVER_AFTER: SimDuration = SimDuration::from_secs(10);

impl Cluster {
    /// Builds and launches every node with `chaos` injected into its
    /// drive and serving path, forking one RNG stream per node off
    /// `rng`. One drive image is formatted (see [`commission`]) and
    /// every node starts as a copy of it.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeLaunch`] (reported against node 0) if
    /// formatting the drive image fails.
    pub fn with_chaos(
        config: ClusterConfig,
        chaos: &ChaosProfile,
        rng: &mut SimRng,
    ) -> Result<Self, ClusterError> {
        let topo = Topology::build(&config.racks);
        let map = ShardMap::build(
            &topo,
            config.num_shards,
            config.replication.replication,
            config.placement,
        );
        // One format for the whole launch, copied into every node.
        let image = commission(ClusterConfig::node_db_config())
            .map_err(|source| ClusterError::NodeLaunch { node: 0, source })?;
        let nodes: Vec<StorageNode> = (0..topo.nodes())
            .map(|n| {
                StorageNode::launch_with(
                    n,
                    topo.node_distance[n],
                    &image,
                    chaos,
                    rng.fork(n as u64),
                )
            })
            .collect();
        let monitor = HealthMonitor::new(nodes.len());
        Ok(Cluster {
            testbed: Testbed::paper_default(config.scenario),
            topo,
            nodes,
            map,
            monitor,
            repairs: RepairQueue::new(),
            shard_keys: vec![Vec::new(); config.num_shards],
            tone: None,
            failovers: 0,
            events: Vec::new(),
            integrity: IntegrityStats::default(),
            scrubber: Scrubber::default(),
            tracer: Tracer::disabled(),
            first_down: None,
            config,
        })
    }

    /// Attaches a tracer to the control plane (its own track, usually
    /// [`deepnote_telemetry::CONTROL_TRACK`]) and every node's stack.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for node in &mut self.nodes {
            node.set_tracer(&tracer);
        }
        self.tracer = tracer;
    }

    /// Records one control-plane event: a line in the event log and a
    /// cluster-layer trace instant `name` with `args`, both at `now`.
    fn record(
        &mut self,
        now: SimTime,
        what: String,
        name: &'static str,
        args: Vec<(&'static str, Value)>,
    ) {
        self.events
            .push(format!("t={:7.1}s  {what}", now.as_secs_f64()));
        self.tracer.instant(Layer::Cluster, name, now, args);
    }

    /// Records node `n` going down at `now` (`why` for the event log,
    /// `reason` for the trace), remembers the first node ever down, and
    /// cancels the repairs that target it.
    fn node_down(&mut self, n: NodeId, now: SimTime, why: &str, reason: &'static str) {
        self.record(
            now,
            format!("node {n} {why}"),
            "node_down",
            vec![
                ("node", Value::U64(n as u64)),
                ("reason", Value::Str(reason)),
            ],
        );
        if self.first_down.is_none() {
            self.first_down = Some((n, now));
        }
        self.repairs.cancel_target(n);
    }

    /// The first node ever marked down and when, if any node was.
    pub fn first_down(&self) -> Option<(NodeId, SimTime)> {
        self.first_down
    }

    /// The nodes (report access).
    pub fn nodes(&self) -> &[StorageNode] {
        &self.nodes
    }

    /// The health monitor's current beliefs.
    pub fn monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// Failovers executed so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Repair totals so far.
    pub fn repair_stats(&self) -> RepairStats {
        self.repairs.stats()
    }

    /// Control-plane event log (deterministic, human-readable).
    pub fn events(&self) -> &[String] {
        &self.events
    }

    /// Routes a key to its shard.
    pub fn shard_for(&self, key: &[u8]) -> ShardId {
        shard_of(key, self.config.num_shards)
    }

    /// Loads the whole keyspace onto every replica before the campaign
    /// (provisioning time is off the cluster timeline) and memoizes the
    /// per-shard key lists the repair path copies from.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Provision`] if a preload write fails, or
    /// [`ClusterError::NodeNotRunning`] if a replica is already down.
    pub fn provision(&mut self, spec: &WorkloadSpec) -> Result<(), ClusterError> {
        let mut per_node: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); self.nodes.len()];
        for i in 0..spec.num_keys {
            let key = spec.key(i);
            let value = if self.config.integrity.enabled {
                integrity::seal(&key, &spec.value(i))
            } else {
                spec.value(i)
            };
            let shard = self.shard_for(&key);
            self.shard_keys[shard].push(key.clone());
            for &n in self.map.replicas(shard) {
                per_node[n].push((key.clone(), value.clone()));
            }
        }
        for (n, pairs) in per_node.iter().enumerate() {
            self.nodes[n].preload(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))?;
        }
        Ok(())
    }

    /// Retunes (or silences) the speaker at cluster time `now`: every
    /// node receives the vibration for its own distance. With a tracer
    /// attached, each node's received tone (SPL, residual off-track)
    /// lands on the acoustics layer.
    pub fn set_attack(&mut self, frequency: Option<Frequency>, now: SimTime) {
        if frequency.map(|f| f.hz()) == self.tone.map(|t| t.frequency().hz()) {
            return;
        }
        // One tone reaches every node: evaluate its frequency terms once.
        self.tone = frequency.map(|f| self.testbed.at_frequency(f));
        for n in 0..self.nodes.len() {
            let node = &self.nodes[n];
            match &self.tone {
                Some(tone) => node
                    .vibration()
                    .set(Some(tone.vibration_at(node.position()))),
                None => node.vibration().clear(),
            }
            if !self.tracer.is_enabled() {
                continue;
            }
            match &self.tone {
                Some(tone) => {
                    let spl = tone.received_spl(node.position());
                    // The vibration input is already mounted: the probe
                    // reads the servo's response to this very tone.
                    let offtrack_nm = node.probe().offtrack_nm;
                    self.tracer.instant(
                        Layer::Acoustics,
                        "tone",
                        now,
                        vec![
                            ("node", Value::U64(n as u64)),
                            ("freq_hz", Value::F64(tone.frequency().hz())),
                            ("spl_db", Value::F64(spl.db())),
                            ("offtrack_nm", Value::F64(offtrack_nm)),
                        ],
                    );
                }
                None => self.tracer.instant(
                    Layer::Acoustics,
                    "silence",
                    now,
                    vec![("node", Value::U64(n as u64))],
                ),
            }
        }
    }

    /// Received sound pressure level at node `n` under the current
    /// tone, in dB (0 when the speaker is silent).
    pub fn received_spl_db(&self, n: NodeId) -> f64 {
        self.tone
            .map_or(0.0, |t| t.received_spl(self.nodes[n].position()).db())
    }

    /// Executes one client operation through the quorum coordinator.
    pub fn execute(
        &mut self,
        is_read: bool,
        key: &[u8],
        value: &[u8],
        now: SimTime,
    ) -> QuorumOutcome {
        self.execute_masked(is_read, key, value, now, None)
    }

    /// [`Cluster::execute`] with an optional client-side deny mask
    /// (circuit breakers): `denied[n]` suppresses dispatch to node `n`
    /// on top of serviceability. A successful read serves the copy
    /// `integrity::classify` picks. With integrity on, writes are
    /// sealed and every read ack is verified end-to-end; corrupt acks
    /// are never served and are rewritten inline from the served copy.
    pub fn execute_masked(
        &mut self,
        is_read: bool,
        key: &[u8],
        value: &[u8],
        now: SimTime,
        denied: Option<&[bool]>,
    ) -> QuorumOutcome {
        let shard = self.shard_for(key);
        let kind = if is_read { OpKind::Read } else { OpKind::Write };
        let sealed;
        let payload = if !is_read && self.config.integrity.enabled {
            sealed = integrity::seal(key, value);
            sealed.as_slice()
        } else {
            value
        };
        let mut outcome = self.dispatch(shard, kind, key, payload, now, denied);
        for &n in &outcome.fatalities.clone() {
            self.note_fatal(n, now);
        }
        if is_read && outcome.ok {
            self.serve_read(key, now, &mut outcome);
        }
        if !outcome.ok && self.tracer.is_enabled() {
            let acks = outcome.replies.iter().filter(|r| r.ok).count();
            self.tracer.instant(
                Layer::Cluster,
                "quorum_fail",
                now,
                vec![
                    ("shard", Value::U64(shard as u64)),
                    ("op", Value::Str(if is_read { "read" } else { "write" })),
                    ("acks", Value::U64(acks as u64)),
                ],
            );
        }
        outcome
    }

    fn note_fatal(&mut self, n: NodeId, now: SimTime) {
        if self.monitor.mark_down(n, now) == Transition::WentDown {
            self.node_down(
                n,
                now,
                "crashed (fatal storage error)",
                "fatal_storage_error",
            );
        }
    }

    /// Fills a successful quorum read's value with the copy
    /// [`integrity::classify`] serves. With integrity on, corrupt acks
    /// are counted and rewritten inline from the served copy, and a read
    /// whose every valued ack is corrupt is downgraded to a failure —
    /// serving bytes the checksum rejects is exactly what this layer
    /// exists to prevent. A genuine miss (no replica holds the key)
    /// stands with nothing to serve.
    fn serve_read(&mut self, key: &[u8], now: SimTime, outcome: &mut QuorumOutcome) {
        let verify = self.config.integrity.enabled;
        let verdict = integrity::classify(key, &outcome.replies, verify);
        self.integrity.corrupt_acks += verdict.corrupt.len() as u64;
        let Some((_, copy)) = verdict.served else {
            if !verdict.corrupt.is_empty() {
                self.integrity.unserveable_reads += 1;
                outcome.ok = false;
            }
            return;
        };
        // `classify` has verified the copy: strip its seal unchecked.
        outcome.value = Some(if verify {
            integrity::payload(copy).to_vec()
        } else {
            copy.to_vec()
        });
        for &n in &verdict.corrupt {
            let w = self.nodes[n].serve_put(now, key, copy);
            if w.ok {
                self.integrity.read_repairs += 1;
            } else {
                self.integrity.read_repair_failures += 1;
                if w.fatal {
                    self.note_fatal(n, now);
                }
            }
        }
    }

    /// Integrates a client-side circuit-breaker trip: evidence of
    /// repeated failures the heartbeat path may not have seen yet. The
    /// trip is fed to the monitor as a missed probe, so persistent
    /// tripping marks the node down without waiting for heartbeats.
    pub fn report_breaker_trip(&mut self, node: NodeId, now: SimTime) {
        let miss = PROBE_TIMEOUT + SimDuration::from_millis(1);
        if self.monitor.observe_probe(node, now, miss, false) == Transition::WentDown {
            self.node_down(
                node,
                now,
                "marked down (circuit breaker)",
                "circuit_breaker",
            );
        }
    }

    /// One heartbeat round: probe every node, integrate transitions,
    /// attempt reboots of crashed nodes, and fail over replicas that
    /// have been down too long.
    pub fn heartbeat(&mut self, now: SimTime) {
        for n in 0..self.nodes.len() {
            let r = self.nodes[n].serve_get(now, PROBE_KEY);
            let rtt = r.done.saturating_duration_since(now);
            match self.monitor.observe_probe(n, now, rtt, r.ok) {
                Transition::WentDown => {
                    self.node_down(n, now, "marked down (probe timeout)", "probe_timeout");
                }
                Transition::CameUp => {
                    self.record(
                        now,
                        format!("node {n} back up"),
                        "node_up",
                        vec![("node", Value::U64(n as u64))],
                    );
                    self.enqueue_catch_up(n);
                }
                Transition::None => {}
            }
        }
        self.attempt_restarts(now);
        self.attempt_failovers(now);
    }

    fn attempt_restarts(&mut self, now: SimTime) {
        for n in 0..self.nodes.len() {
            if self.nodes[n].running()
                || self.nodes[n].busy_until() > now
                || !self.monitor.take_restart_slot(n, now)
            {
                continue;
            }
            let outcome = self.nodes[n].try_restart(now);
            let (what, traced) = match outcome {
                RestartOutcome::StillDead => ("reboot failed (medium unresponsive)", "failed"),
                RestartOutcome::RecoveredBlank => ("rebooted on a blank drive", "blank_drive"),
                RestartOutcome::Recovered => ("rebooted", "ok"),
            };
            self.record(
                now,
                format!("node {n} {what}"),
                "reboot",
                vec![
                    ("node", Value::U64(n as u64)),
                    ("outcome", Value::Str(traced)),
                ],
            );
            if outcome == RestartOutcome::StillDead {
                continue;
            }
            // A swapped drive carries a fresh vibration input: re-mount
            // the ongoing attack, if any.
            if let Some(tone) = &self.tone {
                let node = &self.nodes[n];
                node.vibration()
                    .set(Some(tone.vibration_at(node.position())));
            }
            if self.monitor.observe_probe(n, now, SimDuration::ZERO, true) == Transition::CameUp {
                self.enqueue_catch_up(n);
            }
        }
    }

    fn attempt_failovers(&mut self, now: SimTime) {
        for n in 0..self.nodes.len() {
            if self.monitor.down_for(n, now) < FAILOVER_AFTER {
                continue;
            }
            let up = self.monitor.up_mask();
            for shard in self.map.shards_on(n) {
                // A replacement replica can only be built from a live
                // peer; a shard whose whole replica set is dead stays
                // pinned to its nodes until they come back (failing over
                // to blank drives would "restore" availability by
                // silently losing the data).
                if !self.map.replicas(shard).iter().any(|&m| m != n && up[m]) {
                    continue;
                }
                let Some(target) = self.map.failover_target(shard, n, &self.topo, &up) else {
                    continue;
                };
                if !self.map.reassign(shard, n, target) {
                    continue;
                }
                self.repairs.enqueue(shard, target);
                self.failovers += 1;
                self.record(
                    now,
                    format!("shard {shard} failed over from node {n} to node {target}"),
                    "failover",
                    vec![
                        ("shard", Value::U64(shard as u64)),
                        ("from", Value::U64(n as u64)),
                        ("to", Value::U64(target as u64)),
                    ],
                );
            }
        }
    }

    /// A rejoined node catches up on every shard it still replicates,
    /// copying from a peer that stayed up.
    fn enqueue_catch_up(&mut self, n: NodeId) {
        for shard in self.map.shards_on(n) {
            self.repairs.enqueue(shard, n);
        }
    }

    /// Pending repair jobs.
    pub fn pending_repairs(&self) -> usize {
        self.repairs.pending()
    }

    /// Advances the background scrubber by up to `budget` keys at `now`:
    /// each key's live replicas are read through the real storage stacks
    /// (bandwidth is paid and accounted), corrupt or missing copies are
    /// classified against a verified sibling, and repair jobs are
    /// enqueued for the damage. Returns keys examined. No-op unless the
    /// cluster runs with integrity on.
    pub fn scrub_step(&mut self, now: SimTime, budget: usize) -> u64 {
        if !self.config.integrity.enabled {
            return 0;
        }
        let total_keys: usize = self.shard_keys.iter().map(Vec::len).sum();
        if total_keys == 0 {
            return 0;
        }
        let deadline = now + REQUEST_TIMEOUT;
        let mut t = now;
        let mut scanned = 0u64;
        while scanned < budget as u64 {
            // Skip empty shards (the cursor always lands on a real key).
            while self.shard_keys[self.scrubber.shard].is_empty() {
                self.scrubber.advance(1, self.config.num_shards);
            }
            let shard = self.scrubber.shard;
            let key = self.shard_keys[shard][self.scrubber.key].clone();
            // Every live replica is read; a failed read is ignored by
            // the verdict (transient failure: next pass retries).
            let mut replies = Vec::new();
            for &n in self.map.replicas(shard) {
                if !self.serviceable(n, deadline) {
                    continue;
                }
                let r = self.nodes[n].serve_get(t, &key);
                t = r.done;
                self.scrubber.stats.replicas_read += 1;
                if let Some(v) = &r.value {
                    self.scrubber.stats.bytes_read += v.len() as u64;
                }
                replies.push(ReplicaReply {
                    node: n,
                    ok: r.ok,
                    done: r.done,
                    value: r.value,
                });
            }
            let verdict = integrity::classify(&key, &replies, true);
            self.scrubber.stats.corrupt_found += verdict.corrupt.len() as u64;
            if verdict.served.is_some() {
                // Only count/repair missing copies when a sibling proves
                // the key exists; and only enqueue repairs when there is
                // something verified to copy from.
                self.scrubber.stats.missing_found += verdict.missing.len() as u64;
                for n in verdict.corrupt.iter().chain(verdict.missing.iter()) {
                    if self.repairs.enqueue(shard, *n) {
                        self.scrubber.stats.repairs_enqueued += 1;
                        self.tracer.instant(
                            Layer::Cluster,
                            "scrub_repair",
                            t,
                            vec![
                                ("shard", Value::U64(shard as u64)),
                                ("node", Value::U64(*n as u64)),
                            ],
                        );
                    }
                }
            }
            scanned += 1;
            self.scrubber.stats.keys_scanned += 1;
            let keys_in_shard = self.shard_keys[shard].len();
            self.scrubber.advance(keys_in_shard, self.config.num_shards);
        }
        scanned
    }

    /// Scrubber work and findings so far.
    pub fn scrub_stats(&self) -> ScrubStats {
        self.scrubber.stats
    }

    /// End-to-end integrity outcomes so far.
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.integrity
    }

    /// Per-node device chaos counters (drives since retired included).
    pub fn chaos_stats(&self) -> Vec<ChaosStats> {
        self.nodes.iter().map(StorageNode::chaos_stats).collect()
    }

    /// Whether node `n` can take a request due by `deadline`: the
    /// monitor believes it up and its busy window ends by then. The one
    /// reachability test quorum dispatch, repair, scrub and the
    /// availability count share.
    pub(crate) fn serviceable(&self, n: NodeId, deadline: SimTime) -> bool {
        self.monitor.is_up(n) && self.nodes[n].busy_until() <= deadline
    }

    /// Shards currently below their write quorum (no write can succeed).
    pub fn unavailable_shards(&self, now: SimTime) -> usize {
        let deadline = now + REQUEST_TIMEOUT;
        (0..self.map.shards())
            .filter(|&s| {
                let serviceable = self
                    .map
                    .replicas(s)
                    .iter()
                    .filter(|&&n| self.serviceable(n, deadline))
                    .count();
                serviceable < self.config.replication.write_quorum
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use deepnote_blockdev::{ChaosPlan, IoError, EIO};

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            num_keys: 120,
            ..WorkloadSpec::default()
        }
    }

    fn cluster(placement: PlacementPolicy) -> Cluster {
        let config = ClusterConfig::three_racks(placement);
        let mut c = Cluster::with_chaos(config, &ChaosProfile::off(), &mut SimRng::seeded(0))
            .expect("launch");
        c.provision(&small_spec()).expect("provision");
        c
    }

    /// One rack of three nodes holding a single shard on all three,
    /// with end-to-end integrity on and `device` chaos on every drive.
    fn sealed_trio(device: ChaosPlan) -> Cluster {
        let mut config = ClusterConfig::three_racks(PlacementPolicy::CoLocated);
        config.racks.truncate(1);
        config.num_shards = 1;
        config.integrity = IntegrityConfig::full();
        let chaos = ChaosProfile {
            device,
            ..ChaosProfile::off()
        };
        Cluster::with_chaos(config, &chaos, &mut SimRng::seeded(0)).expect("launch")
    }

    /// `sealed` with its first byte flipped.
    fn corrupted(sealed: &[u8]) -> Vec<u8> {
        let mut bad = sealed.to_vec();
        bad[0] ^= 0x01;
        bad
    }

    #[test]
    fn a_read_whose_every_ack_is_corrupt_is_refused() {
        let mut c = sealed_trio(ChaosPlan::quiet());
        let key = b"k";
        let bad = corrupted(&integrity::seal(key, b"payload"));
        for n in 0..3 {
            assert!(c.nodes[n].serve_put(SimTime::ZERO, key, &bad).ok);
        }
        let r = c.execute(true, key, b"", SimTime::from_secs(1));
        assert!(!r.ok, "{r:?}");
        assert_eq!(r.value, None);
        let s = c.integrity_stats();
        assert_eq!(s.unserveable_reads, 1);
        assert_eq!(s.corrupt_acks, 3);
        assert_eq!(s.read_repairs, 0);
    }

    #[test]
    fn a_fatal_inline_rewrite_counts_a_failure_and_downs_the_node() {
        // Every drive refuses writes; reads and buffered puts never
        // reach them.
        let mut c = sealed_trio(ChaosPlan::fail_writes(IoError::Medium { errno: EIO }));
        let key = b"k";
        let sealed = integrity::seal(key, b"payload");
        let mut t = SimTime::ZERO;
        for n in 1..3 {
            assert!(c.nodes[n].serve_put(t, key, &sealed).ok);
        }
        // Node 0 holds the corrupt copy, one put short of a WAL group
        // sync: the inline rewrite is the put that syncs.
        let sync_every = ClusterConfig::node_db_config().wal_sync_every_ops;
        for i in 0..sync_every - 2 {
            let r = c.nodes[0].serve_put(t, format!("filler{i}").as_bytes(), b"x");
            assert!(r.ok);
            t = r.done;
        }
        let r = c.nodes[0].serve_put(t, key, &corrupted(&sealed));
        assert!(r.ok);
        t = r.done;
        let r = c.execute(true, key, b"", t);
        assert!(r.ok, "{r:?}");
        assert_eq!(r.value.as_deref(), Some(&b"payload"[..]));
        let s = c.integrity_stats();
        assert_eq!(s.corrupt_acks, 1);
        assert_eq!(s.read_repairs, 0);
        assert_eq!(s.read_repair_failures, 1);
        assert!(!c.monitor().is_up(0), "{:?}", c.events());
        assert!(c.monitor().is_up(1) && c.monitor().is_up(2));
    }

    #[test]
    fn fatal_replicas_go_down_in_dispatch_order() {
        // Nodes 0 and 1 each sit one put short of a WAL group sync on
        // drives that refuse writes, so the next write kills both. Node
        // 0 is busier and dies last, but it is first in the replica list.
        let mut c = sealed_trio(ChaosPlan::fail_writes(IoError::Medium { errno: EIO }));
        let sync_every = ClusterConfig::node_db_config().wal_sync_every_ops;
        for (n, start) in [
            (0, SimTime::ZERO + SimDuration::from_millis(50)),
            (1, SimTime::ZERO),
        ] {
            let mut t = start;
            for i in 0..sync_every - 1 {
                let r = c.nodes[n].serve_put(t, format!("filler{i}").as_bytes(), b"x");
                assert!(r.ok);
                t = r.done;
            }
        }
        let w = c.execute(false, b"k", b"v", SimTime::ZERO);
        assert!(!w.ok, "{w:?}");
        let done = |n| w.replies.iter().find(|r| r.node == n).map(|r| r.done);
        assert!(done(1) < done(0), "{w:?}");
        assert_eq!(w.fatalities, vec![0, 1]);
        assert_eq!(c.first_down().map(|(n, _)| n), Some(0));
        let crashed: Vec<&String> = c
            .events()
            .iter()
            .filter(|e| e.contains("crashed"))
            .collect();
        assert!(
            crashed.len() == 2 && crashed[0].contains("node 0") && crashed[1].contains("node 1"),
            "{crashed:?}"
        );
    }

    #[test]
    fn a_genuine_miss_stands_with_no_value() {
        let mut c = sealed_trio(ChaosPlan::quiet());
        let r = c.execute(true, b"never-written", b"", SimTime::ZERO);
        assert!(r.ok, "{r:?}");
        assert_eq!(r.value, None);
        assert_eq!(c.integrity_stats(), IntegrityStats::default());
    }

    #[test]
    fn provision_makes_every_key_readable_by_quorum() {
        let mut c = cluster(PlacementPolicy::Separated);
        let spec = small_spec();
        let mut t = SimTime::ZERO;
        for i in (0..spec.num_keys).step_by(17) {
            let key = spec.key(i);
            let r = c.execute(true, &key, b"", t);
            assert!(r.ok, "key {i}: {r:?}");
            assert_eq!(r.value, Some(spec.value(i)), "key {i}");
            t += r.latency;
        }
    }

    #[test]
    fn quiet_cluster_reports_no_unavailable_shards() {
        let c = cluster(PlacementPolicy::CoLocated);
        assert_eq!(c.unavailable_shards(SimTime::ZERO), 0);
        assert_eq!(c.failovers(), 0);
        assert_eq!(c.pending_repairs(), 0);
    }

    #[test]
    fn attack_kills_near_rack_quorums_for_colocated_only() {
        let spec = small_spec();
        for (placement, expect_unavailable) in [
            (PlacementPolicy::CoLocated, true),
            (PlacementPolicy::Separated, false),
        ] {
            let mut c = cluster(placement);
            c.set_attack(Some(Frequency::from_hz(650.0)), SimTime::ZERO);
            // Drive writes until the near-rack engines die, with
            // heartbeats so the monitor notices.
            let mut t = SimTime::ZERO;
            for i in 0..600u64 {
                let key = spec.key(i % spec.num_keys);
                let r = c.execute(false, &key, b"update", t);
                t = t + r.latency + SimDuration::from_millis(20);
                if i % 25 == 0 {
                    c.heartbeat(t);
                }
            }
            c.heartbeat(t);
            let unavailable = c.unavailable_shards(t);
            if expect_unavailable {
                assert!(unavailable > 0, "{placement:?} kept all shards available");
            } else {
                assert_eq!(unavailable, 0, "{placement:?} lost shards");
            }
            let crashes: u64 = c.nodes().iter().map(|n| n.counters().crashes).sum();
            assert!(crashes >= 1, "{placement:?}: no node crashed");
        }
    }

    #[test]
    fn events_are_recorded_with_timestamps() {
        let mut c = cluster(PlacementPolicy::CoLocated);
        c.set_attack(Some(Frequency::from_hz(650.0)), SimTime::ZERO);
        let spec = small_spec();
        let mut t = SimTime::ZERO;
        for i in 0..400u64 {
            let key = spec.key(i % spec.num_keys);
            let r = c.execute(false, &key, b"x", t);
            t = t + r.latency + SimDuration::from_millis(10);
        }
        c.heartbeat(t);
        assert!(
            c.events()
                .iter()
                .any(|e| e.contains("crashed") || e.contains("down")),
            "events: {:?}",
            c.events()
        );
    }

    #[test]
    fn every_logged_event_is_also_one_trace_instant() {
        let mut c = cluster(PlacementPolicy::CoLocated);
        let tracer = Tracer::ring(1 << 16);
        c.set_tracer(tracer.clone());
        // Breaker trips mark a far node down.
        for _ in 0..2 {
            c.report_breaker_trip(8, SimTime::ZERO);
        }
        // The attack crashes near-rack engines; heartbeats during it see
        // their reboots fail.
        c.set_attack(Some(Frequency::from_hz(650.0)), SimTime::ZERO);
        let spec = small_spec();
        let mut t = SimTime::ZERO;
        for i in 0..400u64 {
            let key = spec.key(i % spec.num_keys);
            let r = c.execute(false, &key, b"x", t);
            t = t + r.latency + SimDuration::from_millis(10);
        }
        // A crashed node stays busy until its last blocked sync gives up.
        for _ in 0..60 {
            c.heartbeat(t);
            t += SimDuration::from_secs(5);
        }
        let events = c.events().to_vec();
        for wanted in [
            "node 8 marked down (circuit breaker)",
            "crashed (fatal storage error)",
            "reboot failed (medium unresponsive)",
        ] {
            assert!(
                events.iter().any(|e| e.contains(wanted)),
                "{wanted}: {events:?}"
            );
        }
        let log = tracer.take();
        let traced: Vec<String> = log
            .events
            .iter()
            .filter(|e| matches!(e.name, "node_down" | "node_up" | "reboot" | "failover"))
            .map(|e| {
                assert_eq!(e.track, deepnote_telemetry::CONTROL_TRACK);
                format!("t={:7.1}s  {} {:?}", e.at.as_secs_f64(), e.name, e.args)
            })
            .collect();
        assert_eq!(traced.len(), events.len(), "{traced:?}\n{events:?}");
        for (line, instant) in events.iter().zip(&traced) {
            assert_eq!(line[..10], instant[..10], "{line} / {instant}");
        }
        assert!(
            traced[0].contains("Str(\"circuit_breaker\")"),
            "{}",
            traced[0]
        );
        assert!(traced.iter().any(|e| e.contains("Str(\"failed\")")));
    }
}
