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
    quorum_execute, OpKind, QuorumOutcome, RepairQueue, RepairReason, RepairStats,
    ReplicationConfig,
};
use crate::workload::WorkloadSpec;
use deepnote_acoustics::Frequency;
use deepnote_blockdev::{ChaosEvent, ChaosStats};
use deepnote_core::testbed::Testbed;
use deepnote_core::threat::AttackParams;
use deepnote_kv::DbConfig;
use deepnote_sim::{SimDuration, SimRng, SimTime};
use deepnote_structures::Scenario;
use deepnote_telemetry::{Layer, Tracer, Value, CONTROL_TRACK};
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
    config: ClusterConfig,
    testbed: Testbed,
    topo: Topology,
    nodes: Vec<StorageNode>,
    map: ShardMap,
    monitor: HealthMonitor,
    repairs: RepairQueue,
    shard_keys: Vec<Vec<Vec<u8>>>,
    current_attack: Option<Frequency>,
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
    /// Builds and launches every node, healthy and silent.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeLaunch`] if formatting the drive image the
    /// nodes are copied from fails.
    pub fn new(config: ClusterConfig) -> Result<Self, ClusterError> {
        Self::with_chaos(config, &ChaosProfile::off(), &mut SimRng::seeded(0))
    }

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
                    topo.node_rack[n],
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
            current_attack: None,
            failovers: 0,
            events: Vec::new(),
            integrity: IntegrityStats::default(),
            scrubber: Scrubber::default(),
            tracer: Tracer::disabled(),
            first_down: None,
            config,
        })
    }

    /// Attaches a tracer to the control plane and every node's stack.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for node in &mut self.nodes {
            node.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// A control-plane instant (cluster-timeline timestamps, never
    /// offset-shifted).
    fn trace_event(&self, name: &'static str, now: SimTime, args: Vec<(&'static str, Value)>) {
        self.tracer
            .instant(Layer::Cluster, CONTROL_TRACK, name, now, args);
    }

    /// The first node ever marked down and when, if any node was.
    pub fn first_down(&self) -> Option<(NodeId, SimTime)> {
        self.first_down
    }

    fn mark_first_down(&mut self, n: NodeId, now: SimTime) {
        if self.first_down.is_none() {
            self.first_down = Some((n, now));
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
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
        if frequency.map(|f| f.hz()) == self.current_attack.map(|f| f.hz()) {
            return;
        }
        self.current_attack = frequency;
        // One tone reaches every node: evaluate its frequency terms once.
        let tone = frequency.map(|f| self.testbed.at_frequency(f));
        for n in 0..self.nodes.len() {
            let node = &self.nodes[n];
            match &tone {
                Some(tone) => node
                    .vibration()
                    .set(Some(tone.vibration_at(node.position()))),
                None => self.testbed.stop_attack(node.vibration()),
            }
            if !self.tracer.enabled(Layer::Acoustics) {
                continue;
            }
            match &tone {
                Some(tone) => {
                    let spl = tone.received_spl(node.position());
                    // The vibration input is already mounted: the probe
                    // reads the servo's response to this very tone.
                    let offtrack_nm = node.probe().offtrack_nm;
                    self.tracer.instant(
                        Layer::Acoustics,
                        CONTROL_TRACK,
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
                    CONTROL_TRACK,
                    "silence",
                    now,
                    vec![("node", Value::U64(n as u64))],
                ),
            }
        }
    }

    /// The frequency currently transmitted, if any.
    pub fn current_attack(&self) -> Option<Frequency> {
        self.current_attack
    }

    /// Received sound pressure level at node `n` under the current
    /// tone, in dB (0 when the speaker is silent).
    pub fn received_spl_db(&self, n: NodeId) -> f64 {
        match self.current_attack {
            Some(f) => self
                .testbed
                .received_spl(AttackParams {
                    frequency: f,
                    distance: self.nodes[n].position(),
                })
                .db(),
            None => 0.0,
        }
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
    /// on top of the health monitor's belief. With integrity on, writes
    /// are sealed and every read ack is verified end-to-end; corrupt
    /// acks are never served and are rewritten inline from the earliest
    /// verified copy.
    pub fn execute_masked(
        &mut self,
        is_read: bool,
        key: &[u8],
        value: &[u8],
        now: SimTime,
        denied: Option<&[bool]>,
    ) -> QuorumOutcome {
        let shard = self.shard_for(key);
        let mut up = self.monitor.up_mask();
        if let Some(denied) = denied {
            for (u, &d) in up.iter_mut().zip(denied) {
                if d {
                    *u = false;
                }
            }
        }
        let kind = if is_read { OpKind::Read } else { OpKind::Write };
        let sealed;
        let payload = if !is_read && self.config.integrity.enabled {
            sealed = integrity::seal(key, value);
            sealed.as_slice()
        } else {
            value
        };
        let mut outcome = quorum_execute(
            &mut self.nodes,
            self.map.replicas(shard),
            &up,
            kind,
            key,
            payload,
            now,
            &self.config.replication,
        );
        for &n in &outcome.fatalities.clone() {
            self.note_fatal(n, now);
        }
        if is_read && self.config.integrity.enabled {
            self.verify_read(key, now, &mut outcome);
        }
        if !outcome.ok && self.tracer.enabled(Layer::Cluster) {
            self.trace_event(
                "quorum_fail",
                now,
                vec![
                    ("shard", Value::U64(shard as u64)),
                    ("op", Value::Str(if is_read { "read" } else { "write" })),
                    ("acks", Value::U64(outcome.acks as u64)),
                ],
            );
        }
        outcome
    }

    fn note_fatal(&mut self, n: NodeId, now: SimTime) {
        if self.monitor.mark_down(n, now) == Transition::WentDown {
            self.note(now, format!("node {n} crashed (fatal storage error)"));
            self.mark_first_down(n, now);
            self.trace_event(
                "node_down",
                now,
                vec![
                    ("node", Value::U64(n as u64)),
                    ("reason", Value::Str("fatal_storage_error")),
                ],
            );
            self.repairs.cancel_target(n);
        }
    }

    /// End-to-end verification of a quorum read: serve only the
    /// earliest verified copy, count corrupt acks, and rewrite them
    /// inline. A read that acked a quorum but produced no
    /// verifiable value is downgraded to a failure — serving bytes the
    /// checksum rejects is exactly what this layer exists to prevent.
    fn verify_read(&mut self, key: &[u8], now: SimTime, outcome: &mut QuorumOutcome) {
        if !outcome.ok {
            return;
        }
        let mut healthy: Option<Vec<u8>> = None;
        let mut corrupt: Vec<NodeId> = Vec::new();
        let mut saw_value = false;
        for r in &outcome.replies {
            if !r.ok {
                continue;
            }
            let Some(v) = &r.value else { continue };
            saw_value = true;
            if integrity::verify(key, v) {
                if healthy.is_none() {
                    healthy = Some(v.clone());
                }
            } else {
                corrupt.push(r.node);
            }
        }
        self.integrity.corrupt_acks += corrupt.len() as u64;
        match healthy {
            Some(sealed_copy) => {
                outcome.value = integrity::unseal(key, &sealed_copy).map(<[u8]>::to_vec);
                for n in corrupt {
                    let w = self.nodes[n].serve_put(now, key, &sealed_copy);
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
            None if saw_value => {
                // Every ack with a value was corrupt: refuse the read.
                self.integrity.unserveable_reads += 1;
                outcome.ok = false;
                outcome.value = None;
            }
            None => {
                // A genuine miss (no replica holds the key): the quorum
                // stands, there is just nothing to serve.
                outcome.value = None;
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
            self.note(now, format!("node {node} marked down (circuit breaker)"));
            self.mark_first_down(node, now);
            self.trace_event(
                "node_down",
                now,
                vec![
                    ("node", Value::U64(node as u64)),
                    ("reason", Value::Str("circuit_breaker")),
                ],
            );
            self.repairs.cancel_target(node);
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
                    self.note(now, format!("node {n} marked down (probe timeout)"));
                    self.mark_first_down(n, now);
                    self.trace_event(
                        "node_down",
                        now,
                        vec![
                            ("node", Value::U64(n as u64)),
                            ("reason", Value::Str("probe_timeout")),
                        ],
                    );
                    self.repairs.cancel_target(n);
                }
                Transition::CameUp => {
                    self.note(now, format!("node {n} back up"));
                    self.trace_event("node_up", now, vec![("node", Value::U64(n as u64))]);
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
            match self.nodes[n].try_restart(now) {
                RestartOutcome::StillDead => {
                    self.note(now, format!("node {n} reboot failed (medium unresponsive)"));
                    self.trace_event(
                        "reboot",
                        now,
                        vec![
                            ("node", Value::U64(n as u64)),
                            ("outcome", Value::Str("failed")),
                        ],
                    );
                }
                outcome => {
                    if outcome == RestartOutcome::RecoveredBlank {
                        self.note(now, format!("node {n} rebooted on a blank drive"));
                    } else {
                        self.note(now, format!("node {n} rebooted"));
                    }
                    self.trace_event(
                        "reboot",
                        now,
                        vec![
                            ("node", Value::U64(n as u64)),
                            (
                                "outcome",
                                Value::Str(if outcome == RestartOutcome::RecoveredBlank {
                                    "blank_drive"
                                } else {
                                    "ok"
                                }),
                            ),
                        ],
                    );
                    // A swapped drive carries a fresh vibration input:
                    // re-mount the ongoing attack, if any.
                    if let Some(f) = self.current_attack {
                        self.testbed.mount_attack(
                            self.nodes[n].vibration(),
                            AttackParams {
                                frequency: f,
                                distance: self.nodes[n].position(),
                            },
                        );
                    }
                    if self.monitor.observe_probe(n, now, SimDuration::ZERO, true)
                        == Transition::CameUp
                    {
                        self.enqueue_catch_up(n);
                    }
                }
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
                self.repairs.enqueue(shard, target, RepairReason::Failover);
                self.failovers += 1;
                self.note(
                    now,
                    format!("shard {shard} failed over from node {n} to node {target}"),
                );
                self.trace_event(
                    "failover",
                    now,
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
            self.repairs.enqueue(shard, n, RepairReason::CatchUp);
        }
    }

    /// Runs one bounded repair step; returns keys moved.
    pub fn repair_step(&mut self, now: SimTime, batch: usize) -> u64 {
        let up = self.monitor.up_mask();
        self.repairs.step(
            &mut self.nodes,
            &self.map,
            &up,
            &self.shard_keys,
            batch,
            now,
            &self.config.replication,
            self.config.integrity.enabled,
        )
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
        let deadline = now + self.config.replication.request_timeout;
        let mut t = now;
        let mut scanned = 0u64;
        while scanned < budget as u64 {
            // Skip empty shards (the cursor always lands on a real key).
            while self.shard_keys[self.scrubber.shard].is_empty() {
                self.scrubber.advance(1, self.config.num_shards);
            }
            let shard = self.scrubber.shard;
            let key = self.shard_keys[shard][self.scrubber.key].clone();
            let replicas = self.map.replicas(shard).to_vec();
            let mut reads: Vec<(NodeId, Option<Vec<u8>>)> = Vec::new();
            for n in replicas {
                if !self.monitor.is_up(n) || self.nodes[n].busy_until() > deadline {
                    continue;
                }
                let r = self.nodes[n].serve_get(t, &key);
                t = r.done;
                self.scrubber.stats.replicas_read += 1;
                if !r.ok {
                    continue; // transient failure: next pass retries
                }
                if let Some(v) = &r.value {
                    self.scrubber.stats.bytes_read += v.len() as u64;
                }
                reads.push((n, r.value));
            }
            let verdict = Scrubber::classify(&key, &reads);
            self.scrubber.stats.corrupt_found += verdict.corrupt.len() as u64;
            if verdict.healthy.is_some() {
                // Only count/repair missing copies when a sibling proves
                // the key exists; and only enqueue repairs when there is
                // something verified to copy from.
                self.scrubber.stats.missing_found += verdict.missing.len() as u64;
                for n in verdict.corrupt.iter().chain(verdict.missing.iter()) {
                    if self.repairs.enqueue(shard, *n, RepairReason::Scrub) {
                        self.scrubber.stats.repairs_enqueued += 1;
                        self.trace_event(
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

    /// Adds campaign-level oracle outcomes to the integrity counters.
    pub fn record_oracle(&mut self, checked: u64, wrong: u64) {
        self.integrity.oracle_checked += checked;
        self.integrity.oracle_wrong += wrong;
    }

    /// Per-node device chaos counters (drives since retired included).
    pub fn chaos_stats(&self) -> Vec<ChaosStats> {
        self.nodes.iter().map(StorageNode::chaos_stats).collect()
    }

    /// Per-node device fault traces, in request order.
    pub fn fault_traces(&self) -> Vec<Vec<ChaosEvent>> {
        self.nodes.iter().map(StorageNode::fault_trace).collect()
    }

    /// Shards currently below their write quorum (no write can succeed).
    pub fn unavailable_shards(&self, now: SimTime) -> usize {
        let deadline = now + self.config.replication.request_timeout;
        (0..self.map.shards())
            .filter(|&s| {
                let serviceable = self
                    .map
                    .replicas(s)
                    .iter()
                    .filter(|&&n| self.monitor.is_up(n) && self.nodes[n].busy_until() <= deadline)
                    .count();
                serviceable < self.config.replication.write_quorum
            })
            .count()
    }

    fn note(&mut self, now: SimTime, what: String) {
        self.events
            .push(format!("t={:7.1}s  {what}", now.as_secs_f64()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            num_keys: 120,
            ..WorkloadSpec::default()
        }
    }

    fn cluster(placement: PlacementPolicy) -> Cluster {
        let mut c = Cluster::new(ClusterConfig::three_racks(placement)).expect("launch");
        c.provision(&small_spec()).expect("provision");
        c
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
}
