//! Quorum replication and background re-replication, as [`Cluster`]
//! methods over the cluster's own nodes, shard map and health beliefs.
//!
//! Writes go to every serviceable replica and succeed when a write
//! quorum acknowledges within the 250 ms request timeout; reads are
//! fanned out the same way and succeed on a read quorum. Replicas whose
//! busy window is already deeper than the timeout are not dispatched to
//! at all (load shedding — the connection would time out anyway), which
//! also bounds how far a backlogged node can drift from the cluster
//! timeline.
//!
//! Re-replication is a queue of [`RepairJob`]s drained in bounded steps:
//! each step copies a batch of keys from a live source replica to the
//! target, through the real storage stacks of both nodes, so repair
//! bandwidth is paid in virtual time and accounted in bytes. Which copy
//! a read serves and a repair trusts is `integrity::classify`'s call.

use crate::cluster::Cluster;
use crate::integrity;
use crate::placement::{NodeId, ShardId};
use deepnote_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Replication tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicationConfig {
    /// Replicas per shard (R).
    pub replication: usize,
    /// Acks needed for a write to succeed (W).
    pub write_quorum: usize,
    /// Acks needed for a read to succeed.
    pub read_quorum: usize,
}

impl ReplicationConfig {
    /// Majority quorums over `replication` replicas.
    pub fn majority(replication: usize) -> Self {
        assert!(replication > 0);
        let q = replication / 2 + 1;
        ReplicationConfig {
            replication,
            write_quorum: q,
            read_quorum: q,
        }
    }
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self::majority(3)
    }
}

/// Coordinator-side deadline for collecting acks, and the busy horizon
/// past which a replica is not dispatched to.
pub(crate) const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(250);

/// The kind of client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A quorum read.
    Read,
    /// A quorum write.
    Write,
}

/// The coordinator's verdict on one client operation.
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumOutcome {
    /// Whether the quorum was reached within the timeout.
    pub ok: bool,
    /// Client-observed latency.
    pub latency: SimDuration,
    /// Nodes that returned a fatal error (their process died), in
    /// dispatch order.
    pub fatalities: Vec<NodeId>,
    /// The value a successful read serves.
    pub value: Option<Vec<u8>>,
    /// Every dispatched replica's individual reply, in completion order
    /// (feeds circuit breakers and end-to-end verification).
    pub replies: Vec<ReplicaReply>,
}

/// One replica's reply to a dispatched request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReply {
    /// The replica that was dispatched to.
    pub node: NodeId,
    /// Whether it served the request within the coordinator's deadline.
    pub ok: bool,
    /// When its reply arrived on the cluster timeline.
    pub done: SimTime,
    /// The value it returned, if any.
    pub value: Option<Vec<u8>>,
}

/// Modeled latency of an operation refused without any dispatch (all
/// replicas believed down): one coordinator round-trip.
const FAIL_FAST: SimDuration = SimDuration::from_millis(1);

/// One shard's pending re-replication onto a target node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairJob {
    /// Shard being repaired.
    pub shard: ShardId,
    /// Node receiving the copy.
    pub target: NodeId,
    /// Next index into the shard's key list.
    cursor: usize,
}

/// Totals for the repair subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairStats {
    /// Jobs completed.
    pub jobs_done: u64,
    /// Keys copied.
    pub keys_copied: u64,
    /// Payload bytes moved (key + value, counted once per copy).
    pub bytes_copied: u64,
    /// Copy attempts that failed (source or target unavailable).
    pub copy_failures: u64,
}

/// The background re-replication queue: pending jobs and totals.
/// [`Cluster::repair_step`] drains it.
#[derive(Debug, Clone, Default)]
pub struct RepairQueue {
    jobs: VecDeque<RepairJob>,
    stats: RepairStats,
}

impl RepairQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pending jobs.
    pub fn pending(&self) -> usize {
        self.jobs.len()
    }

    /// Totals so far.
    pub fn stats(&self) -> RepairStats {
        self.stats
    }

    /// Enqueues a copy of `shard` onto `target` unless an identical job
    /// is already pending; returns whether a new job was added.
    pub fn enqueue(&mut self, shard: ShardId, target: NodeId) -> bool {
        if self
            .jobs
            .iter()
            .any(|j| j.shard == shard && j.target == target)
        {
            return false;
        }
        self.jobs.push_back(RepairJob {
            shard,
            target,
            cursor: 0,
        });
        true
    }

    /// Drops any pending jobs targeting `node` (it went down again).
    pub fn cancel_target(&mut self, node: NodeId) {
        self.jobs.retain(|j| j.target != node);
    }
}

impl Cluster {
    /// Dispatches one operation to `shard`'s replicas at `now`.
    ///
    /// Replicas that are not [serviceable](Cluster::serviceable), or
    /// that `denied` masks, are skipped. Every dispatched replica
    /// executes (server work happens whether or not the client waits),
    /// but only acks completing within [`REQUEST_TIMEOUT`] count toward
    /// the quorum. The outcome carries no value yet: the caller picks
    /// the served copy from the replies.
    pub(crate) fn dispatch(
        &mut self,
        shard: ShardId,
        kind: OpKind,
        key: &[u8],
        value: &[u8],
        now: SimTime,
        denied: Option<&[bool]>,
    ) -> QuorumOutcome {
        let deadline = now + REQUEST_TIMEOUT;
        let quorum = match kind {
            OpKind::Read => self.config.replication.read_quorum,
            OpKind::Write => self.config.replication.write_quorum,
        };
        let mut replies: Vec<ReplicaReply> = Vec::new();
        let mut fatalities = Vec::new();
        for &n in self.map.replicas(shard) {
            let masked = denied.is_some_and(|d| d.get(n) == Some(&true));
            if masked || !self.serviceable(n, deadline) {
                continue;
            }
            let r = match kind {
                OpKind::Read => self.nodes[n].serve_get(now, key),
                OpKind::Write => self.nodes[n].serve_put(now, key, value),
            };
            if r.fatal {
                fatalities.push(n);
            }
            replies.push(ReplicaReply {
                node: n,
                ok: r.ok && r.done <= deadline,
                done: r.done,
                value: r.value,
            });
        }
        replies.sort_by_key(|r| (r.done, r.node));
        let (ok, latency) = match replies.iter().filter(|r| r.ok).nth(quorum - 1) {
            Some(r) => (true, r.done.saturating_duration_since(now)),
            None if replies.is_empty() => (false, FAIL_FAST),
            None => (false, REQUEST_TIMEOUT),
        };
        QuorumOutcome {
            ok,
            latency,
            fatalities,
            value: None,
            replies,
        }
    }

    /// Runs one bounded repair step at `now`: copies up to `batch` keys
    /// of the front job whose target and some other replica are
    /// serviceable. Jobs without a live source replica stay queued
    /// (nothing to copy from yet — the co-located failure mode). With
    /// integrity on, every copy is verified before it moves: a corrupt
    /// source copy is skipped in favour of the first other replica
    /// holding a verified one, so repair never propagates corruption.
    /// Returns how many keys moved.
    pub fn repair_step(&mut self, now: SimTime, batch: usize) -> u64 {
        let deadline = now + REQUEST_TIMEOUT;
        let runnable = self.repairs.jobs.iter().enumerate().find_map(|(i, j)| {
            let source = self.repair_source(j, deadline)?;
            self.serviceable(j.target, deadline).then_some((i, source))
        });
        let Some((idx, source)) = runnable else {
            return 0;
        };
        // `idx` came from the scan above, so removal cannot miss; a
        // `None` here would mean the queue changed under us.
        let Some(mut job) = self.repairs.jobs.remove(idx) else {
            return 0;
        };
        let verify = self.config.integrity.enabled;
        let keys = self.shard_keys[job.shard].len();
        let mut moved = 0u64;
        let mut t = now;
        while moved < batch as u64 && job.cursor < keys {
            let key = self.shard_keys[job.shard][job.cursor].clone();
            job.cursor += 1;
            let Some(replies) = self.repair_reads(&job, source, &key, &mut t, deadline) else {
                self.repairs.stats.copy_failures += 1;
                break;
            };
            let verdict = integrity::classify(&key, &replies, verify);
            let Some((_, value)) = verdict.served else {
                if !verdict.corrupt.is_empty() {
                    // No clean copy anywhere right now; skip the key
                    // rather than spread corruption.
                    self.repairs.stats.copy_failures += 1;
                }
                // Otherwise the key was never written: nothing to copy.
                continue;
            };
            let write = self.nodes[job.target].serve_put(t, &key, value);
            if !write.ok {
                self.repairs.stats.copy_failures += 1;
                break;
            }
            t = write.done;
            moved += 1;
            self.repairs.stats.keys_copied += 1;
            self.repairs.stats.bytes_copied += (key.len() + value.len()) as u64;
        }
        if job.cursor >= keys {
            self.repairs.stats.jobs_done += 1;
        } else {
            // More to do (or a transient failure): back of the queue.
            self.repairs.jobs.push_back(job);
        }
        moved
    }

    /// Where `job` copies from: the first serviceable replica of its
    /// shard other than the target.
    fn repair_source(&self, job: &RepairJob, deadline: SimTime) -> Option<NodeId> {
        self.map
            .replicas(job.shard)
            .iter()
            .copied()
            .find(|&n| n != job.target && self.serviceable(n, deadline))
    }

    /// Reads `key` for `job` starting at `*t`, which advances past every
    /// served read: first from `source`, then, while every copy read so
    /// far fails verification, from the shard's other serviceable
    /// replicas one at a time, so the hunt stops at the first verified
    /// copy. The extra reads are charged in virtual time — verified
    /// repair is not free. `None` if the source read failed.
    fn repair_reads(
        &mut self,
        job: &RepairJob,
        source: NodeId,
        key: &[u8],
        t: &mut SimTime,
        deadline: SimTime,
    ) -> Option<Vec<ReplicaReply>> {
        let read = self.nodes[source].serve_get(*t, key);
        if !read.ok {
            return None;
        }
        *t = read.done;
        let mut replies = vec![ReplicaReply {
            node: source,
            ok: true,
            done: read.done,
            value: read.value,
        }];
        let verify = self.config.integrity.enabled;
        for &n in self.map.replicas(job.shard) {
            let verdict = integrity::classify(key, &replies, verify);
            if verdict.served.is_some() || verdict.corrupt.is_empty() {
                break;
            }
            if n == job.target || n == source || !self.serviceable(n, deadline) {
                continue;
            }
            let read = self.nodes[n].serve_get(*t, key);
            if read.ok {
                *t = read.done;
                replies.push(ReplicaReply {
                    node: n,
                    ok: true,
                    done: read.done,
                    value: read.value,
                });
            }
        }
        Some(replies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosProfile;
    use crate::cluster::ClusterConfig;
    use crate::integrity::IntegrityConfig;
    use crate::placement::PlacementPolicy;
    use deepnote_sim::SimRng;

    /// One rack of `nodes` nodes holding a single shard on its first
    /// `replication` nodes.
    fn rack(nodes: usize, replication: usize, integrity: IntegrityConfig) -> Cluster {
        let mut config = ClusterConfig::three_racks(PlacementPolicy::CoLocated);
        config.racks.truncate(1);
        config.racks[0].nodes = nodes;
        config.num_shards = 1;
        config.replication = ReplicationConfig::majority(replication);
        config.integrity = integrity;
        let c = Cluster::with_chaos(config, &ChaosProfile::off(), &mut SimRng::seeded(0))
            .expect("launch");
        assert_eq!(c.map.replicas(0), &(0..replication).collect::<Vec<_>>()[..]);
        c
    }

    /// Marks `down` down in `c`'s health monitor.
    fn mark_down(c: &mut Cluster, down: &[NodeId]) {
        for &n in down {
            // Two missed probes' worth of breaker trips.
            c.report_breaker_trip(n, SimTime::ZERO);
            c.report_breaker_trip(n, SimTime::ZERO);
            assert!(!c.monitor().is_up(n));
        }
    }

    fn acks(o: &QuorumOutcome) -> usize {
        o.replies.iter().filter(|r| r.ok).count()
    }

    #[test]
    fn quorum_write_then_read_roundtrip() {
        let mut c = rack(3, 3, IntegrityConfig::off());
        let w = c.execute(false, b"k", b"v", SimTime::ZERO);
        assert!(w.ok, "{w:?}");
        assert_eq!(w.replies.len(), 3);
        assert!(acks(&w) >= 2);
        let r = c.execute(true, b"k", b"", SimTime::ZERO + w.latency);
        assert!(r.ok);
        assert_eq!(r.value.as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn down_replicas_are_skipped_but_quorum_survives_one_loss() {
        let mut c = rack(3, 3, IntegrityConfig::off());
        mark_down(&mut c, &[1]);
        let w = c.execute(false, b"k", b"v", SimTime::ZERO);
        assert!(w.ok);
        assert_eq!(w.replies.len(), 2);
    }

    #[test]
    fn no_live_replica_fails_fast() {
        let mut c = rack(3, 3, IntegrityConfig::off());
        mark_down(&mut c, &[0, 1, 2]);
        let w = c.execute(false, b"k", b"v", SimTime::ZERO);
        assert!(!w.ok);
        assert_eq!(w.replies.len(), 0);
        assert!(w.latency < REQUEST_TIMEOUT);
    }

    #[test]
    fn minority_acks_fail_the_quorum() {
        let mut c = rack(3, 3, IntegrityConfig::off());
        mark_down(&mut c, &[1, 2]);
        let w = c.execute(false, b"k", b"v", SimTime::ZERO);
        assert!(!w.ok);
        assert_eq!(acks(&w), 1);
        assert_eq!(w.latency, REQUEST_TIMEOUT);
    }

    #[test]
    fn repair_copies_a_shard_to_its_new_target() {
        // Shard 0 lives on nodes 0 and 1; write some keys to node 0 only
        // (as if node 1 was a blank failover target... here we repair to
        // node 2 instead).
        let mut c = rack(3, 2, IntegrityConfig::off());
        let keys: Vec<Vec<u8>> = (0..10u32)
            .map(|i| format!("k{i:03}").into_bytes())
            .collect();
        let mut t = SimTime::ZERO;
        for k in &keys {
            let r = c.nodes[0].serve_put(t, k, b"payload");
            assert!(r.ok);
            t = r.done;
        }
        c.shard_keys = vec![keys.clone()];
        c.repairs.enqueue(0, 2);
        assert_eq!(c.pending_repairs(), 1);
        let mut total = 0;
        for _ in 0..8 {
            total += c.repair_step(t, 4);
            t += SimDuration::from_millis(100);
        }
        assert_eq!(total, 10);
        assert_eq!(c.pending_repairs(), 0);
        let s = c.repair_stats();
        assert_eq!(s.jobs_done, 1);
        assert_eq!(s.keys_copied, 10);
        assert!(s.bytes_copied > 10 * 7);
        // The copy really landed on node 2.
        let r = c.nodes[2].serve_get(t, &keys[0]);
        assert_eq!(r.value.as_deref(), Some(&b"payload"[..]));
    }

    #[test]
    fn repair_waits_for_a_live_source() {
        let mut c = rack(2, 1, IntegrityConfig::off());
        c.shard_keys = vec![vec![b"k".to_vec()]];
        c.repairs.enqueue(0, 1);
        // The only source (node 0) is down: nothing moves, job stays.
        mark_down(&mut c, &[0]);
        assert_eq!(c.repair_step(SimTime::ZERO, 8), 0);
        assert_eq!(c.pending_repairs(), 1);
    }

    #[test]
    fn checksummed_repair_refuses_a_corrupt_source() {
        // Three replicas of shard 0; node 0 (the preferred source) holds
        // a corrupt copy, node 1 a verified one, node 2 is the target.
        let mut c = rack(3, 3, IntegrityConfig::full());
        let key = b"k".to_vec();
        let sealed = integrity::seal(&key, b"payload");
        let mut corrupt = sealed.clone();
        corrupt[0] ^= 0x01;
        assert!(c.nodes[0].serve_put(SimTime::ZERO, &key, &corrupt).ok);
        assert!(c.nodes[1].serve_put(SimTime::ZERO, &key, &sealed).ok);
        c.shard_keys = vec![vec![key.clone()]];
        c.repairs.enqueue(0, 2);
        let mut t = SimTime::from_secs(1);
        let mut moved = 0;
        for _ in 0..4 {
            moved += c.repair_step(t, 4);
            t += SimDuration::from_millis(100);
        }
        assert_eq!(moved, 1);
        // The target received the verified copy, not the corrupt one.
        let r = c.nodes[2].serve_get(t, &key);
        assert_eq!(r.value.as_deref(), Some(&sealed[..]));
    }

    #[test]
    fn repair_hunt_stops_at_the_first_verified_copy() {
        // Node 0 (the source) is corrupt, nodes 1 and 2 hold verified
        // copies, node 3 is the target: node 2 is never read.
        let mut c = rack(4, 4, IntegrityConfig::full());
        let key = b"k".to_vec();
        let sealed = integrity::seal(&key, b"payload");
        let mut corrupt = sealed.clone();
        corrupt[0] ^= 0x01;
        assert!(c.nodes[0].serve_put(SimTime::ZERO, &key, &corrupt).ok);
        for n in 1..3 {
            assert!(c.nodes[n].serve_put(SimTime::ZERO, &key, &sealed).ok);
        }
        c.shard_keys = vec![vec![key.clone()]];
        c.repairs.enqueue(0, 3);
        let t = SimTime::from_secs(1);
        let idle = c.nodes[2].busy_until();
        assert_eq!(c.repair_step(t, 4), 1);
        assert!(c.nodes[1].busy_until() > t, "the hunt skipped node 1");
        assert_eq!(c.nodes[2].busy_until(), idle, "the hunt read past node 1");
        let r = c.nodes[3].serve_get(t, &key);
        assert_eq!(r.value.as_deref(), Some(&sealed[..]));
    }

    #[test]
    fn duplicate_jobs_are_not_enqueued_and_targets_can_be_cancelled() {
        let mut q = RepairQueue::new();
        q.enqueue(0, 1);
        q.enqueue(0, 1);
        assert_eq!(q.pending(), 1);
        q.enqueue(1, 1);
        q.cancel_target(1);
        assert_eq!(q.pending(), 0);
    }
}
