//! Shard placement: key → shard → replica set, rack-aware.
//!
//! The cluster's data plane is a fixed keyspace hashed onto `num_shards`
//! shards; each shard is replicated on `replication` nodes. Where those
//! replicas physically sit decides whether the cluster survives an
//! acoustic attack: the paper's single-speaker adversary takes out one
//! enclosure column, so replicas that share a rack share a fate.
//!
//! Two policies are compared throughout the crate:
//!
//! * [`PlacementPolicy::CoLocated`] — all replicas of a shard in one
//!   rack (minimal inter-rack traffic, the naive layout);
//! * [`PlacementPolicy::Separated`] — one replica per rack, round-robin
//!   (acoustic fault domains, the defensive layout).

use crate::integrity::fnv1a;
use deepnote_acoustics::Distance;
use serde::{Deserialize, Serialize};

/// Index of a node within the cluster.
pub type NodeId = usize;
/// Index of a shard within the keyspace.
pub type ShardId = usize;

/// How replicas of one shard relate acoustically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// All replicas of a shard live in the same rack.
    CoLocated,
    /// Replicas of a shard are spread across distinct racks.
    Separated,
}

impl PlacementPolicy {
    /// Human-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::CoLocated => "co-located",
            PlacementPolicy::Separated => "separated",
        }
    }
}

/// One rack (enclosure column) of the physical layout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackSpec {
    /// Distance of the rack's nearest node from the attack point, cm.
    pub distance_cm: f64,
    /// Spacing between consecutive nodes within the rack, cm.
    pub spacing_cm: f64,
    /// Number of nodes in the rack.
    pub nodes: usize,
}

/// The physical topology: which rack each node sits in and how far each
/// node is from the sound source.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Rack index per node.
    pub node_rack: Vec<usize>,
    /// Distance from the attack point per node.
    pub node_distance: Vec<Distance>,
    /// Number of racks.
    pub racks: usize,
}

impl Topology {
    /// Lays out nodes rack by rack, assigning dense node ids.
    ///
    /// # Panics
    ///
    /// Panics if `racks` is empty or any rack has zero nodes.
    pub fn build(racks: &[RackSpec]) -> Self {
        assert!(!racks.is_empty(), "topology needs at least one rack");
        let mut node_rack = Vec::new();
        let mut node_distance = Vec::new();
        for (r, spec) in racks.iter().enumerate() {
            assert!(spec.nodes > 0, "rack {r} has no nodes");
            for i in 0..spec.nodes {
                node_rack.push(r);
                node_distance.push(Distance::from_cm(
                    spec.distance_cm + spec.spacing_cm * i as f64,
                ));
            }
        }
        Topology {
            node_rack,
            node_distance,
            racks: racks.len(),
        }
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> usize {
        self.node_rack.len()
    }

    /// Node ids in rack `r`, in id order.
    pub fn rack_members(&self, r: usize) -> Vec<NodeId> {
        (0..self.nodes())
            .filter(|&n| self.node_rack[n] == r)
            .collect()
    }
}

/// FNV-1a over the key bytes: stable, seed-free key → shard routing.
pub fn shard_of(key: &[u8], num_shards: usize) -> ShardId {
    assert!(num_shards > 0, "cluster needs at least one shard");
    (fnv1a(key, &[]) % num_shards as u64) as usize
}

/// The replica assignment: for every shard, which nodes hold it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMap {
    replicas: Vec<Vec<NodeId>>,
}

impl ShardMap {
    /// Builds the initial assignment under `policy`.
    ///
    /// Co-located: shard `s` lives entirely in rack `s % racks`, on the
    /// `replication` round-robin members of that rack. Separated: shard
    /// `s` takes one node from each of `replication` consecutive racks.
    ///
    /// # Panics
    ///
    /// Panics if the topology cannot satisfy the policy (`replication`
    /// exceeds the rack size for co-located, or the rack count for
    /// separated).
    pub fn build(
        topo: &Topology,
        num_shards: usize,
        replication: usize,
        policy: PlacementPolicy,
    ) -> Self {
        assert!(num_shards > 0 && replication > 0);
        let replicas = (0..num_shards)
            .map(|s| match policy {
                PlacementPolicy::CoLocated => {
                    let members = topo.rack_members(s % topo.racks);
                    assert!(
                        members.len() >= replication,
                        "rack too small for co-located replication {replication}"
                    );
                    (0..replication)
                        .map(|k| members[(s / topo.racks + k) % members.len()])
                        .collect()
                }
                PlacementPolicy::Separated => {
                    assert!(
                        topo.racks >= replication,
                        "need at least {replication} racks for separated placement"
                    );
                    (0..replication)
                        .map(|k| {
                            let members = topo.rack_members((s + k) % topo.racks);
                            members[s % members.len()]
                        })
                        .collect()
                }
            })
            .collect();
        ShardMap { replicas }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.replicas.len()
    }

    /// The replica set of `shard`.
    pub fn replicas(&self, shard: ShardId) -> &[NodeId] {
        &self.replicas[shard]
    }

    /// Shards that have a replica on `node`.
    pub fn shards_on(&self, node: NodeId) -> Vec<ShardId> {
        (0..self.replicas.len())
            .filter(|&s| self.replicas[s].contains(&node))
            .collect()
    }

    /// Replaces `old` with `new` in `shard`'s replica set (failover).
    ///
    /// Returns `false` (and leaves the set untouched) if `old` is not a
    /// replica or `new` already is — both indicate a stale failover
    /// decision and are debug-asserted, but the shard map stays
    /// consistent either way.
    #[must_use]
    pub fn reassign(&mut self, shard: ShardId, old: NodeId, new: NodeId) -> bool {
        let set = &mut self.replicas[shard];
        if set.contains(&new) {
            debug_assert!(false, "node {new} already replicates shard {shard}");
            return false;
        }
        let Some(slot) = set.iter().position(|&n| n == old) else {
            debug_assert!(
                false,
                "reassign of a non-replica (shard {shard}, node {old})"
            );
            return false;
        };
        set[slot] = new;
        true
    }

    /// Picks a failover target for `shard` replacing `old`: a healthy
    /// node that does not already hold the shard, preferring a rack not
    /// yet represented in the replica set (keeps the separated property
    /// when possible) and, among eligible nodes, the least-loaded one so
    /// repair traffic spreads instead of piling onto the first survivor.
    /// Returns `None` if no healthy candidate exists.
    pub fn failover_target(
        &self,
        shard: ShardId,
        old: NodeId,
        topo: &Topology,
        healthy: &[bool],
    ) -> Option<NodeId> {
        let set = self.replicas(shard);
        let used_racks: Vec<usize> = set
            .iter()
            .filter(|&&n| n != old)
            .map(|&n| topo.node_rack[n])
            .collect();
        let load: Vec<usize> = (0..topo.nodes()).map(|n| self.shards_on(n).len()).collect();
        let candidate = |diverse: bool| {
            (0..topo.nodes())
                .filter(|&n| {
                    healthy[n]
                        && !set.contains(&n)
                        && (!diverse || !used_racks.contains(&topo.node_rack[n]))
                })
                .min_by_key(|&n| (load[n], n))
        };
        candidate(true).or_else(|| candidate(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_racks() -> Topology {
        Topology::build(&[
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
        ])
    }

    #[test]
    fn topology_assigns_racks_and_distances() {
        let t = three_racks();
        assert_eq!(t.nodes(), 9);
        assert_eq!(t.node_rack[0], 0);
        assert_eq!(t.node_rack[8], 2);
        assert_eq!(t.rack_members(1), vec![3, 4, 5]);
        assert!((t.node_distance[4].cm() - 61.0).abs() < 1e-9);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let a = shard_of(b"0000000000000042", 12);
        assert_eq!(a, shard_of(b"0000000000000042", 12));
        for i in 0..100u64 {
            let k = format!("{i:016}");
            assert!(shard_of(k.as_bytes(), 12) < 12);
        }
    }

    #[test]
    fn shard_of_spreads_keys() {
        let mut counts = vec![0usize; 8];
        for i in 0..4000u64 {
            counts[shard_of(format!("{i:016}").as_bytes(), 8)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 250), "skewed: {counts:?}");
    }

    #[test]
    fn colocated_replicas_share_a_rack() {
        let t = three_racks();
        let map = ShardMap::build(&t, 12, 3, PlacementPolicy::CoLocated);
        for s in 0..map.shards() {
            let racks: Vec<_> = map.replicas(s).iter().map(|&n| t.node_rack[n]).collect();
            assert!(
                racks.windows(2).all(|w| w[0] == w[1]),
                "shard {s}: {racks:?}"
            );
        }
    }

    #[test]
    fn separated_replicas_span_racks() {
        let t = three_racks();
        let map = ShardMap::build(&t, 12, 3, PlacementPolicy::Separated);
        for s in 0..map.shards() {
            let mut racks: Vec<_> = map.replicas(s).iter().map(|&n| t.node_rack[n]).collect();
            racks.sort_unstable();
            racks.dedup();
            assert_eq!(racks.len(), 3, "shard {s} not rack-diverse");
        }
    }

    #[test]
    fn replicas_are_distinct_nodes() {
        let t = three_racks();
        for policy in [PlacementPolicy::CoLocated, PlacementPolicy::Separated] {
            let map = ShardMap::build(&t, 12, 3, policy);
            for s in 0..map.shards() {
                let mut set = map.replicas(s).to_vec();
                set.sort_unstable();
                set.dedup();
                assert_eq!(set.len(), 3, "{policy:?} shard {s} duplicates a node");
            }
        }
    }

    #[test]
    fn failover_prefers_rack_diversity() {
        let t = three_racks();
        let map = ShardMap::build(&t, 3, 2, PlacementPolicy::Separated);
        let old = map.replicas(0)[0];
        // Every node healthy except the failed one.
        let mut healthy = vec![true; t.nodes()];
        healthy[old] = false;
        let target = map.failover_target(0, old, &t, &healthy).unwrap();
        let surviving_rack = t.node_rack[map.replicas(0)[1]];
        assert_ne!(t.node_rack[target], surviving_rack);
    }

    #[test]
    fn failover_falls_back_when_no_diverse_rack_is_healthy() {
        let t = three_racks();
        let map = ShardMap::build(&t, 3, 2, PlacementPolicy::Separated);
        let set: Vec<_> = map.replicas(0).to_vec();
        let old = set[0];
        let surviving_rack = t.node_rack[set[1]];
        // Only the surviving replica's rack stays healthy.
        let healthy: Vec<bool> = (0..t.nodes())
            .map(|n| t.node_rack[n] == surviving_rack)
            .collect();
        let target = map.failover_target(0, old, &t, &healthy).unwrap();
        assert_eq!(t.node_rack[target], surviving_rack);
        assert!(!set.contains(&target));
    }

    #[test]
    fn reassign_swaps_membership() {
        let t = three_racks();
        let mut map = ShardMap::build(&t, 3, 2, PlacementPolicy::Separated);
        let old = map.replicas(1)[0];
        let healthy = vec![true; t.nodes()];
        let new = map.failover_target(1, old, &t, &healthy).unwrap();
        assert!(map.reassign(1, old, new));
        assert!(map.replicas(1).contains(&new));
        assert!(!map.replicas(1).contains(&old));
        assert!(map.shards_on(new).contains(&1));
    }
}
