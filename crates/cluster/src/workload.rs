//! The closed-loop client population.
//!
//! `clients` independent clients each run issue → wait-for-reply → think
//! → repeat on the cluster timeline, so offered load self-throttles when
//! the cluster slows down (goodput and latency degrade together, as they
//! do for real closed-loop benchmarks). Key choice is uniform or
//! YCSB-style Zipf; the read/write mix is a Bernoulli draw per
//! operation. Every client owns a forked [`SimRng`] stream, so the whole
//! population is deterministic for a fixed seed.

use deepnote_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// How clients pick keys.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KeyDistribution {
    /// Uniform over the keyspace.
    Uniform,
    /// Zipf-skewed with the given exponent in `(0, 1)`.
    Zipf {
        /// Skew exponent (YCSB's theta).
        theta: f64,
    },
}

/// Client population parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Fraction of operations that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Distinct keys in the keyspace.
    pub num_keys: u64,
    /// Key size in bytes.
    pub key_size: usize,
    /// Value size in bytes.
    pub value_size: usize,
    /// Think time between a reply and the client's next request.
    pub think_time: SimDuration,
    /// Key popularity model.
    pub distribution: KeyDistribution,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            clients: 6,
            read_fraction: 0.5,
            num_keys: 1_200,
            key_size: 16,
            value_size: 96,
            think_time: SimDuration::from_millis(100),
            distribution: KeyDistribution::Uniform,
        }
    }
}

impl WorkloadSpec {
    /// Encodes key index `i` as a fixed-width key (at least 16 bytes).
    pub fn key(&self, i: u64) -> Vec<u8> {
        let mut k = Vec::new();
        deepnote_kv::bench::write_key(&mut k, i, self.key_size);
        k
    }

    /// A deterministic value for key index `i` (at least 16 bytes).
    pub fn value(&self, i: u64) -> Vec<u8> {
        let mut v = Vec::new();
        deepnote_kv::bench::write_value(&mut v, i, self.value_size.max(16));
        v
    }
}

/// One operation a client decided to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOp {
    /// Key index in `[0, num_keys)`.
    pub key_index: u64,
    /// Whether this is a read.
    pub is_read: bool,
}

/// One closed-loop client.
#[derive(Debug, Clone)]
pub struct Client {
    rng: SimRng,
}

impl Client {
    /// Draws the client's next operation.
    pub fn next_op(&mut self, spec: &WorkloadSpec) -> ClientOp {
        let is_read = self.rng.chance(spec.read_fraction);
        let key_index = match spec.distribution {
            KeyDistribution::Uniform => self.rng.below(spec.num_keys),
            KeyDistribution::Zipf { theta } => self.rng.zipf(spec.num_keys, theta),
        };
        ClientOp { key_index, is_read }
    }
}

/// The whole client population.
#[derive(Debug, Clone)]
pub struct ClientPool {
    clients: Vec<Client>,
}

impl ClientPool {
    /// Forks one RNG stream per client off `root`.
    pub fn new(spec: &WorkloadSpec, root: &mut SimRng) -> Self {
        assert!(spec.clients > 0, "workload needs at least one client");
        assert!(spec.num_keys > 0, "workload needs a non-empty keyspace");
        assert!(
            (0.0..=1.0).contains(&spec.read_fraction),
            "read fraction must be in [0, 1]"
        );
        ClientPool {
            clients: (0..spec.clients)
                .map(|i| Client {
                    rng: root.fork(i as u64),
                })
                .collect(),
        }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the pool is empty (it never is; see [`ClientPool::new`]).
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Draws client `i`'s next operation.
    pub fn next_op(&mut self, i: usize, spec: &WorkloadSpec) -> ClientOp {
        self.clients[i].next_op(spec)
    }

    /// Staggered first-issue time for client `i`, spreading the
    /// population over one think interval so requests do not arrive in
    /// lockstep.
    pub fn first_issue(&self, i: usize, spec: &WorkloadSpec) -> SimTime {
        let step = spec.think_time.as_nanos() / self.clients.len().max(1) as u64;
        SimTime::ZERO + SimDuration::from_nanos(step * i as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_and_values_are_fixed_width_and_deterministic() {
        let spec = WorkloadSpec::default();
        assert_eq!(spec.key(7).len(), 16);
        assert_eq!(spec.value(7).len(), 96);
        assert_eq!(spec.key(7), spec.key(7));
        assert_ne!(spec.key(7), spec.key(8));
    }

    #[test]
    fn population_is_deterministic_per_seed() {
        let spec = WorkloadSpec::default();
        let mut a = ClientPool::new(&spec, &mut SimRng::seeded(9));
        let mut b = ClientPool::new(&spec, &mut SimRng::seeded(9));
        for i in 0..spec.clients {
            for _ in 0..50 {
                assert_eq!(a.next_op(i, &spec), b.next_op(i, &spec));
            }
        }
    }

    #[test]
    fn clients_have_independent_streams() {
        let spec = WorkloadSpec::default();
        let mut pool = ClientPool::new(&spec, &mut SimRng::seeded(9));
        let a: Vec<_> = (0..20).map(|_| pool.next_op(0, &spec)).collect();
        let b: Vec<_> = (0..20).map(|_| pool.next_op(1, &spec)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn read_fraction_is_respected() {
        let spec = WorkloadSpec {
            read_fraction: 0.8,
            ..WorkloadSpec::default()
        };
        let mut pool = ClientPool::new(&spec, &mut SimRng::seeded(4));
        let reads = (0..2000).filter(|_| pool.next_op(0, &spec).is_read).count();
        assert!((1_450..1_750).contains(&reads), "reads={reads}");
    }

    #[test]
    fn first_issues_are_staggered_within_one_think_time() {
        let spec = WorkloadSpec::default();
        let pool = ClientPool::new(&spec, &mut SimRng::seeded(1));
        let times: Vec<_> = (0..spec.clients)
            .map(|i| pool.first_issue(i, &spec))
            .collect();
        assert_eq!(times[0], SimTime::ZERO);
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(*times.last().unwrap() < SimTime::ZERO + spec.think_time);
    }

    #[test]
    fn zipf_skews_toward_hot_keys() {
        let spec = WorkloadSpec {
            distribution: KeyDistribution::Zipf { theta: 0.9 },
            ..WorkloadSpec::default()
        };
        let mut pool = ClientPool::new(&spec, &mut SimRng::seeded(5));
        let low = (0..2000)
            .filter(|_| pool.next_op(0, &spec).key_index < spec.num_keys / 10)
            .count();
        assert!(low > 1000, "low-decile draws = {low}");
    }
}
