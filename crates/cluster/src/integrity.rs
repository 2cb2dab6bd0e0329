//! End-to-end integrity: cluster-level record checksums, read-repair
//! bookkeeping, and the background scrubber's cursor.
//!
//! Every layer below the cluster already checksums *its own* bytes (the
//! KV store guards records, the filesystem guards its journal), but a
//! replica that durably stores the wrong value — flipped before the
//! store saw it — passes every one of those checks. The classic
//! end-to-end argument applies: only a checksum computed next to the
//! client and verified next to the client catches it. [`seal`] appends
//! a 64-bit FNV-1a digest over `key ‖ value` to the stored bytes;
//! [`unseal`] verifies and strips it on the read path. Binding the key
//! into the digest also catches misdirected full records (a valid value
//! stored under the wrong key).
//!
//! `classify` is the one verdict on which replica's copy wins. The
//! [`Scrubber`] is a resumable cursor over `shard × key` that the
//! campaign advances during idle ticks with a per-tick key budget, so
//! scrub bandwidth is bounded and accounted like any other traffic.

use crate::placement::NodeId;
use crate::replication::ReplicaReply;
use serde::{Deserialize, Serialize};

/// Bytes of checksum trailer appended by [`seal`].
pub const SEAL_BYTES: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `key ‖ value`.
pub(crate) fn fnv1a(key: &[u8], value: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in key.iter().chain(value.iter()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Appends the end-to-end checksum trailer to `value` for storage.
pub fn seal(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(value.len() + SEAL_BYTES);
    out.extend_from_slice(value);
    out.extend_from_slice(&fnv1a(key, value).to_le_bytes());
    out
}

/// Verifies a sealed record and returns the payload, or `None` if the
/// trailer is missing or does not match `key ‖ value`.
pub fn unseal<'a>(key: &[u8], sealed: &'a [u8]) -> Option<&'a [u8]> {
    let (value, trailer) = sealed.split_at_checked(sealed.len().checked_sub(SEAL_BYTES)?)?;
    (fnv1a(key, value).to_le_bytes() == trailer).then_some(value)
}

/// The payload of a sealed record already verified, without checking
/// it again: its bytes before the trailer.
pub(crate) fn payload(sealed: &[u8]) -> &[u8] {
    sealed
        .get(..sealed.len().saturating_sub(SEAL_BYTES))
        .unwrap_or_default()
}

/// Whether a sealed record verifies against its key.
pub fn verify(key: &[u8], sealed: &[u8]) -> bool {
    unseal(key, sealed).is_some()
}

/// Whether a cluster runs the end-to-end integrity machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IntegrityConfig {
    /// Seal values on write, verify every replica ack on read, rewrite
    /// a corrupt replica inline from a healthy copy, and run the
    /// background scrubber.
    pub enabled: bool,
}

impl IntegrityConfig {
    /// No end-to-end integrity (the legacy trusting cluster).
    pub fn off() -> Self {
        IntegrityConfig::default()
    }

    /// Checksums, read-repair, and scrubbing all on.
    pub fn full() -> Self {
        IntegrityConfig { enabled: true }
    }
}

/// Integrity outcomes observed on the serving path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IntegrityStats {
    /// Replica acks whose value failed verification.
    pub corrupt_acks: u64,
    /// Corrupt replicas rewritten inline from a healthy copy.
    pub read_repairs: u64,
    /// Inline rewrites that themselves failed.
    pub read_repair_failures: u64,
    /// Reads that acked a quorum but had no verifiable value to serve.
    pub unserveable_reads: u64,
    /// Responses checked against the workload oracle (campaign-level).
    pub oracle_checked: u64,
    /// Responses the oracle proved corrupt — the number the cluster
    /// actually served wrong.
    pub oracle_wrong: u64,
}

/// Scrubber work and findings counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScrubStats {
    /// Keys whose replica set was examined.
    pub keys_scanned: u64,
    /// Individual replica reads issued.
    pub replicas_read: u64,
    /// Payload bytes read while scrubbing (the bandwidth bill).
    pub bytes_read: u64,
    /// Replicas found holding a corrupt record.
    pub corrupt_found: u64,
    /// Replicas missing a record a sibling holds.
    pub missing_found: u64,
    /// Repair jobs enqueued for corrupt/missing replicas.
    pub repairs_enqueued: u64,
    /// Complete passes over the keyspace.
    pub passes: u64,
}

/// Resumable scrub cursor: the next `shard × key` to examine.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Scrubber {
    /// Shard the cursor is in.
    pub shard: usize,
    /// Key index within the shard.
    pub key: usize,
    /// Work and findings so far.
    pub stats: ScrubStats,
}

impl Scrubber {
    /// Advances the cursor one key, wrapping shard and pass boundaries.
    /// `keys_in_shard` is the population of the *current* shard.
    pub fn advance(&mut self, keys_in_shard: usize, num_shards: usize) {
        self.key += 1;
        if self.key >= keys_in_shard {
            self.key = 0;
            self.shard += 1;
            if self.shard >= num_shards {
                self.shard = 0;
                self.stats.passes += 1;
            }
        }
    }
}

/// One key's replica replies, judged: the copy served and the replicas
/// that hold it wrong.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Verdict<'a> {
    /// The served copy and the replica it came from.
    pub served: Option<(NodeId, &'a [u8])>,
    /// Replicas whose in-time copy fails verification.
    pub corrupt: Vec<NodeId>,
    /// Replicas that answered in time without a record.
    pub missing: Vec<NodeId>,
}

/// Decides which copy of `key` a set of replica replies serves: the
/// first in-time reply with a value or, with `verify`, the first whose
/// sealed value verifies. Quorum reads, read repair, repair copies and
/// the scrubber all take their copy from here. Replies that were not in
/// time are ignored; without `verify` no copy counts as corrupt.
///
/// Each seal is checked once per distinct copy: a reply whose bytes
/// equal the copy already served verified with it and is not hashed
/// again. A copy that fails is hashed again in each reply that holds
/// it, so identical bad copies each count as corrupt.
pub(crate) fn classify<'a>(key: &[u8], replies: &'a [ReplicaReply], verify: bool) -> Verdict<'a> {
    let mut verdict = Verdict::default();
    for r in replies.iter().filter(|r| r.ok) {
        let Some(v) = &r.value else {
            verdict.missing.push(r.node);
            continue;
        };
        match verdict.served {
            Some((_, served)) => {
                if verify && served != v.as_slice() && !self::verify(key, v) {
                    verdict.corrupt.push(r.node);
                }
            }
            None if !verify || self::verify(key, v) => {
                verdict.served = Some((r.node, v.as_slice()));
            }
            None => verdict.corrupt.push(r.node),
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_round_trip() {
        let key = b"0000000000000042";
        let value = b"v000000000000042xxxx";
        let sealed = seal(key, value);
        assert_eq!(sealed.len(), value.len() + SEAL_BYTES);
        assert_eq!(unseal(key, &sealed), Some(&value[..]));
        assert!(verify(key, &sealed));
    }

    #[test]
    fn any_flipped_bit_is_detected() {
        let key = b"k";
        let sealed = seal(key, b"payload");
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    unseal(key, &bad).is_none(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn seal_binds_the_key() {
        let sealed = seal(b"key-a", b"value");
        assert!(verify(b"key-a", &sealed));
        assert!(!verify(b"key-b", &sealed), "misdirected record accepted");
    }

    #[test]
    fn short_records_are_rejected() {
        assert!(unseal(b"k", b"1234567").is_none());
        assert!(unseal(b"k", b"").is_none());
    }

    #[test]
    fn empty_value_seals() {
        let sealed = seal(b"k", b"");
        assert_eq!(unseal(b"k", &sealed), Some(&b""[..]));
    }

    #[test]
    fn scrubber_cursor_wraps_and_counts_passes() {
        let mut s = Scrubber::default();
        // Two shards of 2 keys each.
        for _ in 0..4 {
            s.advance(2, 2);
        }
        assert_eq!((s.shard, s.key), (0, 0));
        assert_eq!(s.stats.passes, 1);
    }

    #[test]
    fn classify_separates_healthy_corrupt_missing() {
        let key = b"k";
        let good = seal(key, b"value");
        let mut bad = good.clone();
        bad[0] ^= 0x80;
        let reply = |node, ok, value: Option<&Vec<u8>>| ReplicaReply {
            node,
            ok,
            done: deepnote_sim::SimTime::ZERO,
            value: value.cloned(),
        };
        let replies = vec![
            reply(1, false, Some(&good)),
            reply(2, true, Some(&bad)),
            reply(5, true, Some(&good)),
            reply(7, true, None),
        ];
        let v = classify(key, &replies, true);
        assert_eq!(v.served, Some((5, &good[..])));
        assert_eq!(v.corrupt, vec![2]);
        assert_eq!(v.missing, vec![7]);
        // Without verification the first in-time copy wins, whatever it
        // holds, and nothing counts as corrupt.
        let v = classify(key, &replies, false);
        assert_eq!(v.served, Some((2, &bad[..])));
        assert!(v.corrupt.is_empty());
        assert_eq!(v.missing, vec![7]);
        // No in-time reply: nothing served, nothing judged.
        assert_eq!(classify(key, &replies[..1], true), Verdict::default());
    }

    /// `classify` as it reads without the once-per-copy shortcut: every
    /// in-time copy's seal is checked.
    fn classify_verifying_all<'a>(
        key: &[u8],
        replies: &'a [ReplicaReply],
        verify: bool,
    ) -> Verdict<'a> {
        let mut verdict = Verdict::default();
        for r in replies.iter().filter(|r| r.ok) {
            match &r.value {
                Some(v) if !verify || self::verify(key, v) => {
                    if verdict.served.is_none() {
                        verdict.served = Some((r.node, v.as_slice()));
                    }
                }
                Some(_) => verdict.corrupt.push(r.node),
                None => verdict.missing.push(r.node),
            }
        }
        verdict
    }

    #[test]
    fn classify_matches_verifying_every_copy() {
        // Every sequence of up to five replies over six kinds, so every
        // mix appears in every order: a good copy, a second good copy of
        // another value, two copies corrupt in the same byte, one
        // corrupt elsewhere, a missing record, and a late good copy.
        let key = b"0000000000000042";
        let good = seal(key, b"value");
        let other = seal(key, b"another value");
        let mut bad = good.clone();
        bad[0] ^= 0x80;
        let mut worse = good.clone();
        worse[3] ^= 0x01;
        let kinds: [(bool, Option<&Vec<u8>>); 6] = [
            (true, Some(&good)),
            (true, Some(&other)),
            (true, Some(&bad)),
            (true, Some(&worse)),
            (true, None),
            (false, Some(&good)),
        ];
        let mut sets = 0;
        for len in 0..=5u32 {
            for code in 0..6usize.pow(len) {
                let replies: Vec<ReplicaReply> = (0..len as usize)
                    .map(|node| {
                        let (ok, value) = kinds[code / 6usize.pow(node as u32) % 6];
                        ReplicaReply {
                            node,
                            ok,
                            done: deepnote_sim::SimTime::ZERO,
                            value: value.cloned(),
                        }
                    })
                    .collect();
                for verify in [true, false] {
                    assert_eq!(
                        classify(key, &replies, verify),
                        classify_verifying_all(key, &replies, verify),
                        "verify {verify}, replies {replies:?}"
                    );
                }
                sets += 1;
            }
        }
        assert_eq!(sets, 1 + 6 + 36 + 216 + 1_296 + 7_776);
    }
}
