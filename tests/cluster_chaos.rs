//! The chaos layer, end to end: seeded fault injection against the full
//! cluster, with the defense stack (end-to-end checksums, scrubbing,
//! read repair, resilient clients) duelling the bare quorum path.
//!
//! Three claims, each proved by running the same faults twice:
//!
//! 1. **Integrity** — under silent corruption, a checksummed cluster
//!    with scrub + read repair serves *zero* wrong answers and drains
//!    its repair queue, while the no-integrity baseline provably serves
//!    corrupt reads (the oracle catches it).
//! 2. **Resilience** — under transient fault bursts, the retrying,
//!    hedging client completes strictly more operations than the
//!    one-shot baseline.
//! 3. **Determinism** — a chaos campaign is a pure function of its
//!    seed: same config, byte-identical report and JSON, and the same
//!    traced log and fault counters.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_cluster::prelude::*;
use deepnote_cluster::timeline::{AttackLoad, Phase};
use deepnote_sim::SimDuration;

/// A quiet 60 s timeline: no acoustic attack, so engine crashes and
/// blank-drive swaps cannot confound the integrity accounting — every
/// wrong byte is the chaos profile's doing.
fn quiet_timeline() -> AttackTimeline {
    AttackTimeline::new(vec![Phase {
        label: "steady".into(),
        duration: SimDuration::from_secs(60),
        load: AttackLoad::Off,
    }])
}

/// Replicas that silently hold corrupt records from the start: the
/// end-to-end failure mode layer-local checksums cannot see.
fn preload_corruption() -> ChaosProfile {
    let mut chaos = ChaosProfile::off();
    chaos.label = "preload-corruption".into();
    chaos.preload_flip = 0.05;
    chaos
}

fn corruption_duel_config(hardened: bool) -> CampaignConfig {
    let mut c = CampaignConfig::paper_duel(PlacementPolicy::Separated, SimDuration::from_secs(10));
    c.label = if hardened { "hardened" } else { "naive" }.to_string();
    c.timeline = quiet_timeline();
    c.workload.num_keys = 600;
    c.chaos = preload_corruption();
    c.verify_responses = true;
    if hardened {
        c.cluster.integrity = IntegrityConfig::full();
    }
    c
}

#[test]
fn checksummed_cluster_serves_zero_corrupt_responses_and_drains_repairs() {
    let report = run_campaign(&corruption_duel_config(true)).expect("campaign");
    let ig = &report.integrity;
    assert!(
        ig.oracle_checked > 1_000,
        "oracle barely exercised: {} reads checked",
        ig.oracle_checked
    );
    assert_eq!(
        ig.oracle_wrong, 0,
        "checksummed cluster served corrupt data: {ig:?}"
    );
    // The corruption was really there and really found…
    let write_flips: u64 = report
        .node_counters
        .iter()
        .map(|c| c.corrupted_writes)
        .sum();
    assert!(write_flips > 0, "preload flip injected nothing");
    assert!(
        ig.corrupt_acks + report.scrub.corrupt_found > 0,
        "no corruption detected despite {write_flips} flipped records"
    );
    // …and really fixed: repairs ran and the queue is empty at the end.
    assert!(
        ig.read_repairs + report.scrub.repairs_enqueued > 0,
        "nothing was repaired"
    );
    assert_eq!(
        report.pending_repairs, 0,
        "repair queue did not drain: {} jobs left",
        report.pending_repairs
    );
    assert!(report.scrub.keys_scanned > 0, "scrubber never ran");
}

#[test]
fn naive_cluster_provably_serves_corrupt_reads_under_the_same_faults() {
    let report = run_campaign(&corruption_duel_config(false)).expect("campaign");
    let ig = &report.integrity;
    assert!(ig.oracle_checked > 1_000, "oracle barely exercised");
    assert!(
        ig.oracle_wrong > 0,
        "without end-to-end checksums some corrupt reads must slip through \
         ({} checked)",
        ig.oracle_checked
    );
    assert_eq!(ig.corrupt_acks, 0, "no checksums, so nothing is detected");
}

fn transient_duel_config(resilient: bool) -> CampaignConfig {
    let mut c = CampaignConfig::paper_duel(PlacementPolicy::Separated, SimDuration::from_secs(20));
    c.label = if resilient { "resilient" } else { "one-shot" }.to_string();
    // The default 50/50 mix over the full keyspace: transient delays
    // ride WAL syncs, so write traffic is what drags busy windows over
    // the quorum deadline (a read-only population would barely touch
    // the device).
    c.chaos = ChaosProfile::transient();
    if resilient {
        c.client = Some(ClientPolicy::standard());
    }
    c
}

fn total_ok(r: &deepnote_cluster::report::CampaignReport) -> u64 {
    r.metrics
        .phases
        .iter()
        .map(|p| p.reads.ok + p.writes.ok)
        .sum()
}

fn total_attempted(r: &deepnote_cluster::report::CampaignReport) -> u64 {
    r.metrics
        .phases
        .iter()
        .map(|p| p.reads.attempted + p.writes.attempted)
        .sum()
}

#[test]
fn resilient_client_beats_the_one_shot_path_under_transient_bursts() {
    let resilient = run_campaign(&transient_duel_config(true)).expect("campaign");
    let naive = run_campaign(&transient_duel_config(false)).expect("campaign");
    let naive_ratio = total_ok(&naive) as f64 / total_attempted(&naive) as f64;
    let resilient_ratio = total_ok(&resilient) as f64 / total_attempted(&resilient) as f64;
    assert!(
        naive_ratio < 1.0,
        "transient profile injected no failures; the duel proves nothing"
    );
    assert!(
        resilient_ratio > naive_ratio,
        "retries should recover transient failures: resilient {resilient_ratio} vs naive {naive_ratio}"
    );
    let stats = resilient
        .resilience
        .expect("resilient run has client stats");
    assert!(stats.retries > 0, "no retries were ever issued");
    assert!(
        stats.recovered_by_retry > 0,
        "retries never rescued an operation"
    );
}

#[test]
fn chaos_campaigns_are_byte_identical_per_seed() {
    let config = {
        let (mut hardened, _) = CampaignConfig::chaos_pair(
            PlacementPolicy::Separated,
            SimDuration::from_secs(20),
            &ChaosProfile::full(),
        );
        hardened.workload.num_keys = 400;
        hardened.telemetry.trace = true;
        hardened
    };
    let a = run_campaign(&config).expect("campaign");
    let b = run_campaign(&config).expect("campaign");
    assert_eq!(a.render(), b.render(), "human report diverged");
    assert_eq!(a.to_json(), b.to_json(), "JSON artifact diverged");
    assert_eq!(a.trace, b.trace, "traced log diverged");
    assert_eq!(a.chaos, b.chaos, "fault counters diverged");
    assert_eq!(a.events, b.events, "control-plane events diverged");
    assert!(
        a.total_injected_faults() > 0,
        "the full profile should inject device faults"
    );
    let log = a.trace.expect("traced run");
    assert!(log.events.iter().any(|e| e.name == "chaos_fault"));
}
