//! Reproducibility: the whole evaluation is deterministic — two runs of
//! any harness produce bit-identical results.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_acoustics::{Distance, SweepPlan};
use deepnote_cluster::prelude::*;
use deepnote_core::experiments::{crash, frequency, range, stealth};
use deepnote_core::prelude::*;
use deepnote_kv::bench::BenchSpec;
use deepnote_sim::SimDuration;

#[test]
fn table1_is_deterministic() {
    let a = range::table1(2);
    let b = range::table1(2);
    assert_eq!(a, b);
}

#[test]
fn table2_is_deterministic() {
    let spec = BenchSpec {
        num_keys: 2_000,
        duration: SimDuration::from_secs(2),
        ..BenchSpec::default()
    };
    let a = range::table2(&spec);
    let b = range::table2(&spec);
    assert_eq!(a, b);
}

#[test]
fn figure2_is_deterministic() {
    let plan = SweepPlan::paper_sweep();
    let a = frequency::figure2(Distance::from_cm(1.0), &plan);
    let b = frequency::figure2(Distance::from_cm(1.0), &plan);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.write.points(), y.write.points());
        assert_eq!(x.read.points(), y.read.points());
    }
}

#[test]
fn crash_times_are_deterministic() {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let a = crash::ext4_crash(&testbed);
    let b = crash::ext4_crash(&testbed);
    assert_eq!(a.time_to_crash_s, b.time_to_crash_s);
}

#[test]
fn cluster_campaign_is_deterministic_per_seed() {
    // The full distributed stack — quorum serving, failure detection,
    // failover, re-replication — replays operation for operation under a
    // fixed seed: the serialized reports are byte-identical, down to the
    // timestamped control-plane event log.
    let config = || {
        let mut c =
            CampaignConfig::paper_duel(PlacementPolicy::CoLocated, SimDuration::from_secs(30));
        c.workload.num_keys = 240;
        c.workload.clients = 4;
        c
    };
    let a = run_campaign(&config()).expect("campaign");
    let b = run_campaign(&config()).expect("campaign");
    assert_eq!(a.render().into_bytes(), b.render().into_bytes());
    assert_eq!(a.events, b.events);
    assert_eq!(a.repair, b.repair);
    assert_eq!(a.max_unavailable_by_phase, b.max_unavailable_by_phase);
    // The duel summary (both placements side by side) is deterministic
    // too, through the parallel matrix runner.
    let duel = |placement| {
        let mut c = CampaignConfig::paper_duel(placement, SimDuration::from_secs(30));
        c.workload.num_keys = 240;
        c.workload.clients = 4;
        c
    };
    let matrix = || -> Vec<CampaignReport> {
        run_matrix(vec![
            duel(PlacementPolicy::Separated),
            duel(PlacementPolicy::CoLocated),
        ])
        .into_iter()
        .map(|r| r.expect("matrix run"))
        .collect()
    };
    assert_eq!(
        render_duel(&matrix()).into_bytes(),
        render_duel(&matrix()).into_bytes()
    );
}

#[test]
fn different_seeds_change_stochastic_runs_but_not_physics() {
    // The physics chain is seed-free; only the op-level retries are
    // stochastic. Two drives with different seeds agree on blackout
    // (deterministic escalation) but may differ in partially-degraded
    // throughput.
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let v1 = testbed.vibration_at(Frequency::from_hz(650.0), Distance::from_cm(1.0));
    let v2 = testbed.vibration_at(Frequency::from_hz(650.0), Distance::from_cm(1.0));
    assert_eq!(v1.displacement_nm(), v2.displacement_nm());
}

/// Virtual-time golden for the single-drive `Db<HddDisk>` stack: a
/// `fillseq` load, half a second of `readwhilewriting` under a partial
/// (15 cm) attack, a clean close, a reopen, and a batch of gets that
/// fault SSTables back in lazily. Host-side changes to `kv` or `fs` must
/// leave every device I/O and every virtual nanosecond where it was, so
/// the constants below only move when the simulated behaviour does.
#[test]
fn single_drive_kv_stack_matches_its_virtual_time_golden() {
    use deepnote_kv::bench::{fill_seq, read_while_writing};
    use deepnote_kv::{Db, DbStats};
    use deepnote_sim::SimRng;

    let spec = BenchSpec {
        num_keys: 20_000,
        duration: SimDuration::from_millis(500),
        seed: 7,
    };
    let clock = Clock::new();
    let disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();
    let mut db = Db::create(disk, clock.clone()).unwrap();
    fill_seq(&mut db, &spec).unwrap();
    Testbed::paper_default(Scenario::PlasticTower).mount_attack(
        &vibration,
        AttackParams::paper_best().at_distance(Distance::from_cm(15.0)),
    );
    let report = read_while_writing(&mut db, &spec);
    let stats = db.stats();
    let disk = db.close().unwrap();

    let mut db = Db::open(disk, clock.clone()).unwrap();
    let mut rng = SimRng::seeded(11);
    let mut found = 0u64;
    for _ in 0..400 {
        if db
            .get(&spec.key(rng.below(spec.num_keys)))
            .unwrap()
            .is_some()
        {
            found += 1;
        }
    }
    let drive = db.filesystem().device().drive();
    // Debug output prints each f64 in its shortest round-trip form, so
    // this string pins the report bit for bit.
    assert_eq!(
        format!("{report:?}"),
        "BenchReport { ops: 26150, failed_ops: 0, bytes: 2092000, \
         elapsed_s: 0.500021996, throughput_mb_s: 4.183815945568923, \
         ops_per_s: 52297.699319611536, crashed_at_s: None }"
    );
    assert_eq!(
        stats,
        DbStats {
            puts: 25_230,
            gets: 20_920,
            deletes: 0,
            flushes: 9,
            compactions: 1,
            wal_syncs: 27,
            user_bytes: 2_018_400,
            flush_bytes: 2_096_404,
            compaction_bytes: 1_311_000,
        }
    );
    assert_eq!(
        db.stats(),
        DbStats {
            gets: 400,
            ..DbStats::default()
        }
    );
    assert_eq!(found, 400);
    assert_eq!(clock.now().as_nanos(), 1_714_469_495);
    assert_eq!(drive.ops_completed(), 3_467);
    assert_eq!(drive.retries_total(), 57);
}

/// FNV-1a 64 over a byte string: a compact pin for a whole artifact.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Byte golden for the campaign event loop: the JSON report, the human
/// report and the Chrome trace of two campaigns, pinned as FNV-1a 64
/// digests. (a) is the co-located paper duel; (b) is a separated
/// hardened cell under the full chaos profile with tracing and a 500 ms
/// metrics scrape, so every event stream (phase, heartbeat, repair,
/// scrub, sample, client, scrape) interleaves. A change to the queue's
/// ordering, or to which stream wins at an equal instant, moves these.
#[test]
fn cluster_campaign_matches_its_golden() {
    let mut duel =
        CampaignConfig::paper_duel(PlacementPolicy::CoLocated, SimDuration::from_secs(30));
    duel.workload.num_keys = 240;
    duel.workload.clients = 4;
    let (mut chaos, _) = CampaignConfig::chaos_pair(
        PlacementPolicy::Separated,
        SimDuration::from_secs(20),
        &ChaosProfile::parse("full").unwrap(),
    );
    chaos.workload.num_keys = 400;
    chaos.telemetry.trace = true;
    chaos.telemetry.metrics_interval = Some(SimDuration::from_millis(500));

    let digests = |config: &CampaignConfig| {
        let report = run_campaign(config).expect("campaign");
        let trace = report.trace.as_ref().map_or(0, |log| {
            fnv1a64(deepnote_telemetry::export_chrome_trace(&[("run", log)]).as_bytes())
        });
        [
            fnv1a64(report.to_json().as_bytes()),
            fnv1a64(report.render().as_bytes()),
            trace,
        ]
    };
    // (a) runs untraced, so it has no trace digest.
    assert_eq!(
        digests(&duel),
        [0xdcd6_de14_ab45_78bd, 0x5b93_2ab9_a4fa_a098, 0],
        "co-located duel"
    );
    assert_eq!(
        digests(&chaos),
        [
            0x8abd_b39f_411b_4d05,
            0xb8c1_01ea_a9fc_7b62,
            0x52fe_98d5_fcc9_fd57
        ],
        "separated full-chaos cell"
    );
}

/// Byte golden for the two artifacts the defender-side and client-side
/// constants feed: the `deepnote stealth` duty-cycle table (the attack
/// detector's calibration, window and alarm thresholds) and both JSON
/// reports of a co-located hardened-vs-naive duel under the `transient`
/// chaos profile (the resilient client's deadlines, backoff, hedging and
/// breakers, and the health monitor's timings). Pinned as FNV-1a 64
/// digests; a change to any of those values moves them.
#[test]
fn stealth_and_transient_duel_match_their_golden() {
    let sweep = stealth::duty_cycle_sweep(&Testbed::paper_default(Scenario::PlasticTower));
    assert_eq!(
        fnv1a64(stealth::render(&sweep).as_bytes()),
        0x81f1_85ab_9f68_9487,
        "stealth table"
    );

    let (mut hardened, mut naive) = CampaignConfig::chaos_pair(
        PlacementPolicy::CoLocated,
        SimDuration::from_secs(20),
        &ChaosProfile::transient(),
    );
    hardened.workload.num_keys = 400;
    naive.workload.num_keys = 400;
    let json = |config: &CampaignConfig| {
        fnv1a64(run_campaign(config).expect("campaign").to_json().as_bytes())
    };
    assert_eq!(
        [json(&hardened), json(&naive)],
        [0x3de5_f7f3_94b6_18e8, 0xe209_3a0a_3523_2258],
        "co-located transient duel"
    );
}
