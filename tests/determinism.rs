//! Reproducibility: the whole evaluation is deterministic — two runs of
//! any harness produce bit-identical results.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_acoustics::{Distance, SweepPlan};
use deepnote_cluster::prelude::*;
use deepnote_core::experiments::{crash, frequency, range};
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
        ..BenchSpec::default()
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
