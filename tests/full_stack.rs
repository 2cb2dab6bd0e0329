//! End-to-end integration: the acoustic chain drives the mechanical
//! drive, which starves the filesystem, OS, and database above it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_blockdev::HddDisk;
use deepnote_core::prelude::*;
use deepnote_fs::{Filesystem, FsState};
use deepnote_iobench::{run_job, JobSpec};
use deepnote_kv::{bench, Db};
use deepnote_os::{OsState, ServerOs};

fn scenario2() -> Testbed {
    Testbed::paper_default(Scenario::PlasticTower)
}

#[test]
fn attack_propagates_from_speaker_to_fio() {
    let testbed = scenario2();
    let clock = Clock::new();
    let mut disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();

    // Healthy.
    let healthy = run_job(
        &JobSpec::seq_write("w").with_runtime(SimDuration::from_secs(3)),
        &mut disk,
        &clock,
    );
    assert!((healthy.throughput_mb_s - 22.7).abs() < 0.3);

    // Attack at the best parameters: blackout.
    testbed.mount_attack(&vibration, AttackParams::paper_best());
    let attacked = run_job(
        &JobSpec::seq_write("w").with_runtime(SimDuration::from_secs(3)),
        &mut disk,
        &clock,
    );
    assert_eq!(attacked.throughput_mb_s, 0.0);
    assert_eq!(attacked.latency_cell(), "-");

    // Stop: full recovery.
    vibration.clear();
    let recovered = run_job(
        &JobSpec::seq_write("w").with_runtime(SimDuration::from_secs(3)),
        &mut disk,
        &clock,
    );
    assert!((recovered.throughput_mb_s - 22.7).abs() < 0.3);
}

#[test]
fn attack_aborts_filesystem_through_the_whole_stack() {
    let testbed = scenario2();
    let clock = Clock::new();
    let disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();
    let mut fs = Filesystem::format(disk, clock.clone()).unwrap();
    fs.create_file("/data").unwrap();
    fs.write_file("/data", 0, b"precious").unwrap();
    fs.commit().unwrap();

    testbed.mount_attack(&vibration, AttackParams::paper_best());
    fs.write_file("/data", 0, b"doomed??").unwrap(); // buffered
    let err = fs.commit().unwrap_err();
    assert!(err.is_fatal(), "{err}");
    assert!(matches!(fs.state(), FsState::Aborted { errno: -5 }));

    // The device itself recorded real failed mechanical operations.
    vibration.clear();
    assert!(fs.device_mut().write_errors() > 0);
}

#[test]
fn os_and_db_both_die_under_sustained_attack_and_survive_without() {
    let testbed = scenario2();

    // Without attack: both live through 120 virtual seconds.
    {
        let clock = Clock::new();
        let mut os =
            ServerOs::install(HddDisk::barracuda_500gb(clock.clone()), clock.clone()).unwrap();
        for _ in 0..120 {
            os.write_log("tick").unwrap();
            clock.advance(SimDuration::from_secs(1));
            os.tick();
        }
        assert!(os.running());
    }

    // With attack: the server dies.
    {
        let clock = Clock::new();
        let disk = HddDisk::barracuda_500gb(clock.clone());
        let vibration = disk.vibration();
        let mut os = ServerOs::install(disk, clock.clone()).unwrap();
        testbed.mount_attack(&vibration, AttackParams::paper_best());
        let mut crashed = false;
        for _ in 0..200 {
            let _ = os.write_log("tick");
            clock.advance(SimDuration::from_secs(1));
            if matches!(os.tick(), OsState::Crashed { .. }) {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "server must crash under sustained attack");
        assert!(os.klog().count_containing("journal has aborted") > 0);
    }

    // The database dies with the paper's signature.
    {
        let clock = Clock::new();
        let disk = HddDisk::barracuda_500gb(clock.clone());
        let vibration = disk.vibration();
        let mut db = Db::create(disk, clock).unwrap();
        let spec = bench::BenchSpec {
            num_keys: 2_000,
            duration: SimDuration::from_secs(200),
            ..Default::default()
        };
        bench::fill_seq(&mut db, &spec).unwrap();
        testbed.mount_attack(&vibration, AttackParams::paper_best());
        let report = bench::read_while_writing(&mut db, &spec);
        assert!(report.crashed_at_s.is_some(), "{report:?}");
        assert!(db.crashed());
    }
}

#[test]
fn partial_attack_degrades_without_killing() {
    // 15 cm: the Table-1 "writes crawl, reads fine" regime, through the
    // whole database stack.
    let testbed = scenario2();
    let clock = Clock::new();
    let disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();
    let mut db = Db::create(disk, clock).unwrap();
    let spec = bench::BenchSpec {
        num_keys: 5_000,
        duration: SimDuration::from_secs(5),
        ..Default::default()
    };
    bench::fill_seq(&mut db, &spec).unwrap();

    let baseline = bench::read_while_writing(&mut db, &spec);
    testbed.mount_attack(
        &vibration,
        AttackParams::paper_best().at_distance(Distance::from_cm(15.0)),
    );
    let degraded = bench::read_while_writing(&mut db, &spec);
    assert!(degraded.crashed_at_s.is_none(), "{degraded:?}");
    assert!(
        degraded.throughput_mb_s < 0.7 * baseline.throughput_mb_s,
        "degraded {} vs baseline {}",
        degraded.throughput_mb_s,
        baseline.throughput_mb_s
    );
    assert!(degraded.throughput_mb_s > 0.0);
}

#[test]
fn scenario1_weaker_than_scenario2_at_the_band_edge() {
    // The tower amplifies: at a frequency near the band edge Scenario 2
    // should hit harder than Scenario 1 (Fig. 2 separation).
    let f = Frequency::from_hz(1_450.0);
    let d = Distance::from_cm(1.0);
    let v1 = Testbed::paper_default(Scenario::PlasticDirect).vibration_at(f, d);
    let v2 = Testbed::paper_default(Scenario::PlasticTower).vibration_at(f, d);
    assert!(v2.displacement_nm() > v1.displacement_nm());
}
