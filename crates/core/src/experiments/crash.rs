//! Table 3: crashes in real-world applications (§4.4).
//!
//! Each victim runs its normal workload; after a warm-up period the
//! attack starts at the paper's best parameters (650 Hz, 140 dB, 1 cm,
//! Scenario 2) and stays on until the application dies. The reported
//! time-to-crash is measured from attack start, like the paper's.

use crate::parallel::run_all;
use crate::testbed::Testbed;
use crate::threat::AttackParams;
use deepnote_blockdev::HddDisk;
use deepnote_fs::{Filesystem, FsError};
use deepnote_kv::bench::{write_key, write_value, BenchSpec, KEY_SIZE, VALUE_SIZE};
use deepnote_kv::{Db, DbError};
use deepnote_os::{OsState, ServerOs};
use deepnote_sim::{Clock, SimDuration};
use deepnote_structures::Scenario;
use serde::{Deserialize, Serialize};

/// How long the victim runs healthily before the attack starts.
pub const WARMUP: SimDuration = SimDuration::from_secs(10);
/// Give up if the application survives this long under attack.
pub const ATTACK_LIMIT: SimDuration = SimDuration::from_secs(300);

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashRow {
    /// Application name ("Ext4", "Ubuntu", "RocksDB").
    pub application: String,
    /// The paper's description column.
    pub description: String,
    /// Seconds from attack start to crash, `None` if it survived.
    pub time_to_crash_s: Option<f64>,
    /// The error the application died with.
    pub error: String,
}

/// Ext4 under attack: an application appends to a log file while the
/// journal commits on its 5-second timer; the blocked commit aborts the
/// journal with error −5.
pub fn ext4_crash(testbed: &Testbed) -> CrashRow {
    let clock = Clock::new();
    let disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();
    let mut fs = Filesystem::format(disk, clock.clone()).expect("format succeeds");
    fs.create("/var").expect("setup");
    fs.create("/var/log").expect("setup");
    fs.create_file("/var/log/app.log").expect("setup");

    let mut offset = 0u64;
    let mut append = |fs: &mut Filesystem<HddDisk>| -> Result<(), FsError> {
        let line = format!("[{}] request served\n", fs.clock().now());
        let data = line.into_bytes();
        let r = fs.write_file("/var/log/app.log", offset, &data);
        if r.is_ok() {
            offset += data.len() as u64;
        }
        r
    };

    // Warm-up; end right after a journal commit so the measured
    // time-to-crash spans one full commit interval plus the JBD patience,
    // matching the paper's timeline.
    let mut commits_seen = 0;
    loop {
        append(&mut fs).expect("healthy phase");
        fs.tick(clock.now()).expect("healthy phase");
        let commits = fs.stats().journal_commits;
        let committed_now = commits > commits_seen;
        commits_seen = commits;
        clock.advance(SimDuration::from_millis(100));
        if clock.now().as_secs_f64() >= WARMUP.as_secs_f64() && committed_now {
            break;
        }
    }
    let attack_start = clock.now();
    testbed.mount_attack(&vibration, AttackParams::paper_best());

    let deadline = attack_start + ATTACK_LIMIT;
    let mut error = String::new();
    let mut crashed = None;
    while clock.now() < deadline {
        // The application may see transient EIO while the kernel's
        // journal thread keeps running — tick unconditionally.
        let _ = append(&mut fs);
        let step = fs.tick(clock.now());
        if let Err(e @ FsError::JournalAborted { .. }) = step {
            crashed = Some((clock.now() - attack_start).as_secs_f64());
            error = e.to_string();
            break;
        }
        clock.advance(SimDuration::from_millis(100));
    }
    CrashRow {
        application: "Ext4".to_string(),
        description: "Journaling filesystem".to_string(),
        time_to_crash_s: crashed,
        error,
    }
}

/// Ubuntu server under attack: syslog writes, periodic `ls`, writeback
/// and journal daemons, until the root filesystem dies under it.
pub fn ubuntu_crash(testbed: &Testbed) -> CrashRow {
    let clock = Clock::new();
    let disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();
    let mut os = ServerOs::install(disk, clock.clone()).expect("install succeeds");

    while clock.now().as_secs_f64() < WARMUP.as_secs_f64() {
        os.write_log("healthy heartbeat").expect("healthy phase");
        clock.advance(SimDuration::from_secs(1));
        os.tick();
    }
    assert!(os.running(), "server must survive warm-up");
    let attack_start = clock.now();
    testbed.mount_attack(&vibration, AttackParams::paper_best());

    let deadline = attack_start + ATTACK_LIMIT;
    let mut crashed = None;
    let mut error = String::new();
    while clock.now() < deadline {
        let _ = os.write_log("request under attack");
        let _ = os.exec("ls");
        clock.advance(SimDuration::from_secs(1));
        if let OsState::Crashed { at, reason } = os.tick() {
            crashed = Some((*at - attack_start).as_secs_f64());
            error = reason.clone();
            break;
        }
    }
    CrashRow {
        application: "Ubuntu".to_string(),
        description: "Ubuntu server 16.04".to_string(),
        time_to_crash_s: crashed,
        error,
    }
}

/// RocksDB under attack: a `readwhilewriting` workload until the WAL can
/// no longer be persisted.
pub fn rocksdb_crash(testbed: &Testbed) -> CrashRow {
    let clock = Clock::new();
    let disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();
    let mut db = Db::create(disk, clock.clone()).expect("create succeeds");
    let spec = BenchSpec {
        num_keys: 10_000,
        ..BenchSpec::default()
    };
    deepnote_kv::bench::fill_seq(&mut db, &spec).expect("load phase");

    // Warm-up traffic. Keys and values are rewritten into two reused
    // buffers: one put+get pair would otherwise allocate three times.
    let (mut key, mut value) = (Vec::new(), Vec::new());
    let mut rng = deepnote_sim::SimRng::seeded(7);
    while clock.now().as_secs_f64() < WARMUP.as_secs_f64() {
        let i = rng.below(spec.num_keys);
        write_key(&mut key, i, KEY_SIZE);
        write_value(&mut value, i, VALUE_SIZE);
        db.put(&key, &value).expect("healthy phase");
        write_key(&mut key, rng.below(spec.num_keys), KEY_SIZE);
        let _ = db.get(&key).expect("healthy phase");
    }
    let attack_start = clock.now();
    testbed.mount_attack(&vibration, AttackParams::paper_best());

    let deadline = attack_start + ATTACK_LIMIT;
    let mut crashed = None;
    let mut error = String::new();
    while clock.now() < deadline {
        let i = rng.below(spec.num_keys);
        write_key(&mut key, i, KEY_SIZE);
        write_value(&mut value, i, VALUE_SIZE);
        let step: Result<(), DbError> = db
            .put(&key, &value)
            .and_then(|()| {
                write_key(&mut key, rng.below(spec.num_keys), KEY_SIZE);
                db.get(&key).map(|_| ())
            })
            .and_then(|()| db.tick());
        if let Err(e) = step {
            if e.is_fatal() {
                crashed = Some((clock.now() - attack_start).as_secs_f64());
                error = e.to_string();
                break;
            }
        }
    }
    CrashRow {
        application: "RocksDB".to_string(),
        description: "Key-value database".to_string(),
        time_to_crash_s: crashed,
        error,
    }
}

/// Regenerates Table 3 (Scenario 2, best parameters). Each victim is
/// its own virtual-time world, so the three run concurrently on the
/// experiment pool; row order is fixed regardless of which dies first.
pub fn table3() -> Vec<CrashRow> {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let victims: Vec<fn(&Testbed) -> CrashRow> = vec![ext4_crash, ubuntu_crash, rocksdb_crash];
    run_all(
        victims
            .into_iter()
            .map(|victim| {
                let testbed = &testbed;
                move || victim(testbed)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_applications_crash_near_81_seconds() {
        let rows = table3();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            let t = row
                .time_to_crash_s
                .unwrap_or_else(|| panic!("{} must crash", row.application));
            // Paper: 80.0 s (Ext4), 81.0 s (Ubuntu), 81.3 s (RocksDB) —
            // average 80.8 s. Accept the 75–95 s window for shape.
            assert!((70.0..100.0).contains(&t), "{}: {t} s", row.application);
        }
        // Error signatures match the paper's observations.
        assert!(rows[0].error.contains("-5"), "{}", rows[0].error);
        assert!(
            rows[1].error.contains("journal") || rows[1].error.contains("read-only"),
            "{}",
            rows[1].error
        );
        assert!(
            rows[2].error.contains("sync_without_flush"),
            "{}",
            rows[2].error
        );
        // The exact rows, to the virtual nanosecond: the RocksDB row's
        // 10 s healthy warm-up (~460 k put+get pairs, ~150 flushes) is
        // pinned here too.
        let exact: Vec<(String, String)> = rows
            .iter()
            .map(|r| (format!("{:?}", r.time_to_crash_s), format!("{:?}", r.error)))
            .collect();
        let want = [
            (
                "Some(80.155309224)",
                r#""journal has aborted (JBD error -5); filesystem read-only""#,
            ),
            (
                "Some(80.255309224)",
                r#""attempt to access beyond end of journal; root filesystem aborted (error -5)""#,
            ),
            (
                "Some(81.276098194)",
                r#""sync_without_flush failed: WAL cannot be persisted""#,
            ),
        ];
        for (got, (time, error)) in exact.iter().zip(want) {
            assert_eq!((got.0.as_str(), got.1.as_str()), (time, error));
        }
    }

    #[test]
    fn no_attack_means_no_crash() {
        // Run the Ext4 victim with a testbed whose attack is never
        // mounted: survive the full window.
        let clock = Clock::new();
        let disk = HddDisk::barracuda_500gb(clock.clone());
        let mut fs = Filesystem::format(disk, clock.clone()).unwrap();
        fs.create_file("/log").unwrap();
        let mut offset = 0u64;
        for _ in 0..600 {
            let data = b"healthy line\n".to_vec();
            fs.write_file("/log", offset, &data).unwrap();
            offset += data.len() as u64;
            fs.tick(clock.now()).unwrap();
            clock.advance(SimDuration::from_millis(200));
        }
        assert_eq!(fs.state(), deepnote_fs::FsState::Active);
    }
}
