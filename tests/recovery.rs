//! Crash-consistency across the stack: after an attack kills the
//! software, remounting/reopening on the same device recovers a
//! consistent state (journal replay, WAL replay), and committed data
//! survives.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_blockdev::{BlockDevice, HddDisk, MemDisk};
use deepnote_core::prelude::*;
use deepnote_fs::{Filesystem, FsState};
use deepnote_kv::{Db, DbConfig};

#[test]
fn committed_data_survives_an_attack_crash() {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let clock = Clock::new();
    let disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();
    let mut fs = Filesystem::format(disk, clock.clone()).unwrap();

    fs.create("/srv").unwrap();
    fs.create_file("/srv/durable").unwrap();
    fs.write_file("/srv/durable", 0, b"committed before attack")
        .unwrap();
    fs.commit().unwrap();

    // Attack; buffered write is lost with the abort.
    testbed.mount_attack(&vibration, AttackParams::paper_best());
    fs.write_file("/srv/durable", 0, b"dirty, never committed!!")
        .unwrap();
    assert!(fs.commit().is_err());
    assert!(matches!(fs.state(), FsState::Aborted { .. }));
    vibration.clear();

    // "Replace the drive controller": take the device without
    // unmounting (a crash) and remount it.
    let dev = fs.into_device();
    let (mut fs2, _) = Filesystem::mount(dev, clock).unwrap();
    let content = fs2.read_file("/srv/durable", 0, 64).unwrap();
    assert_eq!(content, b"committed before attack");
    assert_eq!(fs2.fsck().unwrap(), Vec::<String>::new());
}

#[test]
fn unlinked_but_uncommitted_file_survives_a_crash() {
    let clock = Clock::new();
    let disk = HddDisk::barracuda_500gb(clock.clone());
    let mut fs = Filesystem::format(disk, clock.clone()).unwrap();
    // 100 KiB: twelve direct blocks plus the indirect block and its data.
    let body: Vec<u8> = (0..100u32 << 10).map(|i| (i % 251) as u8).collect();
    fs.create_file("/kept").unwrap();
    fs.write_file("/kept", 0, &body).unwrap();
    fs.commit().unwrap();

    // The unlink frees every block of the file, but never commits.
    fs.unlink("/kept").unwrap();
    assert!(!fs.exists("/kept"));

    let dev = fs.into_device();
    let (mut fs2, _) = Filesystem::mount(dev, clock).unwrap();
    assert_eq!(fs2.read_file("/kept", 0, body.len() + 1).unwrap(), body);
    assert_eq!(fs2.fsck().unwrap(), Vec::<String>::new());
}

#[test]
fn database_reopens_consistently_after_attack_crash() {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let clock = Clock::new();
    let disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();
    let mut db = Db::create(disk, clock.clone()).unwrap();

    for i in 0..500u32 {
        db.put(
            format!("key{i:05}").as_bytes(),
            format!("value{i}").as_bytes(),
        )
        .unwrap();
    }
    db.sync_wal().unwrap();

    // Attack until the store dies.
    testbed.mount_attack(&vibration, AttackParams::paper_best());
    let mut died = false;
    for i in 0..100_000u32 {
        if db.put(format!("attacked{i}").as_bytes(), b"x").is_err() {
            died = true;
            break;
        }
    }
    assert!(died, "store must die under the attack");
    vibration.clear();

    // Reopen on the same device: all synced keys are intact.
    let dev = db.into_device();
    let mut db2 = Db::open_with(dev, clock, DbConfig::default()).unwrap();
    for i in (0..500u32).step_by(37) {
        let got = db2.get(format!("key{i:05}").as_bytes()).unwrap();
        assert_eq!(got, Some(format!("value{i}").as_bytes()), "key{i}");
    }
}

#[test]
fn repeated_attack_recover_cycles_are_stable() {
    // Pulse the attack on and off: the drive and filesystem survive the
    // pulses as long as no commit lands inside a blackout window longer
    // than the journal patience.
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let clock = Clock::new();
    let disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();
    let mut fs = Filesystem::format(disk, clock.clone()).unwrap();
    fs.create_file("/pulse").unwrap();

    let mut offset = 0u64;
    for pulse in 0..5 {
        // 2 s of attack (shorter than the 75 s patience)...
        testbed.mount_attack(&vibration, AttackParams::paper_best());
        clock.advance(SimDuration::from_secs(2));
        vibration.clear();
        // ... then healthy I/O and an explicit fsync.
        let data = format!("pulse {pulse}\n").into_bytes();
        fs.write_file("/pulse", offset, &data).unwrap();
        offset += data.len() as u64;
        fs.commit().unwrap();
    }
    assert_eq!(fs.state(), FsState::Active);
    let all = fs.read_file("/pulse", 0, 1024).unwrap();
    let text = String::from_utf8(all).unwrap();
    for pulse in 0..5 {
        assert!(text.contains(&format!("pulse {pulse}")), "{text}");
    }
}

#[test]
fn memdisk_and_hdd_agree_on_fs_semantics() {
    // The reference device and the mechanical device produce identical
    // filesystem contents for the same operation sequence (timing
    // differs; bytes must not).
    let run = |dev: Box<dyn BlockDevice>| -> Vec<u8> {
        struct BoxedDev(Box<dyn BlockDevice>);
        impl BlockDevice for BoxedDev {
            fn num_blocks(&self) -> u64 {
                self.0.num_blocks()
            }
            fn read_blocks(
                &mut self,
                lba: u64,
                buf: &mut [u8],
            ) -> Result<(), deepnote_blockdev::IoError> {
                self.0.read_blocks(lba, buf)
            }
            fn write_blocks(
                &mut self,
                lba: u64,
                buf: &[u8],
            ) -> Result<(), deepnote_blockdev::IoError> {
                self.0.write_blocks(lba, buf)
            }
            fn flush(&mut self) -> Result<(), deepnote_blockdev::IoError> {
                self.0.flush()
            }
        }
        let clock = Clock::new();
        let mut fs = Filesystem::format(BoxedDev(dev), clock).unwrap();
        fs.create("/a").unwrap();
        fs.create_file("/a/f").unwrap();
        fs.write_file("/a/f", 0, b"same bytes on any device")
            .unwrap();
        fs.write_file("/a/f", 10, b"OVERWRITE").unwrap();
        fs.commit().unwrap();
        fs.read_file("/a/f", 0, 64).unwrap()
    };
    let clock = Clock::new();
    let mem = run(Box::new(MemDisk::new(1 << 17)));
    let hdd = run(Box::new(HddDisk::barracuda_500gb(clock)));
    assert_eq!(mem, hdd);
}
