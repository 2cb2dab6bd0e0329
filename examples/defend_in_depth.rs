//! Defense in depth: detect the attack from the request stream, survive
//! it with separated RAID-1 mirrors, and compare drive classes (§5 "HDD
//! types").
//!
//! Run with: `cargo run --release -p deepnote-core --example defend_in_depth`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_core::detect::{AttackDetector, Verdict};
use deepnote_core::experiments::{redundancy, stealth};
use deepnote_core::prelude::*;
use deepnote_iobench::{run_job, JobSpec};

fn main() {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);

    // 1. Detection: an anomaly detector on the storage node's own
    //    request stream flags the attack within seconds.
    println!("== 1. detection ==");
    let clock = Clock::new();
    let mut disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();
    let mut detector = AttackDetector::default();
    let mut cursor = 0u64;
    let mut request = |disk: &mut HddDisk| {
        let start = disk.drive().clock().now();
        let lba = (cursor * 8) % (1 << 16);
        cursor += 1;
        let ok = disk.write_blocks(lba, &vec![0u8; 4096]).is_ok();
        let end = disk.drive().clock().now();
        ok.then(|| (end - start).as_millis_f64())
    };
    for _ in 0..80 {
        detector.observe(request(&mut disk));
    }
    println!(
        "calibrated baseline: {:.2} ms",
        detector.baseline_ms().unwrap()
    );
    let attack_start = clock.now();
    testbed.mount_attack(&vibration, AttackParams::paper_best());
    let mut requests_until_alarm = 0;
    loop {
        requests_until_alarm += 1;
        if detector.observe(request(&mut disk)) == Verdict::UnderAttack {
            break;
        }
    }
    let elapsed = (clock.now() - attack_start).as_secs_f64();
    println!(
        "alarm after {requests_until_alarm} requests = {elapsed:.1} virtual seconds \
         (the crash would come at ~81 s — ample time to fail over)\n"
    );
    vibration.clear();

    // 2. Redundancy: RAID-1 only helps if the mirrors don't share an
    //    acoustic fate.
    println!("== 2. redundancy ==");
    print!("{}", redundancy::render(&redundancy::mirror_study()));

    // 3. Stealth: a patient attacker duty-cycles below the detector.
    println!("\n== 3. stealth (attacker's counter-move) ==");
    print!("{}", stealth::render(&stealth::duty_cycle_sweep(&testbed)));

    // 4. Drive class: enterprise RV-compensated drives shrug off the
    //    attack that blacks out the paper's desktop Barracuda.
    println!("\n== 4. drive classes (§5 \"HDD types\") ==");
    for (label, make) in [
        ("desktop Barracuda 500GB", false),
        ("nearline enterprise 4TB (RV sensors)", true),
    ] {
        let clock = Clock::new();
        let mut disk = if make {
            HddDisk::nearline_4tb(clock.clone())
        } else {
            HddDisk::barracuda_500gb(clock.clone())
        };
        testbed.mount_attack(&disk.vibration(), AttackParams::paper_best());
        let report = run_job(
            &JobSpec::seq_write("w").with_runtime(SimDuration::from_secs(3)),
            &mut disk,
            &clock,
        );
        println!(
            "  {label:<38} write under attack: {:>5.1} MB/s",
            report.throughput_mb_s
        );
    }
}
