//! Quickstart: mount the paper's best attack on a victim drive and watch
//! sequential I/O collapse, then recover.
//!
//! Run with: `cargo run --release -p deepnote-core --example quickstart`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_core::prelude::*;
use deepnote_iobench::{run_job, JobSpec};

fn main() {
    // The paper's Scenario 2: a drive in a Supermicro tower inside a
    // plastic container, submerged in the tank.
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let clock = Clock::new();
    let mut disk = HddDisk::barracuda_500gb(clock.clone());
    let vibration = disk.vibration();

    println!("== Deep Note quickstart ==");
    println!("victim: {}", disk.drive().model().geometry.name());
    println!("scenario: {}", testbed.scenario());

    // Baseline: FIO-style sequential 4 KiB read and write.
    let read = run_job(
        &JobSpec::seq_read("baseline-read").with_runtime(SimDuration::from_secs(5)),
        &mut disk,
        &clock,
    );
    let write = run_job(
        &JobSpec::seq_write("baseline-write").with_runtime(SimDuration::from_secs(5)),
        &mut disk,
        &clock,
    );
    println!("\nno attack:");
    println!(
        "  read : {:.1} MB/s (lat {})",
        read.throughput_mb_s,
        read.latency_cell()
    );
    println!(
        "  write: {:.1} MB/s (lat {})",
        write.throughput_mb_s,
        write.latency_cell()
    );

    // The attack: 650 Hz at 140 dB re 1 µPa, speaker 1 cm from the
    // container.
    let params = AttackParams::paper_best();
    testbed.mount_attack(&vibration, params);
    let v = vibration.current().expect("attack mounted");
    println!(
        "\nattack on: {} at {} -> chassis vibration {:.0} nm",
        params.frequency,
        params.distance,
        v.displacement_nm()
    );

    let read = run_job(
        &JobSpec::seq_read("attacked-read").with_runtime(SimDuration::from_secs(5)),
        &mut disk,
        &clock,
    );
    let write = run_job(
        &JobSpec::seq_write("attacked-write").with_runtime(SimDuration::from_secs(5)),
        &mut disk,
        &clock,
    );
    println!(
        "  read : {:.1} MB/s (lat {})",
        read.throughput_mb_s,
        read.latency_cell()
    );
    println!(
        "  write: {:.1} MB/s (lat {})",
        write.throughput_mb_s,
        write.latency_cell()
    );

    // Stop the attack: the drive comes back.
    vibration.clear();
    let write = run_job(
        &JobSpec::seq_write("recovered-write").with_runtime(SimDuration::from_secs(5)),
        &mut disk,
        &clock,
    );
    println!("\nattack stopped:");
    println!(
        "  write: {:.1} MB/s (lat {})",
        write.throughput_mb_s,
        write.latency_cell()
    );
}
