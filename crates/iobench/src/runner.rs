//! The job runner.

use crate::job::{AccessPattern, JobSpec};
use crate::report::JobReport;
use deepnote_blockdev::BlockDevice;
use deepnote_sim::{Clock, Histogram, SimRng};

/// Runs `job` against `device`, issuing synchronous I/O until the job's
/// virtual runtime has elapsed on `clock`, and returns the measurements.
///
/// The device itself advances the clock by each request's service time
/// (including time burned by failed requests), exactly like a synchronous
/// FIO job with `iodepth=1`.
///
/// # Panics
///
/// Panics if the job's working set does not fit on the device.
pub fn run_job(job: &JobSpec, device: &mut dyn BlockDevice, clock: &Clock) -> JobReport {
    let bs = job.block_size();
    let span_units = job.span_units();
    let start_block = job.start_offset_bytes() / 512;
    let blocks_per_unit = (bs / 512) as u64;
    assert!(
        job.end_block() <= device.num_blocks(),
        "job working set exceeds device capacity"
    );

    let mut rng = SimRng::seeded(job.seed());
    let mut read_buf = vec![0u8; bs];
    let write_buf = vec![0xD5u8; bs];

    let t_start = clock.now();
    let deadline = t_start + job.runtime();

    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut bytes = 0u64;
    let mut latency_us = Histogram::new_latency();
    let mut seq_cursor = 0u64;

    while clock.now() < deadline {
        // Choose the op.
        let (unit, is_read) = match job.pattern() {
            AccessPattern::SeqRead => {
                let u = seq_cursor % span_units;
                seq_cursor += 1;
                (u, true)
            }
            AccessPattern::SeqWrite => {
                let u = seq_cursor % span_units;
                seq_cursor += 1;
                (u, false)
            }
            AccessPattern::RandRead => (rng.below(span_units), true),
            AccessPattern::RandWrite => (rng.below(span_units), false),
            AccessPattern::Mixed { read_percent } => {
                let u = seq_cursor % span_units;
                seq_cursor += 1;
                (u, rng.chance(read_percent as f64 / 100.0))
            }
        };
        let lba = start_block + unit * blocks_per_unit;

        let op_start = clock.now();
        let result = if is_read {
            device.read_blocks(lba, &mut read_buf)
        } else {
            device.write_blocks(lba, &write_buf)
        };
        let op_time = clock.now() - op_start;

        match result {
            Ok(()) => {
                completed += 1;
                bytes += bs as u64;
                latency_us.record(op_time.as_secs_f64() * 1e6);
            }
            Err(_) => {
                failed += 1;
                // Guard against devices that fail without consuming time:
                // a real host would still burn at least a polling interval.
                if op_time.is_zero() {
                    clock.advance(deepnote_sim::SimDuration::from_micros(100));
                }
            }
        }
    }

    let elapsed_s = (clock.now() - t_start).as_secs_f64();
    JobReport {
        name: job.name().to_string(),
        ops_completed: completed,
        ops_failed: failed,
        bytes,
        elapsed_s,
        throughput_mb_s: if elapsed_s > 0.0 {
            bytes as f64 / 1e6 / elapsed_s
        } else {
            0.0
        },
        iops: if elapsed_s > 0.0 {
            completed as f64 / elapsed_s
        } else {
            0.0
        },
        mean_latency_ms: (completed > 0).then(|| latency_us.mean() / 1e3),
        p99_latency_ms: latency_us.percentile(99.0).map(|us| us / 1e3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_acoustics::Frequency;
    use deepnote_blockdev::{ChaosInjector, ChaosPlan, HddDisk, IoError, MemDisk};
    use deepnote_hdd::VibrationState;
    use deepnote_sim::SimDuration;

    #[test]
    fn paper_baseline_on_hdd() {
        // The headline calibration: FIO seq 4 KiB on the quiet Barracuda
        // must reproduce Table 1's "No Attack" row.
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock.clone());
        let read = run_job(
            &JobSpec::seq_read("read").with_runtime(SimDuration::from_secs(5)),
            &mut disk,
            &clock,
        );
        let write = run_job(
            &JobSpec::seq_write("write").with_runtime(SimDuration::from_secs(5)),
            &mut disk,
            &clock,
        );
        assert!((read.throughput_mb_s - 18.0).abs() < 0.2, "{read}");
        assert!((write.throughput_mb_s - 22.7).abs() < 0.2, "{write}");
        assert_eq!(read.latency_cell(), "0.2");
        assert_eq!(write.latency_cell(), "0.2");
        assert_eq!(read.ops_failed, 0);
    }

    #[test]
    fn attacked_hdd_reports_no_response() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock.clone());
        disk.vibration()
            .set(Some(VibrationState::new(Frequency::from_hz(650.0), 0.5)));
        let write = run_job(
            &JobSpec::seq_write("attacked").with_runtime(SimDuration::from_secs(5)),
            &mut disk,
            &clock,
        );
        assert_eq!(write.throughput_mb_s, 0.0);
        assert_eq!(write.latency_cell(), "-");
        assert_eq!(write.ops_completed, 0);
        assert!(write.ops_failed > 0);
    }

    #[test]
    fn runtime_respected() {
        let clock = Clock::new();
        let mut disk = MemDisk::with_latency(1 << 16, clock.clone(), SimDuration::from_micros(50));
        let report = run_job(
            &JobSpec::seq_write("t")
                .with_runtime(SimDuration::from_secs(2))
                .with_span_bytes(1 << 20),
            &mut disk,
            &clock,
        );
        assert!(
            (report.elapsed_s - 2.0).abs() < 0.01,
            "{}",
            report.elapsed_s
        );
        assert_eq!(report.ops_completed, 40_000);
    }

    #[test]
    fn random_pattern_covers_span() {
        let clock = Clock::new();
        let mut disk = MemDisk::with_latency(1 << 16, clock.clone(), SimDuration::from_micros(10));
        let report = run_job(
            &JobSpec::new("r", AccessPattern::RandWrite)
                .with_runtime(SimDuration::from_millis(500))
                .with_span_bytes(1 << 20),
            &mut disk,
            &clock,
        );
        assert!(report.ops_completed > 1000);
        // Blocks touched should be a large subset of the 256-unit span.
        assert!(disk.blocks_touched() > 200 * 8 / 2);
    }

    #[test]
    fn mixed_pattern_reads_and_writes() {
        let clock = Clock::new();
        let mut disk = MemDisk::with_latency(1 << 16, clock.clone(), SimDuration::from_micros(10));
        let before_writes = disk.writes();
        run_job(
            &JobSpec::new("m", AccessPattern::Mixed { read_percent: 50 })
                .with_runtime(SimDuration::from_millis(100))
                .with_span_bytes(1 << 20),
            &mut disk,
            &clock,
        );
        assert!(disk.writes() > before_writes);
        assert!(disk.reads() > 0);
    }

    #[test]
    fn failing_device_without_latency_still_terminates() {
        let clock = Clock::new();
        let mut disk = ChaosInjector::new(
            MemDisk::new(1 << 16),
            ChaosPlan::fail_all(IoError::NoResponse),
            SimRng::seeded(0),
        );
        let report = run_job(
            &JobSpec::seq_write("dead")
                .with_runtime(SimDuration::from_millis(10))
                .with_span_bytes(1 << 20),
            &mut disk,
            &clock,
        );
        assert_eq!(report.ops_completed, 0);
        assert!(report.ops_failed > 0);
        assert_eq!(report.latency_cell(), "-");
    }

    #[test]
    #[should_panic(expected = "exceeds device capacity")]
    fn oversized_working_set_panics() {
        let clock = Clock::new();
        let mut disk = MemDisk::new(16);
        run_job(&JobSpec::seq_write("big"), &mut disk, &clock);
    }
}
