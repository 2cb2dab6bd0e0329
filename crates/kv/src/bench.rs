//! `db_bench`-style workloads.
//!
//! The paper runs RocksDB's `db_bench` with the `readwhilewriting`
//! workload and reports throughput (MB/s of key+value payload) and I/O
//! rate (operations per second) — Table 2. This module reproduces that
//! harness: a `fillseq` loading phase and a `readwhilewriting` phase
//! interleaving one writer with several readers on the virtual timeline.

use crate::db::Db;
use crate::error::DbError;
use deepnote_blockdev::BlockDevice;
use deepnote_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Workload parameters, mirroring `db_bench` flags.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchSpec {
    /// Number of distinct keys (`--num`).
    pub num_keys: u64,
    /// Key size in bytes (`--key_size`).
    pub key_size: usize,
    /// Value size in bytes (`--value_size`).
    pub value_size: usize,
    /// Reader ops issued per writer op (`readwhilewriting` ratio).
    pub readers_per_writer: u32,
    /// Virtual duration of the measured phase.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenchSpec {
    fn default() -> Self {
        BenchSpec {
            num_keys: 100_000,
            key_size: 16,
            value_size: 64,
            readers_per_writer: 4,
            duration: SimDuration::from_secs(10),
            seed: 42,
        }
    }
}

impl BenchSpec {
    /// Encodes key index `i` as a fixed-width key (see [`write_key`]).
    pub fn key(&self, i: u64) -> Vec<u8> {
        let mut k = Vec::new();
        write_key(&mut k, i, self.key_size);
        k
    }

    /// A deterministic value for key index `i` (see [`write_value`]).
    pub fn value(&self, i: u64) -> Vec<u8> {
        let mut v = Vec::new();
        write_value(&mut v, i, self.value_size);
        v
    }
}

/// Shortest key length that keeps every index below 10¹⁶ distinct.
pub const MIN_KEY_LEN: usize = 16;

/// Overwrites `out` with the `db_bench`-style key for index `i`: the
/// index as 16 zero-padded decimal digits, padded with `'0'` (or cut) to
/// `len` bytes. `len` is raised to [`MIN_KEY_LEN`] so that shorter keys
/// do not collide.
pub fn write_key(out: &mut Vec<u8>, i: u64, len: usize) {
    write_index(out, b"", i, 16, len.max(MIN_KEY_LEN), b'0');
}

/// Overwrites `out` with the value for index `i`: `v` and the index as
/// 15 zero-padded decimal digits, padded with `'x'` (or cut) to `len`
/// bytes.
pub fn write_value(out: &mut Vec<u8>, i: u64, len: usize) {
    write_index(out, b"v", i, 15, len, b'x');
}

/// `format!("{prefix}{i:0digits$}")` resized to `len` bytes with `fill`,
/// written into `out` without a temporary string.
fn write_index(out: &mut Vec<u8>, prefix: &[u8], i: u64, digits: usize, len: usize, fill: u8) {
    let mut buf = [b'0'; 20];
    let mut rest = i;
    let mut first = buf.len();
    while first > 0 {
        first -= 1;
        buf[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let significant = &buf[first..];
    out.clear();
    out.extend_from_slice(prefix);
    out.resize(out.len() + digits.saturating_sub(significant.len()), b'0');
    out.extend_from_slice(significant);
    out.resize(len, fill);
}

/// The measurements `db_bench` prints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Completed operations (reads + writes).
    pub ops: u64,
    /// Failed operations before a crash stopped the run (if any).
    pub failed_ops: u64,
    /// Payload bytes processed (key+value per completed op).
    pub bytes: u64,
    /// Virtual elapsed seconds.
    pub elapsed_s: f64,
    /// Payload throughput in MB/s (Table 2's "Throughput").
    pub throughput_mb_s: f64,
    /// Operations per second (Table 2's "I/O Rate").
    pub ops_per_s: f64,
    /// Whether the store crashed during the run, and when (virtual
    /// seconds from the start of the measured phase).
    pub crashed_at_s: Option<f64>,
}

impl BenchReport {
    /// Table 2 renders the I/O rate in units of 100 000 ops/s.
    pub fn ops_per_s_x100k(&self) -> f64 {
        self.ops_per_s / 1e5
    }
}

/// Loads `spec.num_keys` sequential keys (db_bench `fillseq`).
///
/// # Errors
///
/// Fatal store errors (e.g. WAL failure mid-load).
pub fn fill_seq<D: BlockDevice>(db: &mut Db<D>, spec: &BenchSpec) -> Result<(), DbError> {
    let (mut key, mut value) = (Vec::new(), Vec::new());
    for i in 0..spec.num_keys {
        write_key(&mut key, i, spec.key_size);
        write_value(&mut value, i, spec.value_size);
        db.put(&key, &value)?;
    }
    db.flush()?;
    Ok(())
}

/// Runs the `readwhilewriting` phase: one writer op (overwrite of a random
/// key) per `readers_per_writer` random reads, until `spec.duration` of
/// virtual time elapses or the store crashes.
pub fn read_while_writing<D: BlockDevice>(db: &mut Db<D>, spec: &BenchSpec) -> BenchReport {
    let clock = db.clock().clone();
    let start: SimTime = clock.now();
    let deadline = start + spec.duration;
    let mut rng = SimRng::seeded(spec.seed);

    let mut ops = 0u64;
    let mut failed = 0u64;
    let mut bytes = 0u64;
    let mut crashed_at = None;
    let (mut key, mut value) = (spec.key(0), spec.value(0));
    let payload = (key.len() + value.len()) as u64;

    'outer: while clock.now() < deadline {
        // One writer op.
        let i = rng.below(spec.num_keys);
        write_key(&mut key, i, spec.key_size);
        write_value(&mut value, i, spec.value_size);
        match db.put(&key, &value) {
            Ok(()) => {
                ops += 1;
                bytes += payload;
            }
            Err(e) => {
                failed += 1;
                if e.is_fatal() {
                    crashed_at = Some((clock.now() - start).as_secs_f64());
                    break 'outer;
                }
            }
        }
        // A batch of reader ops.
        for _ in 0..spec.readers_per_writer {
            write_key(&mut key, rng.below(spec.num_keys), spec.key_size);
            match db.get(&key) {
                Ok(_) => {
                    ops += 1;
                    bytes += payload;
                }
                Err(e) => {
                    failed += 1;
                    if e.is_fatal() {
                        crashed_at = Some((clock.now() - start).as_secs_f64());
                        break 'outer;
                    }
                }
            }
        }
        // Background work (journal commit timer).
        if db.tick().is_err() {
            crashed_at = Some((clock.now() - start).as_secs_f64());
            break 'outer;
        }
    }

    let elapsed_s = (clock.now() - start).as_secs_f64().max(1e-9);
    // A crashed run is reported over the intended window (the bench tool
    // keeps waiting and prints zeros), matching Table 2's 0-rows.
    let window_s = if crashed_at.is_some() {
        spec.duration.as_secs_f64()
    } else {
        elapsed_s
    };
    BenchReport {
        ops,
        failed_ops: failed,
        bytes,
        elapsed_s,
        throughput_mb_s: bytes as f64 / 1e6 / window_s,
        ops_per_s: ops as f64 / window_s,
        crashed_at_s: crashed_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_blockdev::{ChaosInjector, ChaosPlan, IoError, MemDisk};
    use deepnote_sim::Clock;

    fn quick_spec() -> BenchSpec {
        BenchSpec {
            num_keys: 2_000,
            duration: SimDuration::from_secs(1),
            ..BenchSpec::default()
        }
    }

    #[test]
    fn fillseq_then_read_back() {
        let mut db = Db::create(MemDisk::new(1 << 19), Clock::new()).unwrap();
        let spec = quick_spec();
        fill_seq(&mut db, &spec).unwrap();
        assert_eq!(db.get(&spec.key(0)).unwrap(), Some(spec.value(0)));
        assert_eq!(
            db.get(&spec.key(spec.num_keys - 1)).unwrap(),
            Some(spec.value(spec.num_keys - 1))
        );
    }

    #[test]
    fn read_while_writing_healthy_reports_rates() {
        let mut db = Db::create(MemDisk::new(1 << 19), Clock::new()).unwrap();
        let spec = quick_spec();
        fill_seq(&mut db, &spec).unwrap();
        let report = read_while_writing(&mut db, &spec);
        assert!(report.crashed_at_s.is_none());
        assert!(report.ops > 10_000, "ops = {}", report.ops);
        assert!(report.throughput_mb_s > 1.0, "{report:?}");
        assert!((report.elapsed_s - 1.0).abs() < 0.05);
        assert_eq!(report.failed_ops, 0);
        assert!((report.ops_per_s_x100k() - report.ops_per_s / 1e5).abs() < 1e-12);
    }

    #[test]
    fn keys_are_fixed_width_and_deterministic() {
        let spec = BenchSpec::default();
        assert_eq!(spec.key(7).len(), 16);
        assert_eq!(spec.value(7).len(), 64);
        assert_eq!(spec.key(7), spec.key(7));
        assert_ne!(spec.key(7), spec.key(8));
    }

    #[test]
    fn keys_match_the_format_they_replace() {
        let spec = BenchSpec::default();
        for i in [0, 7, 42, 99_999, 10u64.pow(15), 10u64.pow(16) + 3, u64::MAX] {
            let mut key = format!("{i:016}").into_bytes();
            key.resize(16, b'0');
            assert_eq!(spec.key(i), key, "key {i}");
            let mut value = format!("v{i:015}").into_bytes();
            value.resize(64, b'x');
            assert_eq!(spec.value(i), value, "value {i}");
        }
        let wide = BenchSpec {
            key_size: 24,
            value_size: 8,
            ..spec
        };
        assert_eq!(wide.key(5), b"000000000000000500000000".to_vec());
        assert_eq!(wide.value(5), b"v0000000".to_vec());
    }

    #[test]
    fn short_keys_are_floored_and_stay_distinct() {
        // Cut to 8 bytes, every index below 10^8 would be "00000000".
        let spec = BenchSpec {
            key_size: 8,
            ..BenchSpec::default()
        };
        assert_eq!(spec.key(1).len(), MIN_KEY_LEN);
        assert_ne!(spec.key(1), spec.key(2));
        assert_ne!(spec.key(0), spec.key(99_999_999));
    }

    #[test]
    fn blocked_device_crashes_run_and_reports_zero_class_rates() {
        let clock = Clock::new();
        let disk = ChaosInjector::new(MemDisk::new(1 << 19), ChaosPlan::quiet(), SimRng::seeded(0));
        let mut db = Db::create(disk, clock.clone()).unwrap();
        let spec = BenchSpec {
            num_keys: 2_000,
            duration: SimDuration::from_secs(120),
            ..BenchSpec::default()
        };
        fill_seq(&mut db, &spec).unwrap();
        db.filesystem_mut()
            .device_mut()
            .set_plan(ChaosPlan::fail_writes(IoError::NoResponse));
        let report = read_while_writing(&mut db, &spec);
        let crashed_at = report.crashed_at_s.expect("must crash");
        assert!(
            (79.0..92.0).contains(&crashed_at),
            "crashed at {crashed_at}"
        );
        // Rates over the full window are a small fraction of healthy.
        assert!(report.throughput_mb_s < 2.0, "{report:?}");
    }
}
