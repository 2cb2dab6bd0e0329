//! Benchmark reports.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The result of running one job: the numbers the paper's tables report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Completed operations.
    pub ops_completed: u64,
    /// Failed operations (medium errors + no-response).
    pub ops_failed: u64,
    /// Bytes successfully transferred.
    pub bytes: u64,
    /// Virtual wall time of the run, seconds.
    pub elapsed_s: f64,
    /// Throughput in decimal MB/s (successful bytes over elapsed time).
    pub throughput_mb_s: f64,
    /// Completed operations per second.
    pub iops: f64,
    /// Mean completion latency in ms over successful ops, or `None` if no
    /// op completed — rendered as "-" like the paper's tables.
    pub mean_latency_ms: Option<f64>,
    /// 99th-percentile completion latency in ms, if any op completed.
    pub p99_latency_ms: Option<f64>,
}

impl JobReport {
    /// Renders latency the way the paper's Table 1 does: a number, or "-"
    /// when the drive gave no response.
    pub fn latency_cell(&self) -> String {
        match self.mean_latency_ms {
            Some(ms) => format!("{ms:.1}"),
            None => "-".to_string(),
        }
    }
}

impl fmt::Display for JobReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: io={:.1}MB, bw={:.1}MB/s, iops={:.0}, runt={:.2}s",
            self.name,
            self.bytes as f64 / 1e6,
            self.throughput_mb_s,
            self.iops,
            self.elapsed_s
        )?;
        match (self.mean_latency_ms, self.p99_latency_ms) {
            (Some(mean), Some(p99)) => writeln!(f, "  lat (ms): mean={mean:.3}, p99={p99:.3}")?,
            _ => writeln!(f, "  lat (ms): - (no completions)")?,
        }
        write!(
            f,
            "  ops: {} completed, {} failed",
            self.ops_completed, self.ops_failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(completed: u64, failed: u64, mean: Option<f64>) -> JobReport {
        JobReport {
            name: "t".into(),
            ops_completed: completed,
            ops_failed: failed,
            bytes: completed * 4096,
            elapsed_s: 1.0,
            throughput_mb_s: completed as f64 * 4096.0 / 1e6,
            iops: completed as f64,
            mean_latency_ms: mean,
            p99_latency_ms: mean,
        }
    }

    #[test]
    fn latency_cell_renders_dash() {
        assert_eq!(report(10, 0, Some(0.23)).latency_cell(), "0.2");
        assert_eq!(report(0, 10, None).latency_cell(), "-");
    }

    #[test]
    fn display_contains_key_numbers() {
        let s = report(250, 3, Some(0.2)).to_string();
        assert!(s.contains("bw=1.0MB/s"), "{s}");
        assert!(s.contains("250 completed, 3 failed"), "{s}");
    }
}
