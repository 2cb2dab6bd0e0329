//! Parsing fio-style job files.
//!
//! The paper drives its measurements with FIO; this module accepts the
//! familiar INI job-file dialect so existing job descriptions can run
//! against the simulated stack unchanged:
//!
//! ```text
//! [global]
//! bs=4k
//! runtime=10
//!
//! [seq-write]
//! rw=write
//! size=1g
//! ```
//!
//! Supported keys: `rw` (`read`/`write`/`randread`/`randwrite`/`rw`),
//! `rwmixread`, `bs`, `runtime`, `size`, `offset`, `seed`. Size suffixes
//! `k`/`m`/`g` are binary (KiB/MiB/GiB), like fio.

use crate::job::{AccessPattern, JobSpec};
use deepnote_sim::SimDuration;
use std::fmt;

/// Largest accepted `bs`: the runner allocates two buffers of this size.
const MAX_BS: u64 = 64 << 20;

/// A job-file parse failure, with the offending line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a size with optional binary suffix (`4k`, `1m`, `2g`).
fn parse_size(value: &str, line: usize) -> Result<u64, ParseError> {
    let v = value.trim().to_ascii_lowercase();
    let (digits, mult) = match v.strip_suffix(['k', 'm', 'g']) {
        Some(d) if v.ends_with('k') => (d, 1024u64),
        Some(d) if v.ends_with('m') => (d, 1024 * 1024),
        Some(d) => (d, 1024 * 1024 * 1024),
        None => (v.as_str(), 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| err(line, format!("bad size: {value}")))
}

#[derive(Debug, Clone, Default)]
struct RawJob {
    name: String,
    rw: Option<String>,
    rwmixread: Option<u8>,
    bs: Option<u64>,
    runtime_s: Option<u64>,
    size: Option<u64>,
    offset: Option<u64>,
    seed: Option<u64>,
}

impl RawJob {
    fn merge_defaults(&mut self, global: &RawJob) {
        macro_rules! inherit {
            ($($f:ident),*) => { $( if self.$f.is_none() { self.$f = global.$f.clone(); } )* };
        }
        inherit!(rw, rwmixread, bs, runtime_s, size, offset, seed);
    }

    fn build(&self, line: usize) -> Result<JobSpec, ParseError> {
        let pattern = match self.rw.as_deref().unwrap_or("read") {
            "read" => AccessPattern::SeqRead,
            "write" => AccessPattern::SeqWrite,
            "randread" => AccessPattern::RandRead,
            "randwrite" => AccessPattern::RandWrite,
            "rw" | "readwrite" => AccessPattern::Mixed {
                read_percent: self.rwmixread.unwrap_or(50),
            },
            other => return Err(err(line, format!("unknown rw mode: {other}"))),
        };
        let mut spec = JobSpec::new(self.name.clone(), pattern);
        if let Some(bs) = self.bs {
            if bs == 0 || bs % 512 != 0 || bs > MAX_BS {
                return Err(err(
                    line,
                    format!("bs must be a positive multiple of 512 up to 64m, got {bs}"),
                ));
            }
            spec = spec.with_block_size(bs as usize);
        }
        if let Some(rt) = self.runtime_s {
            if rt == 0 {
                return Err(err(line, "runtime must be positive"));
            }
            spec = spec.with_runtime(SimDuration::from_secs(rt));
        }
        if let Some(size) = self.size {
            let bs = spec.block_size() as u64;
            if size == 0 || size % bs != 0 {
                return Err(err(
                    line,
                    format!("size must be a positive multiple of bs, got {size}"),
                ));
            }
            spec = spec.with_span_bytes(size);
        }
        if let Some(offset) = self.offset {
            if offset % spec.block_size() as u64 != 0 {
                return Err(err(line, "offset must be bs-aligned"));
            }
            spec = spec.with_start_offset_bytes(offset);
        }
        if let Some(seed) = self.seed {
            spec = spec.with_seed(seed);
        }
        Ok(spec)
    }
}

/// Parses an fio-style job file into the jobs it defines, in file order.
///
/// # Errors
///
/// [`ParseError`] with the offending line for malformed sections, keys,
/// or values.
///
/// # Example
///
/// ```
/// use deepnote_iobench::parse_jobfile;
///
/// let jobs = parse_jobfile("
/// [global]
/// bs=4k
/// runtime=10
///
/// [paper-read]
/// rw=read
///
/// [paper-write]
/// rw=write
/// ")?;
/// assert_eq!(jobs.len(), 2);
/// assert_eq!(jobs[0].name(), "paper-read");
/// assert_eq!(jobs[1].block_size(), 4096);
/// # Ok::<(), deepnote_iobench::ParseError>(())
/// ```
pub fn parse_jobfile(text: &str) -> Result<Vec<JobSpec>, ParseError> {
    let mut global = RawJob::default();
    let mut jobs: Vec<(usize, RawJob)> = Vec::new();
    let mut current: Option<(usize, RawJob)> = None;

    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.split(['#', ';']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let Some(name) = name.strip_suffix(']') else {
                return Err(err(line_no, "unterminated section header"));
            };
            let name = name.trim();
            if name.is_empty() {
                return Err(err(line_no, "empty section name"));
            }
            if let Some(done) = current.take() {
                jobs.push(done);
            }
            if name.eq_ignore_ascii_case("global") {
                current = None; // keys now update the global section
            } else {
                current = Some((
                    line_no,
                    RawJob {
                        name: name.to_string(),
                        ..RawJob::default()
                    },
                ));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(line_no, format!("expected key=value, got: {line}")));
        };
        let key = key.trim().to_ascii_lowercase();
        let value = value.trim();
        let target = current.as_mut().map(|(_, j)| j).unwrap_or(&mut global);
        match key.as_str() {
            "rw" | "readwrite" => target.rw = Some(value.to_ascii_lowercase()),
            "rwmixread" => {
                let pct: u8 = value
                    .parse()
                    .map_err(|_| err(line_no, format!("bad rwmixread: {value}")))?;
                if pct > 100 {
                    return Err(err(line_no, "rwmixread must be 0-100"));
                }
                target.rwmixread = Some(pct);
            }
            "bs" | "blocksize" => target.bs = Some(parse_size(value, line_no)?),
            "runtime" => {
                // Whole seconds that still fit a nanosecond `SimDuration`.
                let secs = value.trim_end_matches('s').parse::<u64>().ok();
                target.runtime_s = Some(
                    secs.filter(|&s| s.checked_mul(1_000_000_000).is_some())
                        .ok_or_else(|| err(line_no, format!("bad runtime: {value}")))?,
                );
            }
            "size" => target.size = Some(parse_size(value, line_no)?),
            "offset" => target.offset = Some(parse_size(value, line_no)?),
            "seed" | "randseed" => {
                target.seed = Some(
                    value
                        .parse()
                        .map_err(|_| err(line_no, format!("bad seed: {value}")))?,
                )
            }
            // Commonly present fio keys that the simulator implies anyway.
            "ioengine" | "direct" | "iodepth" | "numjobs" | "group_reporting" => {}
            other => return Err(err(line_no, format!("unsupported key: {other}"))),
        }
    }
    if let Some(done) = current.take() {
        jobs.push(done);
    }
    if jobs.is_empty() {
        return Err(err(text.lines().count().max(1), "no job sections defined"));
    }
    jobs.into_iter()
        .map(|(line, mut j)| {
            j.merge_defaults(&global);
            j.build(line)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_jobfile_parses() {
        let jobs = parse_jobfile(
            "
# The paper's FIO methodology.
[global]
bs=4k
runtime=10
ioengine=sync   ; ignored, implied by the simulator

[seq-read]
rw=read

[seq-write]
rw=write
size=1g
",
        )
        .unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name(), "seq-read");
        assert_eq!(jobs[0].pattern(), AccessPattern::SeqRead);
        assert_eq!(jobs[0].block_size(), 4096);
        assert_eq!(jobs[0].runtime(), SimDuration::from_secs(10));
        assert_eq!(jobs[1].pattern(), AccessPattern::SeqWrite);
        assert_eq!(jobs[1].span_bytes(), 1 << 30);
    }

    #[test]
    fn job_overrides_global() {
        let jobs = parse_jobfile("[global]\nbs=4k\n[j]\nrw=randwrite\nbs=8k\nseed=7").unwrap();
        assert_eq!(jobs[0].block_size(), 8192);
        assert_eq!(jobs[0].seed(), 7);
        assert_eq!(jobs[0].pattern(), AccessPattern::RandWrite);
    }

    #[test]
    fn mixed_workload_with_ratio() {
        let jobs = parse_jobfile("[m]\nrw=rw\nrwmixread=70").unwrap();
        assert_eq!(jobs[0].pattern(), AccessPattern::Mixed { read_percent: 70 });
    }

    #[test]
    fn sizes_are_binary_suffixed() {
        assert_eq!(parse_size("4k", 1).unwrap(), 4096);
        assert_eq!(parse_size("2m", 1).unwrap(), 2 << 20);
        assert_eq!(parse_size("1g", 1).unwrap(), 1 << 30);
        assert_eq!(parse_size("512", 1).unwrap(), 512);
        assert!(parse_size("4q", 1).is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_jobfile("[j]\nrw=read\nbogus=1").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unsupported key"), "{e}");

        let e = parse_jobfile("[j]\nrw=sideways").unwrap_err();
        assert!(e.message.contains("unknown rw mode"), "{e}");

        let e = parse_jobfile("[global]\nbs=4k").unwrap_err();
        assert!(e.message.contains("no job sections"), "{e}");

        let e = parse_jobfile("[broken\nrw=read").unwrap_err();
        assert_eq!(e.line, 1);

        // Values whose byte or nanosecond count overflows a u64.
        for (text, message) in [
            (
                "[j]\nrw=write\nsize=18014398509481988k",
                "bad size: 18014398509481988k",
            ),
            ("[j]\noffset=17179869184g", "bad size: 17179869184g"),
            ("[j]\nbs=18014398509481984k", "bad size: 18014398509481984k"),
            (
                "[j]\nrw=read\nruntime=18446744074",
                "bad runtime: 18446744074",
            ),
        ] {
            let e = parse_jobfile(text).unwrap_err();
            assert_eq!(e.line, text.lines().count(), "{text}: {e}");
            assert_eq!(e.message, message, "{text}");
        }
    }

    #[test]
    fn bad_values_rejected() {
        assert!(parse_jobfile("[j]\nbs=1000").is_err()); // not 512-multiple
        assert!(parse_jobfile("[j]\nbs=64m").is_ok());
        assert!(parse_jobfile("[j]\nbs=65m").is_err()); // above the ceiling
        assert!(parse_jobfile("[j]\nruntime=0").is_err());
        assert!(parse_jobfile("[j]\nrwmixread=150").is_err());
        assert!(parse_jobfile("[j]\nbs=4k\nsize=5000").is_err()); // not bs-multiple
    }

    #[test]
    fn parsed_job_actually_runs() {
        use crate::runner::run_job;
        use deepnote_blockdev::MemDisk;
        use deepnote_sim::Clock;
        let jobs = parse_jobfile("[quick]\nrw=write\nbs=4k\nruntime=1\nsize=1m").unwrap();
        let clock = Clock::new();
        let mut disk = MemDisk::with_latency(
            1 << 16,
            clock.clone(),
            deepnote_sim::SimDuration::from_micros(100),
        );
        let report = run_job(&jobs[0], &mut disk, &clock);
        assert!(report.ops_completed > 1_000);
        assert_eq!(report.name, "quick");
    }
}
