//! Small shared helpers: timing, host-speed calibration, order
//! statistics, output digests, peak memory.

use std::hint::black_box;
use std::time::Instant;

/// Runs `f`, returning its result and host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// FNV-1a, 64-bit: a stable digest of output bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds `v` into a running digest.
pub fn mix(h: u64, v: u64) -> u64 {
    let mut bytes = [0; 16];
    bytes[..8].copy_from_slice(&h.to_le_bytes());
    bytes[8..].copy_from_slice(&v.to_le_bytes());
    digest(&bytes)
}

/// Nearest-rank percentile `p` (0–100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A fixed loop that uses no code of the program, timed to tell how fast
/// the host runs right now. A shared host can run the same code 40%
/// slower for minutes at a time; dividing a pass's time by the loop's
/// time taken next to it removes that drift.
#[derive(Debug, Clone, Copy)]
pub enum Calibration {
    /// Independent transcendental evaluations: the kind of work the
    /// heatmap's closed-form transfer path does, and which slows most
    /// when the host is busy.
    Math,
    /// The math loop plus a dependent float chain over random loads and
    /// stores, parallel multiply-add chains and branchy integer work: the
    /// mixed profile of the I/O stack and the cluster.
    Mixed,
}

/// Steps of each calibration loop; the math loop takes about 16 ms.
const CALIBRATION_STEPS: u64 = 400_000;

impl Calibration {
    /// Seconds one round takes on the reference host: an idle two-vCPU
    /// 2.1 GHz Xeon VM, with `Math` on one thread and `Mixed` on two.
    pub fn reference_s(self) -> f64 {
        match self {
            Calibration::Math => 0.0160,
            Calibration::Mixed => 0.0520,
        }
    }

    /// Host seconds of one round run on `threads` threads at once: the
    /// slowest thread's time.
    pub fn round(self, threads: usize) -> f64 {
        let one = move || timed(|| self.run()).1;
        if threads <= 1 {
            return one();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(one)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a calibration loop panicked"))
                .fold(0.0, f64::max)
        })
    }

    fn run(self) {
        math_loop();
        if let Calibration::Mixed = self {
            chain_loop();
            multiply_add_loop();
            integer_loop();
        }
    }
}

fn math_loop() {
    let mut sum = 0.0f64;
    for i in 0..CALIBRATION_STEPS {
        let x = black_box(i as f64 * 1e-5 + 0.1);
        sum += x.ln() + (x * 3.0).sin() + x.powf(1.7) + (-x).exp() + x.sqrt().log10();
    }
    black_box(sum);
}

fn chain_loop() {
    let mut table = vec![0.0f64; 1 << 15];
    let mut x = 0.5f64;
    for i in 0..CALIBRATION_STEPS {
        let j = (i.wrapping_mul(2_654_435_761) as usize) & (table.len() - 1);
        x = (x.sin().abs() + 1.0).ln() + (x * 0.37).exp().sqrt() * 0.1 + table[j];
        table[j] = x * 1e-3;
    }
    black_box(x);
}

fn multiply_add_loop() {
    let mut acc = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
    for _ in 0..CALIBRATION_STEPS * 4 {
        for (k, a) in acc.iter_mut().enumerate() {
            *a = *a * 0.999_999 + (k as f64) * 1e-9;
        }
        acc = black_box(acc);
    }
    black_box(acc);
}

fn integer_loop() {
    let (mut s, mut n) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for _ in 0..CALIBRATION_STEPS * 8 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        if s & 1 == 0 {
            n = n.wrapping_add(s >> 3);
        } else {
            n ^= s;
        }
    }
    black_box(n);
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
