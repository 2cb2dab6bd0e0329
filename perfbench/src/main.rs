//! The Deep Note benchmark: end-to-end workloads with tracing off, or a
//! separate traced run for per-layer numbers.
//!
//! ```text
//! perfbench --workload <tables|heatmap|campaign-matrix> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! non-zero on any failed cell or output mismatch. See `README.md`.

mod layers;
mod util;
mod workloads;

use deepnote_core::parallel::{pool_width, THREADS_ENV};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use util::{median, peak_rss_mib, timed};
use workloads::{Pass, Workload};

/// The seed runs use when none is given.
const DEFAULT_SEED: u64 = 1;
/// The seed kept back from tuning, for re-checking a claim.
const HELD_OUT_SEED: u64 = 2;
/// Pass fingerprints recorded for the default and held-out seeds.
const REFERENCE: &str = include_str!("../reference.tsv");

/// Fewest timed passes and set-up rounds, however long each takes.
const MIN_PASSES: usize = 5;
const MIN_SETUP_ROUNDS: usize = 5;
/// Most of the measured window that set-up rounds may take.
const SETUP_SHARE: f64 = 0.15;
/// Calibration time before a pass, as a share of the previous pass.
const CALIBRATION_SHARE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The fingerprint recorded for `(workload, seed)`, if any.
fn recorded_fingerprint(workload: &str, seed: u64) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let mut f = line.split('\t');
        let (w, s, fp) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(fp, 16).ok())
            .flatten()
    })
}

/// Checks a pass: every cell succeeded and, against `reference`, every
/// cell and the pass output are byte-identical. Returns failed cells.
fn failed_cells(pass: &Pass, reference: Option<&Pass>, what: &str) -> u64 {
    let mut failed = 0;
    for (i, cell) in pass.cells.iter().enumerate() {
        let expected = reference.map(|r| &r.cells[i]);
        let ok = match (cell, expected) {
            (Err(e), _) => {
                eprintln!("{what}: cell {i} failed: {e}");
                false
            }
            (Ok(c), Some(Ok(r))) if c.digest != r.digest || c.census != r.census => {
                eprintln!("{what}: cell {i} differs from the reference pass");
                false
            }
            _ => true,
        };
        failed += u64::from(!ok);
    }
    let output_differs = match (reference.and_then(|r| r.output), pass.output) {
        (Some(expected), Some(got)) => expected != got,
        _ => false,
    };
    if failed == 0 && output_differs {
        eprintln!("{what}: rendered output differs from the reference pass");
        failed = 1;
    }
    failed
}

/// Runs `f` with the experiment pool pinned to one worker.
fn single_threaded<T>(f: impl FnOnce() -> T) -> T {
    let saved = std::env::var(THREADS_ENV).ok();
    std::env::set_var(THREADS_ENV, "1");
    let out = f();
    match saved {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    out
}

/// What a run measured, plus its correctness tally.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// The end-to-end run: a single-worker reference pass, then timed
/// passes on the full pool and set-up rounds for `seconds`.
fn end_to_end(name: &str, w: &dyn Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let reference = single_threaded(|| w.run(true));
    // Memory is read here: the single-worker pass runs its cells one at
    // a time, so its peak does not depend on which cells overlap.
    let peak_rss = peak_rss_mib();
    let cells = reference.cells.len() as u64;
    let mut attempted = cells;
    let mut failed = failed_cells(&reference, None, "reference pass");
    let fingerprint = reference.fingerprint();
    println!("fingerprint\t{name}\t{seed}\t{fingerprint:016x}");
    if recorded_fingerprint(name, seed).is_some_and(|fp| fp != fingerprint) {
        eprintln!("reference pass differs from the fingerprint recorded for seed {seed}");
        failed += cells;
    }

    let census_width = w.census_names().len();
    let census = reference.census(census_width);
    let work = w.sim_work(&census);
    // The reference pass was the warm-up. Set-up rounds interleave with
    // the timed passes, so both sample the same stretch of host time, and
    // a calibration sample comes before every pass and after the last.
    let (kind, threads) = w.calibration();
    let calibration_sample = |budget_s: f64| {
        let started = Instant::now();
        let mut rounds = vec![kind.round(threads)];
        while started.elapsed().as_secs_f64() < budget_s {
            rounds.push(kind.round(threads));
        }
        median(&rounds)
    };
    let (mut setup, mut setup_total_s) = (Vec::new(), 0.0);
    let (mut walls, mut cals) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.len() < MIN_PASSES || started.elapsed().as_secs() < seconds {
        if setup.len() < MIN_SETUP_ROUNDS
            || setup_total_s < SETUP_SHARE * started.elapsed().as_secs_f64()
        {
            let (repeats, dt) = timed(|| w.setup());
            let repeats = repeats.map_err(|e| format!("set-up failed: {e}"))?;
            setup.push((walls.len(), dt / f64::from(repeats)));
            setup_total_s += dt;
        }
        cals.push(calibration_sample(
            CALIBRATION_SHARE * walls.last().unwrap_or(&0.0),
        ));
        let pass = w.run(false);
        attempted += cells;
        failed += failed_cells(&pass, Some(&reference), "timed pass");
        walls.push(pass.wall_s);
    }
    cals.push(calibration_sample(
        CALIBRATION_SHARE * walls.last().unwrap_or(&0.0),
    ));

    // Pass i's host speed: the reference calibration time over the mean
    // of the samples on either side of it. Its set-up round, if any, ran
    // just before it.
    let speeds: Vec<f64> = cals
        .windows(2)
        .map(|c| kind.reference_s() / ((c[0] + c[1]) / 2.0))
        .collect();
    let scaled: Vec<f64> = walls.iter().zip(&speeds).map(|(w, s)| w * s).collect();
    let setup_scaled: Vec<f64> = setup.iter().map(|&(i, dt)| dt * speeds[i]).collect();
    let host_setup: Vec<f64> = setup.iter().map(|&(_, dt)| dt).collect();
    let wall_s = median(&scaled);
    let error_ratio = failed as f64 / attempted as f64;
    println!("workload\t{name}\tseed {seed}\tpool width {}", pool_width());
    println!("passes\t{}\tcells/pass {cells}", walls.len());
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("pass host wall_s\t{}", list(&walls));
    println!("pass host speed\t{}", list(&speeds));
    println!("calibration\t{kind:?} on {threads} thread(s)");
    println!("host wall_s\t{}\ts", median(&walls));
    println!("host speed\t{}\t(1 = reference host)", median(&speeds));
    println!("setup rounds\t{}", setup.len());
    println!("host setup_s\t{}\ts", median(&host_setup));
    let cell_walls: Vec<String> = reference
        .cells
        .iter()
        .map(|c| {
            c.as_ref()
                .map_or("-".into(), |c| format!("{:.4}", c.wall_s))
        })
        .collect();
    println!("reference cell wall_s\t{}", cell_walls.join(" "));
    for (n, v) in w.census_names().iter().zip(&census) {
        println!("census.{n}\t{v}");
    }
    println!("sim work/pass\t{work} {}", w.work_unit());
    println!("error_ratio\t{error_ratio} ({failed} of {attempted} cells)");
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("wall_s", wall_s, "s"),
            metric("setup_s", median(&setup_scaled), "s"),
            metric("sim_work_per_s", work / wall_s, "work/s"),
            metric("peak_rss_mib", peak_rss, "MiB"),
        ],
    })
}

fn json_line(correct: bool, o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: --workload must be one of {}",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.seed == HELD_OUT_SEED {
        eprintln!("perfbench: seed {HELD_OUT_SEED} is the held-out seed");
    }
    let outcome = if args.trace {
        layers::traced(&args.workload, args.seed, args.seconds)
    } else {
        end_to_end(&args.workload, w.as_ref(), args.seed, args.seconds)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        println!("{}\t{}\t{}", m.name, m.value, m.unit);
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a finite number", m.name);
        return ExitCode::FAILURE;
    }
    let correct = outcome.failed == 0;
    println!("{}", json_line(correct, &outcome));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
