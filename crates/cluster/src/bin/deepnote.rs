//! The `deepnote` command-line tool: regenerate any of the paper's
//! tables/figures or run the extension studies from one binary.
//!
//! ```text
//! deepnote table1 [--seconds N]
//! deepnote table2 [--keys N] [--seconds N]
//! deepnote table3
//! deepnote fig2 [--tsv]
//! deepnote sweep [--distance-cm D] [--requests N]
//! deepnote defenses
//! deepnote ablations
//! deepnote stealth
//! deepnote redundancy
//! deepnote fleet [--drives N] [--spacing-cm S]
//! deepnote heatmap [--tsv]
//! deepnote covert
//! deepnote fio (--job FILE | --inline "k=v ...") [--attack-hz F] [--distance-cm D]
//!              [--scenario 1|2|3]
//! deepnote cluster [--placement P] [--seconds N] [--clients N] [--shards N] [--seed S]
//!                  [--chaos C] [--json FILE] [--trace FILE] [--metrics-interval T]
//! deepnote trace-check [--trace FILE] [--report FILE]
//! deepnote all
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_acoustics::{Distance, Frequency, OutOfRange, SweepPlan};
use deepnote_cluster::prelude::*;
use deepnote_core::experiments::{
    ablations, adaptive, covert, crash, fio, frequency, heatmap, range, redundancy, stealth,
};
use deepnote_core::fleet::Fleet;
use deepnote_core::testbed::Testbed;
use deepnote_core::threat::AttackParams;
use deepnote_core::{defense, report};
use deepnote_kv::bench::BenchSpec;
use deepnote_sim::SimDuration;
use deepnote_structures::Scenario;
use deepnote_telemetry::{export_chrome_trace, schema, TraceLog};
use std::process::ExitCode;

/// Minimal flag parsing: `--name value` pairs after the subcommand, each
/// name at most once.
struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument: {a}"));
            };
            if flags.iter().any(|(n, _)| n == name) {
                return Err(format!("flag --{name} given twice"));
            }
            let value = match name {
                "tsv" => "true",
                _ => it
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?,
            };
            flags.push((name.to_string(), value.to_string()));
        }
        Ok(Args { flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.string(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v}")),
        }
    }

    /// [`Args::get`] for counts and durations that must not be zero.
    fn nonzero<T: std::str::FromStr + Default + PartialEq>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        let v = self.get(name, default)?;
        if v == T::default() {
            return Err(format!("bad value for --{name}: 0"));
        }
        Ok(v)
    }

    /// [`Args::get`] for a number that `checked`, a unit's checked
    /// constructor, admits (it admits no NaN).
    fn bounded<T>(
        &self,
        name: &str,
        default: f64,
        checked: fn(f64) -> Result<T, OutOfRange>,
    ) -> Result<f64, String> {
        let v = self.get(name, default)?;
        if let Err(e) = checked(v) {
            let shown = self.string(name).unwrap_or_default();
            return Err(format!(
                "bad value for --{name}: {shown} (from {} to {})",
                e.min, e.max
            ));
        }
        Ok(v)
    }

    fn string(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses an interval flag: a bare number means seconds, and `s`, `ms`,
/// and `us` suffixes are accepted (`100ms`, `2s`, `500us`). A zero
/// interval is rejected: it would re-arm the same instant forever.
fn parse_interval(v: &str) -> Option<SimDuration> {
    let (num, nanos_per_unit) = if let Some(n) = v.strip_suffix("ms") {
        (n, 1_000_000u64)
    } else if let Some(n) = v.strip_suffix("us") {
        (n, 1_000u64)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1_000_000_000u64)
    } else {
        (v, 1_000_000_000u64)
    };
    let n: u64 = num.parse().ok().filter(|&n| n > 0)?;
    Some(SimDuration::from_nanos(n.saturating_mul(nanos_per_unit)))
}

const USAGE: &str = "\
deepnote — reproduce 'Deep Note' (HotStorage '23) from the command line

USAGE: deepnote <command> [flags]

COMMANDS:
  table1       FIO throughput/latency vs distance    [--seconds N]
  table2       RocksDB readwhilewriting vs distance  [--keys N] [--seconds N]
  table3       time-to-crash: Ext4 / Ubuntu / RocksDB
  fig2         throughput vs frequency, 3 scenarios  [--tsv]
  sweep        remote frequency discovery (§3)       [--distance-cm D] [--requests N]
  defenses     liner / dampers / augmented servo
  ablations    water, materials, tolerances, power, noise-vs-tone
  stealth      duty-cycled attacks vs the detector
  redundancy   RAID-1 co-located vs separated mirrors
  fleet        blast radius on a drive column        [--drives N] [--spacing-cm S]
  heatmap      frequency x distance attack surface   [--tsv]
  covert       seek-noise exfiltration budget (DiskFiltration underwater)
  fio          fio jobs on the victim drive, optionally under a tone
               (--job FILE | --inline \"rw=write bs=4k runtime=5\")
               [--attack-hz F] [--distance-cm D] [--scenario 1|2|3]
               scenarios: 1 plastic/floor, 2 plastic/tower (default), 3 metal/tower
  cluster      replicated KV cluster vs attack timeline
               [--placement separated|colocated|both] [--seconds N]
               [--clients N] [--shards N] [--seed S]
               [--chaos off|transient|corruption|full] [--json FILE]
               [--trace FILE] [--metrics-interval 100ms]
               with --chaos, each placement runs twice: full defense
               stack (checksums, scrub, read repair, resilient client)
               vs the naive one-shot quorum path; --trace writes a
               Chrome/Perfetto trace of every layer, --metrics-interval
               scrapes per-node series into the JSON report
  trace-check  validate telemetry artifacts            [--trace FILE] [--report FILE]
  all          everything above but fio and trace-check (no TSV dumps)
";

/// The flags `cmd` takes (`None` for an unknown command).
fn flags_of(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "table1" => &["seconds"],
        "table2" => &["keys", "seconds"],
        "fig2" | "heatmap" => &["tsv"],
        "sweep" => &["distance-cm", "requests"],
        "fleet" => &["drives", "spacing-cm"],
        "cluster" => &[
            "placement",
            "seconds",
            "clients",
            "shards",
            "seed",
            "chaos",
            "json",
            "trace",
            "metrics-interval",
        ],
        "trace-check" => &["trace", "report"],
        "fio" => &["job", "inline", "attack-hz", "distance-cm", "scenario"],
        "table3" | "defenses" | "ablations" | "stealth" | "redundancy" | "covert" | "all" => &[],
        _ => return None,
    })
}

fn run(cmd: &str, args: &Args) -> Result<(), String> {
    if let Some(takes) = flags_of(cmd) {
        if let Some((name, _)) = args
            .flags
            .iter()
            .find(|(n, _)| !takes.contains(&n.as_str()))
        {
            let takes = match takes {
                [] => "no flags".to_string(),
                _ => format!("--{}", takes.join(", --")),
            };
            return Err(format!(
                "unknown flag for {cmd}: --{name} ({cmd} takes {takes})"
            ));
        }
    }
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    match cmd {
        "table1" => {
            let seconds = args.nonzero("seconds", 5u64)?;
            print!("{}", report::render_table1(&range::table1(seconds)));
        }
        "table2" => {
            let spec = BenchSpec {
                num_keys: args.nonzero("keys", 20_000u64)?,
                duration: SimDuration::from_secs(args.nonzero("seconds", 10u64)?),
                ..BenchSpec::default()
            };
            print!("{}", report::render_table2(&range::table2(&spec)));
        }
        "table3" => {
            print!("{}", report::render_table3(&crash::table3()));
        }
        "fig2" => {
            let sweeps = frequency::figure2(Distance::from_cm(1.0), &SweepPlan::paper_sweep());
            print!("{}", report::render_figure2(&sweeps));
            if args.string("tsv").is_some() {
                for sweep in &sweeps {
                    print!("{}", sweep.write.to_tsv());
                    print!("{}", sweep.read.to_tsv());
                }
            }
        }
        "sweep" => {
            let distance =
                Distance::from_cm(args.bounded("distance-cm", 1.0, Distance::checked_cm)?);
            let requests = args.nonzero("requests", 6u32)?;
            let d = adaptive::remote_frequency_discovery(
                &testbed,
                distance,
                &SweepPlan::paper_sweep(),
                requests,
            );
            println!("baseline latency: {:.2} ms", d.baseline_latency_ms);
            match d.vulnerable_band() {
                Some((lo, hi)) => println!("vulnerable band: {lo:.0}-{hi:.0} Hz"),
                None => println!("no vulnerable frequencies found"),
            }
            if let Some(best) = d.best_frequency_hz {
                println!("best frequency: {best:.0} Hz");
            }
        }
        "defenses" => {
            print!(
                "{}",
                report::render_defenses(&defense::evaluate_catalog(&testbed))
            );
        }
        "ablations" => {
            print!("{}", report::render_water(&ablations::water_conditions()));
            print!("{}", report::render_power(&ablations::attacker_power()));
            print!("{}", report::render_materials(&ablations::materials()));
            print!(
                "{}",
                report::render_tolerance(&ablations::tolerance_sensitivity())
            );
            println!("Tone vs band noise at equal power:");
            print!(
                "{}",
                report::render_noise_vs_tone(&ablations::noise_vs_tone())
            );
            println!("Attacker depth vs reach (Lloyd mirror, target at 36 m):");
            print!("{}", report::render_depth(&ablations::attacker_depth()));
            println!("Seasonal resonance drift (probe at 10 cm):");
            print!("{}", report::render_seasons(&ablations::seasonal_drift()));
        }
        "stealth" => {
            print!("{}", stealth::render(&stealth::duty_cycle_sweep(&testbed)));
        }
        "redundancy" => {
            print!("{}", redundancy::render(&redundancy::mirror_study()));
        }
        "fleet" => {
            let drives = args.nonzero("drives", 10usize)?;
            let spacing =
                Distance::from_cm(args.bounded("spacing-cm", 4.0, Distance::checked_cm)?);
            let fleet = Fleet::new(testbed, Distance::from_cm(1.0), spacing, drives);
            let report = fleet.assess(AttackParams::paper_best());
            println!(
                "attack at 650 Hz: {} blackout, {} affected of {}",
                report.blacked_out(),
                report.affected(),
                report.drives.len()
            );
            for d in &report.drives {
                println!(
                    "  drive {:>2} at {:>6.1} cm: write {:>5.1} MB/s ({:?})",
                    d.index, d.distance_cm, d.write_mb_s, d.impact
                );
            }
        }
        "heatmap" => {
            let map = heatmap::default_grid(&testbed);
            let radius = map.exclusion_radius_cm(0.9, 22.7);
            println!(
                "grid: {} frequencies x {} distances",
                map.frequencies_hz.len(),
                map.distances_cm.len()
            );
            match radius {
                Some(cm) => println!("operator exclusion radius (90% of nominal): {cm:.0} cm"),
                None => println!("some frequency stays degraded at every sampled distance"),
            }
            if args.string("tsv").is_some() {
                print!("{}", map.to_tsv());
            }
        }
        "covert" => {
            print!("{}", covert::render(&covert::exfiltration_study()));
        }
        "fio" => {
            let scenario = match args.string("scenario").unwrap_or("2") {
                "1" => Scenario::PlasticDirect,
                "2" => Scenario::PlasticTower,
                "3" => Scenario::MetalTower,
                other => return Err(format!("bad value for --scenario: {other} (1, 2 or 3)")),
            };
            let distance_cm = args.bounded("distance-cm", 1.0, Distance::checked_cm)?;
            let tone = match args.string("attack-hz") {
                Some(_) => Some(fio::Tone {
                    hz: args.bounded("attack-hz", 0.0, Frequency::checked_hz)?,
                    distance_cm,
                    scenario,
                }),
                None => None,
            };
            let text = match (args.string("job"), args.string("inline")) {
                (Some(path), None) => {
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
                }
                // Space-separated key=value pairs make one job, `inline`.
                (None, Some(pairs)) => {
                    let lines: Vec<&str> = pairs.split_whitespace().collect();
                    format!("[inline]\n{}\n", lines.join("\n"))
                }
                _ => return Err("fio takes one of --job FILE and --inline \"k=v ...\"".to_string()),
            };
            print!("{}", fio::run(&text, tone)?);
        }
        "cluster" => {
            let placement = args.get("placement", "both".to_string())?;
            let attack = SimDuration::from_secs(args.nonzero("seconds", 120u64)?);
            let chaos_name = args.get("chaos", "off".to_string())?;
            let chaos = ChaosProfile::parse(&chaos_name).ok_or_else(|| {
                format!("bad value for --chaos: {chaos_name} (off|transient|corruption|full)")
            })?;
            let trace_path = args.string("trace").map(str::to_string);
            let metrics_interval = match args.string("metrics-interval") {
                Some(v) => Some(parse_interval(v).ok_or_else(|| {
                    format!("bad value for --metrics-interval: {v} (try 100ms, 2s, 500us)")
                })?),
                None => None,
            };
            let tune = |mut c: CampaignConfig| -> Result<CampaignConfig, String> {
                c.seed = args.get("seed", c.seed)?;
                c.workload.clients = args.nonzero("clients", c.workload.clients)?;
                c.cluster.num_shards = args.nonzero("shards", c.cluster.num_shards)?;
                c.telemetry.trace = trace_path.is_some();
                c.telemetry.metrics_interval = metrics_interval;
                Ok(c)
            };
            let placements = match placement.as_str() {
                "separated" => vec![PlacementPolicy::Separated],
                "colocated" | "co-located" => vec![PlacementPolicy::CoLocated],
                "both" => vec![PlacementPolicy::Separated, PlacementPolicy::CoLocated],
                other => return Err(format!("bad value for --placement: {other}")),
            };
            let mut configs = Vec::new();
            for p in placements {
                if chaos.is_off() {
                    configs.push(tune(CampaignConfig::paper_duel(p, attack))?);
                } else {
                    // Under chaos, each placement becomes a duel of its
                    // own: full defense stack vs the bare quorum path.
                    let (hardened, naive) = CampaignConfig::chaos_pair(p, attack, &chaos);
                    let mut hardened = tune(hardened)?;
                    let mut naive = tune(naive)?;
                    hardened.label = format!("{} {}", p.label(), hardened.label);
                    naive.label = format!("{} {}", p.label(), naive.label);
                    configs.push(hardened);
                    configs.push(naive);
                }
            }
            let mut reports = Vec::new();
            for result in run_matrix(configs) {
                reports.push(result.map_err(|e| format!("campaign failed: {e}"))?);
            }
            print!("{}", render_duel(&reports));
            if let Some(path) = args.string("json") {
                let body = reports
                    .iter()
                    .map(CampaignReport::to_json)
                    .collect::<Vec<_>>()
                    .join(",");
                std::fs::write(path, format!("[{body}]\n"))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("wrote {} report(s) to {path}", reports.len());
            }
            if let Some(path) = &trace_path {
                let runs: Vec<(&str, &TraceLog)> = reports
                    .iter()
                    .filter_map(|r| r.trace.as_ref().map(|t| (r.label.as_str(), t)))
                    .collect();
                std::fs::write(path, export_chrome_trace(&runs))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("wrote trace of {} run(s) to {path}", runs.len());
            }
        }
        "trace-check" => {
            let trace_path = args.string("trace");
            let report_path = args.string("report");
            if trace_path.is_none() && report_path.is_none() {
                return Err("trace-check needs --trace FILE and/or --report FILE".to_string());
            }
            if let Some(path) = trace_path {
                let body =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let s = schema::validate_trace(&body).map_err(|e| format!("{path}: {e}"))?;
                println!(
                    "{path}: OK — {} events ({} spans, {} instants), layers: {}",
                    s.events,
                    s.spans,
                    s.instants,
                    s.layers.join(", ")
                );
            }
            if let Some(path) = report_path {
                let body =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let s = schema::validate_report(&body).map_err(|e| format!("{path}: {e}"))?;
                println!(
                    "{path}: OK — {} run(s), {} alert transition(s) ({} raised), {} metric series",
                    s.runs, s.alerts, s.raised, s.series
                );
            }
        }
        "all" => {
            for sub in [
                "table1",
                "table2",
                "table3",
                "fig2",
                "defenses",
                "ablations",
                "stealth",
                "redundancy",
                "fleet",
                "heatmap",
                "covert",
                "cluster",
            ] {
                println!("═══ {sub} ═══");
                run(sub, &Args { flags: Vec::new() })?;
                println!();
            }
        }
        other => return Err(format!("unknown command: {other}\n\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(cmd, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
