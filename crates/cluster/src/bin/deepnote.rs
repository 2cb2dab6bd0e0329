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
//! deepnote cluster [--placement P] [--seconds N] [--clients N] [--shards N] [--seed S]
//!                  [--chaos C] [--json FILE] [--trace FILE] [--metrics-interval T]
//! deepnote trace-check [--trace FILE] [--report FILE]
//! deepnote all
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_acoustics::{Distance, SweepPlan};
use deepnote_cluster::prelude::*;
use deepnote_core::experiments::{
    ablations, adaptive, covert, crash, frequency, heatmap, range, redundancy, stealth,
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

/// Minimal flag parsing: `--name value` pairs after the subcommand.
struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--tsv" {
                flags.push((a[2..].to_string(), "true".to_string()));
                continue;
            }
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument: {a}"));
            };
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Args { flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v
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

    /// [`Args::get`] for a length in centimetres: finite and not
    /// negative.
    fn distance_cm(&self, name: &str, default: f64) -> Result<Distance, String> {
        let cm = self.get(name, default)?;
        if !(cm.is_finite() && cm >= 0.0) {
            let shown = self.string(name).unwrap_or_default();
            return Err(format!("bad value for --{name}: {shown}"));
        }
        Ok(Distance::from_cm(cm))
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
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
  all          everything above (except TSV dumps)
";

fn run(cmd: &str, args: &Args) -> Result<(), String> {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    match cmd {
        "table1" => {
            let seconds = args.nonzero("seconds", 5u64)?;
            print!("{}", report::render_table1(&range::table1(seconds)));
        }
        "table2" => {
            let spec = BenchSpec {
                num_keys: args.nonzero("keys", 20_000u64)?,
                duration: SimDuration::from_secs(args.get("seconds", 10u64)?),
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
            if args.has("tsv") {
                for sweep in &sweeps {
                    print!("{}", sweep.write.to_tsv());
                    print!("{}", sweep.read.to_tsv());
                }
            }
        }
        "sweep" => {
            let distance = args.distance_cm("distance-cm", 1.0)?;
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
            for row in ablations::noise_vs_tone() {
                println!(
                    "  {:<42} residual {:>7.1} nm, write {:>5.1} MB/s",
                    row.label, row.displacement_nm, row.write_mb_s
                );
            }
            println!("Attacker depth vs reach (Lloyd mirror, target at 36 m):");
            for row in ablations::attacker_depth() {
                let reach = row
                    .blackout_range_m
                    .map(|m| format!("{m:.0} m"))
                    .unwrap_or_else(|| "out of reach".to_string());
                println!("  {:<26} blackout reach {reach}", row.label);
            }
            println!("Seasonal resonance drift (probe at 10 cm):");
            for row in ablations::seasonal_drift() {
                println!(
                    "  {:<26} modes x{:.3}: stale 650 Hz -> {:>5.1} MB/s, retuned {:>5.0} Hz -> {:>5.1} MB/s",
                    row.label,
                    row.frequency_scale,
                    row.write_at_stale_tuning_mb_s,
                    row.retuned_best_hz,
                    row.write_at_retuned_mb_s
                );
            }
        }
        "stealth" => {
            print!("{}", stealth::render(&stealth::duty_cycle_sweep(&testbed)));
        }
        "redundancy" => {
            print!("{}", redundancy::render(&redundancy::mirror_study()));
        }
        "fleet" => {
            let drives = args.nonzero("drives", 10usize)?;
            let spacing = args.distance_cm("spacing-cm", 4.0)?;
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
            if args.has("tsv") {
                print!("{}", map.to_tsv());
            }
        }
        "covert" => {
            print!("{}", covert::render(&covert::exfiltration_study()));
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
            if let Some((_, path)) = args.flags.iter().find(|(n, _)| n == "json") {
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
