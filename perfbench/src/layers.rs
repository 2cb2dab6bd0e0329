//! The traced per-layer run. The benchmark's own drivers call each
//! layer's public functions and record one span per call (name, start,
//! end, parent) in memory; the spans are written out at the end and
//! summarised as ns/op (p50, p99, sample count). `fs` and `kv` run over
//! `MemDisk` so each is timed without the drive beneath it.

use crate::util::{median, percentile, timed};
use crate::workloads::{self, provision, Workload};
use crate::{failed_cells, metric, recorded_fingerprint, Metric, Outcome};
use deepnote_acoustics::{Distance, Frequency};
use deepnote_blockdev::{BlockDevice, ChaosInjector, HddDisk, MemDisk};
use deepnote_cluster::prelude::*;
use deepnote_core::parallel::pool_width;
use deepnote_core::{AttackParams, Testbed};
use deepnote_fs::inode::MAX_FILE_SIZE;
use deepnote_fs::Filesystem;
use deepnote_hdd::{
    steady_state, DiskOpKind, DriveGeometry, ServoModel, TimingModel, ToleranceModel,
};
use deepnote_kv::{BenchSpec, Db};
use deepnote_sim::{Clock, SimDuration, SimRng, SimTime};
use deepnote_structures::Scenario;
use deepnote_telemetry::export_chrome_trace;
use std::fmt::Write as _;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Operating points sampled from the heatmap's surface.
const POINTS: usize = 4_000;
/// 4 KiB requests per device driver.
const IOS: u64 = 4_000;
/// Sparse in-memory devices: 2 GiB of 512-byte blocks.
const MEM_BLOCKS: u64 = 1 << 22;
/// A 4 KiB request.
const IO_BYTES: usize = 4_096;
/// fs writes between explicit commits.
const WRITES_PER_COMMIT: u64 = 16;
/// kv rounds: puts and gets, then a flush; a compaction every 4th.
const KV_ROUNDS: u64 = 40;
const KV_OPS_PER_ROUND: u64 = 500;
/// Control-plane driver: 100 ms steps, the second half under attack.
const CONTROL_STEPS: u64 = 400;
/// Renders per report, and trace-on/off campaign pairs.
const RENDERS: usize = 10;
const TRACE_PAIRS: usize = 3;
/// Empty spans timed to price one span.
const EMPTY_SPANS: usize = 100_000;
/// Most driver rounds, which bounds the spans kept in memory.
const MAX_ROUNDS: usize = 5;

/// Every timed span name, reported as `<name>.p50`, `.p99` and `.n`.
const TIMED: [&str; 21] = [
    "acoustics.vibration_at_ns",
    "acoustics.received_spl_ns",
    "hdd.steady_state_ns",
    "hdd.io_quiet_ns",
    "hdd.io_attacked_ns",
    "blockdev.memdisk_io_ns",
    "blockdev.chaos_io_ns",
    "fs.write_file_ns",
    "fs.commit_ns",
    "kv.put_ns",
    "kv.get_ns",
    "kv.flush_ns",
    "kv.compact_ns",
    "cluster.setup_ns",
    "cluster.quorum_read_ns",
    "cluster.quorum_write_ns",
    "cluster.heartbeat_ns",
    "cluster.repair_step_ns",
    "cluster.scrub_step_ns",
    "cluster.report_json_ns",
    "telemetry.chrome_export_ns_per_event",
];

/// One recorded span; times are ns since the recorder started.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Divides the duration into per-item cost (events per export).
    items: u64,
}

/// An in-memory span recorder.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a driver span; `close` ends it.
    fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            items: 1,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a child of `parent`.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            items: 1,
        });
        out
    }

    /// Per-item ns of every span named `name`.
    fn samples(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / s.items.max(1) as f64)
            .collect()
    }

    /// Writes the spans outside `skip` as TSV: id, name, start, end,
    /// parent.
    fn write(&self, path: &std::path::Path, skip: Range<usize>) -> std::io::Result<()> {
        let mut out = String::from("# id\tname\tstart_ns\tend_ns\tparent\n");
        for (i, s) in self.spans.iter().enumerate() {
            if skip.contains(&i) {
                continue;
            }
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A 4 KiB-aligned LBA on a device of `blocks` blocks.
fn lba(rng: &mut SimRng, blocks: u64) -> u64 {
    rng.below(blocks / 8) * 8
}

/// `Testbed::vibration_at`, `Testbed::received_spl` and
/// `hdd::steady_state` over points of the heatmap's surface.
fn transfer_path(spans: &mut Spans, seed: u64) {
    let root = spans.open("driver.transfer_path");
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let geo = DriveGeometry::barracuda_500gb();
    let timing = TimingModel::barracuda_500gb();
    let servo = ServoModel::typical();
    let tol = ToleranceModel::typical();
    let mut rng = SimRng::seeded(seed);
    for _ in 0..POINTS {
        let f = Frequency::from_hz(100.0 + 3_900.0 * rng.unit_f64());
        let d = Distance::from_cm(1.0 + 49.0 * rng.unit_f64());
        let v = spans.time("acoustics.vibration_at_ns", root, || {
            testbed.vibration_at(black_box(f), black_box(d))
        });
        let params = AttackParams::paper_best().at_frequency(f).at_distance(d);
        black_box(spans.time("acoustics.received_spl_ns", root, || {
            testbed.received_spl(black_box(params))
        }));
        black_box(spans.time("hdd.steady_state_ns", root, || {
            steady_state(&geo, &timing, &servo, &tol, Some(&v), 8, DiskOpKind::Write)
        }));
    }
    spans.close(root);
}

/// Alternating 4 KiB writes and reads at random LBAs.
fn io_mix(
    spans: &mut Spans,
    name: &'static str,
    parent: usize,
    dev: &mut dyn BlockDevice,
    seed: u64,
) {
    let mut rng = SimRng::seeded(seed);
    let blocks = dev.num_blocks().min(MEM_BLOCKS);
    let data = vec![0x5A; IO_BYTES];
    let mut buf = vec![0; IO_BYTES];
    for i in 0..IOS {
        let at = lba(&mut rng, blocks);
        // Failed requests are results here (an attacked drive fails
        // some); they are timed like the rest.
        let _ = spans.time(name, parent, || {
            if i % 2 == 0 {
                dev.write_blocks(at, &data)
            } else {
                dev.read_blocks(at, &mut buf)
            }
        });
    }
}

/// `HddDisk` I/O silent and under 650 Hz at 10 cm; returns the
/// attacked drive's retries per completed op.
fn hdd_io(spans: &mut Spans, seed: u64) -> f64 {
    let root = spans.open("driver.hdd_io");
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let mut retries_per_io = 0.0;
    for (name, attacked) in [("hdd.io_quiet_ns", false), ("hdd.io_attacked_ns", true)] {
        let mut disk = HddDisk::barracuda_500gb(Clock::new());
        if attacked {
            let params = AttackParams::paper_best().at_distance(Distance::from_cm(10.0));
            testbed.mount_attack(&disk.vibration(), params);
        }
        io_mix(spans, name, root, &mut disk, seed);
        let drive = disk.drive();
        retries_per_io = drive.retries_total() as f64 / drive.ops_completed().max(1) as f64;
    }
    spans.close(root);
    retries_per_io
}

/// `MemDisk` against `ChaosInjector<MemDisk>` under the stock full
/// profile; returns the faults injected.
fn blockdev_io(spans: &mut Spans, seed: u64) -> u64 {
    let root = spans.open("driver.blockdev_io");
    let mut mem = MemDisk::new(MEM_BLOCKS);
    io_mix(spans, "blockdev.memdisk_io_ns", root, &mut mem, seed);
    let plan = ChaosProfile::full().device;
    let mut chaos = ChaosInjector::new(MemDisk::new(MEM_BLOCKS), plan, SimRng::seeded(seed))
        .with_clock(Clock::new());
    io_mix(spans, "blockdev.chaos_io_ns", root, &mut chaos, seed);
    spans.close(root);
    chaos.injected()
}

/// `Filesystem<MemDisk>`: 4 KiB appends across eight files with an
/// explicit commit every 16 writes; returns journal commits.
fn fs_io(spans: &mut Spans, seed: u64) -> Result<u64, String> {
    let root = spans.open("driver.fs");
    let clock = Clock::new();
    let mut fs = Filesystem::format(MemDisk::new(MEM_BLOCKS), clock).map_err(|e| e.to_string())?;
    fs.create("/bench").map_err(|e| e.to_string())?;
    let files: Vec<String> = (0..8).map(|i| format!("/bench/f{i}")).collect();
    for f in &files {
        fs.create_file(f).map_err(|e| e.to_string())?;
    }
    let mut offsets = [0u64; 8];
    let mut rng = SimRng::seeded(seed);
    let data = vec![0xA5; IO_BYTES];
    for i in 0..IOS {
        let f = rng.below(8) as usize;
        spans
            .time("fs.write_file_ns", root, || {
                fs.write_file(&files[f], offsets[f], &data)
            })
            .map_err(|e| e.to_string())?;
        // Wrap at the largest file, as a rotating log would.
        offsets[f] = (offsets[f] + IO_BYTES as u64) % MAX_FILE_SIZE;
        if i % WRITES_PER_COMMIT == WRITES_PER_COMMIT - 1 {
            spans
                .time("fs.commit_ns", root, || fs.commit())
                .map_err(|e| e.to_string())?;
        }
    }
    spans.close(root);
    Ok(fs.stats().journal_commits)
}

/// `Db<MemDisk>`: rounds of puts and gets, a flush per round and a
/// compaction every fourth; returns write amplification.
fn kv_io(spans: &mut Spans, seed: u64) -> Result<f64, String> {
    let root = spans.open("driver.kv");
    let err = |e: deepnote_kv::DbError| e.to_string();
    let mut db = Db::create(MemDisk::new(MEM_BLOCKS), Clock::new()).map_err(err)?;
    let spec = BenchSpec {
        seed,
        ..deepnote_core::experiments::range::quick_kv_spec()
    };
    let mut rng = SimRng::seeded(seed);
    for round in 0..KV_ROUNDS {
        for _ in 0..KV_OPS_PER_ROUND {
            let i = rng.below(spec.num_keys);
            let (k, v) = (spec.key(i), spec.value(i));
            spans
                .time("kv.put_ns", root, || db.put(&k, &v))
                .map_err(err)?;
        }
        for _ in 0..KV_OPS_PER_ROUND {
            let k = spec.key(rng.below(spec.num_keys));
            black_box(spans.time("kv.get_ns", root, || db.get(&k)).map_err(err)?);
        }
        spans
            .time("kv.flush_ns", root, || db.flush())
            .map_err(err)?;
        if round % 4 == 3 {
            spans
                .time("kv.compact_ns", root, || db.compact())
                .map_err(err)?;
        }
    }
    spans.close(root);
    Ok(db.stats().write_amplification().unwrap_or(f64::NAN))
}

/// `Cluster::with_chaos` + `provision` for every matrix cell, then the
/// public control-plane steps and quorum ops on the separated hardened
/// cell, attack off and then on.
fn cluster_ops(spans: &mut Spans, seed: u64) -> Result<(), String> {
    let root = spans.open("driver.cluster");
    let configs = workloads::campaign_configs(seed);
    for config in &configs {
        black_box(spans.time("cluster.setup_ns", root, || provision(config, seed))?);
    }
    let config = &configs[1];
    let mut cluster = provision(config, seed)?;
    let spec = config.workload;
    let mut rng = SimRng::seeded(seed);
    let step = SimDuration::from_millis(100);
    let mut now = SimTime::ZERO;
    for i in 0..CONTROL_STEPS {
        if i == CONTROL_STEPS / 2 {
            cluster.set_attack(Some(Frequency::from_hz(650.0)), now);
        }
        spans.time("cluster.heartbeat_ns", root, || cluster.heartbeat(now));
        if i % 2 == 0 {
            spans.time("cluster.repair_step_ns", root, || {
                cluster.repair_step(now, config.repair_batch)
            });
            spans.time("cluster.scrub_step_ns", root, || {
                cluster.scrub_step(now, config.scrub_batch)
            });
        }
        for c in 0..spec.clients as u64 {
            let key_index = rng.below(spec.num_keys);
            let (key, value) = (spec.key(key_index), spec.value(key_index));
            let at = now + SimDuration::from_millis(10 * c);
            let name = if c % 2 == 0 {
                "cluster.quorum_read_ns"
            } else {
                "cluster.quorum_write_ns"
            };
            black_box(spans.time(name, root, || cluster.execute(c % 2 == 0, &key, &value, at)));
        }
        now += step;
    }
    spans.close(root);
    Ok(())
}

/// Telemetry and report costs on the separated hardened cell: the
/// campaign with tracing on vs off, the Chrome export of its trace, and
/// rendering its report. Returns (overhead ratio, events, dropped).
fn telemetry(spans: &mut Spans, seed: u64) -> Result<(f64, u64, u64), String> {
    let root = spans.open("driver.telemetry");
    let traced = workloads::campaign_configs(seed).swap_remove(1);
    let mut quiet = traced.clone();
    quiet.telemetry.trace = false;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut report = None;
    for _ in 0..TRACE_PAIRS {
        let (r, dt) = timed(|| run_campaign(&traced));
        on.push(dt);
        report = Some(r.map_err(|e| e.to_string())?);
        let (r, dt) = timed(|| run_campaign(&quiet));
        r.map_err(|e| e.to_string())?;
        off.push(dt);
    }
    let report = report.ok_or("no traced campaign ran")?;
    let log = report.trace.clone().unwrap_or_default();
    let events = log.events.len() as u64;
    for _ in 0..RENDERS {
        black_box(
            spans.time("telemetry.chrome_export_ns_per_event", root, || {
                export_chrome_trace(&[(report.label.as_str(), &log)])
            }),
        );
        if let Some(s) = spans.spans.last_mut() {
            s.items = events;
        }
        black_box(spans.time("cluster.report_json_ns", root, || {
            (report.to_json(), report.render())
        }));
    }
    spans.close(root);
    Ok((median(&on) / median(&off), events, log.dropped))
}

/// The ns one recorded span costs (two clock reads and a push).
fn span_cost_ns(spans: &mut Spans) -> f64 {
    let keep = spans.spans.len();
    let root = spans.open("driver.span_cost");
    let start = Instant::now();
    for _ in 0..EMPTY_SPANS {
        spans.time("empty", root, || ());
    }
    let cost = start.elapsed().as_nanos() as f64 / EMPTY_SPANS as f64;
    spans.spans.truncate(keep);
    cost
}

/// Cell-wall ratios of one pool pass: busy share of `width` workers
/// over the pass, and slowest cell over the mean cell.
fn pool_ratios(walls: &[f64], pass_s: f64, width: usize) -> (f64, f64) {
    let total: f64 = walls.iter().sum();
    let mean = total / walls.len().max(1) as f64;
    let max = walls.iter().copied().fold(0.0, f64::max);
    (total / (width as f64 * pass_s), max / mean)
}

/// The traced run: rounds of every layer driver for `seconds` (at
/// least one round, at most `MAX_ROUNDS`; counts come from the first,
/// timings from all), then one pass of every workload for its census
/// and pool ratios. The spans file keeps the first round and the
/// telemetry driver; later rounds repeat the first and only add
/// samples.
pub fn traced(workload: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let started = Instant::now();
    let mut counts = None;
    let mut rounds = 0;
    let mut first_round_end = 0;
    while rounds == 0 || (rounds < MAX_ROUNDS && started.elapsed().as_secs() < seconds) {
        rounds += 1;
        transfer_path(&mut spans, seed);
        let retries = hdd_io(&mut spans, seed);
        let injected = blockdev_io(&mut spans, seed);
        let commits = fs_io(&mut spans, seed)?;
        let write_amp = kv_io(&mut spans, seed)?;
        cluster_ops(&mut spans, seed)?;
        counts.get_or_insert((retries, injected, commits, write_amp));
        if rounds == 1 {
            first_round_end = spans.spans.len();
        }
    }
    let later_rounds = first_round_end..spans.spans.len();
    let (retries, injected, commits, write_amp) = counts.ok_or("no round ran")?;
    let (overhead, events, dropped) = telemetry(&mut spans, seed)?;
    let span_cost = span_cost_ns(&mut spans);

    let mut metrics: Vec<Metric> = Vec::new();
    for name in TIMED {
        let samples = spans.samples(name);
        metrics.push(metric(
            format!("{name}.p50"),
            percentile(&samples, 50.0),
            "ns",
        ));
        metrics.push(metric(
            format!("{name}.p99"),
            percentile(&samples, 99.0),
            "ns",
        ));
        metrics.push(metric(format!("{name}.n"), samples.len() as f64, "count"));
    }
    metrics.extend([
        metric("hdd.retries_per_io", retries, "retries/op"),
        metric("blockdev.injected_faults", injected as f64, "count"),
        metric("fs.journal_commits", commits as f64, "count"),
        metric("kv.write_amp", write_amp, "ratio"),
        metric("telemetry.trace_overhead_ratio", overhead, "ratio"),
        metric("telemetry.trace_events", events as f64, "count"),
        metric("telemetry.trace_dropped", dropped as f64, "count"),
        metric("trace.span_cost_ns", span_cost, "ns"),
    ]);

    let (mut attempted, mut failed) = (0, 0);
    for name in workloads::NAMES {
        let w: Box<dyn Workload> = workloads::build(name, seed).ok_or("unknown workload")?;
        let pass = w.run(true);
        attempted += pass.cells.len() as u64;
        let mut bad = failed_cells(&pass, None, name);
        if recorded_fingerprint(name, seed).is_some_and(|fp| fp != pass.fingerprint()) {
            eprintln!("{name}: pass differs from the fingerprint recorded for seed {seed}");
            bad = pass.cells.len() as u64;
        }
        failed += bad;
        let short = name.split('-').next().unwrap_or(name);
        for (n, v) in w
            .census_names()
            .iter()
            .zip(pass.census(w.census_names().len()))
        {
            let unit = if n.ends_with("_ns") { "ns" } else { "count" };
            metrics.push(metric(format!("census.{short}.{n}"), v as f64, unit));
        }
        if name != "heatmap" {
            let walls: Vec<f64> = pass.cells.iter().flatten().map(|c| c.wall_s).collect();
            let (busy, straggler) = pool_ratios(&walls, pass.wall_s, pool_width());
            metrics.push(metric(
                format!("core.pool_busy_ratio.{name}"),
                busy,
                "ratio",
            ));
            metrics.push(metric(
                format!("core.straggler_ratio.{name}"),
                straggler,
                "ratio",
            ));
        }
    }

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.tsv"));
    spans
        .write(&out, later_rounds)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("driver rounds\t{rounds}\tspans {}", spans.spans.len());
    println!("spans file\t{}", out.display());
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
