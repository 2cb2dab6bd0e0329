//! The end-to-end workloads. Each is built from a seed, splits into
//! cells (a table row, a grid row, a campaign), and reports per cell a
//! digest of its output and its share of the work census.

use crate::util::{digest, mix, timed, Calibration};
use deepnote_blockdev::HddDisk;
use deepnote_cluster::prelude::*;
use deepnote_core::experiments::crash::{self, CrashRow};
use deepnote_core::experiments::heatmap;
use deepnote_core::experiments::range::{self, FioRangeRow, KvRangeRow};
use deepnote_core::parallel::{pool_width, try_run_all};
use deepnote_core::{report, Testbed};
use deepnote_kv::{bench, BenchSpec, Db};
use deepnote_sim::{Clock, SimDuration, SimRng};
use deepnote_structures::Scenario;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every workload name, in the order the docs list them.
pub const NAMES: [&str; 3] = ["tables", "heatmap", "campaign-matrix"];

/// What one cell of a pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOut {
    /// Digest of the cell's output.
    pub digest: u64,
    /// The cell's share of the work census, in `census_names` order.
    pub census: Vec<u64>,
    /// Host seconds the cell took (not part of the comparison).
    pub wall_s: f64,
}

/// One pass of a workload.
pub struct Pass {
    /// Per-cell outcome: `Err` for an error, a panic, or a failed check.
    pub cells: Vec<Result<CellOut, String>>,
    /// Digest of the pass-level rendered output, if the pass rendered one.
    pub output: Option<u64>,
    /// Host seconds of the pass's measured work.
    pub wall_s: f64,
}

impl Pass {
    /// The pass's work census: the sum over its successful cells.
    pub fn census(&self, width: usize) -> Vec<u64> {
        let mut sum = vec![0; width];
        for cell in self.cells.iter().flatten() {
            for (s, v) in sum.iter_mut().zip(&cell.census) {
                *s += v;
            }
        }
        sum
    }

    /// One digest over every cell's output and census and the pass
    /// output; equal fingerprints mean byte-identical passes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.output.unwrap_or(0);
        for cell in &self.cells {
            match cell {
                Ok(c) => {
                    h = mix(h, c.digest);
                    for &v in &c.census {
                        h = mix(h, v);
                    }
                }
                Err(_) => h = mix(h, u64::MAX),
            }
        }
        h
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Names of the work-census counters, in cell order.
    fn census_names(&self) -> &'static [&'static str];
    /// The unit `sim_work_per_s` counts.
    fn work_unit(&self) -> &'static str;
    /// Simulated work of a pass, from its census.
    fn sim_work(&self, census: &[u64]) -> f64;
    /// The calibration loop that matches the workload's kind of work,
    /// and how many threads a pass keeps busy.
    fn calibration(&self) -> (Calibration, usize);
    /// One round of set-up: the workload's set-up calls, repeated back
    /// to back the returned number of times.
    fn setup(&self) -> Result<u32, String>;
    /// One pass over every cell. The pass times its own measured work,
    /// which leaves out checks and rendering no user waits for; that
    /// rendering is done only when `render` is set.
    fn run(&self, render: bool) -> Pass;
}

/// Builds the named workload for `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "tables" => Some(Box::new(Tables::new(seed))),
        "heatmap" => Some(Box::new(Grid::new(seed))),
        "campaign-matrix" => Some(Box::new(Matrix::new(seed))),
        _ => None,
    }
}

/// `Ok(())` when `cond` holds, else the failed check's description.
fn check(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("check failed: {}", what()))
    }
}

// ---------------------------------------------------------------- tables

/// Table 1 runs each FIO job for this many virtual seconds (the
/// `deepnote table1` default).
const FIO_SECONDS: u64 = 5;
/// Virtual seconds of each Table 2 row's readwhilewriting phase.
const KV_SECONDS: u64 = 3;

/// Tables 1–3 at paper settings: the single-drive stack.
struct Tables {
    testbed: Testbed,
    kv_spec: BenchSpec,
}

#[derive(Debug, Clone)]
enum Row {
    Fio(FioRangeRow),
    Kv(KvRangeRow),
    Crash(CrashRow),
}

impl Tables {
    fn new(seed: u64) -> Self {
        Tables {
            testbed: Testbed::paper_default(Scenario::PlasticTower),
            // The `deepnote table2` key count with a 3 s measured phase
            // (10 s by default), so a pass takes seconds, not minutes.
            // The seed drives the readwhilewriting key choice.
            kv_spec: BenchSpec {
                duration: SimDuration::from_secs(KV_SECONDS),
                seed,
                ..range::quick_kv_spec()
            },
        }
    }

    /// Virtual seconds a row simulated, from its config and output.
    fn virtual_s(&self, row: &Row) -> f64 {
        match row {
            Row::Fio(_) => 2.0 * FIO_SECONDS as f64,
            Row::Kv(r) => r
                .crashed_at_s
                .unwrap_or(self.kv_spec.duration.as_secs_f64()),
            Row::Crash(r) => {
                crash::WARMUP.as_secs_f64()
                    + r.time_to_crash_s
                        .unwrap_or(crash::ATTACK_LIMIT.as_secs_f64())
            }
        }
    }
}

/// Paper-shape checks on a row (`index` within its table).
fn check_row(row: &Row, index: usize) -> Result<(), String> {
    match row {
        Row::Fio(r) if index == 0 => check(
            (r.read_mb_s - 18.0).abs() < 0.3 && (r.write_mb_s - 22.7).abs() < 0.3,
            || format!("Table 1 baseline off the paper: {r:?}"),
        ),
        Row::Fio(r) if index <= 2 => check(r.read_mb_s == 0.0 && r.write_mb_s == 0.0, || {
            format!("Table 1 blackout row serves I/O: {r:?}")
        }),
        Row::Kv(r) if (1..=2).contains(&index) => check(r.throughput_mb_s < 0.2, || {
            format!("Table 2 blackout row serves I/O: {r:?}")
        }),
        Row::Crash(r) => check(
            r.time_to_crash_s
                .is_some_and(|t| (70.0..100.0).contains(&t)),
            || format!("Table 3 time-to-crash off the paper: {r:?}"),
        ),
        _ => Ok(()),
    }
}

impl Workload for Tables {
    fn census_names(&self) -> &'static [&'static str] {
        &["rows", "virtual_ns"]
    }

    fn work_unit(&self) -> &'static str {
        "virtual s"
    }

    fn calibration(&self) -> (Calibration, usize) {
        (Calibration::Mixed, pool_width())
    }

    fn sim_work(&self, census: &[u64]) -> f64 {
        census[1] as f64 / 1e9
    }

    fn setup(&self) -> Result<u32, String> {
        for _ in range::paper_distances() {
            let clock = Clock::new();
            let disk = HddDisk::barracuda_500gb(clock.clone());
            let mut db = Db::create(disk, clock).map_err(|e| e.to_string())?;
            bench::fill_seq(&mut db, &self.kv_spec).map_err(|e| e.to_string())?;
            black_box(&db);
        }
        Ok(1)
    }

    fn run(&self, _render: bool) -> Pass {
        let ((cells, output), wall_s) = timed(|| self.run_cells());
        Pass {
            cells,
            output: Some(output),
            wall_s,
        }
    }
}

impl Tables {
    /// Every row, and the digest of the rendered tables.
    fn run_cells(&self) -> (Vec<Result<CellOut, String>>, u64) {
        let testbed = &self.testbed;
        let spec = &self.kv_spec;
        let distances = range::paper_distances();
        let victims: [fn(&Testbed) -> CrashRow; 3] =
            [crash::ext4_crash, crash::ubuntu_crash, crash::rocksdb_crash];
        // Longest tables first (Table 3's RocksDB row alone takes about
        // 40% of a pass), so the pass time does not hinge on which worker
        // happens to pick up the slowest row last.
        let mut jobs: Vec<Box<dyn FnOnce() -> (Row, f64) + Send + '_>> = Vec::new();
        let mut index_in_table = Vec::new();
        for (i, victim) in victims.into_iter().enumerate() {
            jobs.push(Box::new(move || timed(|| Row::Crash(victim(testbed)))));
            index_in_table.push(i);
        }
        for (i, &d) in distances.iter().enumerate() {
            jobs.push(Box::new(move || {
                timed(|| Row::Kv(range::kv_row(testbed, d, spec)))
            }));
            index_in_table.push(i);
        }
        for (i, &d) in distances.iter().enumerate() {
            jobs.push(Box::new(move || {
                timed(|| Row::Fio(range::fio_row(testbed, d, FIO_SECONDS)))
            }));
            index_in_table.push(i);
        }
        let results = try_run_all(jobs);

        let (mut t1, mut t2, mut t3) = (Vec::new(), Vec::new(), Vec::new());
        let mut cells = Vec::with_capacity(results.len());
        for (result, index) in results.into_iter().zip(index_in_table) {
            cells.push(result.and_then(|(row, wall_s)| {
                check_row(&row, index)?;
                let cell = CellOut {
                    digest: digest(format!("{row:?}").as_bytes()),
                    census: vec![1, (self.virtual_s(&row) * 1e9).round() as u64],
                    wall_s,
                };
                match row {
                    Row::Fio(r) => t1.push(r),
                    Row::Kv(r) => t2.push(r),
                    Row::Crash(r) => t3.push(r),
                }
                Ok(cell)
            }));
        }
        let rendered = [
            report::render_table1(&t1),
            report::render_table2(&t2),
            report::render_table3(&t3),
        ]
        .concat();
        (cells, digest(rendered.as_bytes()))
    }
}

// --------------------------------------------------------------- heatmap

/// Grid rows (frequencies) and columns (distances): 500× the cells of
/// `heatmap::default_grid`'s 40 × 50.
const GRID_ROWS: usize = 500;
const GRID_COLS: usize = 2_000;
/// Testbed constructions timed together as one set-up round.
const TESTBEDS_PER_ROUND: u32 = 100;

/// A dense frequency × distance heatmap, computed row by row on one
/// thread.
struct Grid {
    testbed: Testbed,
    frequencies_hz: Vec<f64>,
    distances_cm: Vec<f64>,
}

impl Grid {
    fn new(seed: u64) -> Self {
        // The seed shifts both axes by a fraction of a step, so each
        // seed samples different points of the same 100 Hz–4 kHz ×
        // 1–50 cm surface at the same cost.
        let mut rng = SimRng::seeded(seed);
        let (f_off, d_off) = (rng.unit_f64(), rng.unit_f64());
        let f_step = 3_900.0 / GRID_ROWS as f64;
        let d_step = 49.0 / GRID_COLS as f64;
        Grid {
            testbed: Testbed::paper_default(Scenario::PlasticTower),
            frequencies_hz: (0..GRID_ROWS)
                .map(|i| 100.0 + (i as f64 + f_off) * f_step)
                .collect(),
            distances_cm: (0..GRID_COLS)
                .map(|j| 1.0 + (j as f64 + d_off) * d_step)
                .collect(),
        }
    }
}

impl Workload for Grid {
    fn census_names(&self) -> &'static [&'static str] {
        &["cells"]
    }

    fn work_unit(&self) -> &'static str {
        "grid cells"
    }

    fn calibration(&self) -> (Calibration, usize) {
        (Calibration::Math, 1)
    }

    fn sim_work(&self, census: &[u64]) -> f64 {
        census[0] as f64
    }

    fn setup(&self) -> Result<u32, String> {
        // One construction takes about as long as two clock reads, so a
        // round times a batch of them.
        for _ in 0..TESTBEDS_PER_ROUND {
            black_box(Testbed::paper_default(black_box(Scenario::PlasticTower)));
        }
        Ok(TESTBEDS_PER_ROUND)
    }

    fn run(&self, render: bool) -> Pass {
        // Only the grid is timed: rendering the TSV costs three times
        // the transfer path it dumps, and would hide it. The TSV is a
        // function of the row values, which every pass checks bit for
        // bit, so it is rendered on the reference pass alone.
        let (rows, wall_s) = timed(|| {
            self.frequencies_hz
                .iter()
                .map(|&hz| {
                    timed(|| {
                        catch_unwind(AssertUnwindSafe(|| {
                            heatmap::compute(&self.testbed, vec![hz], self.distances_cm.clone())
                        }))
                    })
                })
                .collect::<Vec<_>>()
        });
        let mut values = Vec::with_capacity(rows.len());
        let mut cells = Vec::with_capacity(rows.len());
        for (&hz, (row, cell_wall_s)) in self.frequencies_hz.iter().zip(rows) {
            let cell = match row {
                Ok(mut map) => {
                    let row = map.values.swap_remove(0);
                    // Throughput never falls as the speaker moves away.
                    let checked = check(row.windows(2).all(|p| p[1] >= p[0] - 1e-9), || {
                        format!("{hz} Hz row is not monotone in distance")
                    });
                    let cell = checked.map(|()| CellOut {
                        digest: row.iter().fold(0, |h, v| mix(h, v.to_bits())),
                        census: vec![row.len() as u64],
                        wall_s: cell_wall_s,
                    });
                    values.push(row);
                    cell
                }
                Err(_) => Err(format!("{hz} Hz row panicked")),
            };
            cells.push(cell);
        }
        let output = render.then(|| {
            let map = heatmap::Heatmap {
                frequencies_hz: self.frequencies_hz.clone(),
                distances_cm: self.distances_cm.clone(),
                values,
            };
            digest(map.to_tsv().as_bytes())
        });
        Pass {
            cells,
            output,
            wall_s,
        }
    }
}

// ------------------------------------------------------- campaign matrix

/// Length of each campaign's 650 Hz attack phase, virtual seconds.
const ATTACK_S: u64 = 60;
/// Salt for the set-up pass's own chaos RNG (the campaign's is private).
const SETUP_SALT: u64 = 0x5E7_0B5E;

/// {Separated, CoLocated} × {chaos off, full hardened, full naive}.
struct Matrix {
    configs: Vec<CampaignConfig>,
    seed: u64,
}

impl Matrix {
    fn new(seed: u64) -> Self {
        Matrix {
            configs: campaign_configs(seed),
            seed,
        }
    }
}

/// The matrix cells: chaos-off cells with telemetry off, chaos cells
/// with tracing and a 500 ms metrics scrape on.
pub fn campaign_configs(seed: u64) -> Vec<CampaignConfig> {
    let attack = SimDuration::from_secs(ATTACK_S);
    let full = ChaosProfile::full();
    let mut configs = Vec::new();
    for placement in [PlacementPolicy::Separated, PlacementPolicy::CoLocated] {
        let off = CampaignConfig::paper_duel(placement, attack);
        let (mut hardened, mut naive) = CampaignConfig::chaos_pair(placement, attack, &full);
        for c in [&mut hardened, &mut naive] {
            c.label = format!("{} {}", placement.label(), c.label);
            c.telemetry.trace = true;
            c.telemetry.metrics_interval = Some(SimDuration::from_millis(500));
        }
        configs.extend([off, hardened, naive]);
    }
    for c in &mut configs {
        c.seed = seed;
    }
    configs
}

/// Launches and provisions `config`'s cluster, as a campaign does
/// before serving.
pub fn provision(config: &CampaignConfig, seed: u64) -> Result<Cluster, String> {
    let mut rng = SimRng::seeded(seed ^ SETUP_SALT);
    let mut cluster = Cluster::with_chaos(config.cluster.clone(), &config.chaos, &mut rng)
        .map_err(|e| e.to_string())?;
    cluster
        .provision(&config.workload)
        .map_err(|e| e.to_string())?;
    Ok(cluster)
}

/// The census counters of one campaign.
const CAMPAIGN_CENSUS: [&str; 7] = [
    "client_ops",
    "failed_client_ops",
    "node_crashes",
    "restarts",
    "injected_faults",
    "repaired_keys",
    "trace_events",
];

/// A campaign report's census, in `CAMPAIGN_CENSUS` order.
fn campaign_census(r: &CampaignReport) -> Vec<u64> {
    let (attempted, ok) = r.metrics.phases.iter().fold((0, 0), |(a, o), p| {
        (
            a + p.reads.attempted + p.writes.attempted,
            o + p.reads.ok + p.writes.ok,
        )
    });
    vec![
        attempted,
        attempted - ok,
        r.total_crashes(),
        r.total_restarts(),
        r.total_injected_faults(),
        r.repair.keys_copied,
        r.trace.as_ref().map_or(0, |t| t.events.len() as u64),
    ]
}

/// Outcome checks that hold on every seed.
fn check_campaign(config: &CampaignConfig, r: &CampaignReport) -> Result<(), String> {
    let baseline = r
        .metrics
        .phase("baseline")
        .map_or(0.0, |p| p.success_ratio());
    if config.chaos.is_off() {
        check(baseline > 0.99, || {
            format!("{}: baseline success {baseline}", r.label)
        })?;
        let separated = config.cluster.placement == PlacementPolicy::Separated;
        check(separated == (r.worst_unavailable_shards() == 0), || {
            format!(
                "{}: {} shards unavailable",
                r.label,
                r.worst_unavailable_shards()
            )
        })?;
    }
    if config.client.is_some() {
        check(r.integrity.oracle_wrong == 0, || {
            format!("{}: hardened path served corrupt reads", r.label)
        })?;
    }
    Ok(())
}

impl Workload for Matrix {
    fn census_names(&self) -> &'static [&'static str] {
        &CAMPAIGN_CENSUS
    }

    fn work_unit(&self) -> &'static str {
        "client ops"
    }

    fn calibration(&self) -> (Calibration, usize) {
        (Calibration::Mixed, pool_width())
    }

    fn sim_work(&self, census: &[u64]) -> f64 {
        census[0] as f64
    }

    fn setup(&self) -> Result<u32, String> {
        for config in &self.configs {
            black_box(provision(config, self.seed)?);
        }
        Ok(1)
    }

    fn run(&self, _render: bool) -> Pass {
        // Each campaign's rendered report is its cell's output.
        let (cells, wall_s) = timed(|| self.run_cells());
        Pass {
            cells,
            output: None,
            wall_s,
        }
    }
}

impl Matrix {
    fn run_cells(&self) -> Vec<Result<CellOut, String>> {
        let jobs: Vec<_> = self
            .configs
            .iter()
            .map(|config| {
                move || {
                    timed(|| {
                        let report = run_campaign(config).map_err(|e| e.to_string())?;
                        check_campaign(config, &report)?;
                        let out = mix(
                            digest(report.render().as_bytes()),
                            digest(report.to_json().as_bytes()),
                        );
                        Ok::<_, String>((out, campaign_census(&report)))
                    })
                }
            })
            .collect();
        try_run_all(jobs)
            .into_iter()
            .map(|r| {
                let (out, wall_s) = r?;
                let (digest, census) = out?;
                Ok(CellOut {
                    digest,
                    census,
                    wall_s,
                })
            })
            .collect()
    }
}
