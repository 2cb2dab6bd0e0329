//! One golden for every artifact `deepnote` writes: the stdout of each
//! subcommand, plus the JSON report and the Chrome trace of `cluster
//! --placement both --chaos full`, and the stdout and JSON report (its
//! scraped series included) of the same run with `--metrics-interval
//! 500ms`, pinned as FNV-1a 64 digests in `tests/golden/artifacts.tsv`.
//!
//! The table has two digest columns. `reduced` is recomputed by every
//! `cargo test` (debug build) at the small flags in [`outputs`]; two
//! commands with no flags to shrink, `table3` and `stealth`, are hashed
//! in-process from their `render` functions over a reduced input there.
//! `default` is every command at its default flags, checked by the CI
//! perf job:
//!
//! ```text
//! cargo test --release -p deepnote-cluster --test artifacts -- --ignored at_default_flags
//! ```
//!
//! An intended output change re-records both columns with one command:
//!
//! ```text
//! cargo test --release -p deepnote-cluster --test artifacts -- --ignored record
//! ```
//!
//! `trace-check` (it echoes its input paths) and `all` (the other
//! commands concatenated) have no row.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_core::experiments::{crash, stealth};
use deepnote_core::report::render_table3;
use deepnote_core::{AttackParams, Testbed};
use deepnote_sim::SimDuration;
use deepnote_structures::Scenario;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Which digest column a run computes.
#[derive(Clone, Copy, PartialEq)]
enum Flags {
    Reduced,
    Default,
}

/// One fio job under the paper's tone, for the `fio` row.
const FIO: [&str; 7] = [
    "fio",
    "--inline",
    "rw=randread bs=4k runtime=2",
    "--attack-hz",
    "650",
    "--distance-cm",
    "10",
];

fn table_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/artifacts.tsv")
}

/// FNV-1a 64 over a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_deepnote"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn deepnote")
}

fn stdout_of(name: &str, child: Child) -> Vec<u8> {
    let out = child.wait_with_output().expect("wait for deepnote");
    assert!(
        out.status.success(),
        "deepnote {name} failed: {}",
        out.status
    );
    out.stdout
}

/// Table 3 over its Ext4 and Ubuntu rows: the RocksDB victim alone
/// takes seconds in a debug build (`crash.rs` pins its row exactly).
fn table3_reduced() -> Vec<u8> {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    render_table3(&[crash::ext4_crash(&testbed), crash::ubuntu_crash(&testbed)]).into_bytes()
}

/// The stealth table over two duty cycles (continuous, and one 0.5 s
/// burst every 2 s) and 4 s of attack instead of five over 30 s.
fn stealth_reduced() -> Vec<u8> {
    let testbed = Testbed::paper_default(Scenario::PlasticTower);
    let period = SimDuration::from_secs(2);
    let rows: Vec<_> = [1.0, 0.25]
        .iter()
        .map(|&duty| {
            stealth::pulsed_attack(
                &testbed,
                AttackParams::paper_best(),
                period.mul_f64(duty),
                period,
                SimDuration::from_secs(4),
            )
        })
        .collect();
    stealth::render(&rows).into_bytes()
}

/// Every artifact's bytes at `flags`, in table order. The subprocesses
/// all start before any is awaited, so they overlap.
fn outputs(flags: Flags) -> Vec<(&'static str, Vec<u8>)> {
    let reduced = flags == Flags::Reduced;
    let pick = |small: &'static [&'static str], full: &'static [&'static str]| {
        if reduced {
            small
        } else {
            full
        }
    };
    let temp = |what: &str| {
        std::env::temp_dir().join(format!(
            "deepnote-artifacts-{}-{}-{what}",
            std::process::id(),
            if reduced { "reduced" } else { "default" }
        ))
    };
    let (json, trace, metrics_json) = (temp("json"), temp("trace"), temp("metrics-json"));
    let path_arg = |p: &PathBuf| p.to_str().expect("utf-8 temp path").to_string();
    let (json_arg, trace_arg, metrics_json_arg) =
        (path_arg(&json), path_arg(&trace), path_arg(&metrics_json));
    let mut cluster = vec!["cluster", "--placement", "both", "--chaos", "full"];
    if reduced {
        cluster.extend(["--seconds", "2"]);
    }
    // The same campaigns again, scraping the metrics registry.
    let mut metrics = cluster.clone();
    metrics.extend(["--metrics-interval", "500ms", "--json", &metrics_json_arg]);
    cluster.extend(["--json", &json_arg, "--trace", &trace_arg]);

    let runs: Vec<(&'static str, &[&str])> = vec![
        ("table1", pick(&["table1", "--seconds", "1"], &["table1"])),
        (
            "table2",
            pick(&["table2", "--keys", "1000", "--seconds", "1"], &["table2"]),
        ),
        ("fig2", &["fig2", "--tsv"]),
        ("sweep", &["sweep"]),
        ("defenses", &["defenses"]),
        ("ablations", &["ablations"]),
        ("redundancy", &["redundancy"]),
        ("fleet", &["fleet"]),
        ("heatmap", &["heatmap", "--tsv"]),
        ("covert", &["covert"]),
        ("fio", &FIO),
        ("cluster", &cluster),
        ("cluster-metrics", &metrics),
    ];
    let mut children: Vec<(&'static str, Child)> = runs
        .iter()
        .map(|&(name, args)| (name, spawn(args)))
        .collect();
    if !reduced {
        children.push(("table3", spawn(&["table3"])));
        children.push(("stealth", spawn(&["stealth"])));
    }
    let in_process =
        reduced.then(|| [("table3", table3_reduced()), ("stealth", stealth_reduced())]);

    let mut out: Vec<(&'static str, Vec<u8>)> = children
        .into_iter()
        .map(|(name, child)| (name, stdout_of(name, child)))
        .collect();
    out.extend(in_process.into_iter().flatten());
    for (name, path) in [
        ("cluster.json", &json),
        ("cluster.trace", &trace),
        ("cluster-metrics.json", &metrics_json),
    ] {
        out.push((name, std::fs::read(path).expect(name)));
        std::fs::remove_file(path).ok();
    }
    out.sort_by_key(|&(name, _)| name);
    out
}

/// The checked-in table: artifact → (reduced, default) digests.
fn recorded() -> Vec<(String, u64, u64)> {
    let text = std::fs::read_to_string(table_path()).expect("tests/golden/artifacts.tsv");
    let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("hex digest");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let cols: Vec<&str> = l.split('\t').collect();
            assert_eq!(cols.len(), 3, "malformed row: {l}");
            (cols[0].to_string(), hex(cols[1]), hex(cols[2]))
        })
        .collect()
}

fn render(rows: &[(&str, u64, u64)]) -> String {
    let mut text = String::from(
        "# FNV-1a 64 of each `deepnote` artifact; see crates/cluster/tests/artifacts.rs.\n\
         # artifact\treduced flags\tdefault flags\n",
    );
    for (name, reduced, default) in rows {
        text.push_str(&format!("{name}\t{reduced:#018x}\t{default:#018x}\n"));
    }
    text
}

/// Recomputes one column and compares it with the table, printing the
/// whole recomputed table (the other column as recorded) on a mismatch.
fn check(flags: Flags) {
    let table = recorded();
    let digests: Vec<(&str, u64)> = outputs(flags)
        .iter()
        .map(|(name, bytes)| (*name, fnv1a64(bytes)))
        .collect();
    let mut rows = Vec::new();
    let mut moved = Vec::new();
    for &(name, digest) in &digests {
        let row = table.iter().find(|(n, ..)| n == name);
        let (old_reduced, old_default) = row.map_or((0, 0), |&(_, r, d)| (r, d));
        let (old, new_row) = match flags {
            Flags::Reduced => (old_reduced, (name, digest, old_default)),
            Flags::Default => (old_default, (name, old_reduced, digest)),
        };
        if old != digest {
            moved.push(name);
        }
        rows.push(new_row);
    }
    let names: Vec<&str> = table.iter().map(|(n, ..)| n.as_str()).collect();
    let computed: Vec<&str> = digests.iter().map(|&(n, _)| n).collect();
    assert!(
        moved.is_empty() && names == computed,
        "artifacts moved: {moved:?} (table rows {names:?})\nrecomputed table:\n{}",
        render(&rows)
    );
}

#[test]
fn artifacts_match_their_golden() {
    check(Flags::Reduced);
}

/// The default-flags column (release build; the CI perf job runs it).
#[test]
#[ignore = "default flags are slow in a debug build"]
fn at_default_flags() {
    check(Flags::Default);
}

/// Re-records both columns of `tests/golden/artifacts.tsv`.
#[test]
#[ignore = "writes the golden table"]
fn record() {
    let reduced = outputs(Flags::Reduced);
    let default = outputs(Flags::Default);
    let rows: Vec<(&str, u64, u64)> = reduced
        .iter()
        .zip(&default)
        .map(|((name, r), (_, d))| (*name, fnv1a64(r), fnv1a64(d)))
        .collect();
    std::fs::write(table_path(), render(&rows)).expect("write artifacts.tsv");
}
