//! Integration tests: `check_workspace` over seeded fixture trees.
//!
//! The fixtures under `tests/fixtures/` are miniature workspace roots
//! (`<fixture>/crates/<crate>/src/*.rs`); their `.rs` files are never
//! compiled — they exist only to be scanned.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_lint::{check_workspace, json, Severity};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn bad_fixture_triggers_every_rule() {
    let report = check_workspace(&fixture("bad")).expect("scan fixture");
    assert_eq!(report.files_scanned, 4);
    assert_eq!(report.errors(), 8, "{:#?}", report.findings);
    assert_eq!(report.warnings(), 0);
    let hits: Vec<(&str, &str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.path.as_str(), f.line))
        .collect();
    for expected in [
        ("nondet-collection", "crates/sim/src/lib.rs", 6),
        ("nondet-collection", "crates/sim/src/lib.rs", 8),
        ("nondet-clock", "crates/sim/src/lib.rs", 13),
        ("nondet-rng", "crates/sim/src/lib.rs", 17),
        ("panic-unwrap", "crates/kv/src/store.rs", 4),
        ("dead-pub", "crates/kv/src/store.rs", 8),
        ("raw-f64-params", "crates/acoustics/src/field.rs", 3),
        ("float-eq", "crates/acoustics/src/field.rs", 4),
    ] {
        assert!(hits.contains(&expected), "missing {expected:?} in {hits:?}");
    }
    assert!(report
        .findings
        .iter()
        .all(|f| f.severity == Severity::Error));
    // Findings come back sorted by (path, line, rule).
    let mut sorted = hits.clone();
    sorted.sort_by(|a, b| (a.1, a.2, a.0).cmp(&(b.1, b.2, b.0)));
    assert_eq!(hits, sorted);
}

#[test]
fn test_files_are_exempt_from_panic_rule() {
    // `tests/smoke.rs` in the fixture unwraps freely; test code is not
    // serving-path library code.
    let report = check_workspace(&fixture("bad")).expect("scan fixture");
    assert!(
        !report.findings.iter().any(|f| f.path.starts_with("tests/")),
        "root-level test files must not be policed for panics: {:#?}",
        report.findings
    );
}

#[test]
fn suppression_silences_finding_and_stale_directive_warns() {
    let report = check_workspace(&fixture("suppressed")).expect("scan fixture");
    assert_eq!(report.errors(), 0, "{:#?}", report.findings);
    assert_eq!(report.warnings(), 1, "{:#?}", report.findings);
    let w = &report.findings[0];
    assert_eq!(w.rule, "unused-suppression");
    assert_eq!(w.severity, Severity::Warning);
    assert_eq!(w.path, "crates/kv/src/lib.rs");
    assert_eq!(w.line, 8);
    assert!(w.message.contains("float-eq"), "{}", w.message);
}

#[test]
fn clean_fixture_reports_nothing() {
    let report = check_workspace(&fixture("clean")).expect("scan fixture");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.files_scanned, 2);
}

#[test]
fn json_output_carries_schema_and_findings() {
    let report = check_workspace(&fixture("bad")).expect("scan fixture");
    let j = json::to_json(&report);
    assert!(j.starts_with("{\n"), "{j}");
    assert!(j.ends_with("}\n"), "{j}");
    for needle in [
        "\"version\": 1",
        "\"files_scanned\": 4",
        "\"summary\": { \"errors\": 8, \"warnings\": 0 }",
        "\"rule\": \"nondet-collection\"",
        "\"rule\": \"nondet-clock\"",
        "\"rule\": \"nondet-rng\"",
        "\"rule\": \"panic-unwrap\"",
        "\"rule\": \"raw-f64-params\"",
        "\"rule\": \"float-eq\"",
        "\"rule\": \"dead-pub\"",
        "\"severity\": \"error\"",
        "\"path\": \"crates/sim/src/lib.rs\"",
        "\"line\": 13",
    ] {
        assert!(j.contains(needle), "missing {needle} in:\n{j}");
    }
    // Rule messages quote code in backticks, never braces, so brace
    // balance is a cheap structural check that the document stays one
    // well-formed JSON object.
    let depth = j.chars().fold(0i32, |d, c| match c {
        '{' => d + 1,
        '}' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0);
}
