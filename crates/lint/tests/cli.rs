//! CLI contract: exit codes, human and JSON output, `rules` listing.
//!
//! Exit codes are load-bearing — CI keys off them: 0 clean (warnings
//! allowed), 1 error-severity findings, 2 usage error.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deepnote-lint"))
        .args(args)
        .output()
        .expect("spawn deepnote-lint")
}

#[test]
fn seeded_violations_exit_one() {
    let out = lint(&["check", "--root", &fixture("bad")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("error: crates/kv/src/store.rs:4: [panic-unwrap]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error: crates/kv/src/store.rs:8: [dead-pub]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("deepnote-lint: 4 files, 8 errors, 0 warnings"),
        "{stdout}"
    );
}

#[test]
fn clean_tree_exits_zero() {
    let out = lint(&["check", "--root", &fixture("clean")]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 files, 0 errors, 0 warnings"), "{stdout}");
}

#[test]
fn warnings_do_not_fail_the_run() {
    let out = lint(&["check", "--root", &fixture("suppressed")]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("[unused-suppression]"), "{stdout}");
    assert!(stdout.contains("0 errors, 1 warnings"), "{stdout}");
}

#[test]
fn json_mode_emits_schema() {
    let out = lint(&["check", "--json", "--root", &fixture("bad")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\n"), "{stdout}");
    assert!(stdout.contains("\"version\": 1"), "{stdout}");
    assert!(
        stdout.contains("\"summary\": { \"errors\": 8, \"warnings\": 0 }"),
        "{stdout}"
    );
}

#[test]
fn rules_subcommand_lists_every_rule() {
    let out = lint(&["rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for rule in [
        "nondet-collection",
        "nondet-clock",
        "nondet-rng",
        "panic-unwrap",
        "raw-f64-params",
        "float-eq",
        "dead-pub",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(lint(&[]).status.code(), Some(2));
    assert_eq!(lint(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(lint(&["check", "--root"]).status.code(), Some(2));
    assert_eq!(lint(&["check", "--bogus"]).status.code(), Some(2));
}

#[test]
fn root_without_rust_sources_is_a_usage_error() {
    // A mistyped root must not pass CI by checking nothing: a missing
    // directory, or one with none of crates/, xtests/, tests/,
    // examples/ or perfbench/src/, exits 2 and names the root.
    for root in [fixture("does-not-exist"), fixture("")] {
        let out = lint(&["check", "--root", &root]);
        assert_eq!(out.status.code(), Some(2), "{root}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&root), "{stderr}");
        assert!(stderr.contains("no .rs files"), "{stderr}");
    }
}
