//! `deepnote-lint` — workspace-specific static analysis for the Deep
//! Note reproduction.
//!
//! The repo's headline invariant is *deterministic per seed*: every
//! experiment, campaign, and benchmark must replay bit-identically from
//! its seed, and its physics APIs must not permit unit mixups (Hz vs
//! kHz, dB re 1 µPa vs dB SPL — the confusion Deep Note §3 warns
//! about). General-purpose linters cannot see those rules, so this
//! crate enforces them:
//!
//! | rule id              | what it polices                                   |
//! |----------------------|---------------------------------------------------|
//! | `nondet-collection`  | `HashMap`/`HashSet` in simulation crates          |
//! | `nondet-clock`       | `Instant::now`/`SystemTime::now`                  |
//! | `nondet-rng`         | `thread_rng`/`from_entropy`/argless RNG defaults  |
//! | `panic-unwrap`       | `unwrap`/`expect`/`panic!`/`todo!` in serving-path library code |
//! | `raw-f64-params`     | ≥2 adjacent raw `f64` params on pub physics fns   |
//! | `float-eq`           | exact `==`/`!=` against floats                    |
//!
//! Suppress a finding inline with
//! `// deepnote-lint: allow(<rule>): <justification>` on the same line
//! or the line above. Unused directives are reported as warnings so
//! suppressions cannot go stale.
//!
//! Run as `cargo run -p deepnote-lint -- check [--json]`.

pub mod json;
pub mod lexer;
pub mod rules;
pub mod source;

use rules::Rule;
use source::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// How bad a finding is. Only `Error` findings fail the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; does not affect the exit code.
    Warning,
    /// Violation of a workspace invariant; fails CI.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`panic-unwrap`, …).
    pub rule: String,
    /// Severity (errors fail the run).
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Builds a finding for `rule` in `file` at `line`.
    pub fn new(rule: &dyn Rule, file: &SourceFile, line: u32, message: String) -> Finding {
        Finding {
            rule: rule.id().to_string(),
            severity: rule.severity(),
            path: file.rel_path.clone(),
            line,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: [{}] {}",
            self.severity, self.path, self.line, self.rule, self.message
        )
    }
}

/// Result of analysing a workspace.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }
}

/// Analyses one already-parsed file with the given rules, applying
/// suppressions and reporting stale ones.
pub fn check_file(file: &SourceFile, rules: &[Box<dyn Rule>]) -> Vec<Finding> {
    let mut raw = Vec::new();
    for rule in rules {
        if rule.applies(file) {
            rule.check(file, &mut raw);
        }
    }
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| !file.suppressed(&f.rule, f.line))
        .collect();
    // Stale suppressions: a directive that matched nothing is either a
    // fixed violation (delete it) or a typo'd rule id (fix it).
    for s in &file.suppressions {
        if !s.used.get() {
            findings.push(Finding {
                rule: "unused-suppression".to_string(),
                severity: Severity::Warning,
                path: file.rel_path.clone(),
                line: s.line,
                message: format!(
                    "suppression `allow({})` matched no finding; remove or fix it",
                    s.rules.join(", ")
                ),
            });
        }
    }
    findings
}

/// Analyses every `.rs` file under `root` (the workspace directory)
/// with the full rule set.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let rules = rules::all_rules();
    let mut files = Vec::new();
    for dir in ["crates", "xtests", "tests", "examples"] {
        let p = root.join(dir);
        if p.is_dir() {
            collect_rs_files(&p, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        // The linter does not police itself: its fixtures are seeded
        // violations and its own code is not simulation code.
        if rel.starts_with("crates/lint/") {
            continue;
        }
        let src = std::fs::read_to_string(path)?;
        let file = SourceFile::parse(&rel, &src);
        findings.extend(check_file(&file, &rules));
        scanned += 1;
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.as_str()).cmp(&(b.path.as_str(), b.line, b.rule.as_str()))
    });
    Ok(Report {
        findings,
        files_scanned: scanned,
    })
}

/// Recursively collects `.rs` files, skipping `target/` and hidden
/// directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::parse(path, src);
        check_file(&file, &rules::all_rules())
    }

    #[test]
    fn clean_file_has_no_findings() {
        let src = "use std::collections::BTreeMap;\npub fn f(x: u32) -> u32 { x + 1 }\n";
        assert!(run_on("crates/fs/src/a.rs", src).is_empty());
    }

    #[test]
    fn findings_are_suppressible_and_stale_directives_warn() {
        let src = "// deepnote-lint: allow(nondet-collection): ordering handled by sort below\n\
                   use std::collections::HashMap;\n\
                   // deepnote-lint: allow(float-eq): nothing here\n\
                   pub fn f() {}\n";
        let fs = run_on("crates/fs/src/a.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "unused-suppression");
        assert_eq!(fs[0].severity, Severity::Warning);
    }

    #[test]
    fn rules_scope_by_crate() {
        // HashMap in the lexer of a hypothetical tools crate: fine.
        let src = "use std::collections::HashMap;";
        assert!(run_on("crates/bench/src/a.rs", src).is_empty());
        assert_eq!(run_on("crates/sim/src/a.rs", src).len(), 1);
    }

    #[test]
    fn chaos_layer_modules_are_policed() {
        // The fault-injection and integrity modules live inside crates
        // already under the determinism and panic-free regimes; prove
        // the scoping actually reaches them so a refactor cannot
        // silently move them out of coverage.
        let nondet = "use std::collections::HashMap;";
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        for path in [
            "crates/blockdev/src/chaos.rs",
            "crates/cluster/src/chaos.rs",
            "crates/cluster/src/integrity.rs",
            "crates/cluster/src/client.rs",
        ] {
            assert_eq!(run_on(path, nondet).len(), 1, "{path} nondet uncovered");
            assert_eq!(run_on(path, panicky).len(), 1, "{path} panic uncovered");
        }
    }

    #[test]
    fn telemetry_crate_is_policed() {
        // The tracing/metrics layer observes the deterministic
        // simulation from inside it, so it lives under both the
        // determinism and panic-free regimes; prove the scoping reaches
        // every module so a trace can never inject wall-clock time or
        // crash a serving node.
        let nondet = "use std::collections::HashMap;";
        let clocky = "pub fn f() -> std::time::Instant { std::time::Instant::now() }";
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        for path in [
            "crates/telemetry/src/tracer.rs",
            "crates/telemetry/src/metrics.rs",
            "crates/telemetry/src/slo.rs",
            "crates/telemetry/src/chrome.rs",
            "crates/telemetry/src/json.rs",
            "crates/telemetry/src/schema.rs",
        ] {
            assert_eq!(run_on(path, nondet).len(), 1, "{path} nondet uncovered");
            assert_eq!(run_on(path, clocky).len(), 1, "{path} clock uncovered");
            assert_eq!(run_on(path, panicky).len(), 1, "{path} panic uncovered");
        }
    }

    #[test]
    fn perf_layer_modules_are_policed() {
        // The per-frequency propagation split and the experiment pool
        // exist to make the simulator fast *without* changing a single
        // output byte, so they must sit inside the determinism regime:
        // prove the scoping reaches them so a refactor cannot silently
        // move the hoisted transfer path or the dispatcher out of
        // coverage.
        let nondet = "use std::collections::HashMap;";
        let clocky = "pub fn f() -> std::time::Instant { std::time::Instant::now() }";
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        for path in [
            "crates/acoustics/src/propagation.rs",
            "crates/core/src/parallel.rs",
        ] {
            assert_eq!(run_on(path, nondet).len(), 1, "{path} nondet uncovered");
            assert_eq!(run_on(path, clocky).len(), 1, "{path} clock uncovered");
        }
        // Propagation is also serving-path library code: no panics.
        assert_eq!(
            run_on("crates/acoustics/src/propagation.rs", panicky).len(),
            1,
            "acoustics propagation panic uncovered"
        );
        // The `deepnote` binary sits outside the panic rule but inside
        // the determinism rules: a host clock read there would need an
        // explicit suppression.
        assert!(run_on("crates/cluster/src/bin/deepnote.rs", panicky).is_empty());
        assert_eq!(
            run_on("crates/cluster/src/bin/deepnote.rs", clocky).len(),
            1,
            "bin clock uncovered"
        );
    }

    #[test]
    fn panic_rule_exempts_tests_and_bins() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(run_on("crates/kv/src/db.rs", src).len(), 1);
        assert!(run_on("crates/kv/src/bin/tool.rs", src).is_empty());
        assert!(run_on("crates/kv/tests/t.rs", src).is_empty());
        assert!(run_on("crates/kv/benches/b.rs", src).is_empty());
        // And os is not a panic-free crate.
        assert!(run_on("crates/os/src/a.rs", src).is_empty());
    }
}
