//! CLI for `deepnote-lint`.
//!
//! ```text
//! cargo run -p deepnote-lint -- check [--json] [--root DIR]
//! cargo run -p deepnote-lint -- rules
//! ```
//!
//! Exit codes: 0 clean (warnings allowed), 1 error-severity findings,
//! 2 usage or I/O error, or no Rust sources under the root.

use deepnote_lint::{check_workspace, json, rules, Severity};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("rules") => cmd_rules(),
        _ => {
            eprintln!("usage: deepnote-lint check [--json] [--root DIR] | deepnote-lint rules");
            ExitCode::from(2)
        }
    }
}

/// `check`: analyse the workspace and print findings.
fn cmd_check(args: &[String]) -> ExitCode {
    let mut json_mode = false;
    let mut root = default_root();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_mode = true,
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let report = match check_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("deepnote-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if json_mode {
        print!("{}", json::to_json(&report));
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        println!(
            "deepnote-lint: {} files, {} errors, {} warnings",
            report.files_scanned,
            report.errors(),
            report.warnings()
        );
    }
    if report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Error)
    {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `rules`: list every rule with its severity and description.
fn cmd_rules() -> ExitCode {
    for rule in rules::all_rules() {
        println!(
            "{:<20} {:<8} {}",
            rule.id(),
            rule.severity().to_string(),
            rule.description()
        );
    }
    ExitCode::SUCCESS
}

/// The workspace root: `$CARGO_MANIFEST_DIR/../..` when run via cargo,
/// else the current directory.
fn default_root() -> PathBuf {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(ws) = p.ancestors().nth(2) {
            return ws.to_path_buf();
        }
    }
    PathBuf::from(".")
}
