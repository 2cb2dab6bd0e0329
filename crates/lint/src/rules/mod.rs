//! The rule registry and crate-scoping tables.
//!
//! Most rules are pure passes over one file's token stream; `dead-pub`
//! is a workspace pass over every file at once. Scoping — which crates
//! a rule polices, and whether test code is exempt — is decided here so
//! individual rules stay small.

mod dead_pub;
mod float_eq;
mod nondet_clock;
mod nondet_collection;
mod nondet_rng;
mod panic_unwrap;
mod raw_f64_params;

pub use dead_pub::DeadPub;
pub use float_eq::FloatEq;
pub use nondet_clock::NondetClock;
pub use nondet_collection::NondetCollection;
pub use nondet_rng::NondetRng;
pub use panic_unwrap::PanicUnwrap;
pub use raw_f64_params::RawF64Params;

use crate::source::SourceFile;
use crate::{Finding, Severity};

/// Crates whose behaviour must be a pure function of the seed: the
/// whole simulation pipeline from physics to cluster.
pub const DETERMINISM_CRATES: &[&str] = &[
    "sim",
    "acoustics",
    "structures",
    "hdd",
    "blockdev",
    "fs",
    "kv",
    "os",
    "iobench",
    "core",
    "cluster",
    "telemetry",
];

/// Crates whose library code must not panic: everything on the serving
/// path of the cluster (a panicking storage node is an availability
/// bug indistinguishable from the acoustic attack it simulates).
pub const PANIC_FREE_CRATES: &[&str] = &[
    "acoustics",
    "hdd",
    "blockdev",
    "fs",
    "kv",
    "cluster",
    "telemetry",
];

/// Crates whose public APIs carry physical quantities and must use the
/// `units.rs` newtypes instead of adjacent raw `f64`s.
pub const UNIT_SAFE_CRATES: &[&str] = &["acoustics", "hdd"];

/// One static-analysis rule.
pub trait Rule {
    /// Stable id used in diagnostics and `allow(...)` directives.
    fn id(&self) -> &'static str;
    /// Diagnostic severity; only `Error` findings fail the run.
    fn severity(&self) -> Severity {
        Severity::Error
    }
    /// One-line description for `deepnote-lint rules`.
    fn description(&self) -> &'static str;
    /// Whether this rule polices `file` at all.
    fn applies(&self, file: &SourceFile) -> bool;
    /// Emits findings for `file` (suppressions are applied by the
    /// engine, not here).
    fn check(&self, _file: &SourceFile, _out: &mut Vec<Finding>) {}
    /// Emits findings that need the whole workspace; runs once, after
    /// every file's `check`, over every scanned file.
    fn check_workspace(&self, _files: &[SourceFile], _out: &mut Vec<Finding>) {}
}

/// All rules, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NondetCollection),
        Box::new(NondetClock),
        Box::new(NondetRng),
        Box::new(PanicUnwrap),
        Box::new(RawF64Params),
        Box::new(FloatEq),
        Box::new(DeadPub),
    ]
}
