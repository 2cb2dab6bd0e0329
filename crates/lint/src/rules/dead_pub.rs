//! `dead-pub`: no public item without a caller.
//!
//! A `pub` item nothing calls is surface the reproduction documents,
//! tests and reviews without using. This is a workspace rule: once the
//! per-file passes are done, every identifier token in the workspace is
//! indexed, and a `pub` fn, method, const, static, struct, enum, type
//! alias or trait defined in a crate's library code is flagged when its
//! name occurs nowhere in that index.
//!
//! Callers are identifiers in non-test code (binaries included),
//! examples, integration tests and `perfbench/src`. Unit-test code
//! (`#[cfg(test)]` / `#[test]` items in library or binary files) calls
//! only *other* crates' items: a helper only its own crate's tests use
//! belongs under `#[cfg(test)]`. Not callers: item definitions,
//! `pub use` re-exports, and comments (doc comments included). A
//! re-export `pub use a::f as g` hands every use of `g` on to `f`.
//! Trait-impl methods carry no `pub` and are never judged; neither are
//! `pub(crate)`-style items, which rustc's `dead_code` already covers.
//! The index is by name, not path: a use of a name clears every item
//! of that name. A by-path probe covers that gap (DESIGN.md §7): in a
//! scratch copy, mark every plain-`pub` library `fn` and `const` with a
//! unique `#[deprecated]` note, run `cargo check --all-targets
//! --message-format=json` on the workspace and on `perfbench`, and list
//! the notes no warning names outside the defining crate's unit tests.
//! The gap has been swept this way once; re-run the probe by hand
//! rather than growing a second rule here.

use super::Rule;
use crate::lexer::{Tok, TokKind};
use crate::source::{FileKind, SourceFile};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// See module docs.
pub struct DeadPub;

/// The item kinds the rule judges. These keywords and `mod` define the
/// identifier after them; that identifier is not a use.
const JUDGED_ITEMS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "type", "const", "static",
];

impl Rule for DeadPub {
    fn id(&self) -> &'static str {
        "dead-pub"
    }

    fn description(&self) -> &'static str {
        "pub items in library code need a caller beyond their definition, re-exports, docs and own-crate unit tests"
    }

    fn applies(&self, file: &SourceFile) -> bool {
        file.kind == FileKind::Lib && file.rel_path.starts_with("crates/")
    }

    fn check_workspace(&self, files: &[SourceFile], out: &mut Vec<Finding>) {
        let callers = index(files);
        for file in files.iter().filter(|f| self.applies(f)) {
            for (keyword, name) in pub_items(file) {
                let called = callers
                    .get(name.text.as_str())
                    .is_some_and(|c| c.clear(&file.crate_name));
                if !called {
                    out.push(Finding::new(
                        self,
                        file,
                        name.line,
                        format!(
                            "pub {keyword} `{}` has no caller outside its definition, \
                             re-exports, docs and `{}`'s own unit tests; delete it \
                             or move it under #[cfg(test)]",
                            name.text, file.crate_name
                        ),
                    ));
                }
            }
        }
    }
}

/// Who uses one name.
#[derive(Debug, Default, Clone)]
struct Callers {
    /// Used by code other than unit tests.
    live: bool,
    /// Crates whose unit tests use the name.
    unit_tests: BTreeSet<String>,
}

impl Callers {
    /// Whether these uses keep an item defined in crate `krate` alive.
    fn clear(&self, krate: &str) -> bool {
        self.live || self.unit_tests.iter().any(|c| c != krate)
    }

    /// Adds `other`'s uses; returns whether anything changed.
    fn absorb(&mut self, other: &Callers) -> bool {
        let before = (self.live, self.unit_tests.len());
        self.live |= other.live;
        self.unit_tests.extend(other.unit_tests.iter().cloned());
        before != (self.live, self.unit_tests.len())
    }
}

/// Indexes every identifier use across `files`, then hands each
/// re-export alias's uses on to the name it renames.
fn index(files: &[SourceFile]) -> BTreeMap<&str, Callers> {
    let mut callers: BTreeMap<&str, Callers> = BTreeMap::new();
    let mut aliases: Vec<(&str, &str)> = Vec::new();
    for file in files {
        let toks = &file.tokens;
        let skip = not_uses(toks, &mut aliases);
        let unit_test_kind = matches!(file.kind, FileKind::Lib | FileKind::Bin);
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || skip[i] {
                continue;
            }
            let c = callers.entry(t.text.as_str()).or_default();
            if unit_test_kind && file.in_test[i] {
                c.unit_tests.insert(file.crate_name.clone());
            } else {
                c.live = true;
            }
        }
    }
    // Fixpoint, so chains of renames resolve in any order.
    let mut changed = true;
    while changed {
        changed = false;
        for &(alias, original) in &aliases {
            if let Some(uses) = callers.get(alias).cloned() {
                changed |= callers.entry(original).or_default().absorb(&uses);
            }
        }
    }
    callers
}

/// Marks the tokens that are not uses: every token of a `pub use`
/// statement and the name after an item keyword. Collects each
/// re-export `original as alias` pair into `aliases`.
fn not_uses<'a>(toks: &'a [Tok], aliases: &mut Vec<(&'a str, &'a str)>) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let defines = t.kind == TokKind::Ident
            && (t.text == "mod" || JUDGED_ITEMS.contains(&t.text.as_str()));
        if defines {
            if toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
                skip[i + 1] = true;
            }
        } else if t.is_ident("pub") {
            let (j, _) = after_visibility(toks, i);
            if toks.get(j).is_some_and(|u| u.is_ident("use")) {
                let end = (j..toks.len())
                    .find(|&k| toks[k].is_punct(";"))
                    .unwrap_or(toks.len());
                for k in i..end {
                    skip[k] = true;
                    if k + 2 < end && toks[k + 1].is_ident("as") {
                        aliases.push((toks[k + 2].text.as_str(), toks[k].text.as_str()));
                    }
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
    skip
}

/// For a `pub` at `i`: the index after its visibility, and whether the
/// visibility is restricted (`pub(crate)`, `pub(super)`, `pub(in …)`).
fn after_visibility(toks: &[Tok], i: usize) -> (usize, bool) {
    if !toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
        return (i + 1, false);
    }
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(i + 1) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return (k + 1, true);
            }
        }
    }
    (toks.len(), true)
}

/// The plain-`pub` items of `file`'s non-test code, as (item keyword,
/// name token).
fn pub_items(file: &SourceFile) -> Vec<(&str, &Tok)> {
    let toks = &file.tokens;
    let mut items = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("pub") || file.in_test[i] {
            continue;
        }
        let (mut j, restricted) = after_visibility(toks, i);
        if restricted {
            continue;
        }
        // Function qualifiers: `const`, `async`, `unsafe`, `extern "C"`.
        let fn_qualifier = |t: &Tok| {
            t.kind == TokKind::Str || ["async", "unsafe", "extern"].iter().any(|k| t.is_ident(k))
        };
        while let Some(t) = toks.get(j) {
            let const_fn = t.is_ident("const")
                && toks
                    .get(j + 1)
                    .is_some_and(|n| n.is_ident("fn") || fn_qualifier(n));
            if !(const_fn || fn_qualifier(t)) {
                break;
            }
            j += 1;
        }
        let Some(keyword) = toks
            .get(j)
            .filter(|t| t.kind == TokKind::Ident && JUDGED_ITEMS.contains(&t.text.as_str()))
        else {
            continue;
        };
        let mut n = j + 1;
        if keyword.is_ident("static") && toks.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        if let Some(name) = toks.get(n).filter(|t| t.kind == TokKind::Ident) {
            items.push((keyword.text.as_str(), name));
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_files;

    /// Runs `dead-pub` over in-memory `(path, source)` files; returns
    /// every finding as (rule, path, line).
    fn run(files: &[(&str, &str)]) -> Vec<(String, String, u32)> {
        let files: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let rules: Vec<Box<dyn Rule>> = vec![Box::new(DeadPub)];
        check_files(&files, &rules)
            .into_iter()
            .map(|f| (f.rule, f.path, f.line))
            .collect()
    }

    const LIB: &str = "crates/acoustics/src/beam.rs";
    const ORPHAN: &str = "//! Beam maths.\n\npub fn orphan() -> u32 {\n    1\n}\n";

    fn flagged() -> Vec<(String, String, u32)> {
        vec![("dead-pub".to_string(), LIB.to_string(), 3)]
    }

    #[test]
    fn dead_pub_fn_is_flagged() {
        assert_eq!(run(&[(LIB, ORPHAN)]), flagged());
    }

    #[test]
    fn every_judged_item_kind_is_flagged() {
        let src = "pub const A: u32 = 1;\npub static B: u32 = 2;\npub struct C;\n\
                   pub enum D {}\npub type E = u32;\npub trait F {}\npub const fn g() {}\n\
                   pub unsafe fn h() {}\npub mod m {}\n";
        let lines: Vec<u32> = run(&[(LIB, src)]).iter().map(|f| f.2).collect();
        assert_eq!(lines, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn callers_in_other_crates_tests_and_perfbench_clear_it() {
        let uses = "fn t() { deepnote_acoustics::beam::orphan(); }\n";
        for caller in [
            "crates/cluster/tests/attack.rs",
            "crates/acoustics/tests/beam.rs",
            "tests/full_stack.rs",
            "examples/range_attack.rs",
            "perfbench/src/layers.rs",
            "crates/cluster/src/bin/deepnote.rs",
        ] {
            assert!(run(&[(LIB, ORPHAN), (caller, uses)]).is_empty(), "{caller}");
        }
        let unit_test = "#[cfg(test)]\nmod tests {\n    fn t() { orphan(); }\n}\n";
        assert!(run(&[(LIB, ORPHAN), ("crates/cluster/src/node.rs", unit_test)]).is_empty());
    }

    #[test]
    fn own_crate_unit_tests_do_not_clear_it() {
        let src = format!("{ORPHAN}#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ super::orphan(); }}\n}}\n");
        assert_eq!(run(&[(LIB, &src)]), flagged());
        let sibling = "#[test]\nfn t() { crate::beam::orphan(); }\n";
        assert_eq!(
            run(&[(LIB, ORPHAN), ("crates/acoustics/src/lib.rs", sibling)]),
            flagged()
        );
    }

    #[test]
    fn re_export_alias_passes_its_uses_on() {
        let lib_rs = "pub mod beam;\npub use beam::orphan as beam_gain;\n";
        let example = ("examples/quickstart.rs", "fn main() { beam_gain(); }\n");
        assert!(run(&[
            (LIB, ORPHAN),
            ("crates/acoustics/src/lib.rs", lib_rs),
            example
        ])
        .is_empty());
        // The re-export on its own is not a caller.
        assert_eq!(
            run(&[(LIB, ORPHAN), ("crates/acoustics/src/lib.rs", lib_rs)]),
            flagged()
        );
    }

    #[test]
    fn doc_comment_mention_does_not_clear_it() {
        let doc = "/// Calls [`orphan`] under the hood:\n/// ```\n/// orphan();\n/// ```\npub fn documented() {}\nfn main() { documented(); }\n";
        assert_eq!(
            run(&[(LIB, ORPHAN), ("crates/cluster/src/bin/deepnote.rs", doc)]),
            flagged()
        );
    }

    #[test]
    fn trait_impl_methods_and_restricted_items_are_not_judged() {
        let src =
            "pub(crate) fn helper() {}\nimpl Default for S {\n    fn default() -> S { S }\n}\n";
        assert!(run(&[("crates/kv/src/a.rs", src)]).is_empty());
    }

    #[test]
    fn allow_suppresses_it_and_counts_as_used() {
        let src =
            "// deepnote-lint: allow(dead-pub): kept as the paper's formula\npub fn orphan() {}\n";
        assert!(run(&[(LIB, src)]).is_empty());
    }
}
