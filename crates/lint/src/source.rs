//! Source-file model: path classification, `#[cfg(test)]` region
//! detection, and suppression-directive extraction.

use crate::lexer::{lex, Comment, Tok};
use std::cell::Cell;

/// What role a file plays in its crate — rules scope on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` (excluding `src/bin/`).
    Lib,
    /// Binary code under `src/bin/` or `src/main.rs`.
    Bin,
    /// Integration tests (`tests/`, `xtests/`).
    Test,
    /// Benchmarks (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
}

/// An inline suppression directive:
/// `// deepnote-lint: allow(rule-a, rule-b): justification`.
#[derive(Debug)]
pub struct Suppression {
    /// Rule ids this directive allows.
    pub rules: Vec<String>,
    /// 1-based line the directive sits on.
    pub line: u32,
    /// An own-line directive covers the following line; a trailing one
    /// covers its own line.
    pub own_line: bool,
    /// Free text after the closing paren (why the violation is fine).
    pub justification: String,
    /// Set when a finding was actually suppressed by this directive;
    /// stale directives are reported as warnings.
    pub used: Cell<bool>,
}

impl Suppression {
    /// Whether this directive suppresses rule `rule` at line `line`.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        let line_ok = if self.own_line {
            line == self.line + 1 || line == self.line
        } else {
            line == self.line
        };
        line_ok && self.rules.iter().any(|r| r == rule || r == "all")
    }
}

/// A lexed, classified source file ready for rule passes.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Crate the file belongs to (`fs`, `cluster`, …, `xtests`,
    /// `perfbench`; `workspace` for root-level `tests/` and `examples/`).
    pub crate_name: String,
    /// Role of the file.
    pub kind: FileKind,
    /// Token stream (comments stripped).
    pub tokens: Vec<Tok>,
    /// Parallel to `tokens`: true where the token sits inside a
    /// `#[cfg(test)]` / `#[test]` item.
    pub in_test: Vec<bool>,
    /// Suppression directives found in comments.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Lexes and classifies `src`, which lives at workspace-relative
    /// `rel_path`.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let (tokens, comments) = lex(src);
        let in_test = mark_test_regions(&tokens);
        let suppressions = comments.iter().filter_map(parse_suppression).collect();
        let (crate_name, kind) = classify(rel_path);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name,
            kind,
            tokens,
            in_test,
            suppressions,
        }
    }

    /// True when the token at `idx` is test-only code (either the whole
    /// file is a test/bench/example, or the token is inside a
    /// `#[cfg(test)]` region).
    pub fn is_test_code(&self, idx: usize) -> bool {
        !matches!(self.kind, FileKind::Lib | FileKind::Bin) || self.in_test[idx]
    }

    /// Whether a finding for `rule` at `line` is suppressed; marks the
    /// matching directive used.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for s in &self.suppressions {
            if s.covers(rule, line) {
                s.used.set(true);
                hit = true;
            }
        }
        hit
    }
}

/// Derives (crate name, file kind) from a workspace-relative path.
fn classify(rel_path: &str) -> (String, FileKind) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_name, rest): (String, &[&str]) = match parts.as_slice() {
        ["crates", name, rest @ ..] => ((*name).to_string(), rest),
        ["xtests", rest @ ..] => ("xtests".to_string(), rest),
        ["perfbench", rest @ ..] => ("perfbench".to_string(), rest),
        rest => ("workspace".to_string(), rest),
    };
    let kind = match rest {
        ["src", "bin", ..] => FileKind::Bin,
        ["src", "main.rs"] => FileKind::Bin,
        ["src", ..] => {
            if crate_name == "xtests" {
                FileKind::Test
            } else {
                FileKind::Lib
            }
        }
        ["tests", ..] => FileKind::Test,
        ["benches", ..] => FileKind::Bench,
        ["examples", ..] => FileKind::Example,
        _ => FileKind::Lib,
    };
    (crate_name, kind)
}

/// Marks every token that sits inside a test-gated item.
///
/// Recognises `#[test]`, `#[cfg(test)]`, and `#[cfg(any(test, …))]`
/// attributes (but not `#[cfg(not(test))]`), then extends the region to
/// the end of the item that follows: through the matching `}` of the
/// item's body, or to the terminating `;` for body-less items.
fn mark_test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct("#") {
            i += 1;
            continue;
        }
        // `#[` or `#![` — collect the attribute token span.
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_punct("!") {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct("[") {
            i += 1;
            continue;
        }
        let attr_open = j;
        let mut depth = 0i32;
        let mut attr_end = attr_open;
        for (k, t) in toks.iter().enumerate().skip(attr_open) {
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    attr_end = k;
                    break;
                }
            }
        }
        if attr_end == attr_open {
            break; // unbalanced; stop scanning
        }
        let attr_toks = &toks[attr_open + 1..attr_end];
        if is_test_attr(attr_toks) {
            let region_end = item_end(toks, attr_end + 1);
            for m in mask.iter_mut().take(region_end.min(toks.len())).skip(i) {
                *m = true;
            }
            i = region_end;
        } else {
            i = attr_end + 1;
        }
    }
    mask
}

/// Is this attribute token span test-gating?
fn is_test_attr(attr: &[Tok]) -> bool {
    if attr.is_empty() {
        return false;
    }
    // `#[test]` (possibly `#[tokio::test]`-style paths ending in test).
    if attr
        .iter()
        .all(|t| t.kind == crate::lexer::TokKind::Ident || t.is_punct("::"))
        && attr.last().map(|t| t.is_ident("test")) == Some(true)
    {
        return true;
    }
    // `#[cfg(…test…)]` — but `not(test)` does not gate the code *out*
    // of production, so it must not count.
    if attr[0].is_ident("cfg") {
        let has_test = attr.iter().any(|t| t.is_ident("test"));
        let negated = attr
            .windows(2)
            .any(|w| w[0].is_ident("not") && w[1].is_punct("("));
        return has_test && !negated;
    }
    false
}

/// Returns the token index one past the item starting at `start`:
/// skips further attributes, then runs to the matching `}` of the first
/// `{`, or one past the first top-level `;` if that comes first.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut i = start;
    // Skip any further attributes on the same item.
    while i + 1 < toks.len() && toks[i].is_punct("#") && toks[i + 1].is_punct("[") {
        let mut depth = 0i32;
        let mut k = i + 1;
        while k < toks.len() {
            if toks[k].is_punct("[") {
                depth += 1;
            } else if toks[k].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        i = k + 1;
    }
    let mut brace_depth = 0i32;
    let mut paren_depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            brace_depth += 1;
        } else if t.is_punct("}") {
            brace_depth -= 1;
            if brace_depth == 0 {
                return i + 1;
            }
        } else if t.is_punct("(") || t.is_punct("[") {
            paren_depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            paren_depth -= 1;
        } else if t.is_punct(";") && brace_depth == 0 && paren_depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    toks.len()
}

/// Parses a `deepnote-lint: allow(...)` directive out of a comment.
fn parse_suppression(c: &Comment) -> Option<Suppression> {
    let text = c.text.trim_start_matches('/').trim_start_matches('*');
    let at = text.find("deepnote-lint:")?;
    let rest = text[at + "deepnote-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let justification = rest[close + 1..]
        .trim_start_matches([':', ' '])
        .trim_end_matches("*/")
        .trim()
        .to_string();
    Some(Suppression {
        rules,
        line: c.line,
        own_line: c.own_line,
        justification,
        used: Cell::new(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/fs/src/fs.rs"),
            ("fs".to_string(), FileKind::Lib)
        );
        assert_eq!(
            classify("crates/cluster/src/bin/deepnote.rs"),
            ("cluster".to_string(), FileKind::Bin)
        );
        assert_eq!(
            classify("crates/kv/tests/model.rs"),
            ("kv".to_string(), FileKind::Test)
        );
        assert_eq!(
            classify("crates/bench/benches/micro.rs"),
            ("bench".to_string(), FileKind::Bench)
        );
        assert_eq!(
            classify("tests/determinism.rs"),
            ("workspace".to_string(), FileKind::Test)
        );
        assert_eq!(
            classify("examples/attack.rs"),
            ("workspace".to_string(), FileKind::Example)
        );
        assert_eq!(
            classify("xtests/src/lib.rs"),
            ("xtests".to_string(), FileKind::Test)
        );
        assert_eq!(
            classify("perfbench/src/main.rs"),
            ("perfbench".to_string(), FileKind::Bin)
        );
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn prod2() {}";
        let f = SourceFile::parse("crates/fs/src/a.rs", src);
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| f.in_test[i])
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        // Code after the test mod is production again.
        let prod2 = f.tokens.iter().position(|t| t.is_ident("prod2"));
        assert!(prod2.is_some_and(|i| !f.in_test[i]));
    }

    #[test]
    fn test_fn_attr_is_masked() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn p() { b.unwrap(); }";
        let f = SourceFile::parse("crates/fs/src/a.rs", src);
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| f.in_test[i])
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn p() { a.unwrap(); }";
        let f = SourceFile::parse("crates/fs/src/a.rs", src);
        assert!(f.in_test.iter().all(|&m| !m));
    }

    #[test]
    fn suppression_parsing() {
        let src = "// deepnote-lint: allow(panic-unwrap): lock poisoning is fatal anyway\nlet x = m.lock().unwrap();\nlet y = 1; // deepnote-lint: allow(float-eq, nondet-collection)\n";
        let f = SourceFile::parse("crates/fs/src/a.rs", src);
        assert_eq!(f.suppressions.len(), 2);
        let s0 = &f.suppressions[0];
        assert_eq!(s0.rules, vec!["panic-unwrap"]);
        assert!(s0.own_line);
        assert_eq!(s0.justification, "lock poisoning is fatal anyway");
        assert!(s0.covers("panic-unwrap", 2));
        assert!(!s0.covers("float-eq", 2));
        let s1 = &f.suppressions[1];
        assert_eq!(s1.rules.len(), 2);
        assert!(!s1.own_line);
        assert!(s1.covers("float-eq", 3));
        assert!(!s1.covers("float-eq", 4));
    }

    #[test]
    fn suppressed_marks_directive_used() {
        let src = "// deepnote-lint: allow(float-eq): exact sentinel\nlet eq = a == 1.0;\n";
        let f = SourceFile::parse("crates/fs/src/a.rs", src);
        assert!(f.suppressed("float-eq", 2));
        assert!(f.suppressions[0].used.get());
        assert!(!f.suppressed("panic-unwrap", 2));
    }
}
