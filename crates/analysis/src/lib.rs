//! `aggprov-lint` — project-invariant static analysis for the aggprov
//! workspace.
//!
//! The engine's correctness story rests on disciplines that used to live
//! only in reviewers' heads: every ground/symbolic fast path must gate on
//! *both* operands (the PR 4 `annotation_at` bug class), the execute path
//! must never panic, lock acquisitions must not nest or straddle socket
//! I/O, every physical operator must have a `specops::` oracle referenced
//! from a property test, and every `AGGPROV_*` environment variable must
//! be declared in one registry and documented in the README. This crate
//! re-checks those invariants mechanically on every commit.
//!
//! It is a **two-phase analyzer** built on a lightweight token scanner
//! ([`lexer`]) in the same hand-rolled, zero-dependency style as the SQL
//! lexer (`engine/src/lexer.rs`) and the workspace's JSON codec — no
//! `syn`, no network. Phase 1 ([`graph`]) walks the workspace once and
//! builds a symbol graph: functions with spans, an approximate call
//! graph from unique-name resolution, per-function lock-guard events,
//! `match` dispatch sites, and enum definitions. Phase 2 ([`rules`])
//! runs line-local rules over each file's token stream plus graph-aware
//! rules over the whole program. Everything is deliberately conservative
//! pattern matching for *this repository's* idioms, not a general Rust
//! analyzer, and every rule is pinned by fixture tests in
//! `tests/fixtures/`.
//!
//! # Rules
//!
//! | id | invariant |
//! |----|-----------|
//! | `groundness` | two-sided ground/symbolic gates in `core::ops` |
//! | `panic` | no `unwrap`/`expect`/`panic!`-family on the execute path |
//! | `index` | no bare slice indexing on the execute path |
//! | `lock` | no nested guards; no lock held across socket I/O (one file) |
//! | `lock-order` | no cycle in the global guard-acquisition order; no lock held across I/O *transitively through callees* |
//! | `dispatch` | every variant of a registered enum has an arm at its designated dispatch sites |
//! | `oracle` | every `core::ops` operator's `specops::` twin is *called* from a proptest that also runs the physical path (threads 1 and 4 for operators that take an `ExecOptions`) |
//! | `wire` | server dispatch arms, `Client` methods and the `WIRE_PROTOCOL.md` op table agree |
//! | `env` | every `AGGPROV_*` literal is registered and README-documented |
//!
//! # Waivers
//!
//! A finding is suppressed by a comment on the same line or the line
//! above: `// lint:allow(<rule>, reason = "...")`. The reason is
//! mandatory — a reason-less waiver is itself a diagnostic — and so is
//! being load-bearing: a waiver that suppresses nothing is reported as
//! unused.
//!
//! Run locally with `cargo run -p analysis --bin aggprov-lint` from the
//! workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod graph;
pub mod json;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod walk;

use lexer::{scan, Scan, Tok, Token};

/// One lint finding, anchored to a file and line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule id (`groundness`, `panic`, `index`, `lock`, `lock-order`,
    /// `dispatch`, `oracle`, `wire`, `env`, `waiver`).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed waiver annotation: `// lint:allow(<rule>, reason = "...")`.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// The waived rule id.
    pub rule: String,
    /// The mandatory justification (`None` when the comment omitted it —
    /// reported by the driver).
    pub reason: Option<String>,
    /// 1-based line of the waiver comment. The waiver covers findings on
    /// this line and the next (for standalone comment lines).
    pub line: u32,
}

/// A scanned source file plus everything rules need: tokens, bracket
/// match map, `#[cfg(test)]` spans, and waivers.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The raw text (the env rule and README checks substring-match it).
    pub text: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Waivers parsed from comments.
    pub waivers: Vec<Waiver>,
    /// For each token index: the index of the matching close/open
    /// bracket, for `(` `)` `[` `]` `{` `}` tokens; `usize::MAX`
    /// elsewhere or when unbalanced.
    pub matches: Vec<usize>,
    /// Sorted token-index ranges lying under `#[cfg(test)]` / `#[test]`
    /// items (rules skip these).
    pub test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Scans `text` into a rule-ready source file.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        let path = path.into();
        let text = text.into();
        let Scan { tokens, comments } = scan(&text);
        let waivers = comments.iter().filter_map(parse_waiver).collect();
        let matches = match_brackets(&tokens);
        let test_ranges = find_test_ranges(&tokens, &matches);
        SourceFile {
            path,
            text,
            tokens,
            waivers,
            matches,
            test_ranges,
        }
    }

    /// True iff token index `i` lies inside a `#[cfg(test)]`/`#[test]`
    /// item.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// True iff a waiver for `rule` covers `line` (same line or the line
    /// directly above). Reason-less waivers still suppress — the missing
    /// reason is reported separately, so one sloppy comment yields one
    /// diagnostic, not two.
    pub fn waived(&self, rule: &str, line: u32) -> bool {
        self.waivers
            .iter()
            .any(|w| w.rule == rule && (w.line == line || w.line + 1 == line))
    }
}

/// Parses `lint:allow(<rule>, reason = "...")` out of a comment. Doc
/// comments don't count — they *describe* the waiver syntax (this crate
/// does, at length) rather than invoke it.
fn parse_waiver(c: &lexer::Comment) -> Option<Waiver> {
    if c.text.starts_with("///")
        || c.text.starts_with("//!")
        || c.text.starts_with("/**")
        || c.text.starts_with("/*!")
    {
        return None;
    }
    let at = c.text.find("lint:allow(")?;
    let rest = &c.text[at + "lint:allow(".len()..];
    // The closing paren is the first one *outside* the quoted reason —
    // reasons like `selected() rows are in bounds` contain their own.
    let mut end = None;
    let mut in_str = false;
    for (i, ch) in rest.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            ')' if !in_str => {
                end = Some(i);
                break;
            }
            _ => {}
        }
    }
    let inner = &rest[..end?];
    let (rule, reason) = match inner.find(',') {
        None => (inner.trim(), None),
        Some(comma) => {
            let rule = inner[..comma].trim();
            let tail = inner[comma + 1..].trim();
            let reason = tail
                .strip_prefix("reason")
                .map(str::trim_start)
                .and_then(|t| t.strip_prefix('='))
                .map(str::trim)
                .and_then(|t| t.strip_prefix('"'))
                .and_then(|t| t.strip_suffix('"'))
                .filter(|t| !t.trim().is_empty())
                .map(str::to_string);
            (rule, reason)
        }
    };
    if rule.is_empty() {
        return None;
    }
    Some(Waiver {
        rule: rule.to_string(),
        reason,
        line: c.line,
    })
}

/// Builds the bracket match map over the token stream.
fn match_brackets(tokens: &[Token]) -> Vec<usize> {
    let mut out = vec![usize::MAX; tokens.len()];
    let mut stack: Vec<(u8, usize)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.tok {
            Tok::Punct(b @ (b'(' | b'[' | b'{')) => stack.push((b, i)),
            Tok::Punct(close @ (b')' | b']' | b'}')) => {
                let want = match close {
                    b')' => b'(',
                    b']' => b'[',
                    _ => b'{',
                };
                // Pop past any unbalanced entries (never happens on code
                // that compiles, but stay total).
                while let Some((open, at)) = stack.pop() {
                    if open == want {
                        out[at] = i;
                        out[i] = at;
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Finds token ranges under `#[cfg(test)]` or `#[test]` attributes: from
/// the attribute to the end of the item's brace block (or its `;`).
fn find_test_ranges(tokens: &[Token], matches: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].tok.is(b'#') && i + 1 < tokens.len() && tokens[i + 1].tok.is(b'[') {
            let close = matches[i + 1];
            if close != usize::MAX && attr_is_test(&tokens[i + 2..close]) {
                // Skip any further attributes, then run to the item's
                // closing brace (derives etc. between attr and item).
                let mut j = close + 1;
                while j + 1 < tokens.len() && tokens[j].tok.is(b'#') && tokens[j + 1].tok.is(b'[') {
                    let c = matches[j + 1];
                    if c == usize::MAX {
                        break;
                    }
                    j = c + 1;
                }
                let mut end = j;
                while end < tokens.len() {
                    if tokens[end].tok.is(b';') {
                        break;
                    }
                    if tokens[end].tok.is(b'{') {
                        let c = matches[end];
                        end = if c == usize::MAX { tokens.len() - 1 } else { c };
                        break;
                    }
                    end += 1;
                }
                out.push((i, end.min(tokens.len().saturating_sub(1))));
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// True iff the attribute token slice is `cfg(test)` or `test`.
fn attr_is_test(inner: &[Token]) -> bool {
    match inner {
        [t] => t.tok.is_ident("test"),
        [c, p, t, q] => {
            c.tok.is_ident("cfg") && p.tok.is(b'(') && t.tok.is_ident("test") && q.tok.is(b')')
        }
        _ => false,
    }
}

/// A loaded workspace: all scanned sources plus the README text (for the
/// env-registry documentation check) and the wire-protocol spec (for the
/// `wire` drift check).
#[derive(Debug, Default)]
pub struct Workspace {
    /// All scanned `.rs` files.
    pub files: Vec<SourceFile>,
    /// `README.md` contents (empty when absent).
    pub readme: String,
    /// `docs/WIRE_PROTOCOL.md` contents (empty when absent).
    pub wire_doc: String,
}

impl Workspace {
    /// The file at `path`, if loaded.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_parsing() {
        let f = SourceFile::new(
            "x.rs",
            "// lint:allow(index, reason = \"selection vector is in-bounds\")\n\
             let x = a[i];\n\
             // lint:allow(panic)\n\
             y.unwrap();\n",
        );
        assert_eq!(f.waivers.len(), 2);
        assert_eq!(f.waivers[0].rule, "index");
        assert!(f.waivers[0].reason.is_some());
        assert!(f.waivers[1].reason.is_none());
        assert!(f.waived("index", 2));
        assert!(!f.waived("index", 4));
        assert!(f.waived("panic", 4));
    }

    #[test]
    fn reason_may_contain_parens() {
        let f = SourceFile::new(
            "x.rs",
            "// lint:allow(index, reason = \"selected() rows are < ground.len()\")\n",
        );
        assert_eq!(f.waivers.len(), 1);
        assert_eq!(
            f.waivers[0].reason.as_deref(),
            Some("selected() rows are < ground.len()")
        );
    }

    #[test]
    fn empty_reason_counts_as_missing() {
        let f = SourceFile::new("x.rs", "// lint:allow(panic, reason = \"\")\n");
        assert!(f.waivers[0].reason.is_none());
    }

    #[test]
    fn cfg_test_ranges_cover_test_modules() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n";
        let f = SourceFile::new("x.rs", src);
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.tok.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.in_test(unwraps[0]));
        assert!(f.in_test(unwraps[1]));
    }

    #[test]
    fn bracket_matching_round_trips() {
        let f = SourceFile::new("x.rs", "fn f(a: &[u8]) { g(a[0], (1, [2])); }");
        for (i, t) in f.tokens.iter().enumerate() {
            if let Tok::Punct(b'(' | b'[' | b'{') = t.tok {
                let j = f.matches[i];
                assert_ne!(j, usize::MAX);
                assert_eq!(f.matches[j], i);
            }
        }
    }
}
