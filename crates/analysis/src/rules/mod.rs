//! The project-invariant rules and the waiver-aware driver logic.
//!
//! Each line-local rule module exposes a `check(&SourceFile)` and each
//! graph-aware rule a `check(&Workspace, &SymbolGraph)`, all producing
//! raw [`Diagnostic`]s; [`run_report`] builds the phase-1 symbol graph
//! once, applies the per-rule path scopes, then settles waivers: a
//! `// lint:allow(<rule>, reason = "...")` comment on the finding's line
//! (or the line above) suppresses it, a waiver with no reason is itself
//! reported, and a waiver that suppresses nothing is reported as unused.
//! Suppressed findings are kept (the `--json` output lists them under
//! `"waived"`), so an audit can see what the waivers are holding back.

pub mod dispatch;
pub mod drift;
pub mod envreg;
pub mod groundness;
pub mod lock_order;
pub mod locks;
pub mod oracle;
pub mod panic_free;

use crate::graph::SymbolGraph;
use crate::{Diagnostic, Workspace};

/// Files subject to the `groundness` rule: the operator modules where
/// ground/symbolic fast paths live — the row-at-a-time operators, the
/// vectorized batch/typed kernels under `ops/`, and the typed columnar
/// storage those kernels run on (whose fast paths are gated on the
/// ground partition, via `has_fringe`/`is_all_ground`).
pub fn groundness_scope(path: &str) -> bool {
    path == "crates/core/src/ops.rs"
        || path.starts_with("crates/core/src/ops/")
        || matches!(
            path,
            "crates/krel/src/batch.rs" | "crates/krel/src/typed.rs"
        )
}

/// Files subject to the `panic` and `index` rules: the designated
/// execute-path modules — the operator kernels, the engine's
/// plan/execute pipeline, and **all** of the server crate and of the
/// JSON codec it parses every request line with (a client request must
/// never be able to take down the process, and the serving binaries sit
/// directly on the request path).
pub fn execute_scope(path: &str) -> bool {
    groundness_scope(path)
        || path.starts_with("crates/server/src/")
        || path.starts_with("crates/json/src/")
        || matches!(
            path,
            "crates/core/src/par.rs"
                | "crates/engine/src/exec.rs"
                | "crates/engine/src/phys.rs"
                | "crates/engine/src/opt.rs"
                | "crates/engine/src/view.rs"
        )
}

/// Files subject to the `lock` rule: everywhere locks or sockets appear
/// on the serving path.
pub fn lock_scope(path: &str) -> bool {
    execute_scope(path)
}

/// A settled lint run: surviving findings plus the diagnostics that
/// waivers suppressed (reported by `--json`, hidden by default).
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings that survive waivers, sorted by path, line, rule.
    pub findings: Vec<Diagnostic>,
    /// Findings suppressed by a waiver, same order.
    pub waived: Vec<Diagnostic>,
}

/// Runs the path-scoped and cross-file rules, before waivers.
fn collect_raw(ws: &Workspace) -> Vec<Diagnostic> {
    let graph = SymbolGraph::build(ws);
    let mut raw: Vec<Diagnostic> = Vec::new();
    for f in &ws.files {
        if groundness_scope(&f.path) {
            raw.extend(groundness::check(f));
        }
        if execute_scope(&f.path) {
            raw.extend(panic_free::check(f));
        }
        if lock_scope(&f.path) {
            raw.extend(locks::check(f));
        }
    }
    raw.extend(oracle::check(ws));
    raw.extend(envreg::check(ws));
    raw.extend(dispatch::check(ws, &graph));
    raw.extend(lock_order::check(ws, &graph));
    raw.extend(drift::check(ws, &graph));
    raw
}

/// Runs every rule over the workspace and settles waivers.
pub fn run_report(ws: &Workspace) -> LintReport {
    let raw = collect_raw(ws);
    let mut report = LintReport::default();

    // Split findings by waiver coverage (reason-less waivers still
    // suppress — the missing reason is its own diagnostic below, so one
    // sloppy comment yields one finding, not two).
    for d in raw.iter() {
        let waived = ws.file(&d.path).is_some_and(|f| f.waived(d.rule, d.line));
        if waived {
            report.waived.push(d.clone());
        } else {
            report.findings.push(d.clone());
        }
    }

    // Waiver hygiene: a reason is mandatory, and so is being
    // load-bearing — the rules are deterministic, so a waiver is used
    // iff some raw finding of its rule landed on a line it covers.
    for f in &ws.files {
        for w in &f.waivers {
            if w.reason.is_none() {
                report.findings.push(Diagnostic {
                    path: f.path.clone(),
                    line: w.line,
                    rule: "waiver",
                    message: format!(
                        "lint:allow({}) without a reason — write \
                         lint:allow({}, reason = \"...\")",
                        w.rule, w.rule
                    ),
                });
            }
            let used = raw.iter().any(|d| {
                d.path == f.path && d.rule == w.rule && (w.line == d.line || w.line + 1 == d.line)
            });
            if !used {
                report.findings.push(Diagnostic {
                    path: f.path.clone(),
                    line: w.line,
                    rule: "waiver",
                    message: format!(
                        "unused waiver: no `{}` finding on line {} or {}",
                        w.rule,
                        w.line,
                        w.line + 1
                    ),
                });
            }
        }
    }
    report.findings.sort();
    report.findings.dedup();
    report.waived.sort();
    report.waived.dedup();
    report
}

/// Runs every rule over the workspace and settles waivers. The result is
/// sorted by path, line, rule.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    run_report(ws).findings
}

#[cfg(test)]
mod tests {
    use super::execute_scope;

    #[test]
    fn execute_scope_covers_the_server_and_its_json_codec() {
        for path in ["crates/server/src/session.rs", "crates/json/src/json.rs"] {
            assert!(execute_scope(path), "{path}");
        }
        assert!(!execute_scope("crates/analysis/src/json.rs"));
    }
}
