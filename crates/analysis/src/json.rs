//! Machine-readable lint output (`aggprov-lint --json`).
//!
//! Renders a [`crate::rules::LintReport`] as one JSON object (keys in
//! sorted order):
//!
//! ```json
//! {
//!   "counts":   {"findings": N, "waived": N},
//!   "findings": [ {"line": N, "message": "...", "path": "...",
//!                  "rule": "...", "waived": false}, ... ],
//!   "waived":   [ ...same shape with "waived": true... ]
//! }
//! ```
//!
//! The value is built with the workspace's one JSON codec
//! (`aggprov-json`, the same one the server speaks on the wire), so
//! escaping cannot drift between the two; `tests/json_roundtrip.rs`
//! parses the output back with that codec's parser.

use crate::rules::LintReport;
use crate::Diagnostic;
use aggprov_json::Json;

/// Renders the report as a single JSON object.
pub fn render(report: &LintReport) -> Json {
    let diags =
        |ds: &[Diagnostic], waived: bool| Json::Arr(ds.iter().map(|d| diag(d, waived)).collect());
    let count = |ds: &[Diagnostic]| Json::Int(ds.len() as i64);
    Json::obj([
        ("findings", diags(&report.findings, false)),
        ("waived", diags(&report.waived, true)),
        (
            "counts",
            Json::obj([
                ("findings", count(&report.findings)),
                ("waived", count(&report.waived)),
            ]),
        ),
    ])
}

fn diag(d: &Diagnostic, waived: bool) -> Json {
    Json::obj([
        ("rule", Json::str(d.rule)),
        ("path", Json::str(d.path.as_str())),
        ("line", Json::Int(i64::from(d.line))),
        ("message", Json::str(d.message.as_str())),
        ("waived", Json::Bool(waived)),
    ])
}
