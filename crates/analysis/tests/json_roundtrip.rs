//! The `--json` output contract: whatever `analysis::json::render`
//! emits must parse with the workspace's JSON codec (the parser the
//! server runs on every request line) and carry the findings
//! losslessly — rule, path, line, message, waived flag, and the counts
//! object — for a populated report and for an empty one.

use aggprov_json::Json;
use analysis::json::render;
use analysis::rules::LintReport;
use analysis::Diagnostic;

fn diag(rule: &'static str, path: &str, line: u32, message: &str) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line,
        rule,
        message: message.to_string(),
    }
}

/// Reads one rendered diagnostic list back in `Diagnostic`'s
/// `path:line: [rule] message` form, checking each entry's waived flag.
fn read_back(v: &Json, key: &str, waived: bool) -> Vec<String> {
    let entries = v.get(key).and_then(Json::as_arr).unwrap();
    let read = |d: &Json| {
        let field = |k: &str| d.get(k).and_then(Json::as_str).unwrap();
        assert_eq!(d.get("waived").and_then(Json::as_bool), Some(waived));
        let line = d.get("line").and_then(Json::as_int).unwrap();
        let (path, rule, message) = (field("path"), field("rule"), field("message"));
        format!("{path}:{line}: [{rule}] {message}")
    };
    entries.iter().map(read).collect()
}

#[test]
fn rendered_report_round_trips_through_the_server_parser() {
    let populated = LintReport {
        findings: vec![
            diag(
                "panic",
                "crates/engine/src/exec.rs",
                5,
                "don't \"unwrap\" on the execute path\n(second line)",
            ),
            diag("wire", "docs/WIRE_PROTOCOL.md", 9, "stale row: op `flush`"),
        ],
        waived: vec![diag(
            "index",
            "crates/core/src/ops.rs",
            12,
            "bare index xs[i]\twaived upstream",
        )],
    };
    for report in [populated, LintReport::default()] {
        let text = render(&report).to_string();
        let v = Json::parse(&text).expect("the codec's parser accepts --json output");
        let shown = |ds: &[Diagnostic]| ds.iter().map(Diagnostic::to_string).collect::<Vec<_>>();
        assert_eq!(read_back(&v, "findings", false), shown(&report.findings));
        assert_eq!(read_back(&v, "waived", true), shown(&report.waived));
        let counts = v.get("counts").unwrap();
        let count = |k: &str| counts.get(k).and_then(Json::as_int);
        assert_eq!(count("findings"), Some(report.findings.len() as i64));
        assert_eq!(count("waived"), Some(report.waived.len() as i64));
    }
}

#[test]
fn empty_report_parses_to_empty_arrays() {
    let v = Json::parse(&render(&LintReport::default()).to_string()).unwrap();
    assert_eq!(v.get("findings").and_then(Json::as_arr), Some(&[][..]));
    assert_eq!(v.get("waived").and_then(Json::as_arr), Some(&[][..]));
    assert_eq!(
        v.get("counts")
            .and_then(|c| c.get("findings"))
            .and_then(Json::as_int),
        Some(0)
    );
}
