//! End-to-end fixture tests: each rule fires at a pinned `file:line` on
//! its violation fixture, and a `lint:allow(<rule>, reason = "...")`
//! comment suppresses exactly the covered finding.
//!
//! Fixtures live in `tests/fixtures/` and are *excluded* from the real
//! workspace walk — they exist only to be loaded here under in-scope
//! pseudo-paths.

use analysis::rules::run_all;
use analysis::{Diagnostic, SourceFile, Workspace};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn ws(files: Vec<(&str, String)>) -> Workspace {
    Workspace {
        files: files
            .into_iter()
            .map(|(p, text)| SourceFile::new(p, text))
            .collect(),
        ..Workspace::default()
    }
}

fn of_rule<'a>(d: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    d.iter().filter(|x| x.rule == rule).collect()
}

#[test]
fn groundness_fires_on_the_pr4_one_sided_gate() {
    let w = ws(vec![(
        "crates/core/src/ops.rs",
        fixture("groundness_one_sided.rs"),
    )]);
    let d = run_all(&w);
    let g = of_rule(&d, "groundness");
    assert_eq!(g.len(), 1, "{d:?}");
    assert_eq!(
        (g[0].path.as_str(), g[0].line),
        ("crates/core/src/ops.rs", 8)
    );
    assert!(g[0].message.contains("annotation_at"), "{}", g[0].message);
    assert!(g[0].message.contains("`t`"), "{}", g[0].message);
}

#[test]
fn groundness_fires_on_an_unguarded_typed_fast_path() {
    // The typed-kernel modules in krel are in scope, and the chunk-level
    // predicates (`has_fringe`) count: a typed fast path gating only one
    // of two chunk operands is the PR 4 bug class in columnar clothing.
    let w = ws(vec![(
        "crates/krel/src/typed.rs",
        fixture("typed_one_sided.rs"),
    )]);
    let d = run_all(&w);
    let g = of_rule(&d, "groundness");
    assert_eq!(g.len(), 1, "{d:?}");
    assert_eq!(
        (g[0].path.as_str(), g[0].line),
        ("crates/krel/src/typed.rs", 6)
    );
    assert!(g[0].message.contains("join_typed"), "{}", g[0].message);
    assert!(g[0].message.contains("`right`"), "{}", g[0].message);
}

#[test]
fn panic_and_index_fire_at_pinned_lines() {
    let w = ws(vec![(
        "crates/engine/src/exec.rs",
        fixture("panic_index.rs"),
    )]);
    let d = run_all(&w);
    let panics: Vec<u32> = of_rule(&d, "panic").iter().map(|x| x.line).collect();
    assert_eq!(panics, vec![5, 6, 8], "{d:?}");
    let indexes: Vec<u32> = of_rule(&d, "index").iter().map(|x| x.line).collect();
    assert_eq!(indexes, vec![10], "{d:?}");
}

#[test]
fn panic_rule_covers_the_whole_server_crate() {
    // The execute scope is all of crates/server/src — including the
    // binaries, which sit directly on the serving path.
    let w = ws(vec![(
        "crates/server/src/bin/smoke.rs",
        fixture("panic_index.rs"),
    )]);
    let d = run_all(&w);
    assert_eq!(of_rule(&d, "panic").len(), 3, "{d:?}");
    assert_eq!(of_rule(&d, "index").len(), 1, "{d:?}");
}

#[test]
fn lint_allow_with_reason_suppresses_without_waiver_noise() {
    let w = ws(vec![(
        "crates/engine/src/exec.rs",
        fixture("panic_index.rs"),
    )]);
    let d = run_all(&w);
    // Line 12 is indexed but waived on line 11 — no finding, and the
    // waiver itself is silent (it has a reason and is load-bearing).
    assert!(
        !d.iter().any(|x| x.rule == "index" && x.line == 12),
        "{d:?}"
    );
    assert!(of_rule(&d, "waiver").is_empty(), "{d:?}");
}

#[test]
fn reasonless_and_unused_waivers_are_reported() {
    let src = "pub fn f(xs: &[u32]) -> u32 {\n\
               // lint:allow(index)\n\
               xs[0]\n\
               }\n\
               // lint:allow(panic, reason = \"nothing panics here\")\n";
    let w = ws(vec![("crates/engine/src/exec.rs", src.to_string())]);
    let d = run_all(&w);
    let waiver_lines: Vec<u32> = of_rule(&d, "waiver").iter().map(|x| x.line).collect();
    assert_eq!(waiver_lines, vec![2, 5], "{d:?}");
    // The reason-less waiver still suppresses the indexing on line 3.
    assert!(of_rule(&d, "index").is_empty(), "{d:?}");
}

#[test]
fn lock_rule_fires_on_nesting_and_io_at_pinned_lines() {
    let w = ws(vec![(
        "crates/server/src/stream.rs",
        fixture("lock_discipline.rs"),
    )]);
    let d = run_all(&w);
    let locks = of_rule(&d, "lock");
    assert_eq!(
        locks.iter().map(|x| x.line).collect::<Vec<_>>(),
        vec![6, 12],
        "{d:?}"
    );
    assert!(locks[0].message.contains("line 5"), "{}", locks[0].message);
    assert!(
        locks[1].message.contains("stream I/O"),
        "{}",
        locks[1].message
    );
    assert!(locks[1].message.contains("line 11"), "{}", locks[1].message);
}

#[test]
fn lock_order_cycle_fires_across_files_at_the_witness_call() {
    let w = ws(vec![
        ("crates/engine/src/fwd.rs", fixture("deadlock_forward.rs")),
        ("crates/server/src/bwd.rs", fixture("deadlock_backward.rs")),
    ]);
    let d = run_all(&w);
    let lo = of_rule(&d, "lock-order");
    assert_eq!(lo.len(), 1, "{d:?}");
    // The witness is the lexicographically-first edge on the cycle:
    // `backward` takes `db` (via `touch_db`) while holding `cache`.
    assert_eq!(
        (lo[0].path.as_str(), lo[0].line),
        ("crates/server/src/bwd.rs", 8)
    );
    assert!(lo[0].message.contains("cycle"), "{}", lo[0].message);
    assert!(lo[0].message.contains("cache"), "{}", lo[0].message);
    assert!(lo[0].message.contains("db"), "{}", lo[0].message);
}

#[test]
fn lock_order_finding_is_waivable_at_the_witness_line() {
    let waived = fixture("deadlock_backward.rs").replace(
        "        self.touch_db();",
        "        // lint:allow(lock-order, reason = \"fixture demo\")\n        self.touch_db();",
    );
    let w = ws(vec![
        ("crates/engine/src/fwd.rs", fixture("deadlock_forward.rs")),
        ("crates/server/src/bwd.rs", waived),
    ]);
    let d = run_all(&w);
    assert!(of_rule(&d, "lock-order").is_empty(), "{d:?}");
    assert!(of_rule(&d, "waiver").is_empty(), "{d:?}");
}

#[test]
fn dispatch_fires_on_a_missing_arm_at_the_match_line() {
    let w = ws(vec![
        ("crates/engine/src/view.rs", fixture("dispatch_enum.rs")),
        ("crates/server/src/session.rs", fixture("dispatch_site.rs")),
    ]);
    let d = run_all(&w);
    let disp = of_rule(&d, "dispatch");
    assert_eq!(disp.len(), 1, "{d:?}");
    assert_eq!(
        (disp[0].path.as_str(), disp[0].line),
        ("crates/server/src/session.rs", 5)
    );
    assert!(
        disp[0].message.contains("MaintenanceStrategy::Recompute"),
        "{}",
        disp[0].message
    );
    assert!(
        disp[0].message.contains("wildcards earn no credit"),
        "{}",
        disp[0].message
    );
}

#[test]
fn dispatch_finding_is_waivable_at_the_match_line() {
    let waived = fixture("dispatch_site.rs").replace(
        "    match s {",
        "    // lint:allow(dispatch, reason = \"fixture demo\")\n    match s {",
    );
    let w = ws(vec![
        ("crates/engine/src/view.rs", fixture("dispatch_enum.rs")),
        ("crates/server/src/session.rs", waived),
    ]);
    let d = run_all(&w);
    assert!(of_rule(&d, "dispatch").is_empty(), "{d:?}");
    assert!(of_rule(&d, "waiver").is_empty(), "{d:?}");
}

#[test]
fn wire_fires_on_undocumented_op_and_stale_doc_row() {
    let mut w = ws(vec![
        ("crates/server/src/session.rs", fixture("wire_session.rs")),
        ("crates/server/src/client.rs", fixture("wire_client.rs")),
    ]);
    w.wire_doc = fixture("wire_protocol_stale.md");
    let d = run_all(&w);
    let wire = of_rule(&d, "wire");
    assert_eq!(wire.len(), 2, "{d:?}");
    // `bye` is dispatched (session line 9) but not in the doc table.
    assert_eq!(
        (wire[0].path.as_str(), wire[0].line),
        ("crates/server/src/session.rs", 9)
    );
    assert!(wire[0].message.contains("`bye`"), "{}", wire[0].message);
    // `flush` is a stale row (doc line 9) the server never dispatches.
    assert_eq!(
        (wire[1].path.as_str(), wire[1].line),
        ("docs/WIRE_PROTOCOL.md", 9)
    );
    assert!(wire[1].message.contains("`flush`"), "{}", wire[1].message);
}

#[test]
fn wire_session_side_finding_is_waivable() {
    let waived = fixture("wire_session.rs").replace(
        "            \"bye\" => self.op_bye(),",
        "            // lint:allow(wire, reason = \"fixture demo\")\n            \
         \"bye\" => self.op_bye(),",
    );
    let mut w = ws(vec![
        ("crates/server/src/session.rs", waived),
        ("crates/server/src/client.rs", fixture("wire_client.rs")),
    ]);
    w.wire_doc = fixture("wire_protocol_stale.md");
    let d = run_all(&w);
    let wire = of_rule(&d, "wire");
    // Only the doc-side stale row remains (findings anchored in
    // markdown have no waiver syntax — fix the doc instead).
    assert_eq!(wire.len(), 1, "{d:?}");
    assert_eq!(wire[0].path, "docs/WIRE_PROTOCOL.md");
    assert!(of_rule(&d, "waiver").is_empty(), "{d:?}");
}

#[test]
fn env_rule_flags_unregistered_knob_at_pinned_line() {
    let w = ws(vec![(
        "crates/workloads/src/knob.rs",
        fixture("env_knob.rs"),
    )]);
    let d = run_all(&w);
    let hit = of_rule(&d, "env")
        .into_iter()
        .find(|x| x.message.contains("AGGPROV_FIXTURE_KNOB"))
        .unwrap_or_else(|| panic!("no env finding: {d:?}"));
    assert_eq!(
        (hit.path.as_str(), hit.line),
        ("crates/workloads/src/knob.rs", 4)
    );
}

#[test]
fn oracle_rule_flags_missing_and_uncalled_twins() {
    let w = ws(vec![
        ("crates/core/src/ops.rs", fixture("oracle_ops.rs")),
        ("crates/core/src/specops.rs", fixture("oracle_specops.rs")),
    ]);
    let d = run_all(&w);
    let o = of_rule(&d, "oracle");
    assert_eq!(o.len(), 2, "{d:?}");
    assert_eq!(o[0].line, 4);
    assert!(
        o[0].message.contains("no `specops::frobnicate` oracle"),
        "{}",
        o[0].message
    );
    assert_eq!(o[1].line, 8);
    assert!(
        o[1].message.contains("no proptest calls"),
        "{}",
        o[1].message
    );
}

#[test]
fn oracle_rule_rejects_textual_only_references() {
    // The proptest mentions `specops::orphaned` in a string and takes a
    // fn pointer to it, but never *calls* it — still unoracled, pinned
    // at the operator's export line.
    let w = ws(vec![
        ("crates/core/src/ops.rs", fixture("oracle_specops.rs")),
        ("crates/core/src/specops.rs", fixture("oracle_specops.rs")),
        (
            "crates/core/tests/textual_proptests.rs",
            fixture("oracle_textual_proptest.rs"),
        ),
    ]);
    let d = run_all(&w);
    let o = of_rule(&d, "oracle");
    assert_eq!(o.len(), 1, "{d:?}");
    assert_eq!(
        (o[0].path.as_str(), o[0].line),
        ("crates/core/src/ops.rs", 4)
    );
    assert!(
        o[0].message.contains("textual mention is not a test"),
        "{}",
        o[0].message
    );
}

#[test]
fn oracle_rule_requires_both_thread_counts_for_execoptions_operators() {
    // A threaded operator is recognised by its `ExecOptions` parameter,
    // not by a name suffix: a proptest pinning only threads = 1 is flagged.
    let w = ws(vec![
        ("crates/core/src/ops.rs", fixture("oracle_threaded_ops.rs")),
        (
            "crates/core/src/specops.rs",
            fixture("oracle_threaded_ops.rs"),
        ),
        (
            "crates/core/tests/blend_proptests.rs",
            fixture("oracle_threads_one_proptest.rs"),
        ),
    ]);
    let d = run_all(&w);
    let o = of_rule(&d, "oracle");
    assert_eq!(o.len(), 1, "{d:?}");
    assert_eq!(
        (o[0].path.as_str(), o[0].line),
        ("crates/core/src/ops.rs", 4)
    );
    assert!(o[0].message.contains("threads=4"), "{}", o[0].message);
}

#[test]
fn oracle_rule_is_satisfied_by_a_proptest_calling_both_paths() {
    let proptest = "#[test]\n\
                    fn orphaned_matches() {\n\
                    let s = specops::orphaned(&r).unwrap();\n\
                    let f = ops::orphaned(&r).unwrap();\n\
                    }\n";
    let w = ws(vec![
        ("crates/core/src/ops.rs", fixture("oracle_specops.rs")),
        ("crates/core/src/specops.rs", fixture("oracle_specops.rs")),
        ("crates/core/tests/x_proptests.rs", proptest.to_string()),
    ]);
    let d = run_all(&w);
    assert!(of_rule(&d, "oracle").is_empty(), "{d:?}");
}
