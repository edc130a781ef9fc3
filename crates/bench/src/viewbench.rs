//! The materialized-view measurement behind the `view_maintenance` bench
//! and the `check_trajectory` gate: incremental semiring-delta
//! maintenance versus per-mutation re-execution on the 100k-row org
//! workload under a 1% churn stream, rendering the `BENCH_pr8.json`
//! trajectory point.
//!
//! The churn stream has the two mutation kinds a maintained view must
//! absorb, measured per event:
//!
//! - **`insert_churn`** — single-row `INSERT`s. The maintenance route
//!   pushes a one-row delta through the view's stored plan and re-renders
//!   only the touched group (O(delta · group), see
//!   `aggprov_engine::view`); the re-execution route runs the full query
//!   after the insert, the only way a view-less consumer stays current.
//! - **`delete_churn`** — 50-token `delete_tokens` batches (the paper's
//!   deletion propagation applied to the database). *Both* routes pay the
//!   base-table hom that fires the tokens; the re-execution route then
//!   runs the full query while the maintenance route maps the retained
//!   group state and patches the touched rows. The recorded ratio is
//!   accordingly modest — the honest number: deletion cost is dominated
//!   by the shared base-table rewrite, not by the view.
//!
//! Both routes run the same serial executor over the same ground tables;
//! the ratios are algorithmic, so the JSON deliberately records no
//! `threads` field (the gate never clamps them) and `host_cpus` is
//! provenance of the measurement only. Before timing anything, a small
//! churn stream is asserted bit-identical between the maintained view and
//! a from-scratch re-execution.

use crate::trajectory::{ab_row, render};
use aggprov_core::par::ExecOptions;
use aggprov_engine::{MaintenanceStrategy, ProvDb};
use aggprov_workloads::org::{org_database, Org, OrgParams};
use std::time::{Duration, Instant};

/// The PR number of the trajectory point this module measures.
pub const PR: u32 = 8;

/// The employee-table row count the perf trajectory tracks.
pub const EMP_ROWS: usize = 100_000;

/// The churn budget: 1% of the base table.
pub const CHURN_OPS: usize = EMP_ROWS / 100;

/// Tokens fired per `delete_tokens` batch in the churn stream.
pub const DELETE_BATCH: usize = 50;

/// The maintained query (the deletion-propagation contract's query).
pub const VIEW_SQL: &str = "SELECT dept, SUM(sal) AS mass FROM emp GROUP BY dept";

/// One measured churn-event kind: mean wall-clock per event on the
/// re-execution route and on the maintenance route.
#[derive(Debug)]
pub struct ViewPoint {
    /// Event kind (stable across trajectory points).
    pub op: &'static str,
    /// Employee-table row count.
    pub rows: usize,
    /// Mean per-event time of the re-execution route.
    pub reexec: Duration,
    /// Mean per-event time of the maintenance route.
    pub maint: Duration,
}

impl ViewPoint {
    /// `reexec / maint`: > 1 means maintenance beats re-execution.
    pub fn speedup(&self) -> f64 {
        self.reexec.as_secs_f64() / self.maint.as_secs_f64().max(1e-12)
    }
}

/// The trajectory workload: 100 departments × 1000 employees.
fn churn_db() -> (ProvDb, Org) {
    org_database(OrgParams {
        departments: 100,
        employees_per_dept: EMP_ROWS / 100,
        ..Default::default()
    })
}

fn insert_sql(i: usize) -> String {
    format!(
        "INSERT INTO emp VALUES ('c{i}', 'd{}', 57) PROVENANCE c{i}",
        i % 100
    )
}

/// Executes the view query from scratch — what a view-less consumer must
/// do after every mutation to stay current.
fn reexecute(db: &ProvDb, opts: &ExecOptions) {
    let out = db
        .prepare(VIEW_SQL)
        .expect("prepare")
        .execute_with_opts(&[], opts)
        .expect("execute")
        .into_relation();
    std::hint::black_box(out);
}

/// Asserts, on a small input, that a maintained view tracks a mixed churn
/// stream bit-identically to re-execution before anything is timed.
fn equivalence_canary(opts: &ExecOptions) {
    let (mut db, workload) = org_database(OrgParams {
        departments: 5,
        employees_per_dept: 40,
        ..Default::default()
    });
    db.materialize("mass", VIEW_SQL).expect("materialize");
    assert_eq!(
        db.view_strategy("mass").expect("strategy"),
        MaintenanceStrategy::Incremental,
        "the trajectory query must classify as incrementally maintainable"
    );
    for i in 0..20 {
        db.exec(&insert_sql(i)).expect("insert");
    }
    db.delete_tokens(workload.emp_tokens.iter().step_by(3))
        .expect("delete_tokens");
    let expect = db
        .prepare(VIEW_SQL)
        .expect("prepare")
        .execute_with_opts(&[], opts)
        .expect("execute")
        .into_relation();
    assert_eq!(
        db.view("mass").expect("view"),
        &expect,
        "maintained view diverged from re-execution"
    );
}

/// Measures both churn-event kinds, `samples` scaling the event counts.
pub fn measure(samples: usize) -> Vec<ViewPoint> {
    let opts = ExecOptions::serial();
    equivalence_canary(&opts);

    // Two identical databases: one maintains a view, one re-executes.
    let (mut mdb, m_org) = churn_db();
    mdb.materialize("mass", VIEW_SQL).expect("materialize");
    assert_eq!(
        mdb.view_strategy("mass").expect("strategy"),
        MaintenanceStrategy::Incremental
    );
    let (mut rdb, r_org) = churn_db();

    // Insert churn. The maintenance route is cheap enough to run the
    // whole 1% budget; the re-execution route's per-event cost is one
    // full query execution, so a handful of events gives the same mean.
    let maint_reps = (samples * CHURN_OPS / 10).max(CHURN_OPS / 10);
    let start = Instant::now();
    for i in 0..maint_reps {
        mdb.exec(&insert_sql(i)).expect("insert");
    }
    let maint_insert = start.elapsed() / maint_reps as u32;

    let reexec_reps = (2 * samples).max(2);
    let start = Instant::now();
    for i in 0..reexec_reps {
        rdb.exec(&insert_sql(i)).expect("insert");
        reexecute(&rdb, &opts);
    }
    let reexec_insert = start.elapsed() / reexec_reps as u32;

    // Delete churn: each route fires `samples` disjoint 50-token batches
    // (a token deletes only once, so batches are never reused).
    let batches = samples.max(1);
    let start = Instant::now();
    for b in 0..batches {
        let batch = &m_org.emp_tokens[b * DELETE_BATCH..(b + 1) * DELETE_BATCH];
        mdb.delete_tokens(batch.iter().map(|s| s.as_str()))
            .expect("delete_tokens");
    }
    let maint_delete = start.elapsed() / batches as u32;

    let start = Instant::now();
    for b in 0..batches {
        let batch = &r_org.emp_tokens[b * DELETE_BATCH..(b + 1) * DELETE_BATCH];
        rdb.delete_tokens(batch.iter().map(|s| s.as_str()))
            .expect("delete_tokens");
        reexecute(&rdb, &opts);
    }
    let reexec_delete = start.elapsed() / batches as u32;

    vec![
        ViewPoint {
            op: "insert_churn",
            rows: EMP_ROWS,
            reexec: reexec_insert,
            maint: maint_insert,
        },
        ViewPoint {
            op: "delete_churn",
            rows: EMP_ROWS,
            reexec: reexec_delete,
            maint: maint_delete,
        },
    ]
}

/// Renders the `BENCH_pr8.json` trajectory point. No `threads` field —
/// these ratios are algorithmic and must never be clamped by the gate —
/// but `host_cpus` records where the measurement came from.
pub fn render_json(points: &[ViewPoint], samples: usize, host_cpus: usize) -> String {
    let rows = points
        .iter()
        .map(|p| ab_row(p.op, p.rows, ("reexec_ns", p.reexec), ("maint_ns", p.maint)));
    render("view_maintenance", PR, samples, None, host_cpus, rows)
}
