//! The batch-pipeline measurement behind the `batch_pipeline` bench and
//! the `check_trajectory` gate: times the columnar filter→project→join
//! pipeline (`aggprov_core::ops::batch`, one materialization at the end)
//! against the PR 3 tuple-at-a-time path (the `ops::*` operators with a
//! `BTreeMap` relation materialized between every node) on the standard
//! 10k-row ground-heavy trajectory workload, and renders the
//! `BENCH_pr4.json` trajectory point.
//!
//! The measured chain is the engine's lowering of
//! `… WHERE sal < 100 AND dept < 400` joined against the department
//! dimension: two stacked filters (one per WHERE conjunct, exactly as
//! the planner emits them), a projection, a hash join. On the
//! tuple-at-a-time path every one of those nodes rebuilds a `BTreeMap`
//! relation; on the batch path the filters narrow one selection vector
//! and the projection is a column-view update.
//!
//! The recorded ratios are algorithmic (same host, same thread count —
//! both paths single-threaded), so the JSON deliberately records no
//! `threads` field and the gate never clamps them; `host_cpus` is still
//! recorded for provenance of the measurement.

use crate::fixtures::{dept_table, emp_table, EMP_ROWS};
use crate::trajectory::{ab_row, render};
use aggprov_algebra::domain::Const;
use aggprov_core::km::CmpPred;
use aggprov_core::ops::batch::{hash_join, BatchCmp, BatchOperand, Chunk};
use aggprov_core::ops::{self, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::{AggAnnotation, Prov, Value};
use aggprov_krel::schema::Schema;
use std::time::Duration;

/// The PR number of the trajectory point this module measures.
pub const PR: u32 = 4;

/// The first WHERE conjunct: `sal < 100` keeps roughly half the
/// employee rows, so downstream nodes still see real volume.
const SAL_CUT: i64 = 100;

/// The second WHERE conjunct: `dept < 400` keeps 80% of departments.
const DEPT_CUT: i64 = 400;

/// One measured pipeline shape: mean wall-clock on the tuple-at-a-time
/// path and on the batched path.
#[derive(Debug)]
pub struct BatchPoint {
    /// Pipeline name (stable across trajectory points).
    pub op: &'static str,
    /// Input row count.
    pub rows: usize,
    /// Mean time of the tuple-at-a-time (PR 3) path.
    pub tuple: Duration,
    /// Mean time of the batched pipeline.
    pub batched: Duration,
}

impl BatchPoint {
    /// `tuple / batched`: > 1 means the batch pipeline is faster.
    pub fn speedup(&self) -> f64 {
        self.tuple.as_secs_f64() / self.batched.as_secs_f64().max(1e-12)
    }
}

/// One WHERE conjunct exactly as the PR 3 engine ran it
/// (`exec::apply_predicate`): a tokened selection whose closure
/// re-fetches — and clones — both operands per tuple, bound constant
/// included.
fn tuple_filter(rel: &MKRel<Prov>, col: usize, cut: i64) -> MKRel<Prov> {
    let bound = Value::int(cut);
    ops::select_with_token(rel, |_, t| {
        let (lv, rv) = (t.get(col).clone(), bound.clone());
        Prov::value_cmp(CmpPred::Lt, &lv, &rv)
    })
    .expect("filter")
}

/// σ_{sal<100} → σ_{dept<400} → Π_{emp,dept} → ⋈_{dept=dept2}, node at
/// a time: a `BTreeMap` relation is materialized after every operator —
/// exactly what the engine executed before the batch pipeline.
fn tuple_pipeline(emp: &MKRel<Prov>, dim: &MKRel<Prov>) -> MKRel<Prov> {
    let serial = ExecOptions::serial();
    let f = tuple_filter(emp, 2, SAL_CUT);
    let f = tuple_filter(&f, 1, DEPT_CUT);
    let p = ops::project(&f, &["emp", "dept"], &serial).expect("project");
    ops::join_on(&p, dim, &[("dept", "dept2")], &serial).expect("join")
}

/// The same pipeline in chunk form: selection vector → column gather →
/// hash join, one materialization at the very end.
fn batch_pipeline(emp: &MKRel<Prov>, dim: &MKRel<Prov>) -> MKRel<Prov> {
    let mut chunk = Chunk::from_relation(emp);
    chunk
        .filter(
            &BatchOperand::Col(2),
            BatchCmp::Pred(CmpPred::Lt),
            &BatchOperand::Lit(Const::int(SAL_CUT)),
            &ExecOptions::serial(),
        )
        .expect("filter");
    chunk
        .filter(
            &BatchOperand::Col(1),
            BatchCmp::Pred(CmpPred::Lt),
            &BatchOperand::Lit(Const::int(DEPT_CUT)),
            &ExecOptions::serial(),
        )
        .expect("filter");
    let projected = chunk
        .project(&[0, 1], Schema::new(["emp", "dept"]).expect("schema"))
        .expect("project");
    hash_join(
        projected,
        Chunk::from_relation(dim),
        &[(1, 0)],
        Schema::new(["emp", "dept", "dept2", "region"]).expect("schema"),
        &ExecOptions::serial(),
    )
    .expect("join")
    .into_relation()
    .expect("materialize")
}

/// The two-node σ → Π chain, node at a time (the shortest pipeline —
/// conversion overhead is just about paid back here; the win grows with
/// every further node that skips its `BTreeMap`).
fn tuple_filter_project(emp: &MKRel<Prov>) -> MKRel<Prov> {
    let serial = ExecOptions::serial();
    let f = tuple_filter(emp, 2, SAL_CUT);
    ops::project(&f, &["emp", "dept"], &serial).expect("project")
}

fn batch_filter_project(emp: &MKRel<Prov>) -> MKRel<Prov> {
    let mut chunk = Chunk::from_relation(emp);
    chunk
        .filter(
            &BatchOperand::Col(2),
            BatchCmp::Pred(CmpPred::Lt),
            &BatchOperand::Lit(Const::int(SAL_CUT)),
            &ExecOptions::serial(),
        )
        .expect("filter");
    chunk
        .project(&[0, 1], Schema::new(["emp", "dept"]).expect("schema"))
        .expect("project")
        .into_relation()
        .expect("materialize")
}

/// Measures both pipeline shapes at `samples` runs each, asserting on a
/// small input that the two paths agree bit for bit before timing.
pub fn measure(samples: usize) -> Vec<BatchPoint> {
    let emp = emp_table(EMP_ROWS);
    let dim = dept_table();

    let tiny = emp_table(200);
    assert_eq!(
        tuple_pipeline(&tiny, &dim),
        batch_pipeline(&tiny, &dim),
        "batched pipeline diverged from the tuple-at-a-time path"
    );
    assert_eq!(tuple_filter_project(&tiny), batch_filter_project(&tiny));

    vec![
        BatchPoint {
            op: "filter_project_join",
            rows: EMP_ROWS,
            tuple: crate::parbench::time(samples, || {
                std::hint::black_box(tuple_pipeline(&emp, &dim));
            }),
            batched: crate::parbench::time(samples, || {
                std::hint::black_box(batch_pipeline(&emp, &dim));
            }),
        },
        BatchPoint {
            op: "filter_project",
            rows: EMP_ROWS,
            tuple: crate::parbench::time(samples, || {
                std::hint::black_box(tuple_filter_project(&emp));
            }),
            batched: crate::parbench::time(samples, || {
                std::hint::black_box(batch_filter_project(&emp));
            }),
        },
    ]
}

/// Renders the `BENCH_pr4.json` trajectory point. No `threads` field —
/// these ratios are algorithmic and must never be clamped by the gate —
/// but `host_cpus` records where the measurement came from.
pub fn render_json(points: &[BatchPoint], samples: usize, host_cpus: usize) -> String {
    let rows = points.iter().map(|p| {
        ab_row(
            p.op,
            p.rows,
            ("tuple_ns", p.tuple),
            ("batched_ns", p.batched),
        )
    });
    render("batch_pipeline", PR, samples, None, host_cpus, rows)
}
