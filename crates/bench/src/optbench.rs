//! The plan-optimizer measurement behind the `opt_pipeline` bench and
//! the `check_trajectory` gate: times the σ-above-⋈ pushdown workload
//! (`aggprov_workloads::pushdown`) through the optimizer against the
//! literal lowered plan shape, and renders the `BENCH_pr5.json`
//! trajectory point.
//!
//! Both sides run the *same* executor over the *same* ground 10k-row
//! tables at the same (single) thread count; the only difference is the
//! plan shape — filter above the join (as lowered) versus filter pushed
//! onto the base table plus greedy join reordering. The recorded ratios
//! are therefore algorithmic: the JSON deliberately records no `threads`
//! field (the gate never clamps them), and `host_cpus` is recorded for
//! provenance of the measurement only.
//!
//! Statements are prepared once, outside the timed loop — what is
//! measured is execution, exactly what the plan cache makes the steady
//! state of a prepared workload.

use crate::trajectory::{ab_row, render};
use aggprov_core::ops::MKRel;
use aggprov_core::par::ExecOptions;
use aggprov_core::Prov;
use aggprov_workloads::pushdown::{pushdown_db, REORDER_SQL, SIGMA_JOIN_SQL};
use std::time::Duration;

/// The PR number of the trajectory point this module measures.
pub const PR: u32 = 5;

/// The employee-table row count the perf trajectory tracks.
pub const EMP_ROWS: usize = 10_000;

/// One measured query: mean wall-clock on the literal lowered plan and
/// on the optimized plan.
#[derive(Debug)]
pub struct OptPoint {
    /// Query name (stable across trajectory points).
    pub op: &'static str,
    /// Employee-table row count.
    pub rows: usize,
    /// Mean time of the unoptimized (literal lowered) plan.
    pub unopt: Duration,
    /// Mean time of the optimized plan.
    pub opt: Duration,
}

impl OptPoint {
    /// `unopt / opt`: > 1 means the optimizer made the query faster.
    pub fn speedup(&self) -> f64 {
        self.unopt.as_secs_f64() / self.opt.as_secs_f64().max(1e-12)
    }
}

/// Measures both tracked queries at `samples` runs each, asserting on a
/// small input that optimized and literal plans agree bit for bit before
/// timing anything.
pub fn measure(samples: usize) -> Vec<OptPoint> {
    let tiny = pushdown_db(200);
    for sql in [SIGMA_JOIN_SQL, REORDER_SQL] {
        let opt: MKRel<Prov> = tiny.prepare(sql).expect("prepare").query_rel();
        let lit: MKRel<Prov> = tiny.prepare_unoptimized(sql).expect("prepare").query_rel();
        assert_eq!(opt, lit, "optimized plan diverged for {sql}");
    }

    let db = pushdown_db(EMP_ROWS);
    let serial = ExecOptions::serial();
    let mut points = Vec::new();
    for (name, sql) in [
        ("sigma_above_join", SIGMA_JOIN_SQL),
        ("filtered_join_chain", REORDER_SQL),
    ] {
        let optimized = db.prepare(sql).expect("prepare");
        let literal = db.prepare_unoptimized(sql).expect("prepare");
        points.push(OptPoint {
            op: name,
            rows: EMP_ROWS,
            unopt: crate::parbench::time(samples, || {
                std::hint::black_box(
                    literal
                        .execute_with_opts(&[], &serial)
                        .expect("execute")
                        .into_relation(),
                );
            }),
            opt: crate::parbench::time(samples, || {
                std::hint::black_box(
                    optimized
                        .execute_with_opts(&[], &serial)
                        .expect("execute")
                        .into_relation(),
                );
            }),
        });
    }
    points
}

/// Convenience: execute a prepared statement serially to a relation.
trait QueryRel {
    fn query_rel(&self) -> MKRel<Prov>;
}

impl QueryRel for aggprov_engine::Prepared<'_, Prov> {
    fn query_rel(&self) -> MKRel<Prov> {
        self.execute_with_opts(&[], &ExecOptions::serial())
            .expect("execute")
            .into_relation()
    }
}

/// Renders the `BENCH_pr5.json` trajectory point. No `threads` field —
/// these ratios are algorithmic and must never be clamped by the gate —
/// but `host_cpus` records where the measurement came from.
pub fn render_json(points: &[OptPoint], samples: usize, host_cpus: usize) -> String {
    let rows = points
        .iter()
        .map(|p| ab_row(p.op, p.rows, ("unopt_ns", p.unopt), ("opt_ns", p.opt)));
    render("opt_pipeline", PR, samples, None, host_cpus, rows)
}
