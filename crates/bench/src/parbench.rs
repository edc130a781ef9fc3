//! The partition-parallel measurement behind the `partition_parallel`
//! bench and the `check_trajectory` gate: times the four sharded physical
//! operators at `threads = 1` vs `threads = N` on the standard trajectory
//! workloads and renders the `BENCH_pr3.json` trajectory point.
//!
//! Shared between the bench binary (which prints and writes the JSON) and
//! the gate binary (which needs a fresh measurement to compare against the
//! checked-in point) so both always measure exactly the same thing.

use crate::fixtures::{dept_table, emp_table, union_pair, EMP_ROWS, SMALL_ROWS};
use crate::trajectory::{ab_row, render};
use aggprov_algebra::monoid::MonoidKind;
use aggprov_core::ops::{self, AggSpec};
use aggprov_core::par::ExecOptions;
use std::time::{Duration, Instant};

/// The PR number of the trajectory point this module measures.
pub const PR: u32 = 3;

/// One measured operator: mean wall-clock at `threads = 1` and at the
/// configured thread count.
#[derive(Debug)]
pub struct ParPoint {
    /// Operator name (stable across trajectory points).
    pub op: &'static str,
    /// Input row count.
    pub rows: usize,
    /// Mean time at `threads = 1`.
    pub t1: Duration,
    /// Mean time at the configured thread count.
    pub tn: Duration,
}

impl ParPoint {
    /// `t1 / tn`: > 1 means the threads helped.
    pub fn speedup(&self) -> f64 {
        self.t1.as_secs_f64() / self.tn.as_secs_f64().max(1e-12)
    }
}

/// Times `f` (one warm-up, then `samples` runs) and returns the mean —
/// the one sampling policy every trajectory point is measured with
/// (`hash_vs_naive` uses it too; changing warm-up or averaging here
/// changes all points together, keeping them comparable).
pub fn time(samples: usize, mut f: impl FnMut()) -> Duration {
    f();
    let mut total = Duration::ZERO;
    for _ in 0..samples {
        let start = Instant::now();
        f();
        total += start.elapsed();
    }
    total / samples.max(1) as u32
}

/// Measures all four sharded operators at `threads = 1` vs `threads`.
/// Asserts (on small inputs) that both paths agree before timing.
pub fn measure(samples: usize, threads: usize) -> Vec<ParPoint> {
    let serial = ExecOptions::serial();
    let par = ExecOptions::with_threads(threads);
    let emp = emp_table(EMP_ROWS);
    let dim = dept_table();
    let (small_a, small_b) = union_pair(SMALL_ROWS);
    let gb_specs = [AggSpec::new(MonoidKind::Sum, "sal")];

    // Sanity: the two paths agree (cheap versions) before we time them.
    let tiny = emp_table(200);
    assert_eq!(
        ops::join_on(&tiny, &dim, &[("dept", "dept2")], &par).unwrap(),
        ops::join_on(&tiny, &dim, &[("dept", "dept2")], &serial).unwrap()
    );
    assert_eq!(
        ops::group_by(&tiny, &["dept"], &gb_specs, &par).unwrap(),
        ops::group_by(&tiny, &["dept"], &gb_specs, &serial).unwrap()
    );

    vec![
        ParPoint {
            op: "join_on",
            rows: EMP_ROWS,
            t1: time(samples, || {
                std::hint::black_box(
                    ops::join_on(&emp, &dim, &[("dept", "dept2")], &serial).unwrap(),
                );
            }),
            tn: time(samples, || {
                std::hint::black_box(ops::join_on(&emp, &dim, &[("dept", "dept2")], &par).unwrap());
            }),
        },
        ParPoint {
            op: "group_by",
            rows: EMP_ROWS,
            t1: time(samples, || {
                std::hint::black_box(ops::group_by(&emp, &["dept"], &gb_specs, &serial).unwrap());
            }),
            tn: time(samples, || {
                std::hint::black_box(ops::group_by(&emp, &["dept"], &gb_specs, &par).unwrap());
            }),
        },
        ParPoint {
            op: "union",
            rows: SMALL_ROWS,
            t1: time(samples, || {
                std::hint::black_box(ops::union(&small_a, &small_b, &serial).unwrap());
            }),
            tn: time(samples, || {
                std::hint::black_box(ops::union(&small_a, &small_b, &par).unwrap());
            }),
        },
        ParPoint {
            op: "project",
            rows: SMALL_ROWS,
            t1: time(samples, || {
                std::hint::black_box(ops::project(&small_a, &["dept"], &serial).unwrap());
            }),
            tn: time(samples, || {
                std::hint::black_box(ops::project(&small_a, &["dept"], &par).unwrap());
            }),
        },
    ]
}

/// Renders the `BENCH_pr3.json` trajectory point. `host_cpus` records the
/// parallelism the measuring machine actually had — a single-core host
/// cannot show wall-clock speedup from threads, and the trajectory reader
/// needs to know that to judge the recorded ratios.
pub fn render_json(
    points: &[ParPoint],
    samples: usize,
    threads: usize,
    host_cpus: usize,
) -> String {
    let rows = points
        .iter()
        .map(|p| ab_row(p.op, p.rows, ("t1_ns", p.t1), ("tn_ns", p.tn)));
    render(
        "partition_parallel",
        PR,
        samples,
        Some(threads),
        host_cpus,
        rows,
    )
}

/// The measuring machine's available parallelism (the thread count
/// [`ExecOptions::available`] resolves to).
pub fn host_cpus() -> usize {
    ExecOptions::available().threads()
}
