//! The typed-kernel measurement behind the `typed_kernels` bench and the
//! `check_trajectory` gate: times the PR 9 monomorphic columnar kernels
//! (unboxed `Vec<i64>` runs, dictionary-encoded strings, branchless
//! selection compaction, integer-hashed join probing) against the boxed
//! `Const`-per-row kernels of the same batch pipeline — the exact code
//! the engine runs under `ExecOptions::with_typed(false)` — and renders
//! the `BENCH_pr9.json` trajectory point.
//!
//! Both layouts execute the *same* `Chunk` entry points
//! ([`aggprov_core::ops::batch`]); the only variable is the
//! [`ColumnLayout`] the chunk was built with, so the ratios isolate the
//! storage + kernel change. Filter points time a repeated `≠ literal`
//! narrowing on a pre-built chunk (the selection stabilizes after the
//! warm-up call, so every timed iteration scans the same rows); join
//! points time the full build/probe/gather on per-iteration clones of
//! pre-built chunks (the clone is the reset and is included on both
//! sides — it favors neither, and the probe/gather dominates). Join
//! inputs carry **bag (`Nat`) annotations**: with provenance polynomials
//! the output-side `times` (polynomial multiplication) dwarfs the probe
//! and is byte-for-byte identical under either layout, so it would only
//! dilute the kernel ratio being tracked.
//!
//! The typed-vs-boxed ratios are **algorithmic** — both sides
//! single-threaded, same host — so those results record no `threads`
//! field and the gate never clamps them. The one *sharding* point
//! (`shard_filter_num`, serial vs [`shard_threads`] workers over the
//! same typed kernel) is thread-scaling: it measures at the requested
//! count clamped to the host's CPUs, records that count in a per-point
//! `"threads"` field, and the gate clamps its expectation to the judging
//! host's parallelism — a single-core recording honestly shows
//! `threads = 1` and ≈ 1×, never a fabricated speedup.

use crate::fixtures::{dept_table, emp_str_table, emp_table, region_table, EMP_ROWS};
use aggprov_algebra::domain::Const;
use aggprov_algebra::semiring::Nat;
use aggprov_core::km::CmpPred;
use aggprov_core::ops::batch::{hash_join, BatchCmp, BatchOperand, Chunk};
use aggprov_core::ops::MKRel;
use aggprov_core::par::ExecOptions;
use aggprov_core::{Prov, Value};
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use aggprov_krel::typed::ColumnLayout;
use std::time::Duration;

/// The PR number of the trajectory point this module measures.
pub const PR: u32 = 9;

/// The large row count: the 10k trajectory workload scaled 10×, so the
/// per-row kernel cost dominates any fixed overhead.
pub const BIG_ROWS: usize = 100_000;

/// Row count of the sharding point — far above the kernels' 8192-row
/// shard threshold, so a multi-thread measurement genuinely fans out.
pub const SHARD_ROWS: usize = 200_000;

/// The *requested* thread count of the sharding point; the measurement
/// runs at [`shard_threads`] — this clamped to the host's CPUs.
pub const SHARD_THREADS: usize = 4;

/// The thread count the sharding point actually measures (and records in
/// its per-point `"threads"` field): [`SHARD_THREADS`] clamped to the
/// host's parallelism. Fanning a ~1 ms kernel across more workers than
/// there are CPUs measures scheduler noise, not sharding — on a
/// single-core host this point honestly records `threads = 1` and a
/// ratio of ≈ 1×.
pub fn shard_threads() -> usize {
    SHARD_THREADS.min(crate::parbench::host_cpus()).max(1)
}

/// One measured kernel: mean wall-clock on the baseline (boxed layout —
/// or the serial typed kernel, for the sharding point) and on the typed
/// (or sharded) side.
#[derive(Debug)]
pub struct TypedPoint {
    /// Kernel name (stable across trajectory points).
    pub op: &'static str,
    /// Input row count.
    pub rows: usize,
    /// Mean time of the baseline side.
    pub baseline: Duration,
    /// Mean time of the typed (or sharded) side.
    pub typed: Duration,
    /// `Some(n)` marks a thread-scaling point measured at `n` workers
    /// (clamped by the gate to the judging host's CPUs); `None` marks an
    /// algorithmic typed-vs-boxed ratio (never clamped).
    pub threads: Option<usize>,
}

impl TypedPoint {
    /// `baseline / typed`: > 1 means the typed (or sharded) side is
    /// faster.
    pub fn speedup(&self) -> f64 {
        self.baseline.as_secs_f64() / self.typed.as_secs_f64().max(1e-12)
    }
}

/// Times the repeated `col ≠ lit` filter on a chunk built with `layout`.
/// The first (warm-up) call drops the literal's matches; every timed
/// iteration then re-scans the stabilized selection through the same
/// kernel — compiled test + branchless compaction on the typed layout,
/// `const_cmp` per row on the boxed one.
fn filter_time(
    rel: &MKRel<Prov>,
    layout: &ColumnLayout,
    col: usize,
    lit: Const,
    opts: &ExecOptions,
    samples: usize,
) -> Duration {
    let mut chunk = Chunk::from_relation_with(rel, layout);
    crate::parbench::time(samples, || {
        chunk
            .filter(
                &BatchOperand::Col(col),
                BatchCmp::Pred(CmpPred::Ne),
                &BatchOperand::Lit(lit.clone()),
                opts,
            )
            .expect("filter");
    })
}

/// Re-annotates a ground fixture table with unit bag multiplicities: the
/// join points carry `Nat` so the timed loop is the key kernel plus the
/// column gather, not `NatPoly` multiplication (identical under either
/// layout).
fn bag(rel: &MKRel<Prov>) -> MKRel<Nat> {
    let mut out = Relation::empty(rel.schema().clone());
    for (t, _) in rel.iter() {
        let row: Vec<Value<Nat>> = t
            .values()
            .iter()
            .map(|v| Value::Const(v.as_const().expect("ground fixture").clone()))
            .collect();
        out.insert(row, Nat(1)).expect("insert");
    }
    out
}

/// Times the single-key hash join of two pre-built chunks: per-iteration
/// clones (the reset), then build + probe + gather. No final
/// `into_relation` — the `BTreeMap` materialization is layout-independent
/// and would only dilute the kernel ratio.
fn join_time(left: &Chunk<Nat>, right: &Chunk<Nat>, schema: &Schema, samples: usize) -> Duration {
    crate::parbench::time(samples, || {
        std::hint::black_box(
            hash_join(
                left.clone(),
                right.clone(),
                &[(1, 0)],
                schema.clone(),
                &ExecOptions::serial(),
            )
            .expect("join"),
        );
    })
}

/// One typed-vs-boxed filter point.
fn filter_point(
    op: &'static str,
    rel: &MKRel<Prov>,
    col: usize,
    lit: Const,
    samples: usize,
) -> TypedPoint {
    let serial = ExecOptions::serial();
    TypedPoint {
        op,
        rows: rel.len(),
        baseline: filter_time(
            rel,
            &ColumnLayout::boxed(),
            col,
            lit.clone(),
            &serial,
            samples,
        ),
        typed: filter_time(rel, &ColumnLayout::typed(), col, lit, &serial, samples),
        threads: None,
    }
}

/// One typed-vs-boxed join point (join key is column 1 of `fact` against
/// column 0 of `dim`).
fn join_point(
    op: &'static str,
    fact: &MKRel<Nat>,
    dim: &MKRel<Nat>,
    schema: &Schema,
    samples: usize,
) -> TypedPoint {
    let boxed = ColumnLayout::boxed();
    let typed = ColumnLayout::typed();
    TypedPoint {
        op,
        rows: fact.len(),
        baseline: join_time(
            &Chunk::from_relation_with(fact, &boxed),
            &Chunk::from_relation_with(dim, &boxed),
            schema,
            samples,
        ),
        typed: join_time(
            &Chunk::from_relation_with(fact, &typed),
            &Chunk::from_relation_with(dim, &typed),
            schema,
            samples,
        ),
        threads: None,
    }
}

/// Measures every trajectory kernel, asserting on a small input that the
/// typed and boxed layouts produce bit-identical relations before timing
/// anything.
pub fn measure(samples: usize) -> Vec<TypedPoint> {
    let join_schema = Schema::new(["emp", "dept", "sal", "dept2", "region"]).expect("schema");
    let str_join_schema = Schema::new(["emp", "region", "sal", "region2", "zone"]).expect("schema");

    // Sanity: same filter + join, both layouts, bit for bit.
    {
        let tiny = emp_table(512);
        let tiny_dim = dept_table();
        let serial = ExecOptions::serial();
        let run = |layout: &ColumnLayout| {
            let mut chunk = Chunk::from_relation_with(&tiny, layout);
            chunk
                .filter(
                    &BatchOperand::Col(2),
                    BatchCmp::Pred(CmpPred::Ne),
                    &BatchOperand::Lit(Const::int(50)),
                    &serial,
                )
                .expect("filter");
            hash_join(
                chunk,
                Chunk::from_relation_with(&tiny_dim, layout),
                &[(1, 0)],
                join_schema.clone(),
                &serial,
            )
            .expect("join")
            .into_relation()
            .expect("materialize")
        };
        assert_eq!(
            run(&ColumnLayout::typed()),
            run(&ColumnLayout::boxed()),
            "typed kernels diverged from the boxed baseline"
        );
        // The same join under bag annotations, as the join points time it.
        let bag_join = |layout: &ColumnLayout| {
            hash_join(
                Chunk::from_relation_with(&bag(&tiny), layout),
                Chunk::from_relation_with(&bag(&tiny_dim), layout),
                &[(1, 0)],
                join_schema.clone(),
                &serial,
            )
            .expect("join")
            .into_relation()
            .expect("materialize")
        };
        assert_eq!(
            bag_join(&ColumnLayout::typed()),
            bag_join(&ColumnLayout::boxed()),
            "typed bag join diverged from the boxed baseline"
        );
    }

    let emp = emp_table(EMP_ROWS);
    let emp_big = emp_table(BIG_ROWS);
    let emp_str = emp_str_table(EMP_ROWS);
    let bag_emp = bag(&emp);
    let bag_emp_big = bag(&emp_big);
    let bag_emp_str = bag(&emp_str);
    let bag_dim = bag(&dept_table());
    let bag_reg = bag(&region_table());

    let mut points = vec![
        filter_point("filter_num", &emp, 2, Const::int(50), samples),
        filter_point("filter_num_big", &emp_big, 2, Const::int(50), samples),
        filter_point("filter_str", &emp_str, 1, Const::str("r3"), samples),
        join_point("join_num", &bag_emp, &bag_dim, &join_schema, samples),
        join_point(
            "join_num_big",
            &bag_emp_big,
            &bag_dim,
            &join_schema,
            samples,
        ),
        join_point(
            "join_str",
            &bag_emp_str,
            &bag_reg,
            &str_join_schema,
            samples,
        ),
    ];

    // The sharding point: the same typed kernel, serial vs fanned out
    // across contiguous ranges — at the host-clamped worker count.
    let threads = shard_threads();
    let shard_rel = emp_table(SHARD_ROWS);
    let typed = ColumnLayout::typed();
    let serial_time = filter_time(
        &shard_rel,
        &typed,
        2,
        Const::int(50),
        &ExecOptions::serial(),
        samples,
    );
    let sharded_time = if threads == 1 {
        // `threads = 1` plans a single shard: provably the serial code
        // path, so the ratio is 1 by construction. Re-timing the
        // identical loop would record CPU-quota throttling noise as a
        // fake (anti-)speedup.
        serial_time
    } else {
        filter_time(
            &shard_rel,
            &typed,
            2,
            Const::int(50),
            &ExecOptions::with_threads(threads),
            samples,
        )
    };
    points.push(TypedPoint {
        op: "shard_filter_num",
        rows: SHARD_ROWS,
        baseline: serial_time,
        typed: sharded_time,
        threads: Some(threads),
    });
    points
}

/// Renders the `BENCH_pr9.json` trajectory point. No file-level
/// `threads`: the typed-vs-boxed ratios are algorithmic and must never
/// be clamped. The sharding point alone carries a per-point `"threads"`
/// field, which the gate clamps to the judging host's parallelism;
/// `host_cpus` records where the measurement came from.
pub fn render_json(points: &[TypedPoint], samples: usize, host_cpus: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"typed_kernels\",\n");
    s.push_str(&format!("  \"pr\": {PR},\n"));
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    s.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let threads = p
            .threads
            .map_or_else(String::new, |t| format!("\"threads\": {t}, "));
        s.push_str(&format!(
            "    {{\"op\": \"{}\", \"rows\": {}, {}\"baseline_ns\": {}, \"typed_ns\": {}, \
             \"speedup\": {:.2}}}{}\n",
            p.op,
            p.rows,
            threads,
            p.baseline.as_nanos(),
            p.typed.as_nanos(),
            p.speedup(),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
