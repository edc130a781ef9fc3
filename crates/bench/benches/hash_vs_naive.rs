//! Hash-partitioned physical operators vs the literal §4.3 reference path
//! (`aggprov_core::specops`) on ground-tuple workloads — the perf
//! trajectory's first tracked point.
//!
//! Besides printing criterion-style timings, this bench emits
//! `BENCH_pr2.json`: per operator, the mean wall-clock time of the naive
//! and hash paths and the resulting speedup. By default the file goes to
//! `target/bench/` so a plain `cargo bench` never dirties the working
//! tree; set `AGGPROV_BENCH_COMMIT=1` to overwrite the checked-in
//! repo-root copy when committing a new trajectory point (or point
//! `BENCH_PR2_OUT` at an explicit path). CI runs this in quick mode
//! (`AGGPROV_BENCH_SAMPLES=2`) and the `check_trajectory` gate compares
//! the fresh ratios against the checked-in point.
//!
//! Workloads are fully ground (the common case the ground/symbolic split
//! optimizes for): a 10k-row employee table joined with / grouped over a
//! 500-key dimension, and 2k-row union/project inputs (the reference
//! union/project are quadratic in the *output key* count, so 10k rows
//! there would dominate the run without adding information).

use aggprov_algebra::monoid::MonoidKind;
use aggprov_bench::fixtures::{dept_table, emp_table, union_pair, EMP_ROWS, SMALL_ROWS};
use aggprov_bench::parbench::time;
use aggprov_bench::trajectory::out_path;
use aggprov_core::ops::{self, AggSpec};
use aggprov_core::par::ExecOptions;
use aggprov_core::specops;
use criterion::quick_mode_samples;
use std::time::Duration;

struct Measurement {
    op: &'static str,
    rows: usize,
    naive: Duration,
    hash: Duration,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.naive.as_secs_f64() / self.hash.as_secs_f64().max(1e-12)
    }
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let samples = quick_mode_samples(5);
    let emp = emp_table(EMP_ROWS);
    let dim = dept_table();
    let (small_a, small_b) = union_pair(SMALL_ROWS);
    let gb_specs = [AggSpec::new(MonoidKind::Sum, "sal")];
    let serial = ExecOptions::serial();

    println!("== hash_vs_naive ({samples} samples, emp = {EMP_ROWS} rows) ==");
    let mut results = Vec::new();
    let mut push = |m: Measurement| {
        println!(
            "{:<10} rows={:<6} naive {:>12.2?}/iter   hash {:>12.2?}/iter   speedup {:>8.1}x",
            m.op,
            m.rows,
            m.naive,
            m.hash,
            m.speedup()
        );
        results.push(m);
    };

    push(Measurement {
        op: "join_on",
        rows: EMP_ROWS,
        naive: time(samples, || {
            std::hint::black_box(specops::join_on(&emp, &dim, &[("dept", "dept2")]).unwrap());
        }),
        hash: time(samples, || {
            std::hint::black_box(ops::join_on(&emp, &dim, &[("dept", "dept2")], &serial).unwrap());
        }),
    });
    push(Measurement {
        op: "group_by",
        rows: EMP_ROWS,
        naive: time(samples, || {
            std::hint::black_box(specops::group_by(&emp, &["dept"], &gb_specs).unwrap());
        }),
        hash: time(samples, || {
            std::hint::black_box(ops::group_by(&emp, &["dept"], &gb_specs, &serial).unwrap());
        }),
    });
    push(Measurement {
        op: "union",
        rows: SMALL_ROWS,
        naive: time(samples, || {
            std::hint::black_box(specops::union(&small_a, &small_b).unwrap());
        }),
        hash: time(samples, || {
            std::hint::black_box(ops::union(&small_a, &small_b, &serial).unwrap());
        }),
    });
    push(Measurement {
        op: "project",
        rows: SMALL_ROWS,
        naive: time(samples, || {
            std::hint::black_box(specops::project(&small_a, &["dept"]).unwrap());
        }),
        hash: time(samples, || {
            std::hint::black_box(ops::project(&small_a, &["dept"], &serial).unwrap());
        }),
    });

    // Sanity: the two paths agree on every workload (cheap versions).
    let tiny = emp_table(200);
    assert_eq!(
        ops::join_on(&tiny, &dim, &[("dept", "dept2")], &serial).unwrap(),
        specops::join_on(&tiny, &dim, &[("dept", "dept2")]).unwrap()
    );
    assert_eq!(
        ops::group_by(&tiny, &["dept"], &gb_specs, &serial).unwrap(),
        specops::group_by(&tiny, &["dept"], &gb_specs).unwrap()
    );

    let json = render_json(&results, samples);
    let out = match std::env::var("BENCH_PR2_OUT") {
        Ok(explicit) => std::path::PathBuf::from(explicit),
        Err(_) => out_path("BENCH_pr2.json"),
    };
    std::fs::write(&out, json).expect("write BENCH_pr2.json");
    println!("wrote {}", out.display());
}

fn render_json(results: &[Measurement], samples: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"hash_vs_naive\",\n");
    s.push_str("  \"pr\": 2,\n");
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"op\": \"{}\", \"rows\": {}, \"naive_ns\": {}, \"hash_ns\": {}, \
             \"speedup\": {:.1}}}{}\n",
            m.op,
            m.rows,
            m.naive.as_nanos(),
            m.hash.as_nanos(),
            m.speedup(),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
