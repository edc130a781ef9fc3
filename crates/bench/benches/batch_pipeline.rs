//! The columnar batch pipeline vs the PR 3 tuple-at-a-time path — the
//! perf trajectory's PR 4 point.
//!
//! Times σ_{sal<100} → Π_{emp,dept} → ⋈_{dept=dept2} on the 10k-row
//! ground-heavy trajectory workload two ways: node-at-a-time over
//! `BTreeMap` relations (the pre-batch engine execution) and as one
//! chunked pipeline (selection vector → column gather → hash join, a
//! single materialization at the end), plus the standalone filter kernel.
//! Writes `BENCH_pr4.json`; sample count follows `AGGPROV_BENCH_SAMPLES`
//! (CI quick mode). Output goes to `target/bench/BENCH_pr4.json` — set
//! `AGGPROV_BENCH_COMMIT=1` to write the checked-in repo-root copy when
//! committing a new trajectory point.
//!
//! Both paths are single-threaded, so the recorded ratios are
//! algorithmic and comparable across hosts (no `threads` field, no gate
//! clamping).

use aggprov_bench::batchbench::{self, measure, render_json};
use aggprov_bench::parbench::host_cpus;
use aggprov_bench::trajectory::write;
use criterion::quick_mode_samples;

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let samples = quick_mode_samples(5);
    println!(
        "== batch_pipeline ({samples} samples, host_cpus = {}) ==",
        host_cpus()
    );
    let points = measure(samples);
    for p in &points {
        println!(
            "{:<20} rows={:<6} tuple {:>12.2?}/iter   batched {:>12.2?}/iter   speedup {:>6.2}x",
            p.op,
            p.rows,
            p.tuple,
            p.batched,
            p.speedup()
        );
    }
    write(batchbench::PR, &render_json(&points, samples, host_cpus()));
}
