//! The materialized-view bench: incremental semiring-delta maintenance
//! vs per-mutation re-execution on the 100k-row org workload under a 1%
//! churn stream (single-row inserts, 50-token deletion batches). Writes
//! the `BENCH_pr8.json` trajectory point (to `target/bench/` unless
//! `AGGPROV_BENCH_COMMIT=1`).

use aggprov_bench::trajectory::write;
use aggprov_bench::{parbench, viewbench};
use criterion::quick_mode_samples;

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let samples = quick_mode_samples(5);
    let points = viewbench::measure(samples);
    for p in &points {
        println!(
            "{} ({} rows): re-execution {:?}/event, maintained {:?}/event — {:.2}x",
            p.op,
            p.rows,
            p.reexec,
            p.maint,
            p.speedup()
        );
    }
    write(
        viewbench::PR,
        &viewbench::render_json(&points, samples, parbench::host_cpus()),
    );
}
