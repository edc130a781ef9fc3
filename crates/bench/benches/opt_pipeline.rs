//! The plan-optimizer bench: σ-above-⋈ pushdown (and the filtered join
//! chain) through the optimizer vs the literal lowered plan, on the
//! standard 10k-row ground trajectory workload. Writes the
//! `BENCH_pr5.json` trajectory point (to `target/bench/` unless
//! `AGGPROV_BENCH_COMMIT=1`).

use aggprov_bench::trajectory::write;
use aggprov_bench::{optbench, parbench};
use criterion::quick_mode_samples;

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let samples = quick_mode_samples(5);
    let points = optbench::measure(samples);
    for p in &points {
        println!(
            "{} ({} rows): unoptimized {:?}, optimized {:?} — {:.2}x",
            p.op,
            p.rows,
            p.unopt,
            p.opt,
            p.speedup()
        );
    }
    write(
        optbench::PR,
        &optbench::render_json(&points, samples, parbench::host_cpus()),
    );
}
