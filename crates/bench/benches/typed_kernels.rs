//! Typed columnar kernels vs the boxed `Const`-per-row baseline — the
//! perf trajectory's PR 9 point.
//!
//! Times the batch pipeline's filter and hash-join kernels twice through
//! the *same* `Chunk` entry points, varying only the column layout:
//! unboxed `Vec<i64>` runs and dictionary-encoded strings with compiled
//! literal tests and branchless selection compaction, against the boxed
//! layout the engine runs under `ExecOptions::with_typed(false)`. Plus
//! one sharding point (the same typed filter, serial vs a host-clamped
//! worker count),
//! recorded with a per-point `"threads"` field so the gate clamps it to
//! the judging host's CPUs. Writes `BENCH_pr9.json`; sample count follows
//! `AGGPROV_BENCH_SAMPLES` (CI quick mode). Output goes to
//! `target/bench/BENCH_pr9.json` — set `AGGPROV_BENCH_COMMIT=1` to write
//! the checked-in repo-root copy when committing a new trajectory point.

use aggprov_bench::parbench::host_cpus;
use aggprov_bench::trajectory::write;
use aggprov_bench::typedbench::{self, measure, render_json};
use criterion::quick_mode_samples;

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let samples = quick_mode_samples(5);
    println!(
        "== typed_kernels ({samples} samples, host_cpus = {}) ==",
        host_cpus()
    );
    let points = measure(samples);
    for p in &points {
        println!(
            "{:<18} rows={:<7} {} baseline {:>12.2?}/iter   typed {:>12.2?}/iter   speedup {:>6.2}x",
            p.op,
            p.rows,
            p.threads
                .map_or_else(|| "         ".to_string(), |t| format!("threads={t}")),
            p.baseline,
            p.typed,
            p.speedup()
        );
    }
    write(typedbench::PR, &render_json(&points, samples, host_cpus()));
}
