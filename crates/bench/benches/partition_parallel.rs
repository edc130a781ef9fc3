//! Partition-parallel operators at `threads = 1` vs `threads = N` — the
//! perf trajectory's PR 3 point.
//!
//! Times the four sharded physical operators (`join_on`, `group_by`,
//! `union`, `project`) on the standard trajectory workloads (10k-row join
//! and group-by, 2k-row union/project) single-threaded and with `N` worker
//! threads, and writes `BENCH_pr3.json`. `N` defaults to 4 (the trajectory
//! comparison point) and follows `AGGPROV_THREADS` when set; sample count
//! follows `AGGPROV_BENCH_SAMPLES` (CI quick mode). Output goes to
//! `target/bench/BENCH_pr3.json` — set `AGGPROV_BENCH_COMMIT=1` to write
//! the checked-in repo-root copy instead when committing a new trajectory
//! point.
//!
//! Note: the recorded `speedup` is wall-clock, so it only exceeds 1 on a
//! host with more than one CPU; `host_cpus` is recorded alongside so the
//! trajectory stays interpretable.

use aggprov_bench::parbench::{self, host_cpus, measure, render_json};
use aggprov_bench::trajectory::write;
use aggprov_core::par::{ExecOptions, THREADS_ENV};
use criterion::quick_mode_samples;

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let samples = quick_mode_samples(5);
    let threads = match std::env::var(THREADS_ENV) {
        Err(std::env::VarError::NotPresent) => 4,
        _ => ExecOptions::from_env().expect("AGGPROV_THREADS").threads(),
    };
    println!(
        "== partition_parallel ({samples} samples, threads = {threads}, host_cpus = {}) ==",
        host_cpus()
    );
    let points = measure(samples, threads);
    for p in &points {
        println!(
            "{:<10} rows={:<6} t1 {:>12.2?}/iter   t{threads} {:>12.2?}/iter   speedup {:>6.2}x",
            p.op,
            p.rows,
            p.t1,
            p.tn,
            p.speedup()
        );
    }
    write(
        parbench::PR,
        &render_json(&points, samples, threads, host_cpus()),
    );
}
