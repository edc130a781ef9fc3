//! Serving-layer saturation at 1, 4 and 16 concurrent wire clients —
//! the perf trajectory's PR 6 point.
//!
//! Spawns the in-process TCP server over the 2k-row trajectory `emp`
//! table and drives each client count through prepared parameterized
//! executes plus a grouped aggregate, asserting every response
//! bit-identical to the single-caller `specops` oracle and error-free.
//! Writes `BENCH_pr6.json`; sample count follows `AGGPROV_BENCH_SAMPLES`
//! (CI quick mode). Output goes to `target/bench/BENCH_pr6.json` — set
//! `AGGPROV_BENCH_COMMIT=1` to write the checked-in repo-root copy when
//! committing a new trajectory point.
//!
//! Note: the recorded `speedup` is a wall-clock throughput ratio against
//! one client, so it only exceeds 1 on a host with more than one CPU;
//! `host_cpus` is recorded alongside so the trajectory stays
//! interpretable.

use aggprov_bench::parbench::host_cpus;
use aggprov_bench::serverbench::{self, measure, render_json};
use aggprov_bench::trajectory::write;
use criterion::quick_mode_samples;

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let samples = quick_mode_samples(5);
    println!(
        "== server_saturation ({samples} samples, clients = {:?}, host_cpus = {}) ==",
        serverbench::CLIENT_COUNTS,
        host_cpus()
    );
    let points = measure(samples);
    let base_qps = points.first().map(|p| p.qps()).unwrap_or(1.0);
    for p in &points {
        println!(
            "clients={:<3} queries={:<5} wall {:>10.2?}   {:>9.1} q/s   x{:.2} vs 1 client",
            p.clients,
            p.queries,
            p.elapsed,
            p.qps(),
            p.qps() / base_qps.max(1e-12)
        );
    }
    write(serverbench::PR, &render_json(&points, samples, host_cpus()));
}
