//! The enforcing perf-trajectory gate:
//! `cargo run -p aggprov-bench --bin check_trajectory`.
//!
//! Compares fresh quick-mode bench results against the checked-in
//! `BENCH_pr<N>.json` trajectory points and **fails** (exit code 1) when
//! any recorded speedup ratio regressed by more than
//! [`MAX_REGRESSION`]× —
//! replacing the old `git diff --stat … || true` no-op.
//!
//! Protocol:
//!
//! * the **newest** checked-in point is always enforced. Its fresh
//!   counterpart is read from `target/bench/` (written by a preceding
//!   `cargo bench`); the benches listed in [`INLINE`] can also be
//!   measured by the gate itself, so it works as a single standalone
//!   command;
//! * **older** checked-in points are enforced whenever a fresh counterpart
//!   exists in `target/bench/` (CI runs their benches first), so the PR 2
//!   hash-vs-naive ratios stay guarded too;
//! * ratios are scale-free and compared with a 2× tolerance, which rides
//!   out quick-mode sampling noise but not an order-of-magnitude loss.

use aggprov_bench::parbench::host_cpus;
use aggprov_bench::trajectory::{
    checked_in_points, clamp_to_host, compare, fresh_path, host_note, parse, BenchFile,
    MAX_REGRESSION,
};
use aggprov_bench::{batchbench, optbench, parbench, serverbench, typedbench, viewbench};
use criterion::quick_mode_samples;

/// A point the gate can measure itself: its PR, its bench name, and a
/// measure-and-render at a sample count (the recorded point supplies
/// the thread count of a thread-scaling bench).
type Inline = (u32, &'static str, fn(usize, &BenchFile) -> String);

/// The self-measuring points, so a bare `cargo run --bin
/// check_trajectory` enforces them with no preceding bench step. A new
/// trajectory point is one row here.
const INLINE: [Inline; 6] = [
    (optbench::PR, "opt_pipeline", |samples, _| {
        optbench::render_json(&optbench::measure(samples), samples, host_cpus())
    }),
    (viewbench::PR, "view_maintenance", |samples, _| {
        viewbench::render_json(&viewbench::measure(samples), samples, host_cpus())
    }),
    (typedbench::PR, "typed_kernels", |samples, _| {
        typedbench::render_json(&typedbench::measure(samples), samples, host_cpus())
    }),
    (batchbench::PR, "batch_pipeline", |samples, _| {
        batchbench::render_json(&batchbench::measure(samples), samples, host_cpus())
    }),
    (serverbench::PR, "server_saturation", |samples, _| {
        serverbench::render_json(&serverbench::measure(samples), samples, host_cpus())
    }),
    (parbench::PR, "partition_parallel", |samples, recorded| {
        let threads = recorded.threads.unwrap_or(4);
        let points = parbench::measure(samples, threads);
        parbench::render_json(&points, samples, threads, host_cpus())
    }),
];

fn read_bench_file(path: &std::path::Path) -> Option<BenchFile> {
    let text = std::fs::read_to_string(path).ok()?;
    parse(&text)
}

/// Measures `pr` inline (quick mode) if [`INLINE`] lists it.
fn inline_measure(pr: u32, recorded: &BenchFile) -> Option<BenchFile> {
    let (_, name, measure) = INLINE.iter().find(|(p, _, _)| *p == pr)?;
    let samples = quick_mode_samples(5);
    let threads = recorded
        .threads
        .map_or_else(String::new, |t| format!(", threads = {t}"));
    println!("check_trajectory: measuring {name} inline ({samples} samples{threads})");
    Some(parse(&measure(samples, recorded)).expect("self-rendered JSON parses"))
}

fn main() {
    let checked = checked_in_points();
    let Some((newest_pr, _)) = checked.last() else {
        eprintln!("check_trajectory: no checked-in BENCH_pr<N>.json found at the repo root");
        std::process::exit(1);
    };
    let newest_pr = *newest_pr;
    let mut failures: Vec<String> = Vec::new();
    let mut compared = 0usize;

    for (pr, path) in &checked {
        let Some(mut recorded) = read_bench_file(path) else {
            failures.push(format!("{}: unreadable trajectory point", path.display()));
            continue;
        };
        // A point measured on a different core count is still judged
        // (algorithmic ratios are scale-free), but say so: a reader
        // comparing absolute numbers should know the hosts differ.
        if let Some(note) = host_note(&recorded, host_cpus()) {
            println!("{note}");
        }
        // Thread-scaling ratios do not transfer across core counts: judge
        // them against what this host can physically deliver.
        if clamp_to_host(&mut recorded, host_cpus()) {
            println!(
                "BENCH_pr{pr}: thread-scaling expectations clamped to this host's \
                 {} CPU(s) (recorded on host_cpus = {})",
                host_cpus(),
                recorded
                    .host_cpus
                    .map_or_else(|| "?".to_string(), |n| n.to_string())
            );
        }
        let fresh_file = fresh_path(&format!("BENCH_pr{pr}.json"));
        // A fresh thread-scaling run is only comparable if it used the
        // recorded thread count (a threads=1 run of the bench, e.g. under
        // the CI test matrix env, would read as a spurious regression).
        let fresh = match read_bench_file(&fresh_file) {
            Some(f) if f.threads == recorded.threads => Some(f),
            Some(f) => {
                println!(
                    "BENCH_pr{pr}: fresh run used threads = {:?}, recorded point used {:?} \
                     — not comparable, re-measuring",
                    f.threads, recorded.threads
                );
                None
            }
            None => None,
        };
        let fresh = match fresh.or_else(|| inline_measure(*pr, &recorded)) {
            Some(f) => f,
            None if *pr == newest_pr => {
                failures.push(format!(
                    "BENCH_pr{pr}: newest trajectory point has no comparable fresh run; \
                     run `cargo bench -p aggprov-bench` first"
                ));
                continue;
            }
            None => {
                println!(
                    "BENCH_pr{pr}: no comparable fresh run in target/bench/, \
                     skipped (not newest)"
                );
                continue;
            }
        };
        compared += 1;
        let found = compare(&recorded, &fresh, MAX_REGRESSION);
        if found.is_empty() {
            println!(
                "BENCH_pr{pr}: OK ({} ratio{} within {MAX_REGRESSION}x of the recorded point)",
                recorded.points.len(),
                if recorded.points.len() == 1 { "" } else { "s" }
            );
        }
        failures.extend(found);
    }

    if compared == 0 {
        failures.push("check_trajectory: no trajectory point could be compared".to_string());
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }
    println!(
        "perf trajectory OK ({compared} point{} enforced)",
        if compared == 1 { "" } else { "s" }
    );
}
