//! End-to-end benchmark of aggprov.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <adhoc_ground|whatif_paper|serve_rw|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a seeded closed loop driven through the public API:
//! `Database`/`Prepared`/`ResultSet` in-process, or `aggprov_server::Client`
//! against an in-process `Server` on loopback. Every result is checked
//! (a gate before timing, then every timed op's output); a wrong result
//! exits non-zero. A run measures for at least `--seconds`, until each
//! latency class has the samples its p95 needs, and to the end of the
//! op stream's current block. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it spends half its time untraced and half
//! traced, and prints the per-layer metrics plus the tracing overhead,
//! writing every span to `.bench_trace/<workload>-seed<n>.jsonl`.
//! `--workload all` runs each workload in a process of its own.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod adhoc;
mod common;
mod host;
mod serve;
mod stats;
mod trace;
mod whatif;

use common::Outcome;
use stats::{mean, median, percentile, MIN_SAMPLES_FOR_P95};
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["adhoc_ground", "whatif_paper", "serve_rw"];

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("secondary_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every traced run. A layer a
/// workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.parse_ms", "ms"),
    ("plan.lower_ms", "ms"),
    ("opt.optimize_ms", "ms"),
    ("opt.products_left", "count"),
    ("database.prepare_new_ms", "ms"),
    ("database.prepare_repeat_ms", "ms"),
    ("exec.execute_ms.ad_filter", "ms"),
    ("exec.execute_ms.ad_group", "ms"),
    ("exec.execute_ms.ad_join", "ms"),
    ("exec.execute_ms.ad_having", "ms"),
    ("exec.execute_ms.ad_except", "ms"),
    ("exec.execute_ms.wi_comma_join", "ms"),
    ("exec.execute_ms.wi_having", "ms"),
    ("exec.execute_ms.wi_nested", "ms"),
    ("exec.execute_ms.wi_except", "ms"),
    ("exec.bag_execute_ms.ad_filter", "ms"),
    ("exec.bag_execute_ms.ad_group", "ms"),
    ("exec.bag_execute_ms.ad_join", "ms"),
    ("exec.bag_execute_ms.ad_having", "ms"),
    ("exec.bag_execute_ms.ad_except", "ms"),
    ("prov_overhead_x", "x"),
    ("batch.to_chunk_ms", "ms"),
    ("batch.to_relation_ms", "ms"),
    ("result.render_ms", "ms"),
    ("result.render_bytes", "bytes"),
    ("result.rows_out", "count"),
    ("km.annotation_size", "count"),
    ("result.delete_tokens_ms", "ms"),
    ("result.valuate_ms", "ms"),
    ("result.collapse_ms", "ms"),
    ("result.clearance_ms", "ms"),
    ("server.roundtrip_ms.execute", "ms"),
    ("server.roundtrip_ms.view", "ms"),
    ("server.roundtrip_ms.refresh", "ms"),
    ("server.roundtrip_ms.sql", "ms"),
    ("server.roundtrip_ms.db_delete_tokens", "ms"),
    ("json.decode_ms", "ms"),
    ("json.encode_ms", "ms"),
    ("server.response_bytes", "bytes"),
    ("server.engine_ms", "ms"),
    ("server.wire_overhead_ms", "ms"),
    ("database.insert_ms", "ms"),
    ("view.insert_maintain_ms", "ms"),
    ("view.delete_tokens_ms", "ms"),
    ("trace.query_p50_overhead_ms", "ms"),
    ("trace.secondary_p50_overhead_ms", "ms"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let origin = Instant::now();
    let outcome = match args.workload.as_str() {
        "adhoc_ground" => adhoc::run(args.seed, args.seconds, args.trace, origin),
        "whatif_paper" => whatif::run(args.seed, args.seconds, args.trace, origin),
        "serve_rw" => serve::run(args.seed, args.seconds, args.trace, origin),
        _ => unreachable!("checked by parse_args"),
    };
    match outcome {
        Ok(outcome) => report(&args, outcome),
        Err(e) => {
            eprintln!(
                "e2ebench: {}: WRONG RESULT OR FAILED RUN: {e}",
                args.workload
            );
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a child process of its own, so peak RSS and
/// set-up time belong to one workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn report(args: &Args, o: Outcome) -> ExitCode {
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {}", host::facts());
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let (attempted, failed);
    match &o.layers {
        None => {
            let p = &o.phase;
            attempted = p.attempted;
            failed = p.failed;
            let (nq, ns) = (p.query_ms.len(), p.secondary_ms.len());
            let values = [
                (median(&o.setup_s), o.setup_s.len()),
                (p.ops_per_s, nq + ns),
                (percentile(&p.query_ms, 0.5), nq),
                (percentile(&p.query_ms, 0.95), nq),
                (percentile(&p.secondary_ms, 0.5), ns),
                (percentile(&p.secondary_ms, 0.95), ns),
                (o.peak_rss_mb, 1),
            ];
            for ((name, unit), (value, n)) in END_TO_END.iter().zip(values) {
                let note = if name.ends_with("_p95_ms") && n < MIN_SAMPLES_FOR_P95 {
                    " (fewer than 10 samples beyond the p95)"
                } else {
                    ""
                };
                println!("{name} = {value:.4} {unit} (n={n}){note}");
                metrics.push((name, value, unit));
            }
            println!(
                "error_rate = {:.4} ratio (n={attempted})",
                failed as f64 / attempted.max(1) as f64
            );
        }
        Some((traced, tracer)) => {
            attempted = o.phase.attempted + traced.attempted;
            failed = o.phase.failed + traced.failed;
            let times = tracer.self_times_ms();
            let counts = tracer.counts();
            for (name, unit) in PER_LAYER {
                let (value, n) = match *name {
                    "trace.query_p50_overhead_ms" => (
                        percentile(&traced.query_ms, 0.5) - percentile(&o.phase.query_ms, 0.5),
                        traced.query_ms.len(),
                    ),
                    "trace.secondary_p50_overhead_ms" => (
                        percentile(&traced.secondary_ms, 0.5)
                            - percentile(&o.phase.secondary_ms, 0.5),
                        traced.secondary_ms.len(),
                    ),
                    _ => times
                        .get(*name)
                        .or_else(|| counts.get(*name))
                        .map_or((0.0, 0), |v| (mean(v), v.len())),
                };
                println!("{name} = {value:.6} {unit} (n={n})");
                metrics.push((name, value, unit));
            }
            if let Err(e) = write_trace(args, tracer) {
                eprintln!("e2ebench: writing the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    ExitCode::SUCCESS
}

fn write_trace(args: &Args, tracer: &trace::Tracer) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_jsonl(&mut out)?;
    std::io::Write::flush(&mut out)?;
    println!("# spans written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggprov_server::Json;

    /// `(name, unit)` of every entry of one metric list in BENCHMARK.json.
    fn listed(key: &str) -> Vec<(String, String)> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
    }
}
