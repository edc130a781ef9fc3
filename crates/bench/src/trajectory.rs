//! The perf trajectory: reading/locating the checked-in `BENCH_pr<N>.json`
//! points, routing fresh bench output away from the working tree, and the
//! ratio comparison behind the enforcing `check_trajectory` CI gate.
//!
//! Every trajectory file records, per operator, a `speedup` ratio (hash vs
//! naive for PR 2, `threads = N` vs `threads = 1` for PR 3). Algorithmic
//! ratios (hash vs naive) are scale-free and comparable across machines;
//! *thread-scaling* ratios are not — a point recorded on an 8-core box
//! cannot be reproduced by a 2-core runner — so points that record a
//! `threads` count have their expectations clamped to the judging host's
//! parallelism first ([`clamp_to_host`]). The gate fails when a fresh
//! quick-mode measurement shows any (clamped) recorded ratio regressed by
//! more than [`MAX_REGRESSION`]×.
//!
//! Every bench writes its file through [`render`] (the shared envelope)
//! and [`ab_row`] (one A/B result row), and [`parse`] reads it back;
//! both go through the workspace's one JSON codec (`aggprov-json`).

use aggprov_json::Json;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The regression multiplier the gate tolerates: a fresh ratio may be up
/// to this many times *smaller* than the recorded one before the job
/// fails (quick-mode sampling is noisy; an order-of-magnitude loss is
/// not).
pub const MAX_REGRESSION: f64 = 2.0;

/// Opt-in for writing bench output over the checked-in trajectory files.
pub const COMMIT_ENV: &str = "AGGPROV_BENCH_COMMIT";

/// One recorded operator ratio.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Operator name.
    pub op: String,
    /// The recorded speedup ratio.
    pub speedup: f64,
    /// The thread count this ratio was measured at — a per-point
    /// `"threads"` field, or the file-level one when the point records
    /// none. `None` marks an algorithmic ratio (hash vs naive, typed vs
    /// boxed), which is scale-free and never clamped; `Some` marks a
    /// thread-scaling ratio, clamped to the judging host's CPUs by
    /// [`clamp_to_host`]. A file may mix both kinds (PR 9 does).
    pub threads: Option<usize>,
}

/// A parsed trajectory file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchFile {
    /// The PR number of the point (`"pr"`).
    pub pr: u32,
    /// The thread count of a parallel point (`"threads"`), if recorded.
    pub threads: Option<usize>,
    /// The host parallelism at measuring time (`"host_cpus"`), if
    /// recorded.
    pub host_cpus: Option<usize>,
    /// The per-operator ratios.
    pub points: Vec<Point>,
}

/// Parses a trajectory file. Unknown fields are ignored. File-level
/// metadata (`threads`, `host_cpus`) sits beside `results`; a per-point
/// `"threads"` overrides — or, for a file with no file-level count,
/// introduces — the thread count of that one point.
pub fn parse(json: &str) -> Option<BenchFile> {
    let doc = Json::parse(json).ok()?;
    let count = |v: &Json, key: &str| {
        let n = v.get(key).and_then(Json::as_int)?;
        usize::try_from(n).ok()
    };
    let threads = count(&doc, "threads");
    let points = doc.get("results")?.as_arr()?.iter().map(|row| {
        Some(Point {
            op: row.get("op")?.as_str()?.to_string(),
            speedup: row.get("speedup")?.as_f64()?,
            threads: count(row, "threads").or(threads),
        })
    });
    Some(BenchFile {
        pr: u32::try_from(doc.get("pr")?.as_int()?).ok()?,
        threads,
        host_cpus: count(&doc, "host_cpus"),
        points: points.collect::<Option<_>>()?,
    })
}

/// Renders a trajectory file: the envelope every bench shares (`bench`,
/// `pr`, `samples`, `host_cpus` and, for a thread-scaling point, a
/// file-level `threads`) around its `results` rows.
pub fn render(
    bench: &'static str,
    pr: u32,
    samples: usize,
    threads: Option<usize>,
    host_cpus: usize,
    results: impl IntoIterator<Item = Json>,
) -> String {
    let mut fields = vec![
        ("bench", Json::str(bench)),
        ("pr", Json::Int(pr.into())),
        ("samples", Json::Int(samples as i64)),
        ("host_cpus", Json::Int(host_cpus as i64)),
        ("results", Json::Arr(results.into_iter().collect())),
    ];
    fields.extend(threads.map(|t| ("threads", Json::Int(t as i64))));
    format!("{}\n", Json::obj(fields))
}

/// One A/B result row: the operator, its input size, the mean time of
/// the baseline and of the measured path under the bench's own field
/// names, and `speedup` = baseline / measured.
pub fn ab_row(
    op: &'static str,
    rows: usize,
    (base_key, base): (&'static str, Duration),
    (new_key, new): (&'static str, Duration),
) -> Json {
    let speedup = base.as_secs_f64() / new.as_secs_f64().max(1e-12);
    Json::obj([
        ("op", Json::str(op)),
        ("rows", Json::Int(rows as i64)),
        (base_key, nanos(base)),
        (new_key, nanos(new)),
        ("speedup", ratio(speedup)),
    ])
}

/// A duration as whole nanoseconds.
pub fn nanos(d: Duration) -> Json {
    Json::Int(i64::try_from(d.as_nanos()).unwrap_or(i64::MAX))
}

/// A ratio rounded to two decimals — the precision the gate judges at.
pub fn ratio(x: f64) -> Json {
    Json::Float((x * 100.0).round() / 100.0)
}

/// The repository root (two levels above the bench crate).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Writes a rendered trajectory file as `BENCH_pr<pr>.json`: to the
/// checked-in repo root only when `AGGPROV_BENCH_COMMIT=1` (committing a
/// new trajectory point), otherwise to `target/bench/` — a plain
/// `cargo bench` must not dirty the working tree.
pub fn write(pr: u32, json: &str) {
    let name = format!("BENCH_pr{pr}.json");
    let out = match std::env::var(COMMIT_ENV).as_deref() {
        Ok("1") => repo_root().join(name),
        _ => fresh_path(&name),
    };
    std::fs::create_dir_all(fresh_path("")).expect("create target/bench");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}

/// The fresh (non-committed) location of `file_name`.
pub fn fresh_path(file_name: &str) -> PathBuf {
    repo_root().join("target").join("bench").join(file_name)
}

/// All checked-in `BENCH_pr<N>.json` files at the repo root, sorted by PR
/// number.
pub fn checked_in_points() -> Vec<(u32, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(repo_root()) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if let Some(n) = name
            .strip_prefix("BENCH_pr")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u32>().ok())
        {
            found.push((n, entry.path()));
        }
    }
    found.sort_by_key(|(n, _)| *n);
    found
}

/// Clamps a *thread-scaling* point's expectations to what `host_cpus`
/// CPUs can physically deliver: a ratio recorded as 3.1× on an 8-core
/// machine is judged as "≥ `host_cpus`×" on a smaller host (ideal linear
/// scaling is the hard ceiling), so an honestly recorded multi-core point
/// does not permanently fail CI on a smaller runner — and a single-core
/// recording (ratio ≈ 1) still guards against catastrophic parallel
/// slowdowns everywhere. The decision is per point: only points carrying
/// a thread count (their own `"threads"` field, or the file-level one)
/// clamp; algorithmic ratios in the same file (e.g. hash vs naive, typed
/// vs boxed) are left untouched.
pub fn clamp_to_host(checked: &mut BenchFile, host_cpus: usize) -> bool {
    let ceiling = host_cpus.max(1) as f64;
    let mut clamped = false;
    for p in &mut checked.points {
        if p.threads.is_some() && p.speedup > ceiling {
            p.speedup = ceiling;
            clamped = true;
        }
    }
    clamped
}

/// The one-line informational note printed when a checked-in point was
/// recorded on a host with a different CPU count than the judging host.
/// Informational only — algorithmic ratios are scale-free and are still
/// enforced; the note exists so a reader comparing absolute times knows
/// the hosts differ. `None` when the counts match or were not recorded.
pub fn host_note(checked: &BenchFile, judging_cpus: usize) -> Option<String> {
    let recorded = checked.host_cpus?;
    if recorded == judging_cpus {
        return None;
    }
    Some(format!(
        "BENCH_pr{}: note: recorded on a host with {recorded} CPU(s), judging host has \
         {judging_cpus} — absolute times are not comparable",
        checked.pr
    ))
}

/// Compares a fresh measurement against a recorded point: one failure
/// line per operator whose ratio regressed more than `max_regression`×,
/// or which the fresh run did not measure at all.
pub fn compare(checked: &BenchFile, fresh: &BenchFile, max_regression: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for point in &checked.points {
        match fresh.points.iter().find(|p| p.op == point.op) {
            None => failures.push(format!(
                "BENCH_pr{}: op `{}` missing from the fresh run",
                checked.pr, point.op
            )),
            Some(f) if f.speedup * max_regression < point.speedup => failures.push(format!(
                "BENCH_pr{}: op `{}` regressed: recorded speedup {:.2}x, fresh {:.2}x \
                 (> {:.1}x regression)",
                checked.pr, point.op, point.speedup, f.speedup, max_regression
            )),
            Some(_) => {}
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "partition_parallel",
  "pr": 3,
  "samples": 5,
  "threads": 4,
  "host_cpus": 8,
  "results": [
    {"op": "join_on", "rows": 10000, "t1_ns": 100, "tn_ns": 40, "speedup": 2.50},
    {"op": "group_by", "rows": 10000, "t1_ns": 90, "tn_ns": 30, "speedup": 3.00}
  ]
}"#;

    #[test]
    fn parses_points_and_metadata() {
        let f = parse(SAMPLE).unwrap();
        assert_eq!(f.pr, 3);
        assert_eq!(f.threads, Some(4));
        assert_eq!(f.host_cpus, Some(8));
        assert_eq!(f.points.len(), 2);
        assert_eq!(f.points[0].op, "join_on");
        assert!((f.points[0].speedup - 2.5).abs() < 1e-9);
        assert!((f.points[1].speedup - 3.0).abs() < 1e-9);
        // The file-level thread count flows into every point.
        assert_eq!(f.points[0].threads, Some(4));
        assert_eq!(f.points[1].threads, Some(4));
    }

    #[test]
    fn per_point_threads_mark_only_their_own_point() {
        // The PR 9 shape: algorithmic typed-vs-boxed ratios (no file-level
        // `threads`) alongside one sharding point with a per-point count.
        let pr9 = r#"{"bench": "typed_kernels", "pr": 9, "host_cpus": 1,
  "results": [
    {"op": "filter_num", "rows": 10000, "baseline_ns": 90, "typed_ns": 10, "speedup": 9.00},
    {"op": "shard_filter_num", "rows": 200000, "threads": 4, "baseline_ns": 50, "typed_ns": 40, "speedup": 1.25},
    {"op": "join_num", "rows": 10000, "baseline_ns": 80, "typed_ns": 20, "speedup": 4.00}
  ]}"#;
        let mut f = parse(pr9).unwrap();
        assert_eq!(f.pr, 9);
        assert_eq!(f.threads, None, "no file-level thread count");
        assert_eq!(f.points[0].threads, None);
        assert_eq!(f.points[1].threads, Some(4));
        assert_eq!(f.points[2].threads, None, "per-point count must not leak");
        // Clamping on a single-core host touches only the sharding point;
        // the algorithmic 9x / 4x expectations survive untouched.
        assert!(clamp_to_host(&mut f, 1));
        assert!((f.points[0].speedup - 9.0).abs() < 1e-9);
        assert!((f.points[1].speedup - 1.0).abs() < 1e-9);
        assert!((f.points[2].speedup - 4.0).abs() < 1e-9);
    }

    #[test]
    fn parses_the_pr2_format_without_threads() {
        let pr2 = r#"{"bench": "hash_vs_naive", "pr": 2, "samples": 5,
            "results": [{"op": "union", "rows": 2000, "naive_ns": 9, "hash_ns": 3, "speedup": 350.5}]}"#;
        let f = parse(pr2).unwrap();
        assert_eq!(f.pr, 2);
        assert_eq!(f.threads, None);
        assert_eq!(f.points.len(), 1);
        assert!((f.points[0].speedup - 350.5).abs() < 1e-9);
    }

    #[test]
    fn compare_flags_regressions_and_missing_ops() {
        let checked = parse(SAMPLE).unwrap();
        let mut fresh = checked.clone();
        assert!(compare(&checked, &fresh, MAX_REGRESSION).is_empty());
        // Half the recorded ratio is exactly at the 2x boundary: allowed.
        fresh.points[0].speedup = 1.25;
        assert!(compare(&checked, &fresh, 2.0).is_empty());
        // Below the boundary: flagged, naming the op and both ratios.
        fresh.points[0].speedup = 1.24;
        let failures = compare(&checked, &fresh, 2.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("join_on"), "{}", failures[0]);
        assert!(failures[0].contains("2.50"), "{}", failures[0]);
        // A missing op is a failure too — renaming an operator must not
        // silently drop it from the gate.
        fresh.points.remove(0);
        let failures = compare(&checked, &fresh, 2.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"), "{}", failures[0]);
    }

    #[test]
    fn clamping_bounds_thread_points_by_host_parallelism() {
        // An 8-core recording (2.5x / 3.0x) judged on a 2-core host: both
        // expectations clamp to 2.0, so an honest fresh ~1.4x passes the
        // 2x gate instead of failing CI forever.
        let mut checked = parse(SAMPLE).unwrap();
        assert!(clamp_to_host(&mut checked, 2));
        assert!(checked.points.iter().all(|p| p.speedup <= 2.0));
        let mut fresh = parse(SAMPLE).unwrap();
        for p in &mut fresh.points {
            p.speedup = 1.4;
        }
        assert!(compare(&checked, &fresh, MAX_REGRESSION).is_empty());
        // A catastrophic parallel slowdown still fails on any host.
        for p in &mut fresh.points {
            p.speedup = 0.3;
        }
        let mut single = parse(SAMPLE).unwrap();
        clamp_to_host(&mut single, 1);
        assert_eq!(compare(&single, &fresh, MAX_REGRESSION).len(), 2);
        // Algorithmic points (no `threads` field) are never clamped.
        let pr2 = r#"{"pr": 2, "results": [{"op": "union", "speedup": 350.5}]}"#;
        let mut pr2 = parse(pr2).unwrap();
        assert!(!clamp_to_host(&mut pr2, 1));
        assert!((pr2.points[0].speedup - 350.5).abs() < 1e-9);
    }

    #[test]
    fn host_note_fires_only_across_differing_hosts() {
        let checked = parse(SAMPLE).unwrap();
        // Recorded on 8 CPUs, judged on 8: silent.
        assert_eq!(host_note(&checked, 8), None);
        // Judged on 1: a one-line note naming both counts, not a failure.
        let note = host_note(&checked, 1).unwrap();
        assert!(note.contains("BENCH_pr3"), "{note}");
        assert!(note.contains("8 CPU(s)"), "{note}");
        assert!(note.contains('1'), "{note}");
        assert!(!note.contains('\n'), "one line: {note}");
        // A point with no host_cpus field stays silent.
        let bare = parse(r#"{"pr": 2, "results": []}"#).unwrap();
        assert_eq!(host_note(&bare, 4), None);
    }

    #[test]
    fn typed_render_and_parse_round_trip() {
        use crate::typedbench::{render_json, TypedPoint};
        use std::time::Duration;
        let points = vec![
            TypedPoint {
                op: "filter_num",
                rows: 10_000,
                baseline: Duration::from_nanos(900),
                typed: Duration::from_nanos(100),
                threads: None,
            },
            TypedPoint {
                op: "shard_filter_num",
                rows: 200_000,
                baseline: Duration::from_nanos(500),
                typed: Duration::from_nanos(400),
                threads: Some(4),
            },
        ];
        let json = render_json(&points, 5, 1);
        let parsed = parse(&json).unwrap();
        assert_eq!(parsed.pr, crate::typedbench::PR);
        assert_eq!(parsed.threads, None, "mixed file: no file-level count");
        assert_eq!(parsed.host_cpus, Some(1));
        assert_eq!(parsed.points.len(), 2);
        assert_eq!(parsed.points[0].threads, None);
        assert_eq!(parsed.points[1].threads, Some(4));
        assert!((parsed.points[0].speedup - 9.0).abs() < 1e-9);
        assert!((parsed.points[1].speedup - 1.25).abs() < 1e-9);
    }

    /// A parsed file as one `Debug`-printed
    /// `(pr, threads, host_cpus, [(op, speedup, threads)])`.
    fn summary(f: &BenchFile) -> String {
        let points = f
            .points
            .iter()
            .map(|p| (p.op.as_str(), p.speedup, p.threads));
        let points: Vec<_> = points.collect();
        format!("{:?}", (f.pr, f.threads, f.host_cpus, points))
    }

    #[test]
    fn render_and_parse_round_trip() {
        // Every writer but the typed one (next test). The A/B writers'
        // rows all go through `ab_row`, exercised with points by the
        // partition-parallel and `hash_vs_naive` files; the server writer
        // maps its own rows.
        use crate::{batchbench, optbench, parbench, serverbench, viewbench};
        use std::time::Duration;
        let ns = Duration::from_nanos;
        let par = parbench::ParPoint {
            op: "join_on",
            rows: 10_000,
            t1: ns(1000),
            tn: ns(400),
        };
        let clients = |clients, queries| serverbench::SaturationPoint {
            clients,
            queries,
            elapsed: Duration::from_secs(1),
        };
        let pr2_row = ab_row("union", 10, ("naive_ns", ns(300)), ("hash_ns", ns(200)));
        let files = [
            parbench::render_json(&[par], 5, 4, 8),
            batchbench::render_json(&[], 5, 2),
            optbench::render_json(&[], 5, 2),
            viewbench::render_json(&[], 5, 2),
            serverbench::render_json(&[clients(1, 10), clients(4, 25)], 5, 2),
            render("hash_vs_naive", 2, 5, None, 2, [pr2_row]),
        ];
        let parsed: Vec<_> = files
            .iter()
            .map(|json| summary(&parse(json).unwrap()))
            .collect();
        let expected = r#"
(3, Some(4), Some(8), [("join_on", 2.5, Some(4))])
(4, None, Some(2), [])
(5, None, Some(2), [])
(8, None, Some(2), [])
(6, Some(4), Some(2), [("clients_1", 1.0, Some(4)), ("clients_4", 2.5, Some(4))])
(2, None, Some(2), [("union", 1.5, None)])
"#;
        assert_eq!(parsed.join("\n"), expected.trim());
    }

    /// The checked-in trajectory files as the scanner that predates the
    /// shared codec read them, one [`summary`] per file.
    const CHECKED_IN: &str = r#"
(2, None, None, [("join_on", 31.5, None), ("group_by", 27.4, None), ("union", 350.5, None), ("project", 83.0, None)])
(3, Some(4), Some(1), [("join_on", 0.98, Some(4)), ("group_by", 0.89, Some(4)), ("union", 0.52, Some(4)), ("project", 0.75, Some(4))])
(4, None, Some(1), [("filter_project_join", 2.9, None), ("filter_project", 1.49, None)])
(5, None, Some(1), [("sigma_above_join", 2.53, None), ("filtered_join_chain", 3.14, None)])
(6, Some(16), Some(1), [("clients_1", 1.0, Some(16)), ("clients_4", 1.91, Some(16)), ("clients_16", 2.55, Some(16))])
(8, None, Some(1), [("insert_churn", 176.33, None), ("delete_churn", 1.64, None)])
(9, None, Some(1), [("filter_num", 4.7, None), ("filter_num_big", 4.72, None), ("filter_str", 12.89, None), ("join_num", 4.29, None), ("join_num_big", 3.66, None), ("join_str", 9.82, None), ("shard_filter_num", 1.0, Some(1))])
"#;

    #[test]
    fn checked_in_points_parse_as_before() {
        for (pr, pinned) in [2, 3, 4, 5, 6, 8, 9]
            .into_iter()
            .zip(CHECKED_IN.trim().lines())
        {
            let path = repo_root().join(format!("BENCH_pr{pr}.json"));
            let f = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(summary(&f), pinned, "{}", path.display());
        }
    }
}
