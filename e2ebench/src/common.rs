//! What every workload shares: set-up timing, the timed window and its
//! phases, per-phase tallies, the gate's query check, the planner probe
//! of traced runs, and result helpers (digests, sizes, plan shape).

use crate::stats::{self, MIN_SAMPLES_FOR_P95};
use crate::trace::Tracer;
use aggprov_algebra::domain::Const;
use aggprov_algebra::hom::Valuation;
use aggprov_algebra::semiring::Nat;
use aggprov_core::eval::read_off_bag;
use aggprov_core::ops::batch::Chunk;
use aggprov_core::Prov;
use aggprov_engine::opt::{self, Catalog};
use aggprov_engine::{parser, plan, Plan, ResultSet};
use aggprov_krel::reference::BagRel;
use aggprov_krel::ColumnLayout;
use std::time::{Duration, Instant};

/// When a timed window may close.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    start: Instant,
    seconds: f64,
    /// Samples each latency class needs before the window may close.
    min_samples: usize,
}

/// Hard cap on one window, so a run stays within its time limit even
/// when a class is slow to reach its sample floor.
const MAX_WINDOW_S: f64 = 120.0;

impl Window {
    pub fn open(seconds: f64, min_samples: usize) -> Window {
        Window {
            start: Instant::now(),
            seconds,
            min_samples,
        }
    }

    /// Whether the callers should stop, given each class's sample count.
    pub fn done(&self, counts: &[usize]) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        if elapsed >= MAX_WINDOW_S {
            return true;
        }
        elapsed >= self.seconds && counts.iter().all(|&n| n >= self.min_samples)
    }
}

/// The sample floor of an untraced run: enough for a p95 with ten
/// samples beyond it.
pub const UNTRACED_FLOOR: usize = MIN_SAMPLES_FOR_P95;
/// The traced half-runs only report medians.
pub const TRACED_FLOOR: usize = 20;

/// The tallies of one timed phase.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Read latencies (ms): request to rendered or decoded result.
    pub query_ms: Vec<f64>,
    /// Latencies (ms) of the workload's second op class.
    pub secondary_ms: Vec<f64>,
    /// Ops attempted and failed (an op that errors counts as failed).
    pub attempted: u64,
    pub failed: u64,
    /// Σ over callers of ops completed ÷ time that caller spent in
    /// timed ops.
    pub ops_per_s: f64,
}

impl Phase {
    /// Merges another caller's tallies (rates of concurrent callers add).
    pub fn merge(&mut self, other: Phase) {
        self.query_ms.extend(other.query_ms);
        self.secondary_ms.extend(other.secondary_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.ops_per_s += other.ops_per_s;
    }
}

/// One caller's clock: sums the time it spends inside timed ops, so its
/// own bookkeeping (digests, logs) does not count as the system's time.
#[derive(Debug, Default)]
pub struct Busy {
    spent: Duration,
    ops: u64,
}

impl Busy {
    pub fn add(&mut self, d: Duration) {
        self.spent += d;
        self.ops += 1;
    }

    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.spent.as_secs_f64().max(1e-9)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Σ `Km::size` over output annotations plus Σ `Value::size` over
/// output cells: the representation size interrogation has to walk.
pub fn annotation_size(out: &ResultSet<Prov>) -> usize {
    out.iter()
        .map(|(t, k)| k.size() + t.values().iter().map(|v| v.size()).sum::<usize>())
        .sum()
}

/// `Product` nodes left in an optimized plan (cross products the
/// planner did not turn into joins).
pub fn products(plan: &Plan) -> usize {
    match plan {
        Plan::Scan { .. } => 0,
        Plan::Product { left, right, .. } => 1 + products(left) + products(right),
        Plan::Join { left, right, .. } | Plan::SetOp { left, right, .. } => {
            products(left) + products(right)
        }
        Plan::Derived { input, .. }
        | Plan::Filter { input, .. }
        | Plan::AddUnitColumn { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Project { input, .. } => products(input),
    }
}

/// Order-independent digest of plain bag rows.
pub fn bag_digest(rows: &[Vec<Const>]) -> u64 {
    stats::digest_rows(
        rows.iter()
            .map(|r| {
                r.iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect(),
    )
}

/// Digest of an ℕ-annotated result read off as a plain bag (each tuple
/// repeated by its multiplicity), comparable with [`bag_digest`] of a
/// `krel::reference::BagRel`.
pub fn nat_digest(out: &ResultSet<Nat>) -> Result<u64, String> {
    let bag: BagRel = read_off_bag(out.relation()).map_err(|e| e.to_string())?;
    Ok(bag_digest(&bag.rows))
}

/// Everything one workload run yields.
#[derive(Debug)]
pub struct Outcome {
    /// Each set-up's wall time (s).
    pub setup_s: Vec<f64>,
    /// The untraced phase: the end-to-end figures.
    pub phase: Phase,
    /// Traced runs only: the traced phase and its spans.
    pub layers: Option<(Phase, Tracer)>,
    pub peak_rss_mb: f64,
}

/// Set-ups timed at each of three points of a run: before the gate,
/// after it, and after the timed window. The host's CPU speed drifts and
/// a short burst of set-ups can sit on one slow or fast CPU, so the
/// reported median draws on the whole run, like the window's figures.
pub const SETUPS_PER_POINT: usize = 7;

/// Times [`SETUPS_PER_POINT`] set-ups into `times`, each dropped before
/// the next starts, and returns the last.
pub fn time_setups<T>(
    times: &mut Vec<f64>,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..SETUPS_PER_POINT {
        drop(last.take());
        let t0 = Instant::now();
        let built = f()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok(last.expect("SETUPS_PER_POINT > 0"))
}

/// The gate's check of one query, before any timing: the optimized
/// plan's result must equal `prepare_unoptimized`'s, and its ℕ-collapsed
/// form (every token ↦ 1) the reference engine's bag `expected`. Returns
/// the digest of the rendered result.
pub fn gate_query(
    db: &aggprov_engine::ProvDb,
    sql: &str,
    args: &[Const],
    expected: &[Vec<Const>],
) -> Result<u64, String> {
    let run = |stmt: aggprov_krel::Result<aggprov_engine::Prepared<'_, Prov>>| {
        stmt.and_then(|s| s.execute_with(args))
            .map_err(|e| format!("gate {sql} {args:?}: {e}"))
    };
    let opt = run(db.prepare(sql))?;
    let unopt = run(db.prepare_unoptimized(sql))?;
    let digest = stats::digest_rendered(&opt.to_string());
    if digest != stats::digest_rendered(&unopt.to_string()) {
        return Err(format!("gate {sql} {args:?}: optimized ≠ unoptimized"));
    }
    let nat = opt
        .valuate(&Valuation::<Nat>::ones())
        .collapse()
        .map_err(|e| e.to_string())?;
    if nat_digest(&nat)? != bag_digest(expected) {
        return Err(format!(
            "gate {sql} {args:?}: ℕ-collapsed result ≠ reference bag"
        ));
    }
    Ok(digest)
}

/// Traced-run probe of one SQL text, outside any op's latency: the
/// planner stages one by one (`parser::parse_query`, `plan::lower_query`,
/// `opt::optimize` against `Catalog::of_plan`), then the `Relation` ⇄
/// `Chunk` conversions of each scanned base table.
pub fn probe_planner(
    db: &aggprov_engine::ProvDb,
    sql: &str,
    tr: &mut Tracer,
) -> Result<(), String> {
    let ast = tr
        .time("parser.parse_ms", || parser::parse_query(sql))
        .map_err(|e| e.to_string())?;
    let lowered = tr
        .time("plan.lower_ms", || plan::lower_query(db, &ast))
        .map_err(|e| e.to_string())?;
    let optimized = tr.time("opt.optimize_ms", || {
        opt::optimize(&lowered.plan, &Catalog::of_plan(db, &lowered.plan))
    });
    std::hint::black_box(&optimized);
    for table in lowered.plan.scanned_tables() {
        let rel = db.table(&table).map_err(|e| e.to_string())?;
        let chunk = tr.time("batch.to_chunk_ms", || {
            Chunk::from_relation_with(rel, &ColumnLayout::typed())
        });
        let back = tr
            .time("batch.to_relation_ms", || chunk.into_relation())
            .map_err(|e| e.to_string())?;
        std::hint::black_box(&back);
    }
    Ok(())
}

/// Runs one stage of a run and reports its wall time on standard error.
pub fn stage<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    eprintln!("# stage {name}: {:.2} s", t0.elapsed().as_secs_f64());
    out
}

/// Runs a workload's timed phases: one untraced window, or, in a traced
/// run, an untraced half and then a traced half (the difference between
/// the two is the tracing overhead). `phase` continues the workload's
/// op streams from one call to the next.
pub fn phases(
    seconds: f64,
    trace: bool,
    origin: Instant,
    mut phase: impl FnMut(Window, &mut Tracer) -> Result<Phase, String>,
) -> Result<(Phase, Option<(Phase, Tracer)>), String> {
    let mut off = Tracer::new(false, origin);
    if !trace {
        let p = stage("window", || {
            phase(Window::open(seconds, UNTRACED_FLOOR), &mut off)
        })?;
        return Ok((p, None));
    }
    let half = seconds / 2.0;
    let untraced = stage("window", || {
        phase(Window::open(half, TRACED_FLOOR), &mut off)
    })?;
    let mut on = Tracer::new(true, origin);
    let traced = stage("window", || {
        phase(Window::open(half, TRACED_FLOOR), &mut on)
    })?;
    Ok((untraced, Some((traced, on))))
}
