//! The serving-layer saturation measurement behind the
//! `server_saturation` bench and the `check_trajectory` gate: drives
//! `N ∈ {1, 4, 16}` concurrent wire-protocol clients against an
//! in-process TCP server and renders the `BENCH_pr6.json` trajectory
//! point (queries/sec per client count, `host_cpus` recorded).
//!
//! Every client independently prepares statements against its own pinned
//! epoch snapshot and executes them over the socket; before any timing,
//! each response is checked **bit-identical** (rendered cells and
//! annotations) to a single-caller `specops` §4.3 oracle composition, and
//! any error response fails the measurement — so the recorded numbers are
//! by construction numbers for *correct* concurrent executions.

use crate::fixtures::{dept_table, emp_table, DEPTS};
use crate::trajectory::{nanos, ratio, render};
use aggprov_algebra::monoid::MonoidKind;
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::{specops, Prov, Value};
use aggprov_engine::ProvDb;
use aggprov_server::{Client, Json, Server};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The PR number of the trajectory point this module measures.
pub const PR: u32 = 6;

/// The client counts the saturation sweep drives.
pub const CLIENT_COUNTS: [usize; 3] = [1, 4, 16];

/// Rows in the benched `emp` table (smaller than the engine trajectory
/// workloads: every row crosses the wire rendered).
pub const ROWS: usize = 2_000;

/// One client-count measurement.
#[derive(Debug)]
pub struct SaturationPoint {
    /// Concurrent client connections.
    pub clients: usize,
    /// Total queries executed across all clients.
    pub queries: usize,
    /// Wall-clock for the whole run (connect excluded, barrier to join).
    pub elapsed: Duration,
}

impl SaturationPoint {
    /// Aggregate throughput in queries per second.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// The wire rendering of a relation's rows, built exactly as the server
/// renders them — the oracle side of the bit-identical check.
fn rendered_rows(rel: &MKRel<Prov>) -> Json {
    let rows = rel
        .iter()
        .map(|(tuple, annotation)| {
            let values: Vec<Json> = tuple
                .values()
                .iter()
                .map(|v| Json::str(v.to_string()))
                .collect();
            let annotation = Json::str(annotation.to_string());
            Json::obj([("values", Json::Arr(values)), ("annotation", annotation)])
        })
        .collect();
    Json::Arr(rows)
}

/// The per-department oracle for `SELECT sal FROM emp WHERE dept = $1`,
/// composed from the literal §4.3 operators.
fn dept_oracle(emp: &MKRel<Prov>, dept: i64) -> Json {
    let selected = ops::select_eq(emp, "dept", &Value::int(dept)).expect("oracle select");
    rendered_rows(&specops::project(&selected, &["sal"]).expect("oracle project"))
}

/// The oracle for `SELECT dept, SUM(sal) AS mass FROM emp GROUP BY dept`.
fn grouped_oracle(emp: &MKRel<Prov>) -> Json {
    let grouped = specops::group_by(
        emp,
        &["dept"],
        &[AggSpec {
            kind: MonoidKind::Sum,
            attr: "sal",
            out: "mass",
        }],
    )
    .expect("oracle group");
    rendered_rows(&specops::project(&grouped, &["dept", "mass"]).expect("oracle project"))
}

/// Runs the saturation sweep: for each client count, `queries_per_client`
/// parameterized executes (plus one grouped aggregate) per client, all
/// started on a barrier. Panics on any error response or any response
/// that differs from the specops oracle.
pub fn measure(samples: usize) -> Vec<SaturationPoint> {
    let emp = emp_table(ROWS);
    let queries_per_client = samples.max(1) * 4;

    // Oracles for the parameter rotation, computed once, single-caller.
    let param_depts: Vec<i64> = (0..8).map(|d| d % DEPTS).collect();
    let dept_oracles: Arc<Vec<Json>> =
        Arc::new(param_depts.iter().map(|d| dept_oracle(&emp, *d)).collect());
    let grouped = Arc::new(grouped_oracle(&emp));

    let mut db = ProvDb::new();
    db.register("emp", emp);
    db.register("dim", dept_table());
    let server = Server::bind_with("127.0.0.1:0", db).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let serve = std::thread::spawn(move || server.serve().expect("serve"));

    let mut points = Vec::new();
    for &clients in &CLIENT_COUNTS {
        // Connect and prepare outside the timed window: saturation
        // measures steady-state execute throughput.
        let barrier = Arc::new(Barrier::new(clients + 1));
        let workers: Vec<_> = (0..clients)
            .map(|worker| {
                let addr = addr.clone();
                let barrier = Arc::clone(&barrier);
                let dept_oracles = Arc::clone(&dept_oracles);
                let grouped = Arc::clone(&grouped);
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr.as_str()).expect("connect");
                    let by_dept = c
                        .prepare("SELECT sal FROM emp WHERE dept = $1")
                        .expect("prepare");
                    let mass = c
                        .prepare("SELECT dept, SUM(sal) AS mass FROM emp GROUP BY dept")
                        .expect("prepare grouped");
                    barrier.wait();
                    for i in 0..queries_per_client {
                        let which = (worker + i) % dept_oracles.len();
                        let d = (which as i64) % DEPTS;
                        let out = c
                            .execute(by_dept, vec![Json::Int(d)])
                            .expect("execute must not error under saturation");
                        assert_eq!(
                            out.get("rows"),
                            Some(&dept_oracles[which]),
                            "client {worker} diverged from the specops oracle"
                        );
                    }
                    let out = c.execute(mass, vec![]).expect("grouped execute");
                    assert_eq!(
                        out.get("rows"),
                        Some(grouped.as_ref()),
                        "client {worker} grouped result diverged from the specops oracle"
                    );
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for w in workers {
            w.join().expect("client thread");
        }
        let elapsed = start.elapsed();
        points.push(SaturationPoint {
            clients,
            queries: clients * (queries_per_client + 1),
            elapsed,
        });
    }

    Client::connect(addr.as_str())
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    serve.join().expect("serve thread");
    points
}

/// Renders the `BENCH_pr6.json` trajectory point. The recorded `speedup`
/// per client count is the throughput ratio against the single-client
/// run; the top-level `threads` field marks this as a scaling point so
/// the gate clamps expectations to the judging host's parallelism, and
/// `host_cpus` records what the measuring machine had.
pub fn render_json(points: &[SaturationPoint], samples: usize, host_cpus: usize) -> String {
    let base_qps = points
        .first()
        .map(SaturationPoint::qps)
        .unwrap_or(1.0)
        .max(1e-12);
    let max_clients = points.iter().map(|p| p.clients).max().unwrap_or(1);
    let rows = points.iter().map(|p| {
        Json::obj([
            ("op", Json::str(format!("clients_{}", p.clients))),
            ("rows", Json::Int(ROWS as i64)),
            ("queries", Json::Int(p.queries as i64)),
            ("elapsed_ns", nanos(p.elapsed)),
            ("qps", ratio(p.qps())),
            ("speedup", ratio(p.qps() / base_qps)),
        ])
    });
    render(
        "server_saturation",
        PR,
        samples,
        Some(max_clients),
        host_cpus,
        rows,
    )
}
