//! `serve_rw`: reads beside writes over loopback.
//!
//! An in-process `Server` on `127.0.0.1:0` serves Figure 1 scaled to 100
//! departments × 20 employees, with `mass = SELECT dept, SUM(sal) AS
//! mass FROM emp GROUP BY dept` materialized. Two `Client` connections
//! run closed loops side by side:
//!
//! * a reader executes the prepared `SELECT sal FROM emp WHERE dept = $1`
//!   (nine reads in ten), and once in ten reads the view `mass` and then
//!   `refresh`es its snapshot to the newest epoch;
//! * a writer sends single-row `INSERT … PROVENANCE` statements (nine
//!   writes in ten) and, once in ten, a five-token `db_delete_tokens`.
//!
//! Reads are the query class, acknowledged writes the secondary class.
//! Afterwards the writer's acknowledged writes are replayed in-process on
//! a mirror database, and every response must equal the mirror's result
//! at the epoch the reader had pinned.

use crate::common::{self, ms, Busy, Phase, Window};
use crate::stats::{digest_rows, weighted_block, Rng};
use crate::trace::Tracer;
use aggprov_algebra::domain::Const;
use aggprov_core::Prov;
use aggprov_engine::{ProvDb, ResultSet};
use aggprov_server::{Client, Json, Server, ShutdownHandle};
use aggprov_workloads::org::{org_database, OrgParams};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const DEPARTMENTS: usize = 100;
pub const EMPLOYEES_PER_DEPT: usize = 20;
const VIEW: &str = "mass";
const VIEW_SQL: &str = "SELECT dept, SUM(sal) AS mass FROM emp GROUP BY dept";
const POINT_SQL: &str = "SELECT sal FROM emp WHERE dept = $1";
/// Tokens per `db_delete_tokens`.
const DELETE_TOKENS: usize = 5;
/// Op ids of the writer's spans start here (the reader's start at 1).
const WRITER_OPS: u64 = 1 << 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Read {
    /// The prepared point read for department `d{0}`.
    Point(usize),
    /// The view read (followed by `refresh`).
    View,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Write {
    /// `INSERT INTO emp VALUES (id, 'd{dept}', sal) PROVENANCE w{n}`.
    Insert { n: usize, dept: usize, sal: i64 },
    /// `db_delete_tokens` of these tokens.
    Delete(Vec<String>),
}

impl Write {
    fn sql(&self) -> Option<String> {
        match self {
            Write::Insert { n, dept, sal } => Some(format!(
                "INSERT INTO emp VALUES ({}, 'd{dept}', {sal}) PROVENANCE w{n}",
                1_000_000 + n
            )),
            Write::Delete(_) => None,
        }
    }
}

/// The reader's seeded stream: blocks of nine point reads and one view
/// read, shuffled.
#[derive(Debug)]
pub struct Reads {
    rng: Rng,
    block: Vec<bool>,
}

impl Reads {
    pub fn new(seed: u64) -> Reads {
        Reads {
            rng: Rng::derive(seed, 0x4ead),
            block: Vec::new(),
        }
    }

    /// True between two blocks. Windows close only here, so every run
    /// holds whole blocks and the mix is exact.
    pub fn at_block_start(&self) -> bool {
        self.block.is_empty()
    }
}

impl Iterator for Reads {
    type Item = Read;

    fn next(&mut self) -> Option<Read> {
        if self.block.is_empty() {
            self.block = weighted_block(&mut self.rng, &[(false, 9), (true, 1)]);
        }
        Some(if self.block.pop()? {
            Read::View
        } else {
            Read::Point(self.rng.below(DEPARTMENTS))
        })
    }
}

/// The writer's seeded stream: blocks of nine inserts and one deletion,
/// shuffled. A deletion draws each token from the original employees
/// or, half the time, from the rows inserted so far.
#[derive(Debug)]
pub struct Writes {
    rng: Rng,
    block: Vec<bool>,
    inserted: usize,
}

impl Writes {
    pub fn new(seed: u64) -> Writes {
        Writes {
            rng: Rng::derive(seed, 0x3417e),
            block: Vec::new(),
            inserted: 0,
        }
    }

    /// True between two blocks. Windows close only here, so every run
    /// holds whole blocks and the mix is exact.
    pub fn at_block_start(&self) -> bool {
        self.block.is_empty()
    }
}

impl Iterator for Writes {
    type Item = Write;

    fn next(&mut self) -> Option<Write> {
        if self.block.is_empty() {
            self.block = weighted_block(&mut self.rng, &[(false, 9), (true, 1)]);
        }
        if self.block.pop()? {
            let tokens = (0..DELETE_TOKENS)
                .map(|_| {
                    if self.inserted > 0 && self.rng.below(2) == 0 {
                        format!("w{}", self.rng.below(self.inserted))
                    } else {
                        format!("e{}", self.rng.below(DEPARTMENTS * EMPLOYEES_PER_DEPT))
                    }
                })
                .collect();
            Some(Write::Delete(tokens))
        } else {
            let n = self.inserted;
            self.inserted += 1;
            Some(Write::Insert {
                n,
                dept: self.rng.below(DEPARTMENTS),
                sal: self.rng.range(10, 200),
            })
        }
    }
}

fn org_params(seed: u64) -> OrgParams {
    OrgParams {
        departments: DEPARTMENTS,
        employees_per_dept: EMPLOYEES_PER_DEPT,
        salary_range: (10, 200),
        seed,
    }
}

/// The loaded database with the view materialized.
fn database(seed: u64) -> Result<ProvDb, String> {
    let (mut db, _) = org_database(org_params(seed));
    db.materialize(VIEW, VIEW_SQL).map_err(|e| e.to_string())?;
    Ok(db)
}

/// A running server and its two connections. Dropping it stops the
/// server and waits for its threads.
pub struct Serving {
    reader: Client,
    writer: Client,
    point: i64,
    shutdown: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Drop for Serving {
    fn drop(&mut self) {
        self.shutdown.stop();
        if let Some(thread) = self.thread.take() {
            // A server that failed has nothing left to stop; the run's
            // checks report any wrong answer it gave.
            let _ = thread.join();
        }
    }
}

/// Data generation, load, `materialize`, bind, both connects and the
/// reader's prepare: the timed set-up.
pub fn setup(seed: u64) -> Result<Serving, String> {
    let db = database(seed)?;
    let server = Server::bind_with("127.0.0.1:0", db).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.serve());
    let mut serving = Serving {
        reader: Client::connect(addr).map_err(|e| e.to_string())?,
        writer: Client::connect(addr).map_err(|e| e.to_string())?,
        point: 0,
        shutdown,
        thread: Some(thread),
    };
    serving.point = serving
        .reader
        .prepare(POINT_SQL)
        .map_err(|e| e.to_string())?;
    Ok(serving)
}

/// Rows of a wire response, rendered `v1 | v2 … @ annotation`.
fn wire_rows(resp: &Json) -> Result<Vec<String>, String> {
    let rows = resp
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("response without rows")?;
    rows.iter()
        .map(|row| {
            let values: Vec<&str> = row
                .get("values")
                .and_then(Json::as_arr)
                .ok_or("row without values")?
                .iter()
                .map(|v| v.as_str().ok_or("non-string cell"))
                .collect::<Result<_, _>>()?;
            let ann = row
                .get("annotation")
                .and_then(Json::as_str)
                .ok_or("row without annotation")?;
            Ok(format!("{} @ {ann}", values.join(" | ")))
        })
        .collect()
}

/// The same rendering of an in-process result.
fn local_rows(out: &ResultSet<Prov>) -> Vec<String> {
    out.rows()
        .map(|row| {
            let values: Vec<String> = (0..out.schema().arity())
                .map(|i| row.at(i).to_string())
                .collect();
            format!("{} @ {}", values.join(" | "), row.annotation())
        })
        .collect()
}

/// The in-process answer to a read on a mirror database.
fn local_read(db: &ProvDb, read: Read) -> Result<ResultSet<Prov>, String> {
    let snap = db.snapshot();
    match read {
        Read::Point(d) => snap
            .prepare(POINT_SQL)
            .and_then(|s| s.execute_with(&[Const::str(&format!("d{d}"))]))
            .map_err(|e| e.to_string()),
        Read::View => snap
            .view(VIEW)
            .map(|rel| ResultSet::from_relation(rel.clone()))
            .map_err(|e| e.to_string()),
    }
}

/// A timed read, kept for the checks after the window.
struct ReadRecord {
    read: Read,
    /// The epoch the reader's session had pinned.
    epoch: i64,
    digest: u64,
    /// Traced reads: round trip and client-side decode time (ms).
    traced: Option<(f64, f64)>,
}

/// The reader's state, carried from one phase to the next.
struct Reader {
    reads: Reads,
    /// The epoch the reader's session has pinned.
    pinned: i64,
    log: Vec<ReadRecord>,
    op: u64,
}

/// The writer's state, carried from one phase to the next.
struct Writer {
    writes: Writes,
    /// Acknowledged writes in order, with the epoch each published.
    log: Vec<(Write, i64)>,
    op: u64,
}

/// Both callers, and the epoch before any write.
struct Loops {
    start: i64,
    reader: Reader,
    writer: Writer,
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    origin: Instant,
) -> Result<common::Outcome, String> {
    let mut setup_s = Vec::new();
    let mut s = common::time_setups(&mut setup_s, || setup(seed))?;
    let start = epoch_of(&s.reader.refresh().map_err(|e| e.to_string())?)?;
    let mut loops = Loops {
        start,
        reader: Reader {
            reads: Reads::new(seed),
            pinned: start,
            log: Vec::new(),
            op: 0,
        },
        writer: Writer {
            writes: Writes::new(seed),
            log: Vec::new(),
            op: WRITER_OPS,
        },
    };
    common::stage("gate", || gate(&mut s, seed, start))?;
    common::time_setups(&mut setup_s, || setup(seed))?;

    let (phase, layers) = common::phases(seconds, trace, origin, |window, tr| {
        loops.timed(&mut s, window, tr)
    })?;
    let peak_rss_mb = crate::host::peak_rss_mb();
    common::time_setups(&mut setup_s, || setup(seed))?;

    // The cumulative effect of every acknowledged write.
    s.reader.refresh().map_err(|e| e.to_string())?;
    let final_view = wire_rows(&s.reader.view(VIEW).map_err(|e| e.to_string())?)?;
    drop(s);
    let mut layers = layers;
    common::stage("checks", || {
        loops.verify(
            seed,
            digest_rows(final_view),
            layers.as_mut().map(|(_, tr)| tr),
        )
    })?;
    Ok(common::Outcome {
        setup_s,
        phase,
        layers,
        peak_rss_mb,
    })
}

fn epoch_of(resp: &Json) -> Result<i64, String> {
    resp.get("epoch")
        .and_then(Json::as_int)
        .ok_or_else(|| "response without epoch".to_string())
}

/// The correctness gate, before any timing and before any write: the
/// view and the first point reads of this seed's stream over the wire
/// must equal the same reads in-process.
fn gate(s: &mut Serving, seed: u64, pinned: i64) -> Result<(), String> {
    let mirror = database(seed)?;
    let mut reads: Vec<Read> = Reads::new(seed)
        .filter(|r| matches!(r, Read::Point(_)))
        .take(5)
        .collect();
    reads.push(Read::View);
    for read in reads {
        let resp = call_read(s, read).map_err(|e| format!("gate {read:?}: {e}"))?;
        let expected = digest_rows(local_rows(&local_read(&mirror, read)?));
        if digest_rows(wire_rows(&resp)?) != expected {
            return Err(format!(
                "gate {read:?} at epoch {pinned}: wire ≠ in-process"
            ));
        }
    }
    Ok(())
}

fn call_read(s: &mut Serving, read: Read) -> Result<Json, String> {
    match read {
        Read::Point(d) => s.reader.execute(s.point, vec![Json::str(format!("d{d}"))]),
        Read::View => s.reader.view(VIEW),
    }
    .map_err(|e| e.to_string())
}

impl Loops {
    /// One timed phase: the reader and the writer loop on threads of
    /// their own until the window closes.
    fn timed(&mut self, s: &mut Serving, window: Window, tr: &mut Tracer) -> Result<Phase, String> {
        let reads_done = AtomicUsize::new(0);
        let writes_done = AtomicUsize::new(0);
        let done = || {
            window.done(&[
                reads_done.load(Ordering::Relaxed),
                writes_done.load(Ordering::Relaxed),
            ])
        };
        let (reader, writer) = (&mut self.reader, &mut self.writer);
        let point = s.point;
        let (rtr, wtr) = (tr.sibling(), tr.sibling());
        let (r, w) = std::thread::scope(|scope| {
            let r = scope.spawn(|| reader.run(&mut s.reader, point, &reads_done, &done, rtr));
            let w = scope.spawn(|| writer.run(&mut s.writer, &writes_done, &done, wtr));
            (r.join(), w.join())
        });
        let (mut phase, rtr) = r.map_err(|_| "reader thread panicked")??;
        let (wphase, wtr) = w.map_err(|_| "writer thread panicked")??;
        phase.merge(wphase);
        tr.absorb(rtr);
        tr.absorb(wtr);
        Ok(phase)
    }

    /// After the window: replay the acknowledged writes in-process and
    /// check every read against the mirror at the epoch it saw. A traced
    /// run also times the in-process work here: the engine share of each
    /// traced read, and each write with and without view maintenance.
    fn verify(&self, seed: u64, final_view: u64, tr: Option<&mut Tracer>) -> Result<(), String> {
        let mut mirror = database(seed)?;
        let mut plain = org_database(org_params(seed)).0;
        let mut at: BTreeMap<i64, usize> = BTreeMap::new();
        at.insert(self.start, 0);
        for (i, (_, epoch)) in self.writer.log.iter().enumerate() {
            at.insert(*epoch, i + 1);
        }
        let mut by_state: BTreeMap<usize, Vec<&ReadRecord>> = BTreeMap::new();
        for rec in &self.reader.log {
            let n = *at
                .get(&rec.epoch)
                .ok_or_else(|| format!("read pinned at epoch {} no write published", rec.epoch))?;
            by_state.entry(n).or_default().push(rec);
        }
        let mut off = Tracer::new(false, Instant::now());
        let tr: &mut Tracer = match tr {
            Some(tr) => tr,
            None => &mut off,
        };
        for n in 0..=self.writer.log.len() {
            for rec in by_state.get(&n).into_iter().flatten() {
                let t0 = Instant::now();
                let out = local_read(&mirror, rec.read)?;
                let engine = ms(t0.elapsed());
                if rec.digest != digest_rows(local_rows(&out)) {
                    return Err(format!(
                        "{:?} after {n} writes: wire ≠ in-process",
                        rec.read
                    ));
                }
                if let Some((roundtrip, decode)) = rec.traced {
                    tr.count("server.engine_ms", engine);
                    tr.count("server.wire_overhead_ms", roundtrip - engine - decode);
                }
            }
            let Some((write, _)) = self.writer.log.get(n) else {
                break;
            };
            let timed = |db: &mut ProvDb| -> Result<f64, String> {
                let t0 = Instant::now();
                match (write.sql(), write) {
                    (Some(sql), _) => db.exec(&sql).map(drop),
                    (None, Write::Delete(tokens)) => db.delete_tokens(tokens),
                    (None, Write::Insert { .. }) => unreachable!("inserts have SQL"),
                }
                .map_err(|e| e.to_string())?;
                Ok(ms(t0.elapsed()))
            };
            let with_view = timed(&mut mirror)?;
            if tr.is_on() {
                let without = timed(&mut plain)?;
                match write {
                    Write::Insert { .. } => {
                        tr.count("database.insert_ms", without);
                        tr.count("view.insert_maintain_ms", with_view - without);
                    }
                    Write::Delete(_) => tr.count("view.delete_tokens_ms", with_view),
                }
            }
        }
        let want = digest_rows(local_rows(&local_read(&mirror, Read::View)?));
        if final_view != want {
            return Err("the view after every write: wire ≠ in-process".into());
        }
        Ok(())
    }
}

/// Times one client call as a `server.roundtrip_ms.<op>` span; in a
/// traced run also re-encodes and re-decodes the response line.
fn traced_call(
    tr: &mut Tracer,
    op: &str,
    call: impl FnOnce() -> Result<Json, aggprov_server::ClientError>,
) -> Result<(Json, Duration, f64), String> {
    let span = tr.enter(format!("server.roundtrip_ms.{op}"));
    let t0 = Instant::now();
    let resp = call().map_err(|e| e.to_string());
    let took = t0.elapsed();
    tr.exit(span);
    let resp = resp?;
    let mut decode = 0.0;
    if tr.is_on() {
        let line = tr.time("json.encode_ms", || resp.to_string());
        let t1 = Instant::now();
        let again = tr.time("json.decode_ms", || Json::parse(&line))?;
        decode = ms(t1.elapsed());
        std::hint::black_box(again);
        tr.count("server.response_bytes", line.len() as f64);
    }
    Ok((resp, took, decode))
}

impl Reader {
    /// The reader's closed loop for one phase.
    fn run(
        &mut self,
        client: &mut Client,
        point: i64,
        done_count: &AtomicUsize,
        done: &(dyn Fn() -> bool + Sync),
        mut tr: Tracer,
    ) -> Result<(Phase, Tracer), String> {
        let mut phase = Phase::default();
        let mut busy = Busy::default();
        while !(self.reads.at_block_start() && done()) {
            let read = self.reads.next().expect("the stream is unbounded");
            self.op += 1;
            tr.begin_op(self.op);
            phase.attempted += 1;
            let root = tr.enter("op.query");
            let result = match read {
                Read::Point(d) => traced_call(&mut tr, "execute", || {
                    client.execute(point, vec![Json::str(format!("d{d}"))])
                }),
                Read::View => traced_call(&mut tr, "view", || client.view(VIEW)),
            };
            tr.exit(root);
            let (resp, took, decode) = match result {
                Ok(ok) => ok,
                Err(_) => {
                    phase.failed += 1;
                    continue;
                }
            };
            busy.add(took);
            phase.query_ms.push(ms(took));
            done_count.fetch_add(1, Ordering::Relaxed);
            self.log.push(ReadRecord {
                read,
                epoch: self.pinned,
                digest: digest_rows(wire_rows(&resp)?),
                traced: tr.is_on().then_some((ms(took), decode)),
            });
            if read == Read::View {
                phase.attempted += 1;
                let root = tr.enter("op.refresh");
                let refreshed = traced_call(&mut tr, "refresh", || client.refresh());
                tr.exit(root);
                match refreshed {
                    Ok((resp, took, _)) => {
                        busy.add(took);
                        self.pinned = epoch_of(&resp)?;
                    }
                    Err(_) => phase.failed += 1,
                }
            }
        }
        phase.ops_per_s = busy.rate();
        Ok((phase, tr))
    }
}

impl Writer {
    /// The writer's closed loop for one phase.
    fn run(
        &mut self,
        client: &mut Client,
        done_count: &AtomicUsize,
        done: &(dyn Fn() -> bool + Sync),
        mut tr: Tracer,
    ) -> Result<(Phase, Tracer), String> {
        let mut phase = Phase::default();
        let mut busy = Busy::default();
        while !(self.writes.at_block_start() && done()) {
            let write = self.writes.next().expect("the stream is unbounded");
            self.op += 1;
            tr.begin_op(self.op);
            phase.attempted += 1;
            let root = tr.enter("op.secondary");
            let result = match &write {
                Write::Insert { .. } => {
                    let sql = write.sql().expect("inserts have SQL");
                    traced_call(&mut tr, "sql", || client.sql(&sql))
                }
                Write::Delete(tokens) => {
                    let tokens: Vec<&str> = tokens.iter().map(String::as_str).collect();
                    traced_call(&mut tr, "db_delete_tokens", || {
                        client.db_delete_tokens(&tokens)
                    })
                }
            };
            tr.exit(root);
            match result {
                Ok((resp, took, _)) => {
                    busy.add(took);
                    phase.secondary_ms.push(ms(took));
                    done_count.fetch_add(1, Ordering::Relaxed);
                    self.log.push((write, epoch_of(&resp)?));
                }
                Err(_) => phase.failed += 1,
            }
        }
        phase.ops_per_s = busy.rate();
        Ok((phase, tr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        let reads = |seed| Reads::new(seed).take(40).collect::<Vec<_>>();
        let writes = |seed| Writes::new(seed).take(40).collect::<Vec<_>>();
        assert_eq!(reads(3), reads(3));
        assert_eq!(writes(3), writes(3));
        assert_ne!(reads(3), reads(4));
        assert_ne!(writes(3), writes(4));
    }

    #[test]
    fn same_seed_same_digests_other_seed_other_digests() {
        let digest = |seed, read| {
            let db = database(seed).expect("database");
            digest_rows(local_rows(&local_read(&db, read).expect("read")))
        };
        for read in [Read::Point(3), Read::View] {
            assert_eq!(digest(5, read), digest(5, read));
            assert_ne!(digest(5, read), digest(6, read));
        }
    }

    #[test]
    fn one_read_in_ten_is_a_view_read() {
        let views = Reads::new(9).take(100).filter(|r| *r == Read::View).count();
        assert_eq!(views, 10);
    }
}
