//! `adhoc_ground`: one in-process caller sends a seeded stream of literal
//! SQL texts over a 20 000-employee × 500-department database.
//!
//! Each op is `prepare` → `execute` → render every row; its follow-up
//! (the secondary class) reads the held result as a plain bag:
//! ℕ-valuate every token to 1, `collapse`, render. Constants are drawn
//! per op, so distinct texts far outnumber the 128-entry plan cache.

use crate::common::{self, annotation_size, bag_digest, ms, nat_digest, Busy, Phase, Window};
use crate::stats::{digest_rendered, weighted_block, Rng};
use crate::trace::Tracer;
use aggprov_algebra::domain::Const;
use aggprov_algebra::hom::Valuation;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::semiring::Nat;
use aggprov_engine::{Database, ProvDb};
use aggprov_krel::reference::BagRel;
use aggprov_workloads::org::{org_database, Org, OrgParams};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

pub const DEPARTMENTS: usize = 500;
pub const EMPLOYEES_PER_DEPT: usize = 40;

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Template {
    Filter,
    Group,
    Join,
    Having,
    Except,
}

impl Template {
    pub const ALL: [Template; 5] = [
        Template::Filter,
        Template::Group,
        Template::Join,
        Template::Having,
        Template::Except,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Template::Filter => "ad_filter",
            Template::Group => "ad_group",
            Template::Join => "ad_join",
            Template::Having => "ad_having",
            Template::Except => "ad_except",
        }
    }
}

/// Slots per shuffled block of the op stream. By query latency the
/// templates stack up as filter (lowest 40 %), EXCEPT (next 25 %), JOIN
/// and GROUP BY (next 25 %) and HAVING (top 10 %); by follow-up latency
/// as EXCEPT (25 %), JOIN (10 %), filter and GROUP BY (55 %) and HAVING
/// (10 %). Every p50 and p95 falls well inside one range, away from the
/// boundary between two.
pub const WEIGHTS: [(Template, usize); 5] = [
    (Template::Filter, 8),
    (Template::Except, 5),
    (Template::Join, 2),
    (Template::Group, 3),
    (Template::Having, 2),
];

/// One literal query of the stream: a template and its drawn constants.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AdhocQuery {
    pub template: Template,
    pub a: i64,
    pub b: i64,
    pub skip: i64,
}

impl AdhocQuery {
    /// Draws the constants. `skip` (an employee the analyst leaves out)
    /// makes nearly every text distinct at almost no cost to the plan;
    /// the other constants stay in narrow ranges so each template's cost
    /// varies little between seeds.
    fn draw(template: Template, rng: &mut Rng) -> AdhocQuery {
        let employees = (DEPARTMENTS * EMPLOYEES_PER_DEPT) as i64;
        let skip = rng.range(0, employees - 1);
        let (a, b) = match template {
            Template::Filter => (rng.range(170, 180), 0),
            Template::Group | Template::Join => (rng.range(80, 100), 0),
            // Department totals centre on 40 × 105 = 4200.
            Template::Having => (rng.range(4000, 4400), 0),
            Template::Except => (rng.range(150, 160), rng.range(18, 24)),
        };
        AdhocQuery {
            template,
            a,
            b,
            skip,
        }
    }

    pub fn sql(&self) -> String {
        let (a, b, skip) = (self.a, self.b, self.skip);
        match self.template {
            Template::Filter => {
                format!("SELECT emp, dept, sal FROM emp WHERE sal > {a} AND emp <> {skip}")
            }
            Template::Group => format!(
                "SELECT dept, SUM(sal) AS total FROM emp WHERE sal > {a} AND emp <> {skip} \
                 GROUP BY dept"
            ),
            Template::Join => format!(
                "SELECT region, SUM(sal) AS total FROM emp JOIN dept ON emp.dept = dept.dept \
                 WHERE sal > {a} AND emp <> {skip} GROUP BY region"
            ),
            Template::Having => format!(
                "SELECT dept, SUM(sal) AS total FROM emp WHERE emp <> {skip} GROUP BY dept \
                 HAVING total > {a}"
            ),
            Template::Except => format!(
                "SELECT dept FROM emp WHERE sal > {a} AND emp <> {skip} \
                 EXCEPT SELECT dept FROM emp WHERE sal < {b}"
            ),
        }
    }

    /// The same query on the plain-bag reference engine.
    fn reference(&self, r: &Reference) -> Vec<Vec<Const>> {
        let kept = |bag: &BagRel, a: Option<i64>| {
            let emp = bag.attrs.iter().position(|x| x == "emp").expect("emp");
            let sal = bag.attrs.iter().position(|x| x == "sal").expect("sal");
            let skip = Const::int(self.skip);
            bag.select(move |row| row[emp] != skip && a.is_none_or(|a| row[sal] > Const::int(a)))
        };
        let out = match self.template {
            Template::Filter => kept(&r.emp, Some(self.a)).project(&["emp", "dept", "sal"]),
            Template::Group => {
                kept(&r.emp, Some(self.a)).group_aggregate(&["dept"], MonoidKind::Sum, "sal")
            }
            Template::Join => {
                kept(&r.joined, Some(self.a)).group_aggregate(&["region"], MonoidKind::Sum, "sal")
            }
            Template::Having => kept(&r.emp, None)
                .group_aggregate(&["dept"], MonoidKind::Sum, "sal")
                .select(|row| row[1] > Const::int(self.a)),
            Template::Except => {
                let left = kept(&r.emp, Some(self.a)).project(&["dept"]);
                let right: HashSet<Vec<Const>> = r
                    .emp
                    .select(|row| row[2] < Const::int(self.b))
                    .project(&["dept"])
                    .rows
                    .into_iter()
                    .collect();
                // The §5 difference under ℕ: a left tuple keeps its
                // multiplicity iff the right side lacks it entirely.
                left.select(|row| !right.contains(row))
            }
        };
        out.rows
    }
}

/// The seeded, unbounded op stream, drawn one shuffled block at a time.
#[derive(Debug)]
pub struct Stream {
    rng: Rng,
    block: Vec<Template>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: Rng::derive(seed, 0xad0c),
            block: Vec::new(),
        }
    }

    /// True between two blocks. Windows close only here, so every run
    /// holds whole blocks and the mix is exact.
    pub fn at_block_start(&self) -> bool {
        self.block.is_empty()
    }
}

impl Iterator for Stream {
    type Item = AdhocQuery;

    fn next(&mut self) -> Option<AdhocQuery> {
        if self.block.is_empty() {
            self.block = weighted_block(&mut self.rng, &WEIGHTS);
        }
        let t = self.block.pop()?;
        Some(AdhocQuery::draw(t, &mut self.rng))
    }
}

/// Plain-bag twins of the data for the reference engine.
struct Reference {
    emp: BagRel,
    /// `emp ⋈ dept`, built once.
    joined: BagRel,
}

pub struct Adhoc {
    db: ProvDb,
    org: Org,
}

/// Data generation and load: the timed set-up.
pub fn setup(seed: u64) -> Adhoc {
    let (db, org) = org_database(OrgParams {
        departments: DEPARTMENTS,
        employees_per_dept: EMPLOYEES_PER_DEPT,
        salary_range: (10, 200),
        seed,
    });
    Adhoc { db, org }
}

/// What a timed op left for the checks after the window.
struct Record {
    query: AdhocQuery,
    prov: u64,
    nat: u64,
}

/// Runs the workload: gate, timed phase(s), then the per-op checks.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    origin: Instant,
) -> Result<common::Outcome, String> {
    let mut setup_s = Vec::new();
    let w = common::time_setups(&mut setup_s, || Ok(setup(seed)))?;
    let reference = Reference {
        joined: w.org.emp_bag.natural_join(&w.org.dept_bag),
        emp: w.org.emp_bag.clone(),
    };
    let gate = common::stage("gate", || gate(&w, &reference, seed))?;
    common::time_setups(&mut setup_s, || Ok(setup(seed)))?;

    let nat_db = trace.then(|| nat_twin(&w));
    let mut caller = Caller {
        stream: Stream::new(seed),
        seen: HashSet::new(),
        log: Vec::new(),
        op: 0,
    };
    let (phase, layers) = common::phases(seconds, trace, origin, |window, tr| {
        let nat_db = nat_db.as_ref().filter(|_| tr.is_on());
        caller.timed(&w, window, tr, nat_db)
    })?;
    let peak_rss_mb = crate::host::peak_rss_mb();
    common::time_setups(&mut setup_s, || Ok(setup(seed)))?;
    common::stage("checks", || verify(&reference, &gate, &caller.log))?;
    let mut layers = layers;
    if let Some((_, tr)) = layers.as_mut() {
        prov_overhead(tr);
    }
    Ok(common::Outcome {
        setup_s,
        phase,
        layers,
        peak_rss_mb,
    })
}

/// The same rows on `Database<Nat>` (every token ↦ 1): the
/// provenance-free baseline of the traced run.
fn nat_twin(w: &Adhoc) -> Database<Nat> {
    let mut db: Database<Nat> = Database::new();
    for name in ["emp", "dept"] {
        let rel = w.db.table(name).expect("org tables");
        db.register(name, aggprov_core::eval::map_mk(rel, &|_| Nat(1)));
    }
    db
}

/// The correctness gate, before any timing: for the first two queries of
/// each template in this seed's stream, the optimized plan's result must
/// equal `prepare_unoptimized`'s, and its ℕ-collapsed form must equal the
/// reference engine's bag. Returns the provenance digest of every gated
/// text.
fn gate(w: &Adhoc, r: &Reference, seed: u64) -> Result<BTreeMap<AdhocQuery, u64>, String> {
    let mut left: BTreeMap<Template, usize> = Template::ALL.iter().map(|&t| (t, 2)).collect();
    let mut digests = BTreeMap::new();
    for q in Stream::new(seed) {
        if left.values().all(|&n| n == 0) {
            break;
        }
        let n = left
            .get_mut(&q.template)
            .expect("every template has a count");
        if *n == 0 {
            continue;
        }
        *n -= 1;
        let prov = common::gate_query(&w.db, &q.sql(), &[], &q.reference(r))?;
        digests.insert(q, prov);
    }
    Ok(digests)
}

/// The closed-loop caller's state, carried from one phase to the next.
struct Caller {
    stream: Stream,
    /// Texts prepared before in this run.
    seen: HashSet<String>,
    log: Vec<Record>,
    op: u64,
}

impl Caller {
    /// One timed phase of the closed loop.
    fn timed(
        &mut self,
        w: &Adhoc,
        window: Window,
        tr: &mut Tracer,
        nat_db: Option<&Database<Nat>>,
    ) -> Result<Phase, String> {
        let ones = Valuation::<Nat>::ones();
        let mut phase = Phase::default();
        let mut busy = Busy::default();
        while !(self.stream.at_block_start()
            && window.done(&[phase.query_ms.len(), phase.secondary_ms.len()]))
        {
            let q = self.stream.next().expect("the stream is unbounded");
            let sql = q.sql();
            let repeat = !self.seen.insert(sql.clone());
            self.op += 1;
            tr.begin_op(self.op);

            // The read: prepare → execute → render every row.
            phase.attempted += 1;
            let root = tr.enter(format!("op.query.{}", q.template.name()));
            let t0 = Instant::now();
            let prepare_span = if repeat {
                "database.prepare_repeat_ms"
            } else {
                "database.prepare_new_ms"
            };
            let read = tr
                .time(prepare_span, || w.db.prepare(&sql))
                .and_then(|stmt| {
                    let out = tr.time(format!("exec.execute_ms.{}", q.template.name()), || {
                        stmt.execute()
                    })?;
                    Ok((common::products(stmt.optimized_plan()), out))
                });
            let (products, out) = match read {
                Ok(read) => read,
                Err(_) => {
                    tr.exit(root);
                    phase.failed += 1;
                    continue;
                }
            };
            let text = tr.time("result.render_ms", || out.to_string());
            let took = t0.elapsed();
            tr.exit(root);
            busy.add(took);
            phase.query_ms.push(ms(took));

            // The follow-up: the held result read as a plain bag.
            phase.attempted += 1;
            let root = tr.enter(format!("op.secondary.{}", q.template.name()));
            let t1 = Instant::now();
            let valuated = tr.time("result.valuate_ms", || out.valuate(&ones));
            let bag = match tr.time("result.collapse_ms", || valuated.collapse()) {
                Ok(bag) => bag,
                Err(_) => {
                    tr.exit(root);
                    phase.failed += 1;
                    continue;
                }
            };
            let bag_text = bag.to_string();
            let took = t1.elapsed();
            tr.exit(root);
            busy.add(took);
            phase.secondary_ms.push(ms(took));
            std::hint::black_box(&bag_text);

            self.log.push(Record {
                prov: digest_rendered(&text),
                nat: nat_digest(&bag)?,
                query: q.clone(),
            });

            if tr.is_on() {
                tr.count("result.render_bytes", text.len() as f64);
                tr.count("result.rows_out", out.len() as f64);
                tr.count("km.annotation_size", annotation_size(&out) as f64);
                tr.count("opt.products_left", products as f64);
                probe(w, &q, &sql, tr, nat_db)?;
            }
        }
        phase.ops_per_s = busy.rate();
        Ok(phase)
    }
}

/// Traced-run probes, outside the op's latency: the planner stages and
/// scan conversions (see [`common::probe_planner`]), and the same text on
/// the provenance-free twin.
fn probe(
    w: &Adhoc,
    q: &AdhocQuery,
    sql: &str,
    tr: &mut Tracer,
    nat_db: Option<&Database<Nat>>,
) -> Result<(), String> {
    let root = tr.enter("probe");
    common::probe_planner(&w.db, sql, tr)?;
    if let Some(nat_db) = nat_db {
        let stmt = nat_db.prepare(sql).map_err(|e| e.to_string())?;
        let out = tr
            .time(format!("exec.bag_execute_ms.{}", q.template.name()), || {
                stmt.execute()
            })
            .map_err(|e| e.to_string())?;
        std::hint::black_box(&out);
    }
    tr.exit(root);
    Ok(())
}

/// `prov_overhead_x`: Σ provenance execute time ÷ Σ bag execute time
/// over the traced ops (base: the bag time).
fn prov_overhead(tr: &mut Tracer) {
    let times = tr.self_times_ms();
    let sum = |prefix: &str| -> f64 {
        Template::ALL
            .iter()
            .filter_map(|t| times.get(&format!("{prefix}.{}", t.name())))
            .flatten()
            .sum()
    };
    let bag = sum("exec.bag_execute_ms");
    if bag > 0.0 {
        tr.count("prov_overhead_x", sum("exec.execute_ms") / bag);
    }
}

/// After the window: every timed op's ℕ-collapsed output must match the
/// reference engine's bag for its text, and its provenance output must
/// match the gate's digest (gated texts) and every other run of the same
/// text.
fn verify(r: &Reference, gate: &BTreeMap<AdhocQuery, u64>, log: &[Record]) -> Result<(), String> {
    let mut expected_nat: BTreeMap<&AdhocQuery, u64> = BTreeMap::new();
    let mut expected_prov: BTreeMap<&AdhocQuery, u64> = gate.iter().map(|(q, d)| (q, *d)).collect();
    for rec in log {
        let nat = *expected_nat
            .entry(&rec.query)
            .or_insert_with(|| bag_digest(&rec.query.reference(r)));
        if rec.nat != nat {
            return Err(format!(
                "{}: ℕ-collapsed result ≠ reference bag",
                rec.query.sql()
            ));
        }
        let prov = *expected_prov.entry(&rec.query).or_insert(rec.prov);
        if rec.prov != prov {
            return Err(format!("{}: provenance result changed", rec.query.sql()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<AdhocQuery> = Stream::new(5).take(50).collect();
        let b: Vec<AdhocQuery> = Stream::new(5).take(50).collect();
        let c: Vec<AdhocQuery> = Stream::new(6).take(50).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_texts_outnumber_the_plan_cache() {
        let texts: HashSet<String> = Stream::new(1).take(400).map(|q| q.sql()).collect();
        assert!(texts.len() > 2 * aggprov_engine::DEFAULT_PLAN_CACHE_CAPACITY);
    }
}
