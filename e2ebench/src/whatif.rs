//! `whatif_paper`: the paper's Figure 1 scaled to 100 departments × 20
//! employees, one in-process caller.
//!
//! Each cycle prepares one of the paper's query shapes as the paper
//! writes them, with `$1` so the plan cache hits, executes and renders it
//! (a read), then interrogates the held `ResultSet` three times in a
//! seeded order (the secondary class): `delete_tokens` of five seeded
//! employee tokens, an ℕ-valuation (five tokens ↦ 0, five ↦ 2) with
//! `collapse`, and a `Security` valuation viewed through `clearance`.
//! Every interrogation renders its result.

use crate::common::{self, annotation_size, bag_digest, ms, nat_digest, Busy, Phase, Window};
use crate::stats::{digest_rendered, weighted_block, Rng};
use crate::trace::Tracer;
use aggprov_algebra::domain::Const;
use aggprov_algebra::hom::Valuation;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::semiring::{Nat, Security};
use aggprov_core::Prov;
use aggprov_engine::{ProvDb, ResultSet};
use aggprov_krel::reference::BagRel;
use aggprov_workloads::org::{org_database, Org, OrgParams};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

pub const DEPARTMENTS: usize = 100;
pub const EMPLOYEES_PER_DEPT: usize = 20;
/// `$1` values drawn per shape and seed; the gate checks every one.
const PARAMS_PER_SHAPE: usize = 2;
/// Tokens per deletion set, and per ↦ 0 / ↦ 2 set of an ℕ-valuation.
const TOKENS_PER_SET: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Shape {
    CommaJoin,
    Having,
    Nested,
    Except,
}

impl Shape {
    pub const ALL: [Shape; 4] = [
        Shape::CommaJoin,
        Shape::Having,
        Shape::Nested,
        Shape::Except,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::CommaJoin => "wi_comma_join",
            Shape::Having => "wi_having",
            Shape::Nested => "wi_nested",
            Shape::Except => "wi_except",
        }
    }

    pub fn sql(self) -> &'static str {
        match self {
            // A comma join with a WHERE equality and GROUP BY.
            Shape::CommaJoin => {
                "SELECT region, SUM(sal) AS mass FROM emp, dept \
                 WHERE emp.dept = dept.dept AND sal > $1 GROUP BY region"
            }
            // §4: HAVING with a comparison keeps every group under a token.
            Shape::Having => {
                "SELECT dept, SUM(sal) AS mass FROM emp GROUP BY dept HAVING mass > $1"
            }
            // §4: nested aggregation over a HAVING subquery.
            Shape::Nested => {
                "SELECT SUM(mass) AS total FROM \
                 (SELECT dept, SUM(sal) AS mass FROM emp GROUP BY dept HAVING mass > $1) g"
            }
            // §5: difference.
            Shape::Except => "SELECT dept FROM dept EXCEPT SELECT dept FROM emp WHERE sal > $1",
        }
    }

    fn param_range(self) -> (i64, i64) {
        match self {
            // Narrow ranges: a shape's cost follows the share of rows
            // its `$1` keeps, so wide ranges would make seeds differ.
            Shape::CommaJoin => (100, 104),
            // Department totals centre on 20 × 105 = 2100.
            Shape::Having | Shape::Nested => (2080, 2120),
            Shape::Except => (190, 194),
        }
    }

    /// The same query on the plain-bag reference engine, over `emp` and
    /// `dept` bags (`joined` = `emp ⋈ dept`).
    fn reference(self, p: i64, emp: &BagRel, dept: &BagRel, joined: &BagRel) -> Vec<Vec<Const>> {
        let sal_gt = |bag: &BagRel| {
            let i = bag.attrs.iter().position(|a| a == "sal").expect("sal");
            bag.select(move |row| row[i] > Const::int(p))
        };
        let having = || {
            emp.group_aggregate(&["dept"], MonoidKind::Sum, "sal")
                .select(|row| row[1] > Const::int(p))
        };
        match self {
            Shape::CommaJoin => {
                sal_gt(joined)
                    .group_aggregate(&["region"], MonoidKind::Sum, "sal")
                    .rows
            }
            Shape::Having => having().rows,
            Shape::Nested => vec![vec![having().aggregate(MonoidKind::Sum, "sal")]],
            Shape::Except => {
                let right: HashSet<Vec<Const>> =
                    sal_gt(emp).project(&["dept"]).rows.into_iter().collect();
                dept.project(&["dept"])
                    .select(|row| !right.contains(row))
                    .rows
            }
        }
    }
}

/// Slots per shuffled block. By latency the shapes stack up as EXCEPT
/// (lowest 37.5 %), HAVING (next 51.25 %), the comma join (next 10 %) and
/// the nested aggregation (top 1.25 %): the p50 falls inside HAVING's
/// range and the p95 inside the comma join's, whose cross product the
/// planner still leaves in place.
pub const WEIGHTS: [(Shape, usize); 4] = [
    (Shape::Except, 30),
    (Shape::Having, 41),
    (Shape::CommaJoin, 8),
    (Shape::Nested, 1),
];

/// One interrogation of a held result.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Interrogation {
    /// `delete_tokens` of these employee indices.
    Delete(Vec<usize>),
    /// ℕ-valuation: these employees ↦ 0, those ↦ 2, everything else ↦ 1;
    /// then `collapse`.
    Nat { zero: Vec<usize>, two: Vec<usize> },
    /// The run's `Security` valuation, viewed with these credentials.
    Clearance(u8),
}

impl Interrogation {
    fn kind(&self) -> &'static str {
        match self {
            Interrogation::Delete(_) => "delete",
            Interrogation::Nat { .. } => "nat",
            Interrogation::Clearance(_) => "clearance",
        }
    }
}

/// The credentials a `Clearance` interrogation views with.
const CREDENTIALS: [Security; 3] = [
    Security::Confidential,
    Security::Secret,
    Security::TopSecret,
];

/// One cycle of the stream: a shape, its `$1`, three interrogations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cycle {
    pub shape: Shape,
    pub param: i64,
    pub asks: Vec<Interrogation>,
}

/// The seeded, unbounded cycle stream.
#[derive(Debug)]
pub struct Stream {
    rng: Rng,
    params: BTreeMap<Shape, Vec<i64>>,
    block: Vec<Shape>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let mut rng = Rng::derive(seed, 0x3a1f);
        let params = Shape::ALL
            .iter()
            .map(|&s| {
                let (lo, hi) = s.param_range();
                let mut ps: Vec<i64> = Vec::new();
                while ps.len() < PARAMS_PER_SHAPE {
                    let p = rng.range(lo, hi);
                    if !ps.contains(&p) {
                        ps.push(p);
                    }
                }
                (s, ps)
            })
            .collect();
        Stream {
            rng,
            params,
            block: Vec::new(),
        }
    }

    /// True between two blocks. Windows close only here, so every run
    /// holds whole blocks and the mix is exact.
    pub fn at_block_start(&self) -> bool {
        self.block.is_empty()
    }

    /// Every `(shape, $1)` the stream can draw.
    pub fn combos(&self) -> Vec<(Shape, i64)> {
        self.params
            .iter()
            .flat_map(|(&s, ps)| ps.iter().map(move |&p| (s, p)))
            .collect()
    }

    fn tokens(&mut self, n: usize) -> Vec<usize> {
        let employees = DEPARTMENTS * EMPLOYEES_PER_DEPT;
        let mut out: Vec<usize> = Vec::new();
        while out.len() < n {
            let e = self.rng.below(employees);
            if !out.contains(&e) {
                out.push(e);
            }
        }
        out
    }
}

impl Iterator for Stream {
    type Item = Cycle;

    fn next(&mut self) -> Option<Cycle> {
        if self.block.is_empty() {
            self.block = weighted_block(&mut self.rng, &WEIGHTS);
        }
        let shape = self.block.pop()?;
        let ps = &self.params[&shape];
        let param = ps[self.rng.below(ps.len())];
        let both = self.tokens(2 * TOKENS_PER_SET);
        let mut asks = vec![
            Interrogation::Delete(self.tokens(TOKENS_PER_SET)),
            Interrogation::Nat {
                zero: both[..TOKENS_PER_SET].to_vec(),
                two: both[TOKENS_PER_SET..].to_vec(),
            },
            Interrogation::Clearance(self.rng.below(CREDENTIALS.len()) as u8),
        ];
        self.rng.shuffle(&mut asks);
        Some(Cycle { shape, param, asks })
    }
}

/// A seeded security level per employee token: most public, the rest
/// spread over the three restricted levels.
fn security_valuation(org: &Org, seed: u64) -> Valuation<Security> {
    let mut rng = Rng::derive(seed, 0x5ec);
    let mut val = Valuation::with_default(Security::Public);
    for token in &org.emp_tokens {
        let level = match rng.below(10) {
            0..=6 => continue,
            7 => Security::Confidential,
            8 => Security::Secret,
            _ => Security::TopSecret,
        };
        val = val.set(token.as_str(), level);
    }
    val
}

pub struct Whatif {
    db: ProvDb,
    org: Org,
}

/// Data generation, load, and one prepare per shape: the timed set-up.
pub fn setup(seed: u64) -> Result<Whatif, String> {
    let (db, org) = org_database(OrgParams {
        departments: DEPARTMENTS,
        employees_per_dept: EMPLOYEES_PER_DEPT,
        salary_range: (10, 200),
        seed,
    });
    for s in Shape::ALL {
        db.prepare(s.sql())
            .map_err(|e| format!("prepare {}: {e}", s.name()))?;
    }
    Ok(Whatif { db, org })
}

/// The plain-bag twins the reference engine runs on. `joined` is
/// `emp ⋈ dept`, row `i` extending employee `i` (every employee has
/// exactly one department), so an ℕ-valuation of employee tokens
/// applies to both by row index.
struct Reference {
    emp: BagRel,
    dept: BagRel,
    joined: BagRel,
}

impl Reference {
    fn new(org: &Org) -> Result<Reference, String> {
        let joined = org.emp_bag.natural_join(&org.dept_bag);
        let aligned = joined.rows.len() == org.emp_bag.rows.len()
            && joined
                .rows
                .iter()
                .zip(&org.emp_bag.rows)
                .all(|(j, e)| j[0] == e[0]);
        if !aligned {
            return Err("reference: emp ⋈ dept does not extend emp row by row".into());
        }
        Ok(Reference {
            emp: org.emp_bag.clone(),
            dept: org.dept_bag.clone(),
            joined,
        })
    }

    /// The reference bag of `shape` at `$1 = p` with employees in `zero`
    /// ↦ 0 and in `two` ↦ 2.
    fn query(&self, shape: Shape, p: i64, zero: &[usize], two: &[usize]) -> Vec<Vec<Const>> {
        let emp = valuated(&self.emp, zero, two);
        let joined = valuated(&self.joined, zero, two);
        shape.reference(p, &emp, &self.dept, &joined)
    }
}

/// A bag whose rows align with the employees under an ℕ-valuation: rows
/// ↦ 0 dropped, rows ↦ 2 repeated.
fn valuated(bag: &BagRel, zero: &[usize], two: &[usize]) -> BagRel {
    let mut rows = Vec::new();
    for (i, row) in bag.rows.iter().enumerate() {
        if zero.contains(&i) {
            continue;
        }
        rows.push(row.clone());
        if two.contains(&i) {
            rows.push(row.clone());
        }
    }
    BagRel {
        attrs: bag.attrs.clone(),
        rows,
    }
}

/// Employees in `zero` ↦ 0, in `two` ↦ 2, every other token ↦ 1.
fn nat_valuation(org: &Org, zero: &[usize], two: &[usize]) -> Valuation<Nat> {
    let token = |i: &usize| org.emp_tokens[*i].as_str();
    let val = zero
        .iter()
        .fold(Valuation::<Nat>::ones(), |v, i| v.set(token(i), Nat(0)));
    two.iter().fold(val, |v, i| v.set(token(i), Nat(2)))
}

/// What an interrogation returned, kept for its check.
enum Answer {
    Deleted(ResultSet<Prov>),
    Bag(ResultSet<Nat>),
    Cleared,
}

/// Applies one interrogation and renders its result.
fn interrogate(
    out: &ResultSet<Prov>,
    ask: &Interrogation,
    org: &Org,
    security: &Valuation<Security>,
    tr: &mut Tracer,
) -> Result<(String, Answer), String> {
    let token = |i: &usize| org.emp_tokens[*i].as_str();
    match ask {
        Interrogation::Delete(ids) => {
            let tokens: Vec<&str> = ids.iter().map(token).collect();
            let kept = tr.time("result.delete_tokens_ms", || out.delete_tokens(tokens));
            Ok((kept.to_string(), Answer::Deleted(kept)))
        }
        Interrogation::Nat { zero, two } => {
            let val = nat_valuation(org, zero, two);
            let valuated = tr.time("result.valuate_ms", || out.valuate(&val));
            let bag = tr
                .time("result.collapse_ms", || valuated.collapse())
                .map_err(|e| e.to_string())?;
            Ok((bag.to_string(), Answer::Bag(bag)))
        }
        Interrogation::Clearance(cred) => {
            let valuated = tr.time("result.valuate_ms", || out.valuate(security));
            // No collapse: SUM under an idempotent semiring is not
            // well-defined (§3), so comparison tokens over SUM stay
            // symbolic in the principal's view.
            let view = tr.time("result.clearance_ms", || {
                valuated.clearance(CREDENTIALS[usize::from(*cred)])
            });
            Ok((view.to_string(), Answer::Cleared))
        }
    }
}

/// The gate's digest of each `(shape, $1)`'s rendered result.
type Gate = BTreeMap<(Shape, i64), u64>;

/// The correctness gate, before any timing: for every `(shape, $1)` the
/// stream can draw, the optimized result must equal
/// `prepare_unoptimized`'s, and its ℕ-collapsed form the reference bag.
fn gate(w: &Whatif, r: &Reference, seed: u64) -> Result<Gate, String> {
    let mut g = Gate::new();
    for (shape, p) in Stream::new(seed).combos() {
        let expected = r.query(shape, p, &[], &[]);
        let digest = common::gate_query(&w.db, shape.sql(), &[Const::int(p)], &expected)?;
        g.insert((shape, p), digest);
    }
    Ok(g)
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    origin: Instant,
) -> Result<common::Outcome, String> {
    let mut setup_s = Vec::new();
    let w = common::time_setups(&mut setup_s, || setup(seed))?;
    let reference = Reference::new(&w.org)?;
    let security = security_valuation(&w.org, seed);
    let gate = common::stage("gate", || gate(&w, &reference, seed))?;
    common::time_setups(&mut setup_s, || setup(seed))?;
    let ctx = Ctx {
        w: &w,
        reference: &reference,
        gate: &gate,
        security: &security,
    };
    let mut stream = Stream::new(seed);
    let mut op = 0;
    let (phase, layers) = common::phases(seconds, trace, origin, |window, tr| {
        ctx.timed(&mut stream, &mut op, window, tr)
    })?;
    let peak_rss_mb = crate::host::peak_rss_mb();
    common::time_setups(&mut setup_s, || setup(seed))?;
    Ok(common::Outcome {
        setup_s,
        phase,
        layers,
        peak_rss_mb,
    })
}

struct Ctx<'a> {
    w: &'a Whatif,
    reference: &'a Reference,
    gate: &'a Gate,
    security: &'a Valuation<Security>,
}

impl Ctx<'_> {
    /// One timed phase of the closed loop. Every result is checked right
    /// after its op, outside the op's latency.
    fn timed(
        &self,
        stream: &mut Stream,
        op: &mut u64,
        window: Window,
        tr: &mut Tracer,
    ) -> Result<Phase, String> {
        let w = self.w;
        let mut views = BTreeMap::new();
        let mut phase = Phase::default();
        let mut busy = Busy::default();
        while !(stream.at_block_start()
            && window.done(&[phase.query_ms.len(), phase.secondary_ms.len()]))
        {
            let cycle = stream.next().expect("the stream is unbounded");
            let combo = (cycle.shape, cycle.param);
            *op += 1;
            tr.begin_op(*op);

            // The read: prepare (a plan-cache hit) → execute → render.
            phase.attempted += 1;
            let root = tr.enter(format!("op.query.{}", cycle.shape.name()));
            let t0 = Instant::now();
            let read = tr
                .time("database.prepare_repeat_ms", || {
                    w.db.prepare(cycle.shape.sql())
                })
                .and_then(|stmt| {
                    let out = tr.time(format!("exec.execute_ms.{}", cycle.shape.name()), || {
                        stmt.execute_with(&[Const::int(cycle.param)])
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
            if digest_rendered(&text) != self.gate[&combo] {
                return Err(format!(
                    "{} ${}: ≠ the gate's result",
                    cycle.shape.name(),
                    cycle.param
                ));
            }

            // The secondary class: interrogations of the held result.
            for ask in &cycle.asks {
                phase.attempted += 1;
                let root = tr.enter(format!(
                    "op.secondary.{}.{}",
                    cycle.shape.name(),
                    ask.kind()
                ));
                let t1 = Instant::now();
                let answered = interrogate(&out, ask, &w.org, self.security, tr);
                let took = t1.elapsed();
                tr.exit(root);
                match answered {
                    Ok((rendered, answer)) => {
                        busy.add(took);
                        phase.secondary_ms.push(ms(took));
                        self.check(combo, ask, &rendered, answer, &mut views)?;
                    }
                    Err(_) => phase.failed += 1,
                }
            }

            if tr.is_on() {
                tr.count("result.render_bytes", text.len() as f64);
                tr.count("result.rows_out", out.len() as f64);
                tr.count("km.annotation_size", annotation_size(&out) as f64);
                tr.count("opt.products_left", products as f64);
                let root = tr.enter("probe");
                common::probe_planner(&w.db, cycle.shape.sql(), tr)?;
                tr.exit(root);
            }
        }
        phase.ops_per_s = busy.rate();
        Ok(phase)
    }

    /// Checks one interrogation: a deletion, read as a bag, must equal
    /// the reference engine on the employees minus the deleted rows; an
    /// ℕ-valuation the reference engine on the correspondingly changed
    /// employee bag. Clearance views have no reference engine (`SUM`
    /// under `Security` stays symbolic); each must equal every other view
    /// of the same result with the same credentials in `views`.
    fn check(
        &self,
        (shape, p): (Shape, i64),
        ask: &Interrogation,
        rendered: &str,
        answer: Answer,
        views: &mut BTreeMap<((Shape, i64), u8), u64>,
    ) -> Result<(), String> {
        let wrong = |what: &str| Err(format!("{} ${p} {ask:?}: {what}", shape.name()));
        let (bag, zero, two) = match (ask, answer) {
            (Interrogation::Delete(ids), Answer::Deleted(kept)) => {
                let bag = kept
                    .valuate(&Valuation::<Nat>::ones())
                    .collapse()
                    .map_err(|e| e.to_string())?;
                (bag, ids.as_slice(), &[][..])
            }
            (Interrogation::Nat { zero, two }, Answer::Bag(bag)) => {
                (bag, zero.as_slice(), two.as_slice())
            }
            (Interrogation::Clearance(cred), Answer::Cleared) => {
                let digest = digest_rendered(rendered);
                return if *views.entry(((shape, p), *cred)).or_insert(digest) == digest {
                    Ok(())
                } else {
                    wrong("≠ an earlier view with the same credentials")
                };
            }
            _ => unreachable!("interrogate answers in kind"),
        };
        if nat_digest(&bag)? != bag_digest(&self.reference.query(shape, p, zero, two)) {
            return wrong("≠ the reference bag");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<Cycle> = Stream::new(5).take(40).collect();
        let b: Vec<Cycle> = Stream::new(5).take(40).collect();
        let c: Vec<Cycle> = Stream::new(6).take(40).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// Digests of the cheap shapes' results at every `$1` the stream draws.
    fn digests(seed: u64) -> Vec<u64> {
        let w = setup(seed).expect("set-up");
        Stream::new(seed)
            .combos()
            .into_iter()
            .filter(|(s, _)| matches!(s, Shape::Except | Shape::Having))
            .map(|(s, p)| {
                let out =
                    w.db.prepare(s.sql())
                        .and_then(|stmt| stmt.execute_with(&[Const::int(p)]))
                        .expect("execute");
                digest_rendered(&out.to_string())
            })
            .collect()
    }

    #[test]
    fn same_seed_same_digests_other_seed_other_digests() {
        assert_eq!(digests(5), digests(5));
        assert_ne!(digests(5), digests(6));
    }
}
