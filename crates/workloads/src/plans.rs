//! Random SPJU-AGB query plans with dual evaluation.
//!
//! [`Plan`]s are small relational-algebra trees over tables with the fixed
//! schema `(g, v, w)`. They evaluate two ways:
//!
//! * [`eval_mk`] — through the annotated operators of `aggprov-core`, for
//!   any annotation semiring;
//! * [`eval_bag`] — through the independent plain-bag reference engine.
//!
//! The homomorphism-commutation and set/bag-compatibility property tests
//! are built on this pair: the paper's Theorem 3.3 (and its §4 extension)
//! says the first commutes with valuations, and specialized to `ℕ` it must
//! agree with the second.

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_core::annotation::AggAnnotation;
use aggprov_core::difference::difference;
use aggprov_core::km::CmpPred;
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::Value;
use aggprov_krel::error::Result;
use aggprov_krel::reference::BagRel;
use rand::rngs::StdRng;
use rand::Rng;

/// The fixed base-table schema used by random plans.
pub const BASE_SCHEMA: [&str; 3] = ["g", "v", "w"];
/// The name of the aggregate output column in grouped plans.
pub const AGG_COL: &str = "agg";

/// A randomly generated query plan.
#[derive(Clone, PartialEq, Debug)]
pub enum Plan {
    /// Scan of base table `i` (schema `g, v, w`).
    Scan(usize),
    /// Union of two plans of the same stratum.
    Union(Box<Plan>, Box<Plan>),
    /// The paper's hybrid difference of two plans of the same stratum.
    Difference(Box<Plan>, Box<Plan>),
    /// `σ_{col = c}`.
    SelectEq(Box<Plan>, &'static str, i64),
    /// `Π_{g, v}` of a base-stratum plan.
    Project(Box<Plan>),
    /// `GROUP BY g, AGG(v) AS agg` of a base-stratum plan.
    GroupBy(Box<Plan>, MonoidKind),
    /// Whole-relation aggregation `AGG(v) AS agg` (one tuple, no grouping).
    AggAll(Box<Plan>, MonoidKind),
    /// `HAVING agg = c` over a grouped plan — nested aggregation (§4).
    HavingEq(Box<Plan>, i64),
    /// `HAVING agg ⋈ c` with an order/inequality predicate (the paper's
    /// comparison extension).
    HavingCmp(Box<Plan>, CmpPred, i64),
}

impl Plan {
    /// The output column names of the plan.
    pub fn schema(&self) -> Vec<&'static str> {
        match self {
            Plan::Scan(_) => BASE_SCHEMA.to_vec(),
            Plan::Union(l, _) | Plan::Difference(l, _) => l.schema(),
            Plan::SelectEq(p, _, _) | Plan::HavingEq(p, _) | Plan::HavingCmp(p, _, _) => p.schema(),
            Plan::Project(_) => vec!["g", "v"],
            Plan::GroupBy(_, _) => vec!["g", AGG_COL],
            Plan::AggAll(_, _) => vec![AGG_COL],
        }
    }

    /// True iff the plan aggregates with `SUM` anywhere — such plans cannot
    /// be specialized to set semantics (`B` is incompatible with `SUM`,
    /// paper §3.4).
    pub fn uses_sum(&self) -> bool {
        match self {
            Plan::Scan(_) => false,
            Plan::Union(l, r) | Plan::Difference(l, r) => l.uses_sum() || r.uses_sum(),
            Plan::SelectEq(p, _, _)
            | Plan::Project(p)
            | Plan::HavingEq(p, _)
            | Plan::HavingCmp(p, _, _) => p.uses_sum(),
            Plan::GroupBy(p, kind) | Plan::AggAll(p, kind) => {
                *kind == MonoidKind::Sum || p.uses_sum()
            }
        }
    }

    /// The number of operators (for reporting).
    pub fn size(&self) -> usize {
        match self {
            Plan::Scan(_) => 1,
            Plan::Union(l, r) | Plan::Difference(l, r) => 1 + l.size() + r.size(),
            Plan::SelectEq(p, _, _)
            | Plan::Project(p)
            | Plan::GroupBy(p, _)
            | Plan::AggAll(p, _)
            | Plan::HavingEq(p, _)
            | Plan::HavingCmp(p, _, _) => 1 + p.size(),
        }
    }
}

const AGG_KINDS: [MonoidKind; 3] = [MonoidKind::Sum, MonoidKind::Min, MonoidKind::Max];

/// Generates a random base-stratum plan (schema `g, v, w`).
fn random_base(rng: &mut StdRng, tables: usize, depth: usize) -> Plan {
    if depth == 0 {
        return Plan::Scan(rng.random_range(0..tables));
    }
    match rng.random_range(0..4) {
        0 => Plan::Scan(rng.random_range(0..tables)),
        1 => Plan::Union(
            Box::new(random_base(rng, tables, depth - 1)),
            Box::new(random_base(rng, tables, depth - 1)),
        ),
        2 => Plan::Difference(
            Box::new(random_base(rng, tables, depth - 1)),
            Box::new(random_base(rng, tables, depth - 1)),
        ),
        _ => {
            let col = ["g", "v", "w"][rng.random_range(0..3usize)];
            let c = rng.random_range(-3..4);
            Plan::SelectEq(Box::new(random_base(rng, tables, depth - 1)), col, c)
        }
    }
}

/// Generates a random plan, possibly with (nested) aggregation.
pub fn random_plan(rng: &mut StdRng, tables: usize, depth: usize) -> Plan {
    match rng.random_range(0..6) {
        0 => random_base(rng, tables, depth),
        1 => Plan::Project(Box::new(random_base(rng, tables, depth))),
        2 => Plan::AggAll(
            Box::new(random_base(rng, tables, depth)),
            AGG_KINDS[rng.random_range(0..AGG_KINDS.len())],
        ),
        3..=4 => Plan::GroupBy(
            Box::new(random_base(rng, tables, depth)),
            AGG_KINDS[rng.random_range(0..AGG_KINDS.len())],
        ),
        _ => {
            // Nested aggregation: HAVING over a grouped plan, possibly
            // combined with a further difference of grouped plans.
            let g1 = Plan::GroupBy(
                Box::new(random_base(rng, tables, depth)),
                AGG_KINDS[rng.random_range(0..AGG_KINDS.len())],
            );
            let having = if rng.random_bool(0.5) {
                Plan::HavingEq(Box::new(g1), rng.random_range(-3..8))
            } else {
                let pred = [CmpPred::Lt, CmpPred::Le, CmpPred::Ne][rng.random_range(0..3usize)];
                Plan::HavingCmp(Box::new(g1), pred, rng.random_range(-3..8))
            };
            if rng.random_bool(0.4) {
                let g2 = Plan::GroupBy(
                    Box::new(random_base(rng, tables, depth)),
                    AGG_KINDS[rng.random_range(0..AGG_KINDS.len())],
                );
                Plan::Difference(Box::new(having), Box::new(g2))
            } else {
                having
            }
        }
    }
}

/// Evaluates a plan over annotated tables.
pub fn eval_mk<A: AggAnnotation>(plan: &Plan, tables: &[MKRel<A>]) -> Result<MKRel<A>> {
    let serial = ExecOptions::serial();
    match plan {
        Plan::Scan(i) => Ok(tables[*i].clone()),
        Plan::Union(l, r) => ops::union(&eval_mk(l, tables)?, &eval_mk(r, tables)?, &serial),
        Plan::Difference(l, r) => difference(&eval_mk(l, tables)?, &eval_mk(r, tables)?),
        Plan::SelectEq(p, col, c) => ops::select_eq(&eval_mk(p, tables)?, col, &Value::int(*c)),
        Plan::Project(p) => ops::project(&eval_mk(p, tables)?, &["g", "v"], &serial),
        Plan::GroupBy(p, kind) => ops::group_by(
            &eval_mk(p, tables)?,
            &["g"],
            &[AggSpec {
                kind: *kind,
                attr: "v",
                out: AGG_COL,
            }],
            &serial,
        ),
        Plan::AggAll(p, kind) => ops::agg_all(
            &eval_mk(p, tables)?,
            &[AggSpec {
                kind: *kind,
                attr: "v",
                out: AGG_COL,
            }],
        ),
        Plan::HavingEq(p, c) => ops::select_eq(&eval_mk(p, tables)?, AGG_COL, &Value::int(*c)),
        Plan::HavingCmp(p, pred, c) => {
            ops::select_cmp(&eval_mk(p, tables)?, AGG_COL, *pred, &Value::int(*c))
        }
    }
}

/// Evaluates a plan over plain bags with the reference engine. Mirrors the
/// annotated semantics at `K = ℕ` (the δ-annotation makes each group count
/// once; the hybrid difference keeps multiplicities of survivors).
pub fn eval_bag(plan: &Plan, tables: &[BagRel]) -> BagRel {
    match plan {
        Plan::Scan(i) => tables[*i].clone(),
        Plan::Union(l, r) => eval_bag(l, tables).union(&eval_bag(r, tables)),
        Plan::Difference(l, r) => {
            // Hybrid semantics (§5): keep rows of `l` absent from `r`,
            // with their multiplicity.
            let left = eval_bag(l, tables);
            let right = eval_bag(r, tables);
            BagRel {
                attrs: left.attrs.clone(),
                rows: left
                    .rows
                    .iter()
                    .filter(|row| !right.rows.contains(row))
                    .cloned()
                    .collect(),
            }
        }
        Plan::SelectEq(p, col, c) => eval_bag(p, tables).select_eq(col, &Const::int(*c)),
        Plan::Project(p) => eval_bag(p, tables).project(&["g", "v"]),
        Plan::GroupBy(p, kind) => {
            let mut out = eval_bag(p, tables).group_aggregate(&["g"], *kind, "v");
            out.attrs[1] = AGG_COL.to_string();
            out
        }
        Plan::AggAll(p, kind) => {
            let value = eval_bag(p, tables).aggregate(*kind, "v");
            BagRel::new(&[AGG_COL], vec![vec![value]])
        }
        Plan::HavingEq(p, c) => eval_bag(p, tables).select_eq(AGG_COL, &Const::int(*c)),
        Plan::HavingCmp(p, pred, c) => {
            let rel = eval_bag(p, tables);
            let idx = rel
                .attrs
                .iter()
                .position(|a| a == AGG_COL)
                .expect("agg column");
            let c = Const::int(*c);
            rel.select(|row| pred.decide(&row[idx], &c))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randrel::{random_prov_tables, to_bag};
    use aggprov_algebra::hom::Valuation;
    use aggprov_algebra::semiring::Nat;
    use aggprov_core::eval::{collapse, map_hom_mk, read_off_bag};
    use rand::SeedableRng;

    #[test]
    fn plans_evaluate_on_both_engines() {
        let mut rng = StdRng::seed_from_u64(7);
        let (tables, tokens) = random_prov_tables(&mut rng, 2, 6);
        let val = Valuation::<Nat>::ones().set_all(
            tokens
                .iter()
                .map(|t| (aggprov_algebra::poly::Var::new(t), Nat(1))),
        );
        for _ in 0..30 {
            let plan = random_plan(&mut rng, 2, 2);
            let annotated = eval_mk(&plan, &tables).unwrap();
            let specialized = map_hom_mk(&annotated, &|p| val.eval(p));
            let ours = read_off_bag(&collapse(&specialized).unwrap()).unwrap();
            let bags: Vec<BagRel> = tables.iter().map(|t| to_bag(t, &val)).collect();
            let reference = eval_bag(&plan, &bags);
            assert_eq!(ours.sorted_rows(), reference.sorted_rows(), "plan {plan:?}");
        }
    }
}
