//! Property-tested equivalence between the hash-partitioned physical
//! operators ([`aggprov_core::ops`]) and the literal §4.3 reference
//! implementations ([`aggprov_core::specops`]).
//!
//! The relations are generated with a *mixed* ground/symbolic population:
//! most values are constants (exercising the hash/merge fast partitions),
//! a fraction are symbolic `SUM` tensors (exercising the token-weighted
//! cross terms and the recombination of the two partitions). Equality is
//! full structural equality of the result relations — schema, support,
//! and every annotation, bit for bit.

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::tensor::Tensor;
use aggprov_core::km::Km;
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::{specops, Value};
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use proptest::prelude::*;

type P = Km<NatPoly>;

fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// One generated cell: decoded into a ground constant or a symbolic `SUM`
/// tensor. `(kind, var_index, int_value)` with kind 0–5: 0–2 ground ints,
/// 3 a ground string, 4–5 a symbolic tensor (≈1/3 symbolic).
type RawVal = (u8, usize, i64);

fn decode_val(raw: RawVal) -> Value<P> {
    let (kind, vi, n) = raw;
    match kind {
        0..=2 => Value::int(n),
        3 => Value::str(if n % 2 == 0 { "s0" } else { "s1" }),
        _ => Value::agg_normalized(
            MonoidKind::Sum,
            Tensor::from_terms(&MonoidKind::Sum, [(tok(VARS[vi]), Const::int(n))]),
        ),
    }
}

/// Numeric-only cell (for aggregated columns, where a string would be a
/// carrier-type error on both paths).
fn decode_num_val(raw: RawVal) -> Value<P> {
    let (kind, vi, n) = raw;
    if kind <= 3 {
        Value::int(n)
    } else {
        Value::agg_normalized(
            MonoidKind::Sum,
            Tensor::from_terms(&MonoidKind::Sum, [(tok(VARS[vi]), Const::int(n))]),
        )
    }
}

fn raw_val() -> impl Strategy<Value = RawVal> {
    (0u8..6, 0..VARS.len(), -2i64..5)
}

fn rel_from(prefix: &str, schema: Schema, rows: Vec<Vec<Value<P>>>) -> MKRel<P> {
    Relation::from_rows(
        schema,
        rows.into_iter()
            .enumerate()
            .map(|(i, row)| (row, tok(&format!("{prefix}{i}")))),
    )
    .unwrap()
}

fn arb_rel2(
    prefix: &'static str,
    a: &'static str,
    b: &'static str,
) -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((raw_val(), raw_val()), 0..7).prop_map(move |rows| {
        rel_from(
            prefix,
            Schema::new([a, b]).unwrap(),
            rows.into_iter()
                .map(|(x, y)| vec![decode_val(x), decode_val(y)])
                .collect(),
        )
    })
}

/// A `(group-key, numeric)` relation for the grouping/aggregation tests.
fn arb_group_rel() -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((raw_val(), raw_val()), 0..7).prop_map(|rows| {
        rel_from(
            "g",
            Schema::new(["g", "v"]).unwrap(),
            rows.into_iter()
                .map(|(x, y)| vec![decode_val(x), decode_num_val(y)])
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn union_hash_matches_spec(r1 in arb_rel2("a", "a", "b"), r2 in arb_rel2("b", "a", "b")) {
        let hash = ops::union(&r1, &r2, &ExecOptions::serial()).unwrap();
        let spec = specops::union(&r1, &r2).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn project_hash_matches_spec(rel in arb_rel2("a", "a", "b"), keep_b in prop::bool::ANY) {
        let attrs: Vec<&str> = if keep_b { vec!["b", "a"] } else { vec!["a"] };
        let hash = ops::project(&rel, &attrs, &ExecOptions::serial()).unwrap();
        let spec = specops::project(&rel, &attrs).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn join_on_hash_matches_spec(r1 in arb_rel2("a", "a", "b"), r2 in arb_rel2("b", "c", "d")) {
        let hash = ops::join_on(&r1, &r2, &[("a", "c")], &ExecOptions::serial()).unwrap();
        let spec = specops::join_on(&r1, &r2, &[("a", "c")]).unwrap();
        prop_assert_eq!(hash, spec);

        // The empty-`on` (cartesian product) shape as well.
        let hash = ops::join_on(&r1, &r2, &[], &ExecOptions::serial()).unwrap();
        let spec = specops::join_on(&r1, &r2, &[]).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn two_column_join_hash_matches_spec(
        r1 in arb_rel2("a", "a", "b"),
        r2 in arb_rel2("b", "c", "d"),
    ) {
        let on = [("a", "c"), ("b", "d")];
        let hash = ops::join_on(&r1, &r2, &on, &ExecOptions::serial()).unwrap();
        let spec = specops::join_on(&r1, &r2, &on).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn group_by_hash_matches_spec(rel in arb_group_rel()) {
        let specs = [AggSpec::new(MonoidKind::Sum, "v")];
        let hash = ops::group_by(&rel, &["g"], &specs, &ExecOptions::serial()).unwrap();
        let spec = specops::group_by(&rel, &["g"], &specs).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn agg_all_hash_matches_spec(rel in arb_group_rel()) {
        let specs = [AggSpec::new(MonoidKind::Sum, "v")];
        let hash = ops::agg_all(&rel, &specs).unwrap();
        let spec = specops::agg_all(&rel, &specs).unwrap();
        prop_assert_eq!(hash, spec);
    }
}
