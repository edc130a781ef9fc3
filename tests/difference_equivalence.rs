//! Proposition 5.1 and Lemma 5.2, randomized: the aggregation *encoding* of
//! difference and the direct hybrid semantics agree under every
//! homomorphism into a semiring where `ι : B̂ → K ⊗ B̂` is an isomorphism
//! (`ℕ`, `B`), and the difference guard `[S(t)⊗⊤ = 0]` reads as
//! "t is absent from S".

use aggprov::algebra::domain::Const;
use aggprov::algebra::hom::Valuation;
use aggprov::algebra::monoid::MonoidKind;
use aggprov::algebra::poly::NatPoly;
use aggprov::algebra::semiring::{Bool, Nat};
use aggprov::algebra::tensor::Tensor;
use aggprov::core::difference::{difference, difference_encoded};
use aggprov::core::eval::{collapse, map_hom_mk};
use aggprov::core::ops::MKRel;
use aggprov::core::par::ExecOptions;
use aggprov::core::{AggAnnotation, Km, Prov, Value};
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_pair(rng: &mut StdRng) -> (MKRel<Prov>, MKRel<Prov>, Vec<String>) {
    let schema = Schema::new(["x", "y"]).unwrap();
    let mut tokens = Vec::new();
    let build = |prefix: &str, rng: &mut StdRng, tokens: &mut Vec<String>| {
        let mut rel = Relation::empty(schema.clone());
        for i in 0..rng.random_range(1..6) {
            let token = format!("{prefix}{i}");
            rel.insert(
                vec![
                    Value::int(rng.random_range(0..3)),
                    Value::int(rng.random_range(0..3)),
                ],
                Km::embed(NatPoly::token(&token)),
            )
            .unwrap();
            tokens.push(token);
        }
        rel
    };
    let r = build("r", rng, &mut tokens);
    let s = build("s", rng, &mut tokens);
    (r, s, tokens)
}

#[test]
fn encoded_equals_direct_under_nat_valuations() {
    let mut rng = StdRng::seed_from_u64(3);
    for round in 0..25 {
        let (r, s, tokens) = random_pair(&mut rng);
        let direct = difference(&r, &s).unwrap();
        let encoded = difference_encoded(&r, &s).unwrap();
        for _ in 0..4 {
            let val = Valuation::<Nat>::ones().set_all(tokens.iter().map(|t| {
                (
                    aggprov::algebra::poly::Var::new(t),
                    Nat(rng.random_range(0..3)),
                )
            }));
            let d = collapse(&map_hom_mk(&direct, &|p| val.eval(p))).unwrap();
            let e = collapse(&map_hom_mk(&encoded, &|p| val.eval(p))).unwrap();
            assert_eq!(d, e, "round {round}");
        }
    }
}

#[test]
fn encoded_equals_direct_under_bool_valuations() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..25 {
        let (r, s, tokens) = random_pair(&mut rng);
        let direct = difference(&r, &s).unwrap();
        let encoded = difference_encoded(&r, &s).unwrap();
        let val = Valuation::<Bool>::ones().set_all(tokens.iter().map(|t| {
            (
                aggprov::algebra::poly::Var::new(t),
                Bool(rng.random_bool(0.6)),
            )
        }));
        let d = collapse(&map_hom_mk(&direct, &|p| val.eval(p))).unwrap();
        let e = collapse(&map_hom_mk(&encoded, &|p| val.eval(p))).unwrap();
        assert_eq!(d, e);
    }
}

#[test]
fn lemma_5_2_guard_reads_absence() {
    // h^M([S(t)⊗⊤ = 0]) = ⊤ iff h(S(t)) = ⊥, for homs into B.
    let m = MonoidKind::Or;
    let s_ann = Km::embed(NatPoly::token("s"));
    let guard = <Prov as AggAnnotation>::eq_token(
        m,
        &Tensor::simple(&m, s_ann, Const::Bool(true)),
        &Tensor::zero(),
    )
    .unwrap();
    for present in [false, true] {
        let resolved = guard
            .map_hom(&|p: &NatPoly| Valuation::<Bool>::ones().set("s", Bool(present)).eval(p))
            .try_collapse()
            .unwrap();
        assert_eq!(resolved, Bool(!present));
    }
}

#[test]
fn hybrid_difference_is_boolean_in_s_but_bag_in_r() {
    // The semantics' signature property, on concrete bags: survivors keep
    // their R-multiplicity; any presence in S (whatever multiplicity)
    // removes the tuple.
    let schema = Schema::new(["x"]).unwrap();
    let r: MKRel<Nat> = Relation::from_rows(
        schema.clone(),
        [(vec![Value::int(1)], Nat(5)), (vec![Value::int(2)], Nat(2))],
    )
    .unwrap();
    for s_mult in [1u64, 2, 9] {
        let s: MKRel<Nat> =
            Relation::from_rows(schema.clone(), [(vec![Value::int(1)], Nat(s_mult))]).unwrap();
        let d = difference(&r, &s).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(
            d.annotation(&aggprov_krel::relation::Tuple::from([Value::int(2)])),
            Nat(2),
            "survivor keeps multiplicity"
        );
    }
}

#[test]
fn minus_union_self_holds_symbolically() {
    // Proposition 5.5's positive half at the *symbolic* level: the guards
    // [(b+b)⊗⊤ = 0] and [b⊗⊤ = 0] are the same token because coefficients
    // of idempotent monoid elements are canonical up to k ~ k+k (the
    // idem_normal quotient) — so A − (B ∪ B) ≡ A − B structurally over
    // ℕ[X]^M, before any valuation.
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..20 {
        let (a, b, _) = random_pair(&mut rng);
        let bb = aggprov::core::ops::union(&b, &b, &ExecOptions::serial()).unwrap();
        let lhs = difference(&a, &bb).unwrap();
        let rhs = difference(&a, &b).unwrap();
        assert_eq!(lhs, rhs);
    }
}

#[test]
fn union_minus_fails_symbolically_with_witness() {
    // …while (A ∪ B) − B ≢ A (Prop 5.5's negative half): a concrete
    // witness where the hybrid semantics vetoes tuples of A.
    let schema = Schema::new(["x"]).unwrap();
    let a: MKRel<Prov> = Relation::from_rows(
        schema.clone(),
        [(vec![Value::int(1)], Km::embed(NatPoly::token("a1")))],
    )
    .unwrap();
    let b: MKRel<Prov> = Relation::from_rows(
        schema,
        [(vec![Value::int(1)], Km::embed(NatPoly::token("b1")))],
    )
    .unwrap();
    let lhs = difference(
        &aggprov::core::ops::union(&a, &b, &ExecOptions::serial()).unwrap(),
        &b,
    )
    .unwrap();
    assert_ne!(lhs, a, "the guard [b1⊗⊤ = 0] persists on x = 1");
    // And under b1 ↦ 1 the tuple disappears although A contains it.
    let resolved = collapse(&map_hom_mk(&lhs, &|p: &NatPoly| {
        Valuation::<Nat>::ones().eval(p)
    }))
    .unwrap();
    assert!(resolved.is_empty());
}
