//! Every figure and worked example of the paper, reproduced end-to-end
//! through the SQL engine (experiments E1, E3–E6 of DESIGN.md).

use aggprov::algebra::hom::Valuation;
use aggprov::algebra::poly::NatPoly;
use aggprov::algebra::semiring::{CommutativeSemiring, Nat, Security};
use aggprov::algebra::sn::Sn;
use aggprov::core::eval::{collapse, map_hom_mk};
use aggprov::core::{Km, Value};
use aggprov::engine::{Database, ProvDb};
use aggprov_krel::relation::Tuple;

/// Figure 1(a): the employee relation with tokens p1..p3, r1, r2.
fn figure_1_db() -> ProvDb {
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (emp NUM, dept TEXT, sal NUM);
         INSERT INTO r VALUES (1, 'd1', 20) PROVENANCE p1;
         INSERT INTO r VALUES (2, 'd1', 10) PROVENANCE p2;
         INSERT INTO r VALUES (3, 'd1', 15) PROVENANCE p3;
         INSERT INTO r VALUES (4, 'd2', 10) PROVENANCE r1;
         INSERT INTO r VALUES (5, 'd2', 15) PROVENANCE r2;",
    )
    .unwrap();
    db
}

#[test]
fn figure_1_projection_and_deletions() {
    let db = figure_1_db();
    let out = db.query("SELECT dept FROM r").unwrap();
    // Figure 1(b).
    let ann = |d: &str| {
        out.annotation(&Tuple::from([Value::str(d)]))
            .try_collapse()
            .unwrap()
            .to_string()
    };
    assert_eq!(ann("d1"), "p1 + p2 + p3");
    assert_eq!(ann("d2"), "r1 + r2");

    // Deleting EmpId 3 and 5 (p3 = r2 = 0) keeps both depts; also deleting
    // EmpId 4 (r1 = 0) drops d2 — exactly the paper's narrative.
    let del = |tokens: &[&str]| {
        let val = Valuation::<Nat>::ones().set_all(
            tokens
                .iter()
                .map(|t| (aggprov::algebra::poly::Var::new(t), Nat(0))),
        );
        map_hom_mk(&out, &|p: &NatPoly| val.eval(p)).len()
    };
    assert_eq!(del(&["p3", "r2"]), 2);
    assert_eq!(del(&["p3", "r2", "r1"]), 1);
    assert_eq!(del(&["p1", "p2", "p3"]), 1);
}

#[test]
fn example_3_4_sum_and_valuations() {
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (sal NUM);
         INSERT INTO r VALUES (20) PROVENANCE r1;
         INSERT INTO r VALUES (10) PROVENANCE r2;
         INSERT INTO r VALUES (30) PROVENANCE r3;",
    )
    .unwrap();
    let out = db.query("SELECT SUM(sal) AS total FROM r").unwrap();
    let (t, k) = out.iter().next().unwrap();
    assert!(k.is_one(), "AGG output is annotated 1_K (§3.2)");
    assert_eq!(t.get(0).to_string(), "SUM⟨(r2)⊗10 + (r1)⊗20 + (r3)⊗30⟩");

    // r1 ↦ 1, r2 ↦ 0, r3 ↦ 2 gives 1·20 + 2·30 = 80.
    let val = Valuation::<Nat>::ones()
        .set("r1", Nat(1))
        .set("r2", Nat(0))
        .set("r3", Nat(2));
    let resolved = collapse(&map_hom_mk(&out, &|p: &NatPoly| val.eval(p))).unwrap();
    assert_eq!(resolved.iter().next().unwrap().0.get(0), &Value::int(80));

    // Deletion of the first tuple (r1 ↦ 0, others 1): 10 + 30 = 40…
    let val = Valuation::<Nat>::ones().set("r1", Nat(0));
    let resolved = collapse(&map_hom_mk(&out, &|p: &NatPoly| val.eval(p))).unwrap();
    assert_eq!(resolved.iter().next().unwrap().0.get(0), &Value::int(40));
}

#[test]
fn example_3_5_security_views() {
    // MAX over S⊗20 + 1s⊗10 + S⊗30.
    let mut db: Database<Km<Security>> = Database::new();
    db.exec(
        "CREATE TABLE r (sal NUM);
         INSERT INTO r VALUES (20) PROVENANCE S;
         INSERT INTO r VALUES (10) PROVENANCE PUBLIC;
         INSERT INTO r VALUES (30) PROVENANCE S;",
    )
    .unwrap();
    let out = db.query("SELECT MAX(sal) AS top FROM r").unwrap();
    let view = |cred: Security| {
        let v = map_hom_mk(&out, &|s: &Security| {
            if s.visible_to(cred) {
                Security::Public
            } else {
                Security::Never
            }
        });
        let value = v.iter().next().unwrap().0.get(0).clone();
        value
    };
    // Credentials C see only the public tuple (10); S and T see 30.
    assert_eq!(view(Security::Confidential), Value::int(10));
    assert_eq!(view(Security::Secret), Value::int(30));
    assert_eq!(view(Security::TopSecret), Value::int(30));
}

#[test]
fn example_3_8_group_by_with_delta() {
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (dept TEXT, sal NUM);
         INSERT INTO r VALUES ('d1', 20) PROVENANCE r1;
         INSERT INTO r VALUES ('d1', 10) PROVENANCE r2;
         INSERT INTO r VALUES ('d2', 10) PROVENANCE r3;",
    )
    .unwrap();
    let out = db
        .query("SELECT dept, SUM(sal) AS sal FROM r GROUP BY dept")
        .unwrap();
    let rows: Vec<String> = out.iter().map(|(t, k)| format!("{t} @ {k}")).collect();
    assert_eq!(
        rows,
        vec![
            "('d1', SUM⟨(r2)⊗10 + (r1)⊗20⟩) @ δ(r1 + r2)",
            "('d2', SUM⟨(r3)⊗10⟩) @ δ(r3)",
        ]
    );
    // "if we map r1, r2 to e.g. 2 and 1 respectively, we obtain δ(3) = 1".
    let val = Valuation::<Nat>::ones().set("r1", Nat(2)).set("r2", Nat(1));
    let resolved = collapse(&map_hom_mk(&out, &|p: &NatPoly| val.eval(p))).unwrap();
    let d1 = resolved
        .iter()
        .find(|(t, _)| t.get(0) == &Value::str("d1"))
        .unwrap();
    assert_eq!(d1.1, &Nat(1));
    assert_eq!(d1.0.get(1), &Value::int(50));
}

#[test]
fn examples_4_1_4_3_4_5_nested_aggregation() {
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (dept TEXT, sal NUM);
         INSERT INTO r VALUES ('d1', 20) PROVENANCE r1;
         INSERT INTO r VALUES ('d1', 10) PROVENANCE r2;
         INSERT INTO r VALUES ('d2', 10) PROVENANCE r3;",
    )
    .unwrap();
    // Example 4.3: select groups whose summed salary equals 20.
    let selected = db
        .query("SELECT dept, SUM(sal) AS sal FROM r GROUP BY dept HAVING sal = 20")
        .unwrap();
    assert_eq!(selected.len(), 2, "both kept with symbolic tokens");

    let resolve = |r1: u64, r2: u64, r3: u64| {
        let val = Valuation::<Nat>::ones()
            .set("r1", Nat(r1))
            .set("r2", Nat(r2))
            .set("r3", Nat(r3));
        collapse(&map_hom_mk(&selected, &|p: &NatPoly| val.eval(p))).unwrap()
    };
    // r1=1, r2=0: d1's sum is 20 → kept. r1=r2=1: 30 → dropped
    // (the non-monotonicity of Example 4.1).
    assert_eq!(resolve(1, 0, 1).len(), 1);
    assert_eq!(resolve(1, 1, 1).len(), 0);
    // r3 = 2: d2 sums to 20 → kept.
    let out = resolve(0, 0, 2);
    assert_eq!(out.len(), 1);
    assert_eq!(out.iter().next().unwrap().0.get(0), &Value::str("d2"));

    // Example 4.5: a further SUM over the selected relation, written as a
    // FROM-subquery.
    let total = db
        .query(
            "SELECT SUM(s) AS total FROM \
             (SELECT dept, SUM(sal) AS s FROM r GROUP BY dept HAVING s = 20) g",
        )
        .unwrap();
    // h(r1)=1, h(r2)=0, h(r3)=2: d1 contributes 20, d2 contributes 20 → 40.
    let val = Valuation::<Nat>::ones()
        .set("r1", Nat(1))
        .set("r2", Nat(0))
        .set("r3", Nat(2));
    let resolved = collapse(&map_hom_mk(&total, &|p: &NatPoly| val.eval(p))).unwrap();
    assert_eq!(resolved.iter().next().unwrap().0.get(0), &Value::int(40));
    // Non-monotone: r2 ↦ 1 flips d1 out: only d2's 20 remains.
    let val = Valuation::<Nat>::ones()
        .set("r1", Nat(1))
        .set("r2", Nat(1))
        .set("r3", Nat(2));
    let resolved = collapse(&map_hom_mk(&total, &|p: &NatPoly| val.eval(p))).unwrap();
    assert_eq!(resolved.iter().next().unwrap().0.get(0), &Value::int(20));
}

#[test]
fn example_5_3_difference_via_except() {
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (id NUM, dep TEXT);
         INSERT INTO r VALUES (1, 'd1') PROVENANCE t1;
         INSERT INTO r VALUES (2, 'd1') PROVENANCE t2;
         INSERT INTO r VALUES (2, 'd2') PROVENANCE t3;
         CREATE TABLE s (dep TEXT);
         INSERT INTO s VALUES ('d1') PROVENANCE t4;",
    )
    .unwrap();
    let out = db
        .query("SELECT dep FROM r EXCEPT SELECT dep FROM s")
        .unwrap();
    assert_eq!(out.len(), 2);
    let d2 = out.annotation(&Tuple::from([Value::str("d2")]));
    assert_eq!(d2.try_collapse(), Some(NatPoly::token("t3")));

    // Revoking the closure (t4 ↦ 0) revives d1 with t1 + t2.
    let val = Valuation::<NatPoly>::with_default(NatPoly::zero())
        .set("t1", NatPoly::token("t1"))
        .set("t2", NatPoly::token("t2"))
        .set("t3", NatPoly::token("t3"))
        .set("t4", NatPoly::zero());
    let revived = map_hom_mk(&out, &|p: &NatPoly| val.eval(p));
    assert_eq!(
        revived
            .annotation(&Tuple::from([Value::str("d1")]))
            .try_collapse()
            .unwrap()
            .to_string(),
        "t1 + t2"
    );

    // Example 5.6: all tokens ↦ 1 — ours deletes d1 entirely, bag monus
    // would keep it with multiplicity 1.
    let ours = collapse(&map_hom_mk(&out, &|p: &NatPoly| {
        Valuation::<Nat>::ones().eval(p)
    }))
    .unwrap();
    assert_eq!(ours.len(), 1);
}

#[test]
fn example_3_16_security_bag() {
    // SN ⊗ SUM: AGG(R ∪ Π_{S.A}(S ⋈ R)) with T, S, 1s annotations.
    let mut db: Database<Km<Sn>> = Database::new();
    db.exec(
        "CREATE TABLE r (a NUM);
         INSERT INTO r VALUES (30) PROVENANCE S;
         CREATE TABLE s (a NUM);
         INSERT INTO s VALUES (30) PROVENANCE T;
         INSERT INTO s VALUES (10) PROVENANCE PUBLIC;",
    )
    .unwrap();
    use aggprov::algebra::monoid::MonoidKind;
    use aggprov::core::ops::{agg, product, project, union, AggSpec};
    use aggprov::core::par::ExecOptions;
    let r = db.table("r").unwrap().clone();
    let s = db.table("s").unwrap().clone();
    // Π_{S.A}(S ⋈ R): the paper's S.A and R.A are distinct attributes, so
    // the join is a product; projecting back to S's values multiplies each
    // S annotation by R's.
    let joined = {
        let s2 = s.rename("a", "b").unwrap();
        let j = product(&s2, &r).unwrap();
        project(&j, &["b"], &ExecOptions::serial())
            .unwrap()
            .rename("b", "a")
            .unwrap()
    };
    let unioned = union(&r, &joined, &ExecOptions::serial()).unwrap();
    let total = agg(&unioned, AggSpec::new(MonoidKind::Sum, "a")).unwrap();
    let (t, _) = total.iter().next().unwrap();
    // Expected: (T·S + S)⊗30 + S⊗10 — counts {t:1, s:1} on 30 and {s:1}
    // on 10 (T·S = T in SN).
    let shown = t.get(0).to_string();
    assert_eq!(shown, "SUM⟨(S)⊗10 + (S + T)⊗30⟩");

    // The paper: credentials T see 70, credentials S see 40.
    let view = |cred: Security| {
        let v = map_hom_mk(&total, &|x: &Sn| Nat(x.multiplicity_for(cred)));
        collapse(&v)
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .0
            .get(0)
            .clone()
    };
    assert_eq!(view(Security::TopSecret), Value::int(70));
    assert_eq!(view(Security::Secret), Value::int(40));
    assert_eq!(view(Security::Confidential), Value::int(0));
}
