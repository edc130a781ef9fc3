//! Regenerates every figure and worked example of the paper, plus the
//! desiderata measurement tables (T1–T8 of DESIGN.md / EXPERIMENTS.md).
//!
//! Run with: `cargo run --release -p aggprov-bench --bin tables`

use aggprov_algebra::domain::Const;
use aggprov_algebra::hom::Valuation;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::semiring::{CommutativeSemiring, IntZ, Nat, Security};
use aggprov_algebra::sn::Sn;
use aggprov_algebra::tensor::Tensor;
use aggprov_bench::fig2_input;
use aggprov_core::difference::laws::{check_bag_monus, check_ours, check_z, DiffLaw};
use aggprov_core::eval::{collapse, map_hom_mk};
use aggprov_core::km::Km;
use aggprov_core::naive::{naive_size, naive_table};
use aggprov_core::ops::{group_by, select_eq, AggSpec, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::{Prov, Value};
use aggprov_engine::{Database, ProvDb};
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use aggprov_workloads::org::{org, OrgParams};

fn heading(id: &str, title: &str) {
    println!();
    println!("==================================================================");
    println!("{id}: {title}");
    println!("==================================================================");
}

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
    .expect("figure 1");
    db
}

fn t1_figure_1() {
    heading("T1 (Figure 1)", "projection on annotated relations");
    let db = figure_1_db();
    println!("Figure 1(a): R");
    println!("{}", db.table("r").expect("table"));
    println!("Figure 1(b): Π_Dept R");
    println!("{}", db.query("SELECT dept FROM r").expect("projection"));
}

fn t2_figure_2() {
    heading(
        "T2 (Figure 2)",
        "naive tuple-level aggregation vs tensor values",
    );
    // Figure 2(a): dept d1 with salaries 20, 10, 15.
    let input = [
        (
            aggprov_algebra::poly::Var::new("p1"),
            aggprov_algebra::num::Num::int(20),
        ),
        (
            aggprov_algebra::poly::Var::new("p2"),
            aggprov_algebra::num::Num::int(10),
        ),
        (
            aggprov_algebra::poly::Var::new("p3"),
            aggprov_algebra::num::Num::int(15),
        ),
    ];
    println!("Figure 2(a): every subset of d1's tuples becomes a row");
    for row in naive_table(MonoidKind::Sum, &input) {
        println!("  d1  {:>3}   {}", row.value.to_string(), row.condition);
    }
    println!();
    println!("Figure 2(b): after deleting the tuple with token p3 (p3 = 0):");
    for row in naive_table(MonoidKind::Sum, &input[..2]) {
        println!("  d1  {:>3}   {}", row.value.to_string(), row.condition);
    }
    println!();
    println!("The paper's point — representation sizes as n grows:");
    println!(
        "{:>4} {:>16} {:>16}",
        "n", "naive (nodes)", "tensor (terms)"
    );
    for n in [2usize, 4, 6, 8, 10, 12, 14] {
        let input = fig2_input(n);
        let naive = naive_size(&naive_table(MonoidKind::Sum, &input));
        let tensor = Tensor::<NatPoly, Const>::from_terms(
            &MonoidKind::Sum,
            input
                .iter()
                .map(|(v, num)| (NatPoly::var(v.clone()), Const::Num(*num))),
        );
        println!("{n:>4} {naive:>16} {:>16}", tensor.len());
    }
    println!("(naive is Θ(2^n); the tensor representation is linear)");
}

fn t3_examples_34_35() {
    heading(
        "T3 (Examples 3.4, 3.5)",
        "AGG values and their specializations",
    );
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (sal NUM);
         INSERT INTO r VALUES (20) PROVENANCE r1;
         INSERT INTO r VALUES (10) PROVENANCE r2;
         INSERT INTO r VALUES (30) PROVENANCE r3;",
    )
    .expect("example 3.4");
    let total = db.query("SELECT SUM(sal) AS total FROM r").expect("sum");
    println!("Example 3.4: AGG_SUM(R) =");
    println!("{total}");
    let val = Valuation::<Nat>::ones()
        .set("r1", Nat(1))
        .set("r2", Nat(0))
        .set("r3", Nat(2));
    let resolved = collapse(&map_hom_mk(&total, &|p: &NatPoly| val.eval(p))).expect("resolve");
    println!("  r1↦1, r2↦0, r3↦2 resolves to:");
    println!("{resolved}");

    let mut sdb: Database<Km<Security>> = Database::new();
    sdb.exec(
        "CREATE TABLE r (sal NUM);
         INSERT INTO r VALUES (20) PROVENANCE S;
         INSERT INTO r VALUES (10) PROVENANCE PUBLIC;
         INSERT INTO r VALUES (30) PROVENANCE S;",
    )
    .expect("example 3.5");
    let top = sdb.query("SELECT MAX(sal) AS top FROM r").expect("max");
    println!("Example 3.5: AGG_MAX(R) over the security semiring =");
    println!("{top}");
    for cred in [Security::Confidential, Security::Secret] {
        let view = map_hom_mk(&top, &|s: &Security| {
            if s.visible_to(cred) {
                Security::Public
            } else {
                Security::Never
            }
        });
        let shown = view
            .iter()
            .next()
            .map(|(t, _)| t.get(0).to_string())
            .unwrap_or_default();
        println!("  credentials {cred}: MAX = {shown}");
    }
}

fn t4_example_38() {
    heading("T4 (Example 3.8)", "GROUP BY with δ-annotations");
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (dept TEXT, sal NUM);
         INSERT INTO r VALUES ('d1', 20) PROVENANCE r1;
         INSERT INTO r VALUES ('d1', 10) PROVENANCE r2;
         INSERT INTO r VALUES ('d2', 10) PROVENANCE r3;",
    )
    .expect("example 3.8");
    println!(
        "{}",
        db.query("SELECT dept, SUM(sal) AS sal FROM r GROUP BY dept")
            .expect("group by")
    );
}

fn t5_examples_43_45() {
    heading(
        "T5 (Examples 4.3, 4.5)",
        "nested aggregation: symbolic equality tokens",
    );
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (dept TEXT, sal NUM);
         INSERT INTO r VALUES ('d1', 20) PROVENANCE r1;
         INSERT INTO r VALUES ('d1', 10) PROVENANCE r2;
         INSERT INTO r VALUES ('d2', 10) PROVENANCE r3;",
    )
    .expect("load");
    let selected = db
        .query("SELECT dept, SUM(sal) AS sal FROM r GROUP BY dept HAVING sal = 20")
        .expect("example 4.3");
    println!("Example 4.3: σ_{{sal = 20}}(GB(R)) =");
    println!("{selected}");

    let total = aggprov_core::ops::agg(&selected, AggSpec::new(MonoidKind::Sum, "sal"))
        .expect("example 4.5");
    println!("Example 4.5: summing again over the selection =");
    println!("{total}");
    for (r1, r2, r3) in [(1u64, 0u64, 2u64), (1, 1, 2)] {
        let val = Valuation::<Nat>::ones()
            .set("r1", Nat(r1))
            .set("r2", Nat(r2))
            .set("r3", Nat(r3));
        let resolved = collapse(&map_hom_mk(&total, &|p: &NatPoly| val.eval(p))).expect("resolve");
        let shown = resolved
            .iter()
            .next()
            .map(|(t, _)| t.get(0).to_string())
            .unwrap_or_default();
        println!("  r1↦{r1}, r2↦{r2}, r3↦{r3}: total = {shown}");
    }
}

fn t6_examples_53_56() {
    heading("T6 (Examples 5.3, 5.6)", "difference via aggregation");
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE emp (id NUM, dep TEXT);
         INSERT INTO emp VALUES (1, 'd1') PROVENANCE t1;
         INSERT INTO emp VALUES (2, 'd1') PROVENANCE t2;
         INSERT INTO emp VALUES (2, 'd2') PROVENANCE t3;
         CREATE TABLE closing (dep TEXT);
         INSERT INTO closing VALUES ('d1') PROVENANCE t4;",
    )
    .expect("example 5.3");
    let open = db
        .query("SELECT dep FROM emp EXCEPT SELECT dep FROM closing")
        .expect("difference");
    println!("(Π_dep emp) − closing =");
    println!("{open}");
    let revoked = map_hom_mk(&open, &|p: &NatPoly| {
        Valuation::<NatPoly>::ones()
            .set_all(
                ["t1", "t2", "t3"].map(|t| (aggprov_algebra::poly::Var::new(t), NatPoly::token(t))),
            )
            .set("t4", NatPoly::zero())
            .eval(p)
    });
    println!("after revoking the closure (t4 ↦ 0):");
    println!("{revoked}");
    let ours = collapse(&map_hom_mk(&open, &|p: &NatPoly| {
        Valuation::<Nat>::ones().eval(p)
    }))
    .expect("resolve");
    println!(
        "Example 5.6 (all tokens ↦ 1): hybrid keeps {} row(s);",
        ours.len()
    );
    println!("bag monus would keep d1 with multiplicity 1.");
}

fn t7_overhead() {
    heading(
        "T7 (desideratum D3)",
        "poly-size overhead of symbolic annotations",
    );
    println!(
        "{:>8} {:>14} {:>18} {:>20}",
        "tuples", "result rows", "size (group-by)", "size (having query)"
    );
    for per_dept in [10usize, 20, 40, 80, 160] {
        let workload = org(OrgParams {
            departments: 10,
            employees_per_dept: per_dept,
            ..Default::default()
        });
        let grouped = group_by(
            &workload.emp,
            &["dept"],
            &[AggSpec::new(MonoidKind::Sum, "sal")],
            &ExecOptions::serial(),
        )
        .expect("group by");
        let having = select_eq(&grouped, "sal", &Value::int(1000)).expect("having");
        let gsize: usize = grouped
            .iter()
            .map(|(t, k)| k.size() + t.values().iter().map(|v| v.size()).sum::<usize>())
            .sum();
        let hsize: usize = having
            .iter()
            .map(|(t, k)| k.size() + t.values().iter().map(|v| v.size()).sum::<usize>())
            .sum();
        println!(
            "{:>8} {:>14} {:>18} {:>20}",
            10 * per_dept,
            grouped.len(),
            gsize,
            hsize
        );
    }
    println!("(sizes grow linearly in the input — the D3 desideratum; the naive");
    println!(" baseline of T2 is exponential)");
}

fn t8_law_matrix() {
    heading(
        "T8 (Props 5.4–5.7)",
        "difference-law matrix across semantics",
    );
    let mk = |rows: &[(i64, u64)]| -> MKRel<Nat> {
        Relation::from_rows(
            Schema::new(["x"]).expect("schema"),
            rows.iter().map(|(v, n)| (vec![Value::int(*v)], Nat(*n))),
        )
        .expect("rows")
    };
    let (a, b, c) = (
        mk(&[(1, 2), (2, 1)]),
        mk(&[(1, 1), (3, 2)]),
        mk(&[(3, 1), (4, 1)]),
    );
    let nb = |rel: &MKRel<Nat>| {
        let mut out = Relation::empty(rel.schema().clone());
        for (t, k) in rel.iter() {
            let row: Vec<Const> = t
                .values()
                .iter()
                .map(|v| v.as_const().expect("const").clone())
                .collect();
            out.insert(row, *k).expect("insert");
        }
        out
    };
    let (ba, bb, bc) = (nb(&a), nb(&b), nb(&c));
    let zr = |rows: &[(i64, i64)]| {
        Relation::from_rows(
            Schema::new(["x"]).expect("schema"),
            rows.iter().map(|(v, n)| ([Const::int(*v)], IntZ(*n))),
        )
        .expect("rows")
    };
    let (za, zb, zc) = (
        zr(&[(1, 2), (2, 1)]),
        zr(&[(1, 1), (3, 2)]),
        zr(&[(3, 1), (4, 1)]),
    );
    println!(
        "{:<34} {:>8} {:>10} {:>4}",
        "law", "hybrid", "bag-monus", "ℤ"
    );
    let mark = |b: bool| if b { "✓" } else { "✗" };
    for law in DiffLaw::ALL {
        println!(
            "{:<34} {:>8} {:>10} {:>4}",
            law.name(),
            mark(check_ours(law, &a, &b, &c).expect("ours")),
            mark(check_bag_monus(law, &ba, &bb, &bc).expect("monus")),
            mark(check_z(law, &za, &zb, &zc).expect("z")),
        );
    }
}

fn t9_example_316() {
    heading("T9 (Example 3.16)", "the security-bag semiring SN with SUM");
    let mut db: Database<Km<Sn>> = Database::new();
    db.exec(
        "CREATE TABLE r (a NUM);
         INSERT INTO r VALUES (30) PROVENANCE S;
         CREATE TABLE s (a NUM);
         INSERT INTO s VALUES (30) PROVENANCE T;
         INSERT INTO s VALUES (10) PROVENANCE PUBLIC;",
    )
    .expect("example 3.16");
    use aggprov_core::ops::{agg, product, project, union};
    let r = db.table("r").expect("r").clone();
    let s = db.table("s").expect("s").clone();
    let joined = {
        let s2 = s.rename("a", "b").expect("rename");
        let j = product(&s2, &r).expect("product");
        project(&j, &["b"], &ExecOptions::serial())
            .expect("project")
            .rename("b", "a")
            .expect("rename")
    };
    let unioned = union(&r, &joined, &ExecOptions::serial()).expect("union");
    let total = agg(&unioned, AggSpec::new(MonoidKind::Sum, "a")).expect("agg");
    println!("AGG(R ∪ Π_S.A(S ⋈ R)) over SN =");
    println!("{total}");
    for cred in [
        Security::TopSecret,
        Security::Secret,
        Security::Confidential,
    ] {
        let view = map_hom_mk(&total, &|x: &Sn| Nat(x.multiplicity_for(cred)));
        let shown = collapse(&view)
            .expect("resolve")
            .iter()
            .next()
            .map(|(t, _)| t.get(0).to_string())
            .unwrap_or_default();
        println!("  credentials {cred}: SUM = {shown}");
    }
}

fn t10_eager_resolution_ablation() {
    heading(
        "T10 (ablation)",
        "eager token resolution vs fully symbolic tokens",
    );
    // Over a bag database every HAVING token resolves eagerly; construct
    // the same annotations with resolution suppressed to see the cost.
    let workload = org(OrgParams {
        departments: 10,
        employees_per_dept: 40,
        ..Default::default()
    });
    let bag_emp = aggprov_core::eval::map_mk(&workload.emp, &|_| Nat(1));
    let grouped = group_by(
        &bag_emp,
        &["dept"],
        &[AggSpec::new(MonoidKind::Sum, "sal")],
        &ExecOptions::serial(),
    )
    .expect("group by");
    let eager = select_eq(&grouped, "sal", &Value::int(1000)).expect("having");
    let eager_size: usize = eager.iter().map(|(_, k)| 1 + format!("{k}").len()).sum();

    // Suppressed resolution: raw Km atoms comparing the same tensors.
    let mut raw_size = 0usize;
    for (t, _) in grouped.iter() {
        let tensor = t.get(1).to_tensor(MonoidKind::Sum).expect("tensor");
        let raw = Km::<Nat>::atom(aggprov_core::Atom::Eq(
            (
                MonoidKind::Sum,
                tensor.map_coeffs(&MonoidKind::Sum, &mut |k| Km::embed(*k)),
            ),
            (
                MonoidKind::Sum,
                Tensor::iota(&MonoidKind::Sum, Const::int(1000)),
            ),
        ));
        raw_size += 1 + format!("{raw}").len();
    }
    println!("HAVING over a bag database (ℕ annotations):");
    println!("  with eager resolution (axiom *): total annotation text {eager_size} chars");
    println!("  fully symbolic tokens:           total annotation text {raw_size} chars");
    println!("(resolution collapses decidable tokens to 0/1 — Prop 4.4 in action)");
}

fn main() {
    println!("aggprov — experiment tables (see EXPERIMENTS.md for discussion)");
    t1_figure_1();
    t2_figure_2();
    t3_examples_34_35();
    t4_example_38();
    t5_examples_43_45();
    t6_examples_53_56();
    t7_overhead();
    t8_law_matrix();
    t9_example_316();
    t10_eager_resolution_ablation();
    // Exercise Prov for the type alias re-export.
    let _: Option<Prov> = None;
}
