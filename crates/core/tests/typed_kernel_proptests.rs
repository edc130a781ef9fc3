//! Property tests for the typed columnar storage and its monomorphic
//! kernels: `TypedColumn` round-trips (unboxed `i64` runs, dictionary
//! re-materialization, mixed-type demotion to boxed) must be lossless,
//! and the typed fast paths must be **bit-identical** to both the forced
//! boxed baseline (`ColumnLayout::boxed()`, the `with_typed(false)` path)
//! and the row-at-a-time `ops`/`specops` reference — at
//! `threads ∈ {1, 4}`, so the sharded selection-vector kernels are under
//! the same oracle as the serial loops.

use aggprov_algebra::domain::Const;
use aggprov_algebra::num::Num;
use aggprov_algebra::poly::NatPoly;
use aggprov_core::km::{CmpPred, Km};
use aggprov_core::ops::batch::{hash_join, BatchCmp, BatchOperand, Chunk};
use aggprov_core::ops::{self, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::{specops, Value};
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use aggprov_krel::typed::{ColHint, ColumnLayout, TypedColumn};
use proptest::prelude::*;

type P = Km<NatPoly>;

fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

const STRS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One generated constant: integers dominate (the unboxed run), strings
/// share a small pool (real dictionaries), and the tail exercises the
/// boxed fallback — bools, non-integer rationals, infinities.
type RawConst = (u8, i64);

fn decode_const(raw: RawConst) -> Const {
    let (kind, n) = raw;
    match kind {
        0..=3 => Const::int(n),
        4..=6 => Const::str(STRS[(n.rem_euclid(4)) as usize]),
        7 => Const::Bool(n % 2 == 0),
        8 => Const::Num(Num::ratio(2 * n + 1, 2)),
        _ => Const::Num(if n % 2 == 0 { Num::PosInf } else { Num::NegInf }),
    }
}

fn raw_const() -> impl Strategy<Value = RawConst> {
    (0u8..10, -3i64..6)
}

/// A single-variant generator (all-int or all-string columns), for the
/// typed fast paths proper.
fn raw_int() -> impl Strategy<Value = RawConst> {
    (0u8..4, -3i64..6)
}

fn raw_str() -> impl Strategy<Value = RawConst> {
    (4u8..7, -3i64..6)
}

fn rel_from(prefix: &str, schema: Schema, rows: Vec<Vec<Const>>) -> MKRel<P> {
    Relation::from_rows(
        schema,
        rows.into_iter().enumerate().map(|(i, row)| {
            (
                row.into_iter().map(Value::Const).collect::<Vec<_>>(),
                tok(&format!("{prefix}{i}")),
            )
        }),
    )
    .unwrap()
}

/// Asserts a typed filter, its boxed twin, and the `ops` oracle agree —
/// Ok against Ok bit for bit, or all three erroring together.
fn check_filter(rel: &MKRel<P>, col: usize, attr: &str, cmp: BatchCmp, lit: Const) {
    let value = Value::Const(lit.clone());
    let want = match cmp {
        BatchCmp::Eq => ops::select_eq(rel, attr, &value),
        BatchCmp::Pred(p) => ops::select_cmp(rel, attr, p, &value),
    };
    for layout in [ColumnLayout::typed(), ColumnLayout::boxed()] {
        for threads in [1usize, 4] {
            let opts = ExecOptions::with_threads(threads);
            let mut chunk = Chunk::from_relation_with(rel, &layout);
            let got = chunk
                .filter(
                    &BatchOperand::Col(col),
                    cmp,
                    &BatchOperand::Lit(lit.clone()),
                    &opts,
                )
                .and_then(|()| chunk.into_relation());
            match (&got, &want) {
                (Ok(g), Ok(w)) => assert_eq!(g, w, "layout {layout:?} threads {threads}"),
                (Err(_), Err(_)) => {}
                _ => panic!("paths disagree on error: batch {got:?} vs ops {want:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn typed_column_round_trips_all_variants(vals in prop::collection::vec(raw_const(), 0..40)) {
        // from_consts → to_consts is the identity whatever variant the
        // probe (and any mid-stream demotion) lands on.
        let consts: Vec<Const> = vals.into_iter().map(decode_const).collect();
        let col = TypedColumn::from_consts(consts.clone());
        prop_assert_eq!(col.len(), consts.len());
        prop_assert_eq!(col.to_consts(), consts.clone());
        // Per-row access agrees with the bulk path, and one-past-the-end
        // is None, not a panic.
        for (r, c) in consts.iter().enumerate() {
            prop_assert_eq!(col.get(r).as_ref(), Some(c));
        }
        prop_assert!(col.get(consts.len()).is_none());
        // Gather of the reversed row set re-materializes losslessly
        // (dictionary columns share their dictionary through it).
        let rows: Vec<u32> = (0..consts.len() as u32).rev().collect();
        let gathered = col.gather(&rows).expect("rows in range");
        let mut rev = consts.clone();
        rev.reverse();
        prop_assert_eq!(gathered.to_consts(), rev);
    }

    #[test]
    fn relation_batch_round_trip_is_lossless(
        rows in prop::collection::vec((raw_const(), raw_const(), raw_const()), 0..12),
    ) {
        // Relation → typed chunk → Relation is the identity, whatever mix
        // of variants the three columns probe into; and the typed and
        // boxed layouts materialize the identical relation.
        let schema = Schema::new(["a", "b", "c"]).unwrap();
        let rel = rel_from(
            "t",
            schema,
            rows.into_iter()
                .map(|(x, y, z)| vec![decode_const(x), decode_const(y), decode_const(z)])
                .collect(),
        );
        let typed = Chunk::from_relation_with(&rel, &ColumnLayout::typed())
            .into_relation()
            .unwrap();
        prop_assert_eq!(&typed, &rel);
        let boxed = Chunk::from_relation_with(&rel, &ColumnLayout::boxed())
            .into_relation()
            .unwrap();
        prop_assert_eq!(&boxed, &rel);
        // A catalog hint that mispredicts the data (everything hinted
        // Num) must demote gracefully, never corrupt.
        let hinted = Chunk::from_relation_with(
            &rel,
            &ColumnLayout::with_hints(vec![Some(ColHint::Num); 3]),
        )
        .into_relation()
        .unwrap();
        prop_assert_eq!(&hinted, &rel);
    }

    #[test]
    fn typed_filter_matches_boxed_and_ops(
        rows in prop::collection::vec((raw_int(), raw_str()), 0..14),
        lit in raw_const(),
        which in 0u8..4,
    ) {
        // Column 0 is an unboxed i64 run, column 1 a dictionary column;
        // the literal ranges over every constant kind, so the compiled
        // tests cover same-type, cross-type (lazy errors), non-integer
        // rational folding and ±∞ folding.
        let schema = Schema::new(["a", "b"]).unwrap();
        let rel = rel_from(
            "t",
            schema,
            rows.into_iter()
                .map(|(x, y)| vec![decode_const(x), decode_const(y)])
                .collect(),
        );
        let cmp = match which {
            0 => BatchCmp::Eq,
            1 => BatchCmp::Pred(CmpPred::Lt),
            2 => BatchCmp::Pred(CmpPred::Le),
            _ => BatchCmp::Pred(CmpPred::Ne),
        };
        let lit = decode_const(lit);
        check_filter(&rel, 0, "a", cmp, lit.clone());
        check_filter(&rel, 1, "b", cmp, lit);
    }

    #[test]
    fn typed_join_matches_boxed_and_specops(
        l_rows in prop::collection::vec((raw_int(), raw_str()), 0..10),
        r_rows in prop::collection::vec((raw_int(), raw_str()), 0..10),
        on_str in prop::bool::ANY,
    ) {
        // Join on the i64 column or the dictionary column: the integer
        // hash index and the dictionary translation table against the
        // boxed Const index and the literal §4.3 join.
        let l = rel_from(
            "l",
            Schema::new(["a", "b"]).unwrap(),
            l_rows
                .into_iter()
                .map(|(x, y)| vec![decode_const(x), decode_const(y)])
                .collect(),
        );
        let r = rel_from(
            "r",
            Schema::new(["c", "d"]).unwrap(),
            r_rows
                .into_iter()
                .map(|(x, y)| vec![decode_const(x), decode_const(y)])
                .collect(),
        );
        let (on_idx, on_names) = if on_str {
            ([(1usize, 1usize)], [("b", "d")])
        } else {
            ([(0usize, 0usize)], [("a", "c")])
        };
        let schema = Schema::new(["a", "b", "c", "d"]).unwrap();
        let want = specops::join_on(&l, &r, &on_names).unwrap();
        for layout in [ColumnLayout::typed(), ColumnLayout::boxed()] {
            for threads in [1usize, 4] {
                let got = hash_join(
                    Chunk::from_relation_with(&l, &layout),
                    Chunk::from_relation_with(&r, &layout),
                    &on_idx,
                    schema.clone(),
                    &ExecOptions::with_threads(threads),
                )
                .unwrap()
                .into_relation()
                .unwrap();
                prop_assert_eq!(&got, &want, "layout {:?} threads {}", layout, threads);
            }
        }
    }
}

/// Above the sharding threshold (8192 rows), the fan-out kernels must be
/// bit-identical to the serial loops — including which row's error wins
/// when a cross-type ordering appears mid-column.
#[test]
fn sharded_kernels_match_serial_above_threshold() {
    const N: i64 = 20_000;
    let schema = Schema::new(["a", "b"]).unwrap();
    let rel = rel_from(
        "t",
        schema,
        (0..N)
            .map(|i| vec![Const::int(i % 257), Const::str(STRS[(i % 4) as usize])])
            .collect(),
    );
    let dim = rel_from(
        "d",
        Schema::new(["c", "e"]).unwrap(),
        (0..128)
            .map(|i| vec![Const::int(i), Const::int(i * 10)])
            .collect(),
    );
    let out_schema = Schema::new(["a", "b", "c", "e"]).unwrap();
    let mut results = Vec::new();
    for layout in [ColumnLayout::typed(), ColumnLayout::boxed()] {
        for threads in [1usize, 4] {
            let opts = ExecOptions::with_threads(threads);
            let mut chunk = Chunk::from_relation_with(&rel, &layout);
            chunk
                .filter(
                    &BatchOperand::Col(0),
                    BatchCmp::Pred(CmpPred::Lt),
                    &BatchOperand::Lit(Const::int(128)),
                    &opts,
                )
                .unwrap();
            chunk
                .filter(
                    &BatchOperand::Col(1),
                    BatchCmp::Pred(CmpPred::Ne),
                    &BatchOperand::Lit(Const::str("delta")),
                    &opts,
                )
                .unwrap();
            let joined = hash_join(
                chunk,
                Chunk::from_relation_with(&dim, &layout),
                &[(0, 0)],
                out_schema.clone(),
                &opts,
            )
            .unwrap()
            .into_relation()
            .unwrap();
            results.push(joined);
        }
    }
    for pair in results.windows(2) {
        assert_eq!(pair[0], pair[1], "layout/thread variant diverged");
    }
}
