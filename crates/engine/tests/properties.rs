//! Property-based tests for the execution engine: algebraic equivalences
//! that must hold for every input.

use proptest::prelude::*;
use uaq_engine::{execute_full, AggFunc, CmpOp, Plan, PlanBuilder, Pred, SortOrder};
use uaq_storage::{Catalog, Column, Row, Schema, Table, Value};

/// Builds a two-table catalog from generated data.
fn catalog(t_rows: &[(i64, i64)], u_rows: &[(i64, i64)]) -> Catalog {
    let mut c = Catalog::new();
    let ts = Schema::new(vec![Column::int("a"), Column::int("b")]);
    c.add_table(Table::new(
        "t",
        ts,
        t_rows
            .iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect(),
    ));
    let us = Schema::new(vec![Column::int("x"), Column::int("y")]);
    c.add_table(Table::new(
        "u",
        us,
        u_rows
            .iter()
            .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)])
            .collect(),
    ));
    c
}

fn sorted_rows(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..8, -20i64..20), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn hash_join_equals_nested_loop(t in rows_strategy(60), u in rows_strategy(40)) {
        let c = catalog(&t, &u);
        let hash = {
            let mut b = PlanBuilder::new();
            let l = b.seq_scan("t", Pred::True);
            let r = b.seq_scan("u", Pred::True);
            let j = b.hash_join(l, r, "a", "x");
            b.build(j)
        };
        let nl = {
            let mut b = PlanBuilder::new();
            let l = b.seq_scan("t", Pred::True);
            let r = b.seq_scan("u", Pred::True);
            let j = b.nl_join(l, r, "a", "x");
            b.build(j)
        };
        let h = execute_full(&hash, &c);
        let n = execute_full(&nl, &c);
        prop_assert_eq!(sorted_rows(h.rows()), sorted_rows(n.rows()));
    }

    #[test]
    fn filter_over_scan_equals_conjunctive_scan(t in rows_strategy(80), cut in -20i64..20) {
        let c = catalog(&t, &[]);
        let p1 = Pred::ge("a", Value::Int(2));
        let p2 = Pred::lt("b", Value::Int(cut));
        let split = {
            let mut b = PlanBuilder::new();
            let s = b.seq_scan("t", p1.clone());
            let f = b.filter(s, p2.clone());
            b.build(f)
        };
        let fused = {
            let mut b = PlanBuilder::new();
            let s = b.seq_scan("t", Pred::and(vec![p1, p2]));
            b.build(s)
        };
        prop_assert_eq!(
            sorted_rows(execute_full(&split, &c).rows()),
            sorted_rows(execute_full(&fused, &c).rows())
        );
    }

    #[test]
    fn sort_is_a_permutation_and_ordered(t in rows_strategy(80)) {
        let c = catalog(&t, &[]);
        let plan = {
            let mut b = PlanBuilder::new();
            let s = b.seq_scan("t", Pred::True);
            let srt = b.sort(s, vec![("b".into(), SortOrder::Asc), ("a".into(), SortOrder::Desc)]);
            b.build(srt)
        };
        let base = {
            let mut b = PlanBuilder::new();
            let s = b.seq_scan("t", Pred::True);
            b.build(s)
        };
        let sorted = execute_full(&plan, &c);
        let unsorted = execute_full(&base, &c);
        prop_assert_eq!(sorted_rows(sorted.rows()), sorted_rows(unsorted.rows()));
        for w in sorted.rows().windows(2) {
            let (b0, b1) = (w[0][1].as_int(), w[1][1].as_int());
            prop_assert!(b0 <= b1);
            if b0 == b1 {
                prop_assert!(w[0][0].as_int() >= w[1][0].as_int());
            }
        }
    }

    #[test]
    fn aggregate_counts_partition_the_input(t in rows_strategy(100)) {
        let c = catalog(&t, &[]);
        let plan = {
            let mut b = PlanBuilder::new();
            let s = b.seq_scan("t", Pred::True);
            let a = b.aggregate(s, vec!["a".into()], vec![("cnt".into(), AggFunc::CountStar)]);
            b.build(a)
        };
        let out = execute_full(&plan, &c);
        let total: i64 = out.rows().iter().map(|r| r[1].as_int()).sum();
        prop_assert_eq!(total as usize, t.len());
        // One row per distinct group key.
        let mut keys: Vec<i64> = t.iter().map(|&(a, _)| a).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(out.num_rows(), keys.len());
    }

    #[test]
    fn col_cmp_predicate_matches_manual_filter(t in rows_strategy(80)) {
        let c = catalog(&t, &[]);
        let plan = {
            let mut b = PlanBuilder::new();
            let s = b.seq_scan("t", Pred::col_cmp("a", CmpOp::Lt, "b"));
            b.build(s)
        };
        let got = execute_full(&plan, &c).num_rows();
        let expected = t.iter().filter(|&&(a, b)| a < b).count();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn traces_are_consistent_with_outputs(t in rows_strategy(60), u in rows_strategy(40)) {
        let c = catalog(&t, &u);
        let plan: Plan = {
            let mut b = PlanBuilder::new();
            let l = b.seq_scan("t", Pred::ge("b", Value::Int(0)));
            let r = b.seq_scan("u", Pred::True);
            let j = b.hash_join(l, r, "a", "x");
            b.build(j)
        };
        let out = execute_full(&plan, &c);
        // Join inputs must equal child outputs; root output equals rows.
        prop_assert_eq!(out.traces[2].left_input_rows, out.traces[0].output_rows);
        prop_assert_eq!(out.traces[2].right_input_rows, out.traces[1].output_rows);
        prop_assert_eq!(out.traces[2].output_rows, out.num_rows());
        // Scan inputs are the base tables.
        prop_assert_eq!(out.traces[0].left_input_rows, t.len());
        prop_assert_eq!(out.traces[1].left_input_rows, u.len());
    }

    #[test]
    fn cardinality_estimates_are_nonnegative_and_bounded_for_scans(
        t in rows_strategy(100),
        cut in -25i64..25,
    ) {
        let c = catalog(&t, &[]);
        let plan = {
            let mut b = PlanBuilder::new();
            let s = b.seq_scan("t", Pred::le("b", Value::Int(cut)));
            b.build(s)
        };
        let est = uaq_engine::estimate_cardinalities(&plan, &c);
        prop_assert!(est[0] >= 0.0);
        prop_assert!(est[0] <= t.len() as f64 + 1e-9);
    }
}

/// The words a `Str` column is drawn from, and literals around them: some
/// order before, between or after every word, so a sample never holds
/// them; a word the draw happened to miss is absent too.
const WORDS: [&str; 6] = ["ant", "bee", "cat", "dog", "eel", "fox"];
const LITERALS: [&str; 9] = [
    "aardvark", "ant", "bat", "cat", "dog", "emu", "eel", "fox", "zebra",
];

/// One relation `s(k Int, w Str, f Float)` from generated `(word, k)` pairs.
fn word_catalog(rows: &[(usize, i64)]) -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![Column::int("k"), Column::str("w"), Column::float("f")]);
    let rows = rows
        .iter()
        .map(|&(w, k)| {
            vec![
                Value::Int(k),
                Value::str(WORDS[w % WORDS.len()]),
                Value::Float(k as f64),
            ]
        })
        .collect();
    c.add_table(Table::new("s", schema, rows));
    c
}

/// Every shape the coded string path distinguishes, plus shapes it must
/// hand back to the reference kernels.
fn str_shapes(cut: i64) -> Vec<Pred> {
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let lit = |s: &str| Value::str(s);
    let mut shapes = Vec::new();
    for (i, &word) in LITERALS.iter().enumerate() {
        for op in ops {
            shapes.push(Pred::cmp("w", op, lit(word)));
        }
        let other = LITERALS[(i * 4 + 3) % LITERALS.len()];
        shapes.push(Pred::between("w", lit(word), lit(other)));
        shapes.push(Pred::in_list("w", vec![lit(word), lit(other)]));
        shapes.push(Pred::in_list("w", vec![lit(word), lit(word), lit(other)]));
        shapes.push(Pred::in_list("w", vec![lit(word)]));
        shapes.push(Pred::and(vec![
            Pred::cmp("w", ops[i % ops.len()], lit(word)),
            Pred::lt("k", Value::Int(cut)),
        ]));
    }
    shapes.extend([
        // A `Str` cell never equals a number.
        Pred::eq("w", Value::Int(1)),
        Pred::cmp("w", CmpOp::Ne, Value::Float(1.0)),
        Pred::in_list("w", vec![Value::Int(0), Value::str("cat")]),
        Pred::in_list("w", vec![Value::Float(2.0)]),
        Pred::in_list("w", vec![]),
        // Shapes the coded path leaves alone.
        Pred::and(vec![
            Pred::ge("k", Value::Int(cut)),
            Pred::eq("w", Value::str("dog")),
        ]),
        Pred::or(vec![
            Pred::eq("w", Value::str("bee")),
            Pred::gt("k", Value::Int(cut)),
        ]),
        Pred::col_cmp("w", CmpOp::Eq, "w"),
        Pred::le("k", Value::Int(cut)),
        Pred::True,
    ]);
    shapes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On either sample copy of a relation, dense or behind a chained
    /// selection, the coded selection, `filter_slices` and `eval` keep the
    /// same rows for every string shape.
    #[test]
    fn coded_string_selection_agrees_with_the_reference_kernels(
        rows in prop::collection::vec((0usize..6, -10i64..10), 1..80),
        seed in any::<u64>(),
        cut in -10i64..10,
    ) {
        use std::sync::Arc;
        use uaq_storage::ColumnSlice;
        let c = word_catalog(&rows);
        let samples = c.draw_samples(0.5, 2, &mut uaq_stats::Rng::new(seed));
        let shapes = str_shapes(cut);
        for copy in 0..2 {
            let sample = samples.sample("s", copy);
            let schema = sample.table().schema();
            let dense: Vec<ColumnSlice> = sample
                .table()
                .columns()
                .iter()
                .cloned()
                .map(ColumnSlice::dense)
                .collect();
            // Dense, one selection (k >= cut) and two (then every other
            // row): the chains a scan and filters over it hand in.
            let mut batches = vec![dense.clone()];
            let ks = Pred::ge("k", Value::Int(cut)).bind(schema).filter_slices(&dense, dense[0].len());
            let once = ColumnSlice::select_all(dense, &Arc::new(ks));
            let halves: Vec<u32> = (0..once[0].len() as u32).step_by(2).collect();
            batches.push(once.clone());
            batches.push(ColumnSlice::select_all(once, &Arc::new(halves)));
            for cols in &batches {
                let len = cols[0].len();
                let rows: Vec<Row> = (0..len)
                    .map(|i| cols.iter().map(|col| col.value(i)).collect())
                    .collect();
                for pred in &shapes {
                    let bound = pred.bind(schema);
                    let want: Vec<u32> = (0..len as u32)
                        .filter(|&i| bound.eval(&rows[i as usize]))
                        .collect();
                    prop_assert_eq!(&bound.filter_slices(cols, len), &want, "{}", pred);
                    prop_assert_eq!(
                        &bound.filter_sample(cols, len, sample),
                        &want,
                        "copy {} depth {}: {}",
                        copy,
                        cols[0].selection_depth(),
                        pred
                    );
                }
            }
        }
    }

    /// End to end in sample mode: a string filter over a filtered scan
    /// keeps exactly the steps both predicates accept, on each copy.
    #[test]
    fn sample_mode_string_filter_over_filtered_scan_keeps_the_right_steps(
        rows in prop::collection::vec((0usize..6, -10i64..10), 1..80),
        seed in any::<u64>(),
        cut in -10i64..10,
        pick in 0usize..9,
    ) {
        let c = word_catalog(&rows);
        let samples = c.draw_samples(0.5, 2, &mut uaq_stats::Rng::new(seed));
        let scan_pred = Pred::ge("k", Value::Int(cut));
        let filter_pred = Pred::in_list(
            "w",
            vec![Value::str(LITERALS[pick]), Value::str(LITERALS[(pick + 2) % 9])],
        );
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("s", scan_pred.clone());
        let f = b.filter(s, filter_pred.clone());
        let plan = b.build(f);
        let out = uaq_engine::execute_on_samples(&plan, &samples);
        let sample = samples.sample("s", 0);
        let schema = sample.table().schema();
        let (scan, filter) = (scan_pred.bind(schema), filter_pred.bind(schema));
        let want: Vec<u32> = sample
            .table()
            .rows()
            .iter()
            .zip(0u32..)
            .filter(|(row, _)| scan.eval(row) && filter.eval(row))
            .map(|(_, step)| step)
            .collect();
        let prov = out.traces[f].prov.as_ref().expect("sample mode");
        let mut got = Vec::new();
        prov.for_each_leaf_step(0, |step| got.push(step));
        prop_assert_eq!(got, want);
    }
}
