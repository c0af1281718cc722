//! Edge-case integration tests for the executor: empty inputs, degenerate
//! joins, and operators stacked in unusual ways.

use uaq_engine::{execute_full, execute_on_samples, AggFunc, PlanBuilder, Pred, SortOrder};
use uaq_stats::Rng;
use uaq_storage::{Catalog, Column, Schema, Table, Value};

fn catalog_with(t_rows: usize, u_rows: usize) -> Catalog {
    let mut c = Catalog::new();
    let ts = Schema::new(vec![Column::int("a"), Column::int("b")]);
    c.add_table(Table::new(
        "t",
        ts,
        (0..t_rows)
            .map(|i| vec![Value::Int((i % 5) as i64), Value::Int(i as i64)])
            .collect(),
    ));
    let us = Schema::new(vec![Column::int("x"), Column::int("y")]);
    c.add_table(Table::new(
        "u",
        us,
        (0..u_rows)
            .map(|i| vec![Value::Int((i % 5) as i64), Value::Int(i as i64)])
            .collect(),
    ));
    c
}

#[test]
fn empty_table_scans_and_joins() {
    let c = catalog_with(0, 10);
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("t", Pred::True);
    let r = b.seq_scan("u", Pred::True);
    let j = b.hash_join(l, r, "a", "x");
    let plan = b.build(j);
    let out = execute_full(&plan, &c);
    assert!(out.is_empty());
    assert_eq!(out.traces[j].left_input_rows, 0);
    assert_eq!(out.traces[j].right_input_rows, 10);
}

#[test]
fn join_with_no_matches() {
    let mut c = Catalog::new();
    let ts = Schema::new(vec![Column::int("a")]);
    c.add_table(Table::new(
        "t",
        ts,
        (0..20).map(|i| vec![Value::Int(i)]).collect(),
    ));
    let us = Schema::new(vec![Column::int("x")]);
    c.add_table(Table::new(
        "u",
        us,
        (100..120).map(|i| vec![Value::Int(i)]).collect(),
    ));
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("t", Pred::True);
    let r = b.seq_scan("u", Pred::True);
    let j = b.hash_join(l, r, "a", "x");
    let plan = b.build(j);
    assert!(execute_full(&plan, &c).is_empty());
}

#[test]
fn sort_of_empty_and_single_row() {
    let c = catalog_with(1, 0);
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::True);
    let srt = b.sort(s, vec![("b".into(), SortOrder::Desc)]);
    let plan = b.build(srt);
    assert_eq!(execute_full(&plan, &c).num_rows(), 1);

    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::eq("b", Value::Int(-1)));
    let srt = b.sort(s, vec![("b".into(), SortOrder::Asc)]);
    let plan = b.build(srt);
    assert!(execute_full(&plan, &c).is_empty());
}

#[test]
fn aggregate_above_aggregate_uses_optimizer_path() {
    // Group, then filter the groups, then aggregate again — the second
    // aggregate sits above a provenance-free region and must still execute.
    let c = catalog_with(100, 0);
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::True);
    let a1 = b.aggregate(
        s,
        vec!["a".into()],
        vec![("cnt".into(), AggFunc::CountStar)],
    );
    let f = b.filter(a1, Pred::gt("cnt", Value::Int(10)));
    let a2 = b.aggregate(f, vec![], vec![("groups".into(), AggFunc::CountStar)]);
    let plan = b.build(a2);
    let out = execute_full(&plan, &c);
    assert_eq!(out.num_rows(), 1);
    // 5 groups of 20 rows each, all > 10.
    assert_eq!(out.rows()[0][0], Value::Int(5));

    // The same plan must run over samples without provenance panics. Sample
    // mode executes only what sits below the first aggregate: the scan keeps
    // its provenance, everything at or above `a1` is skipped.
    let mut rng = Rng::new(3);
    let samples = c.draw_samples(0.5, 1, &mut rng);
    let sout = execute_on_samples(&plan, &samples);
    assert_eq!(sout.num_rows(), 0);
    let scanned = samples.sample("t", 0).len();
    assert_eq!(sout.traces[s].output_rows, scanned);
    assert!(sout.traces[s].prov.is_some());
    assert_eq!(sout.traces[a1].left_input_rows, scanned);
    for id in [a1, f, a2] {
        assert!(sout.traces[id].prov.is_none(), "node {id}");
        assert_eq!(sout.traces[id].output_rows, 0, "node {id}");
    }
}

#[test]
fn nested_loop_join_with_empty_inner() {
    let c = catalog_with(10, 0);
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("t", Pred::True);
    let r = b.seq_scan("u", Pred::True);
    let m = b.materialize(r);
    let j = b.nl_join(l, m, "a", "x");
    let plan = b.build(j);
    assert!(execute_full(&plan, &c).is_empty());
}

#[test]
fn min_max_aggregates_on_strings() {
    let mut c = Catalog::new();
    let s = Schema::new(vec![Column::str("name")]);
    c.add_table(Table::new(
        "t",
        s,
        ["delta", "alpha", "charlie"]
            .iter()
            .map(|&n| vec![Value::str(n)])
            .collect(),
    ));
    let mut b = PlanBuilder::new();
    let scan = b.seq_scan("t", Pred::True);
    let a = b.aggregate(
        scan,
        vec![],
        vec![
            ("lo".into(), AggFunc::Min("name".into())),
            ("hi".into(), AggFunc::Max("name".into())),
        ],
    );
    let plan = b.build(a);
    let out = execute_full(&plan, &c);
    assert_eq!(out.rows()[0][0], Value::str("alpha"));
    assert_eq!(out.rows()[0][1], Value::str("delta"));
}

#[test]
fn deep_filter_stack_keeps_provenance() {
    let c = catalog_with(200, 0);
    let mut b = PlanBuilder::new();
    let mut node = b.seq_scan("t", Pred::True);
    for i in 0..5 {
        node = b.filter(node, Pred::ge("b", Value::Int(i * 10)));
    }
    let plan = b.build(node);
    let mut rng = Rng::new(4);
    let samples = c.draw_samples(0.5, 1, &mut rng);
    let out = execute_on_samples(&plan, &samples);
    let prov = out.traces[node]
        .prov
        .as_ref()
        .expect("provenance survives filters");
    assert_eq!(prov.rows(), out.num_rows());
    // The surviving rows really satisfy the stacked predicate.
    for row in out.rows() {
        assert!(row[1].as_int() >= 40);
    }
}

#[test]
fn duplicate_key_join_produces_cross_products_per_key() {
    // 3 copies of key 7 on each side ⇒ 9 output rows.
    let mut c = Catalog::new();
    let ts = Schema::new(vec![Column::int("a")]);
    c.add_table(Table::new("t", ts, vec![vec![Value::Int(7)]; 3]));
    let us = Schema::new(vec![Column::int("x")]);
    c.add_table(Table::new("u", us, vec![vec![Value::Int(7)]; 3]));
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("t", Pred::True);
    let r = b.seq_scan("u", Pred::True);
    let j = b.hash_join(l, r, "a", "x");
    let plan = b.build(j);
    assert_eq!(execute_full(&plan, &c).num_rows(), 9);
}
