//! The plan-validator corpus: every golden workload plan (MICRO, SELJOIN,
//! TPCH) validates clean in both full and sample mode, and a corpus of
//! deliberately malformed plans is rejected — each with the *right* typed
//! [`PlanError`], not merely "some error". This is the contract the
//! service edge relies on: well-formed traffic is never rejected, and
//! every executor panic class the validator guards against is caught
//! before a worker sees it.

use uaq_datagen::{generate, GenConfig};
use uaq_engine::{
    plan_query, validate, validate_cached, validate_on_samples, AggFunc, CmpOp, Op, Plan,
    PlanBuilder, PlanError, Pred, SortOrder, MAX_PLAN_DEPTH,
};
use uaq_stats::Rng;
use uaq_storage::{Catalog, Column, Schema, Table, Value};
use uaq_workloads::Benchmark;

/// A small hand-built catalog with known names and types, so each
/// malformed plan can target one specific defect.
fn toy_catalog() -> Catalog {
    let mut c = Catalog::new();
    let t = Schema::new(vec![Column::int("a"), Column::int("b"), Column::str("s")]);
    let rows = (0..100)
        .map(|i| {
            vec![
                Value::Int(i % 10),
                Value::Int(i),
                Value::Str(format!("r{i}").into()),
            ]
        })
        .collect();
    c.add_table(Table::new("t", t, rows));
    let u = Schema::new(vec![Column::int("x"), Column::str("label")]);
    let rows = (0..50)
        .map(|i| vec![Value::Int(i % 10), Value::Str(format!("u{i}").into())])
        .collect();
    c.add_table(Table::new("u", u, rows));
    c
}

#[test]
fn every_golden_workload_plan_validates_clean() {
    for (bench, seed) in [
        (Benchmark::Micro, 71u64),
        (Benchmark::SelJoin, 72),
        (Benchmark::Tpch, 73),
    ] {
        let catalog = generate(&GenConfig::new(0.001, 0.0, seed));
        let mut rng = Rng::new(seed);
        let samples = catalog.draw_samples(0.05, 2, &mut Rng::new(seed));
        for q in bench.queries(&catalog, 2, &mut rng) {
            let plan = plan_query(&q, &catalog);
            validate(&plan, &catalog).unwrap_or_else(|e| {
                panic!(
                    "{} query {} rejected in full mode: {e}",
                    bench.label(),
                    q.name
                )
            });
            validate_on_samples(&plan, &catalog, &samples).unwrap_or_else(|e| {
                panic!(
                    "{} query {} rejected in sample mode: {e}",
                    bench.label(),
                    q.name
                )
            });
        }
    }
}

/// Asserts a plan fails validation and hands the error to `check`.
fn expect_err(catalog: &Catalog, plan: &Plan, check: impl FnOnce(&PlanError)) {
    match validate(plan, catalog) {
        Ok(()) => panic!("plan unexpectedly validated:\n{}", plan.explain()),
        Err(e) => check(&e),
    }
}

#[test]
fn unknown_table_is_rejected() {
    let c = toy_catalog();
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("nosuch", Pred::True);
    expect_err(&c, &b.build(s), |e| {
        assert!(
            matches!(e, PlanError::UnknownTable { table, .. } if table == "nosuch"),
            "{e}"
        );
        assert_eq!(e.code(), "unknown_table");
    });
}

#[test]
fn unknown_columns_are_rejected_in_every_context() {
    let c = toy_catalog();
    // Scan predicate.
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::lt("ghost", Value::Int(1)));
    expect_err(&c, &b.build(s), |e| {
        assert!(
            matches!(e, PlanError::UnknownColumn { column, context, .. }
                if column == "ghost" && *context == "predicate"),
            "{e}"
        );
    });
    // Sort key.
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::True);
    let srt = b.sort(s, vec![("ghost".into(), SortOrder::Asc)]);
    expect_err(&c, &b.build(srt), |e| {
        assert!(
            matches!(e, PlanError::UnknownColumn { context, .. } if *context == "sort key"),
            "{e}"
        );
    });
    // Join keys, both sides.
    for (lk, rk, ctx) in [
        ("ghost", "x", "left join key"),
        ("a", "ghost", "right join key"),
    ] {
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::True);
        let j = b.hash_join(l, r, lk, rk);
        expect_err(&c, &b.build(j), |e| {
            assert!(
                matches!(e, PlanError::UnknownColumn { context, .. } if *context == ctx),
                "{e}"
            );
        });
    }
    // Group-by key and aggregate input.
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::True);
    let a = b.aggregate(s, vec!["ghost".into()], vec![]);
    expect_err(&c, &b.build(a), |e| {
        assert!(
            matches!(e, PlanError::UnknownColumn { context, .. } if *context == "group-by key"),
            "{e}"
        );
    });
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::True);
    let a = b.aggregate(s, vec![], vec![("v".into(), AggFunc::Sum("ghost".into()))]);
    expect_err(&c, &b.build(a), |e| {
        assert!(
            matches!(e, PlanError::UnknownColumn { context, .. } if *context == "aggregate input"),
            "{e}"
        );
    });
    // Column-to-column comparison, unknown right side.
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::col_cmp("a", CmpOp::Eq, "ghost"));
    expect_err(&c, &b.build(s), |e| {
        assert!(matches!(e, PlanError::UnknownColumn { .. }), "{e}");
    });
}

#[test]
fn string_vs_numeric_ordering_is_rejected_but_equality_is_not() {
    let c = toy_catalog();
    // Each of these would panic inside `Value::cmp` at execution time.
    let bad = [
        Pred::lt("a", Value::str("zzz")),
        Pred::ge("s", Value::Int(3)),
        Pred::between("a", Value::Int(0), Value::str("hi")),
        Pred::col_cmp("a", CmpOp::Lt, "s"),
        Pred::and(vec![Pred::True, Pred::gt("s", Value::Float(0.5))]),
    ];
    for p in bad {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", p);
        expect_err(&c, &b.build(s), |e| {
            assert!(matches!(e, PlanError::OrderingTypeMismatch { .. }), "{e}");
            assert_eq!(e.code(), "ordering_type_mismatch");
        });
    }
    // Equality across those types is total (always false), so Eq/Ne and
    // IN-lists stay legal — rejecting them would break real workloads.
    let fine = [
        Pred::eq("a", Value::str("zzz")),
        Pred::cmp("s", CmpOp::Ne, Value::Int(1)),
        Pred::in_list("a", vec![Value::str("x"), Value::Int(3)]),
        Pred::col_cmp("a", CmpOp::Eq, "s"),
    ];
    for p in fine {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", p);
        let plan = b.build(s);
        validate(&plan, &c).unwrap_or_else(|e| panic!("equality wrongly rejected: {e}"));
    }
}

#[test]
fn nan_literals_are_rejected_under_ordering_but_not_equality() {
    let c = toy_catalog();
    let nan = || Value::Float(f64::NAN);
    // Each of these would panic in the executor's float ordering.
    let bad = [
        Pred::lt("a", nan()),
        Pred::cmp("b", CmpOp::Ge, nan()),
        Pred::between("a", nan(), Value::Int(5)),
        Pred::between("a", Value::Float(0.5), nan()),
        Pred::or(vec![Pred::eq("a", Value::Int(1)), Pred::gt("a", nan())]),
    ];
    for p in bad {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", p);
        expect_err(&c, &b.build(s), |e| {
            assert!(matches!(e, PlanError::NanLiteral { .. }), "{e}");
            assert_eq!(e.code(), "nan_literal");
        });
    }
    // Equality on floats is bit equality, total over NaN: it executes
    // (matching nothing here) instead of being rejected.
    let fine = [
        Pred::eq("a", nan()),
        Pred::cmp("a", CmpOp::Ne, nan()),
        Pred::in_list("a", vec![nan(), Value::Int(3)]),
    ];
    for p in fine {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", p);
        let plan = b.build(s);
        validate(&plan, &c).unwrap_or_else(|e| panic!("NaN equality wrongly rejected: {e}"));
        uaq_engine::execute_full(&plan, &c);
    }
}

#[test]
fn join_defects_are_rejected() {
    let c = toy_catalog();
    // Int ⋈ Str keys can never compare equal.
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("t", Pred::True);
    let r = b.seq_scan("u", Pred::True);
    let j = b.hash_join(l, r, "a", "label");
    expect_err(&c, &b.build(j), |e| {
        assert!(
            matches!(e, PlanError::JoinKeyTypeMismatch { left_key, right_key, .. }
                if left_key == "a" && right_key == "label"),
            "{e}"
        );
    });
    // Self-join output would hold every column of `t` twice — the
    // executor's `Schema::concat` assert, pre-empted.
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("t", Pred::True);
    let r = b.seq_scan("t", Pred::True);
    let j = b.nl_join(l, r, "a", "a");
    expect_err(&c, &b.build(j), |e| {
        assert!(matches!(e, PlanError::DuplicateJoinColumn { .. }), "{e}");
    });
}

#[test]
fn unconstrained_index_key_is_rejected() {
    let c = toy_catalog();
    // The predicate filters `b`, so the index on `a` has no lookup key.
    let mut b = PlanBuilder::new();
    let s = b.index_scan("t", "a", Pred::lt("b", Value::Int(10)));
    expect_err(&c, &b.build(s), |e| {
        assert!(
            matches!(e, PlanError::IndexKeyUnconstrained { key_col, .. } if key_col == "a"),
            "{e}"
        );
    });
    // Constrained is fine.
    let mut b = PlanBuilder::new();
    let s = b.index_scan("t", "a", Pred::eq("a", Value::Int(3)));
    validate(&b.build(s), &c).expect("constrained index scan validates");
}

#[test]
fn aggregates_over_strings_are_rejected() {
    let c = toy_catalog();
    for func in [AggFunc::Sum("s".into()), AggFunc::Avg("s".into())] {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::True);
        let a = b.aggregate(s, vec![], vec![("v".into(), func)]);
        expect_err(&c, &b.build(a), |e| {
            assert!(
                matches!(e, PlanError::AggregateTypeMismatch { column, .. } if column == "s"),
                "{e}"
            );
        });
    }
    // Min/Max order within one column's type — legal on strings.
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::True);
    let a = b.aggregate(s, vec![], vec![("m".into(), AggFunc::Min("s".into()))]);
    validate(&b.build(a), &c).expect("Min over strings validates");
}

#[test]
fn orphan_nodes_and_excessive_depth_are_rejected() {
    let c = toy_catalog();
    // An arena with a node the root never reaches: `Plan::new` accepts it
    // (no node has two parents), but executing it would silently ignore
    // half the arena the caller paid to build.
    let nodes = vec![
        Op::SeqScan {
            table: "t".into(),
            predicate: Pred::True,
        },
        Op::SeqScan {
            table: "u".into(),
            predicate: Pred::True,
        },
    ];
    let plan = Plan::new(nodes, 0);
    expect_err(&c, &plan, |e| {
        assert!(
            matches!(e, PlanError::UnreachableNodes { nodes } if nodes == &[1]),
            "{e}"
        );
    });
    // A filter chain one past the executor's recursion budget.
    let mut b = PlanBuilder::new();
    let mut node = b.seq_scan("t", Pred::True);
    for _ in 0..MAX_PLAN_DEPTH {
        node = b.filter(node, Pred::True);
    }
    expect_err(&c, &b.build(node), |e| {
        assert!(matches!(e, PlanError::ExcessiveDepth { .. }), "{e}");
    });
    // Exactly at the budget is fine.
    let mut b = PlanBuilder::new();
    let mut node = b.seq_scan("t", Pred::True);
    for _ in 0..MAX_PLAN_DEPTH - 1 {
        node = b.filter(node, Pred::True);
    }
    validate(&b.build(node), &c).expect("depth at the budget validates");
}

#[test]
fn sample_mode_requires_samples_for_every_leaf() {
    let mut c = toy_catalog();
    let samples = c.draw_samples(0.2, 1, &mut Rng::new(5));
    // `v` exists in the catalog but was added after the samples were
    // drawn — full mode fine, sample mode must reject.
    let v = Schema::new(vec![Column::int("k")]);
    c.add_table(Table::new(
        "v",
        v,
        (0..10).map(|i| vec![Value::Int(i)]).collect(),
    ));
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("v", Pred::True);
    let plan = b.build(s);
    validate(&plan, &c).expect("full mode validates");
    match validate_on_samples(&plan, &c, &samples) {
        Err(PlanError::MissingSamples { table, .. }) => assert_eq!(table, "v"),
        other => panic!("expected MissingSamples, got {other:?}"),
    }
}

#[test]
fn cached_verdicts_survive_clone_and_catalog_swap() {
    let c = toy_catalog();
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::lt("ghost", Value::Int(1)));
    let plan = b.build(s);
    let first = validate_cached(&plan, &c).expect_err("malformed plan");
    // The verdict is interned: a clone carries it, and re-checking agrees.
    let cloned = plan.clone();
    assert_eq!(
        validate_cached(&cloned, &c).expect_err("still malformed"),
        first
    );
    // A different catalog (different fingerprint) in which the column
    // exists: the memo must not serve the stale rejection.
    let mut c2 = Catalog::new();
    let t = Schema::new(vec![Column::int("ghost")]);
    c2.add_table(Table::new("t", t, vec![vec![Value::Int(1)]]));
    validate_cached(&plan, &c2).expect("valid under the swapped catalog");
}
