//! Golden equivalence tests: the columnar executor must produce *identical*
//! `ExecOutcome`s — rows, schemas, per-node traces, and flat provenance
//! matrices — to the row-based reference executor (`exec_row`, the seed
//! semantics, compiled only into the engine's tests) on the paper's MICRO,
//! SELJOIN, and TPC-H-like workloads, in both full and sample mode.
//!
//! Because all estimator math (`ρ_n`, `S_n²`, covariance bounds) consumes
//! only `ExecOutcome`, equality here proves the columnar refactor cannot
//! change any prediction.
//!
//! Sample mode executes only the nodes below the first aggregate on their
//! root path (both executors; see `execute_on_samples`): there the two must
//! agree on everything, provenance row order included, and at or above an
//! aggregate both must have left the trace empty. Root rows and traces
//! above aggregates are compared in full mode.

mod exec_row;

use exec_row::{execute_full_rows, execute_on_samples_rows, RowOutcome};
use uaq_datagen::GenConfig;
use uaq_engine::{
    execute_full, execute_on_samples, plan_query, AggFunc, ExecOutcome, Plan, PlanBuilder, Pred,
    QuerySpec, SortOrder,
};
use uaq_stats::Rng;
use uaq_storage::{Catalog, SampleCatalog, Value};
use uaq_workloads::Benchmark;

/// Asserts two outcomes agree cell-for-cell and trace-for-trace.
fn assert_outcomes_equal(cols: &ExecOutcome, rows: &RowOutcome, label: &str) {
    assert_eq!(
        cols.schema.len(),
        rows.schema.len(),
        "{label}: schema arity"
    );
    for (a, b) in cols.schema.columns().iter().zip(rows.schema.columns()) {
        assert_eq!(a.name, b.name, "{label}: column name");
        assert_eq!(a.ty, b.ty, "{label}: column type");
    }
    assert_eq!(cols.num_rows(), rows.rows.len(), "{label}: row count");
    for (i, (a, b)) in cols.rows().iter().zip(&rows.rows).enumerate() {
        assert_eq!(a, b, "{label}: row {i}");
    }
    assert_eq!(cols.traces.len(), rows.traces.len(), "{label}: trace count");
    for (id, (a, b)) in cols.traces.iter().zip(&rows.traces).enumerate() {
        assert_eq!(a.output_rows, b.output_rows, "{label}: node {id} output");
        assert_eq!(
            a.left_input_rows, b.left_input_rows,
            "{label}: node {id} left input"
        );
        assert_eq!(
            a.right_input_rows, b.right_input_rows,
            "{label}: node {id} right input"
        );
        match (&a.prov, &b.prov) {
            (None, None) => {}
            (Some(pa), Some(pb)) => {
                assert_eq!(pa.arity(), pb.arity(), "{label}: node {id} prov arity");
                // Logical equality: `ProvData::eq` reads row-by-row through
                // any selection indirection, so a selection-backed matrix
                // must carry bit-identical step indices to the dense one.
                assert_eq!(pa, pb, "{label}: node {id} prov data");
            }
            _ => panic!("{label}: node {id} prov presence mismatch"),
        }
    }
}

fn check_plan(plan: &Plan, catalog: &Catalog, samples: &SampleCatalog, label: &str) {
    let full_col = execute_full(plan, catalog);
    let full_row = execute_full_rows(plan, catalog);
    assert_outcomes_equal(&full_col, &full_row, &format!("{label} [full]"));

    let samp_col = execute_on_samples(plan, samples);
    let samp_row = execute_on_samples_rows(plan, samples);
    assert_outcomes_equal(&samp_col, &samp_row, &format!("{label} [sample]"));
    for id in plan.node_ids() {
        let trace = &samp_col.traces[id];
        if plan.meta(id).agg_at_or_below {
            assert!(trace.prov.is_none(), "{label}: node {id} was executed");
            assert_eq!(trace.output_rows, 0, "{label}: node {id} was executed");
        } else {
            assert!(trace.prov.is_some(), "{label}: node {id} lost its prov");
        }
    }
}

/// Every template on a mildly and a fully skewed (`z = 1`, the paper's
/// skewed databases) catalog: skew changes which strings a sample holds,
/// so each string template meets present and absent literals.
fn check_benchmark(benchmark: Benchmark, instances: usize, seed: u64) {
    for z in [0.3, 1.0] {
        let catalog = GenConfig::new(0.001, z, seed).build();
        let mut rng = Rng::new(seed ^ 0xC0FFEE);
        let samples = catalog.draw_samples(0.1, 2, &mut rng);
        let specs = benchmark.queries(&catalog, instances, &mut rng);
        assert!(!specs.is_empty());
        for spec in &specs {
            let plan = plan_query(spec, &catalog);
            check_plan(&plan, &catalog, &samples, &format!("{} z={z}", spec.name));
        }
    }
}

#[test]
fn micro_workload_is_equivalent() {
    check_benchmark(Benchmark::Micro, 1, 11);
}

#[test]
fn seljoin_workload_is_equivalent() {
    check_benchmark(Benchmark::SelJoin, 2, 12);
}

#[test]
fn tpch_workload_is_equivalent() {
    check_benchmark(Benchmark::Tpch, 1, 13);
}

/// Hand-built plans covering shapes the generated workloads may miss:
/// NULL-free aggregates over every function, outer provenance drop above
/// aggregates, nested-loop joins, sorts above joins, and empty results.
#[test]
fn edge_shapes_are_equivalent() {
    let catalog = GenConfig::new(0.001, 0.0, 21).build();
    let mut rng = Rng::new(99);
    let samples = catalog.draw_samples(0.08, 2, &mut rng);

    // Aggregate with all functions, then filter above it (prov dropped).
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("lineitem", Pred::gt("l_quantity", Value::Float(10.0)));
    let a = b.aggregate(
        s,
        vec!["l_returnflag".into()],
        vec![
            ("cnt".into(), AggFunc::CountStar),
            ("s".into(), AggFunc::Sum("l_quantity".into())),
            ("av".into(), AggFunc::Avg("l_extendedprice".into())),
            ("mn".into(), AggFunc::Min("l_quantity".into())),
            ("mx".into(), AggFunc::Max("l_quantity".into())),
        ],
    );
    let f = b.filter(a, Pred::gt("cnt", Value::Int(0)));
    let srt = b.sort(f, vec![("s".into(), SortOrder::Desc)]);
    check_plan(&b.build(srt), &catalog, &samples, "agg-filter-sort");

    // Empty result: predicate nothing matches, under a join.
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("orders", Pred::lt("o_orderdate", Value::Int(-1)));
    let r = b.seq_scan("lineitem", Pred::True);
    let j = b.hash_join(l, r, "o_orderkey", "l_orderkey");
    check_plan(&b.build(j), &catalog, &samples, "empty-join");

    // Nested-loop join with materialized inner and residual ColCmp filter.
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("supplier", Pred::True);
    let r = b.seq_scan("nation", Pred::True);
    let m = b.materialize(r);
    let j = b.nl_join(l, m, "s_nationkey", "n_nationkey");
    check_plan(&b.build(j), &catalog, &samples, "nl-join");

    // Scalar aggregate over empty input (one output row from zero input),
    // including MIN/MAX over every column type — the empty-input default
    // must be typed (Int 0 / Float 0.0 / Str "") in both executors.
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("customer", Pred::lt("c_acctbal", Value::Float(-1e18)));
    let a = b.aggregate(
        s,
        vec![],
        vec![
            ("cnt".into(), AggFunc::CountStar),
            ("s".into(), AggFunc::Sum("c_acctbal".into())),
            ("min_f".into(), AggFunc::Min("c_acctbal".into())),
            ("max_i".into(), AggFunc::Max("c_custkey".into())),
            ("min_s".into(), AggFunc::Min("c_mktsegment".into())),
        ],
    );
    check_plan(&b.build(a), &catalog, &samples, "empty-scalar-agg");
}

/// Small relations with heavily duplicated Int join keys (`t.a`, `u.x`,
/// `w.p` all in `0..6`) and a Float column, for the sample-mode joins that
/// probe a sample table's shared key index.
fn dup_key_catalog() -> Catalog {
    use uaq_storage::{Column, Schema, Table};
    let mut catalog = Catalog::new();
    for (name, cols, n, modulus) in [
        ("t", ["a", "b", "tf"], 240i64, 6i64),
        ("u", ["x", "y", "uf"], 160, 5),
        ("w", ["p", "q", "wf"], 90, 4),
    ] {
        let schema = Schema::new(vec![
            Column::int(cols[0]),
            Column::int(cols[1]),
            Column::float(cols[2]),
        ]);
        let rows = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i % modulus),
                    Value::Int(i),
                    Value::Float((i % modulus) as f64),
                ]
            })
            .collect();
        catalog.add_table(Table::new(name, schema, rows));
    }
    catalog
}

/// Every way a hash join's build side can reach the shared join index —
/// and every way it must fall back to a fresh build — against the row-based
/// reference: same cardinalities, same provenance in the same row order.
#[test]
fn indexed_sample_joins_are_equivalent() {
    let catalog = dup_key_catalog();
    let samples = catalog.draw_samples(0.5, 2, &mut Rng::new(77));
    let check = |label: &str, build: &dyn Fn(&mut PlanBuilder) -> usize| {
        let mut b = PlanBuilder::new();
        let root = build(&mut b);
        check_plan(&b.build(root), &catalog, &samples, label);
    };

    // Indexed: the build side is a row subset of one sample table.
    check("unfiltered build", &|b| {
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::True);
        b.hash_join(l, r, "a", "x")
    });
    check("filtered build, filtered probe", &|b| {
        let l = b.seq_scan("t", Pred::lt("b", Value::Int(100)));
        let r = b.seq_scan("u", Pred::ge("y", Value::Int(40)));
        b.hash_join(l, r, "a", "x")
    });
    check("empty build", &|b| {
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::lt("y", Value::Int(-1)));
        b.hash_join(l, r, "a", "x")
    });
    check("build under Filter chain and Materialize", &|b| {
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::ge("y", Value::Int(10)));
        let r = b.filter(r, Pred::lt("y", Value::Int(120)));
        let r = b.materialize(r);
        let r = b.filter(r, Pred::ge("x", Value::Int(1)));
        b.hash_join(l, r, "a", "x")
    });
    check("build under a keep-everything Filter", &|b| {
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::True);
        let r = b.filter(r, Pred::ge("y", Value::Int(0)));
        b.hash_join(l, r, "a", "x")
    });
    check("left-deep: both joins indexed", &|b| {
        let l = b.seq_scan("t", Pred::lt("b", Value::Int(200)));
        let r = b.seq_scan("u", Pred::True);
        let j = b.hash_join(l, r, "a", "x");
        let w = b.seq_scan("w", Pred::ge("q", Value::Int(5)));
        b.hash_join(j, w, "x", "p")
    });

    // Fallback: more than one leaf, reordered rows, uncovered key types.
    check("bushy build side", &|b| {
        let l = b.seq_scan("t", Pred::True);
        let u = b.seq_scan("u", Pred::True);
        let w = b.seq_scan("w", Pred::True);
        let r = b.hash_join(u, w, "x", "p");
        b.hash_join(l, r, "a", "x")
    });
    check("Sort on the build side", &|b| {
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::lt("y", Value::Int(90)));
        let r = b.sort(r, vec![("y".into(), SortOrder::Desc)]);
        b.hash_join(l, r, "a", "x")
    });
    check("Float build key", &|b| {
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::True);
        b.hash_join(l, r, "tf", "uf")
    });
    check("Float probe key on an Int build column", &|b| {
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::True);
        b.hash_join(l, r, "tf", "x")
    });
}

/// A relation scanned twice: the IR has no column renaming, so two
/// occurrences can only meet above an aggregate — where sample mode stops —
/// but each still feeds an indexed join below it. Occurrence 1 must read
/// sample copy 1 *and copy 1's index*, not copy 0's.
#[test]
fn repeated_relation_probes_its_own_copys_index() {
    let catalog = dup_key_catalog();
    let samples = catalog.draw_samples(0.5, 2, &mut Rng::new(78));
    let mut b = PlanBuilder::new();
    let u = b.seq_scan("u", Pred::True);
    let t0 = b.seq_scan("t", Pred::True);
    let j0 = b.hash_join(u, t0, "x", "a");
    let cnt = b.aggregate(j0, vec![], vec![("cnt".into(), AggFunc::CountStar)]);
    let w = b.seq_scan("w", Pred::True);
    let t1 = b.seq_scan("t", Pred::ge("b", Value::Int(30)));
    let j1 = b.hash_join(w, t1, "p", "a");
    let root = b.hash_join(cnt, j1, "cnt", "q");
    let plan = b.build(root);
    check_plan(&plan, &catalog, &samples, "repeated relation");

    let out = execute_on_samples(&plan, &samples);
    let copies = [samples.sample("t", 0), samples.sample("t", 1)];
    assert_ne!(copies[0].table().rows(), copies[1].table().rows());
    for (join, probe, copy) in [(j0, "u", 0), (j1, "w", 1)] {
        let prov = out.traces[join].prov.as_ref().expect("below the aggregate");
        assert!(prov.rows() > 0);
        let probe_rows = samples.sample(probe, 0).table().rows();
        let build_rows = copies[copy].table().rows();
        for i in 0..prov.rows() {
            let [p, t] = prov.row(i) else {
                panic!("arity 2")
            };
            assert_eq!(probe_rows[*p as usize][0], build_rows[*t as usize][0]);
        }
    }
}

/// First use is racy by design: workers share one `Arc<SampleCatalog>` and
/// whichever gets there first builds a table's index. Released together on
/// a fresh catalog, every thread must see the same traces as the row-based
/// reference.
#[test]
fn concurrent_first_use_of_the_index_is_deterministic() {
    use std::sync::{Arc, Barrier};
    let catalog = dup_key_catalog();
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("t", Pred::lt("b", Value::Int(200)));
    let r = b.seq_scan("u", Pred::ge("y", Value::Int(20)));
    let j = b.hash_join(l, r, "a", "x");
    let w = b.seq_scan("w", Pred::True);
    let root = b.hash_join(j, w, "x", "p");
    let plan = b.build(root);

    for round in 0..8 {
        let samples = Arc::new(catalog.draw_samples(0.5, 1, &mut Rng::new(round)));
        let threads = 4;
        let barrier = Barrier::new(threads);
        let outcomes: Vec<ExecOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        execute_on_samples(&plan, &samples)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sample pass panicked"))
                .collect()
        });
        let reference = execute_on_samples_rows(&plan, &samples);
        for (i, out) in outcomes.iter().enumerate() {
            assert_outcomes_equal(out, &reference, &format!("round {round} thread {i}"));
        }
    }
}

/// String and mixed Int/Float join keys exercise the generic (non-i64) hash
/// path, including `Value`'s cross-type numeric equality.
#[test]
fn generic_join_keys_are_equivalent() {
    use uaq_storage::{Column, Schema, Table};
    let mut catalog = Catalog::new();
    let s1 = Schema::new(vec![Column::int("ka"), Column::str("ta")]);
    let rows1 = (0..200)
        .map(|i| vec![Value::Int(i % 13), Value::str(format!("tag{}", i % 7))])
        .collect();
    catalog.add_table(Table::new("ta_rel", s1, rows1));
    let s2 = Schema::new(vec![Column::float("kb"), Column::str("tb")]);
    let rows2 = (0..150)
        .map(|i| {
            vec![
                Value::Float((i % 11) as f64),
                Value::str(format!("tag{}", i % 5)),
            ]
        })
        .collect();
    catalog.add_table(Table::new("tb_rel", s2, rows2));
    let mut rng = Rng::new(41);
    let samples = catalog.draw_samples(0.3, 2, &mut rng);

    // Int ⋈ Float key: Value::Int(3) joins Value::Float(3.0).
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("ta_rel", Pred::True);
    let r = b.seq_scan("tb_rel", Pred::True);
    let j = b.hash_join(l, r, "ka", "kb");
    check_plan(&b.build(j), &catalog, &samples, "int-float-join");

    // Str ⋈ Str key.
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("ta_rel", Pred::True);
    let r = b.seq_scan("tb_rel", Pred::True);
    let j = b.hash_join(l, r, "ta", "tb");
    check_plan(&b.build(j), &catalog, &samples, "str-join");

    // Same shapes through the nested-loop join.
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("ta_rel", Pred::True);
    let r = b.seq_scan("tb_rel", Pred::True);
    let j = b.nl_join(l, r, "ka", "kb");
    check_plan(&b.build(j), &catalog, &samples, "int-float-nl-join");
}

/// The planner's own output over randomized specs (belt and braces: catches
/// operator combinations the fixed benchmarks do not emit).
#[test]
fn randomized_planned_queries_are_equivalent() {
    let catalog = GenConfig::new(0.001, 0.5, 31).build();
    let mut rng = Rng::new(7);
    let samples = catalog.draw_samples(0.05, 2, &mut rng);
    for i in 0..5 {
        let d = 500 + 300 * i as i64;
        let spec = QuerySpec::scan(
            format!("rand-{i}"),
            uaq_engine::TableRef::new("orders", Pred::lt("o_orderdate", Value::Int(d))),
        )
        .with_joins(vec![uaq_engine::JoinStep::new(
            uaq_engine::TableRef::new("lineitem", Pred::gt("l_shipdate", Value::Int(d / 2))),
            "o_orderkey",
            "l_orderkey",
        )]);
        let plan = plan_query(&spec, &catalog);
        check_plan(&plan, &catalog, &samples, &spec.name);
    }
}
