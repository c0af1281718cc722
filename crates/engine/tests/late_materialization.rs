//! Stage-two zero-copy data plane: selection vectors, deferred gathers,
//! and the paged result edge.
//!
//! Three layers of evidence:
//!
//! 1. **Equivalence** (proptest): random filter chains — including
//!    selection-over-selection past the flatten bound — with optional join
//!    and sort, executed by the selection-vector engine, must match the
//!    row-at-a-time reference executor bit-identically: rows, traces, and
//!    provenance, in full and sample mode.
//! 2. **Deferral** (deterministic): selective operators must *share* — one
//!    selection `Arc` across a batch's columns, base payloads `ptr_eq` to
//!    the table's, chain depth capped at [`MAX_SELECTION_DEPTH`].
//! 3. **Paging**: [`ExecOutcome::row_pages`] streams exactly `rows()` in
//!    bounded pages without ever building the full row mirror.

mod exec_row;

use exec_row::{execute_full_rows, execute_on_samples_rows, RowOutcome};
use proptest::prelude::*;
use uaq_engine::{
    execute_full, execute_on_samples, ExecOutcome, Plan, PlanBuilder, Pred, SortOrder,
};
use uaq_stats::Rng;
use uaq_storage::{Catalog, Column, Schema, Table, Value, MAX_SELECTION_DEPTH};

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

/// Scan → filter chain (arbitrary depth, so chains cross the flatten
/// bound) → optional join → optional sort.
fn chain_plan(chain: &[(usize, i64)], join: bool, sort: bool) -> Plan {
    let mut b = PlanBuilder::new();
    let mut n = b.seq_scan("t", Pred::True);
    for &(which, cut) in chain {
        let pred = match which % 4 {
            0 => Pred::le("a", Value::Int(cut.rem_euclid(8))),
            1 => Pred::ge("a", Value::Int(cut.rem_euclid(8))),
            2 => Pred::lt("b", Value::Int(cut)),
            _ => Pred::ge("b", Value::Int(cut)),
        };
        n = b.filter(n, pred);
    }
    if join {
        let r = b.seq_scan("u", Pred::lt("y", Value::Int(10)));
        n = b.hash_join(n, r, "a", "x");
    }
    if sort {
        n = b.sort(n, vec![("b".into(), SortOrder::Asc)]);
    }
    b.build(n)
}

/// The golden contract: everything observable about the selection-vector
/// outcome — rows, per-node cardinalities, provenance — is bit-identical
/// to the eager row-at-a-time reference. Plus the representation
/// invariant: no slice's chain ever exceeds the flatten bound.
fn assert_equiv(lazy: &ExecOutcome, eager: &RowOutcome, label: &str) {
    assert_eq!(lazy.num_rows(), eager.rows.len(), "{label}: row count");
    for s in lazy.slices() {
        assert!(
            s.selection_depth() <= MAX_SELECTION_DEPTH,
            "{label}: selection chain depth {} exceeds the flatten bound",
            s.selection_depth()
        );
    }
    assert_eq!(lazy.rows(), eager.rows, "{label}: rows");
    assert_eq!(lazy.traces.len(), eager.traces.len(), "{label}: traces");
    for (id, (a, b)) in lazy.traces.iter().zip(&eager.traces).enumerate() {
        assert_eq!(a.output_rows, b.output_rows, "{label}: node {id} out");
        assert_eq!(a.left_input_rows, b.left_input_rows, "{label}: node {id}");
        assert_eq!(a.right_input_rows, b.right_input_rows, "{label}: node {id}");
        assert_eq!(a.prov, b.prov, "{label}: node {id} prov");
    }
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    // Non-empty: `draw_samples` materializes no sample table for an empty
    // relation, and sample-mode scans require one.
    prop::collection::vec((0i64..8, -20i64..20), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn selection_vector_execution_matches_eager_reference(
        t in rows_strategy(60),
        u in rows_strategy(40),
        chain in prop::collection::vec((0usize..4, -20i64..20), 0..6),
        join in any::<bool>(),
        sort in any::<bool>(),
    ) {
        let c = catalog(&t, &u);
        let plan = chain_plan(&chain, join, sort);

        let full_lazy = execute_full(&plan, &c);
        let full_eager = execute_full_rows(&plan, &c);
        assert_equiv(&full_lazy, &full_eager, "full");

        let samples = c.draw_samples(0.7, 1, &mut Rng::new(11));
        let samp_lazy = execute_on_samples(&plan, &samples);
        let samp_eager = execute_on_samples_rows(&plan, &samples);
        assert_equiv(&samp_lazy, &samp_eager, "sample");
    }
}

fn wide_catalog(n: i64) -> Catalog {
    let mut c = Catalog::new();
    let s = Schema::new(vec![Column::int("a"), Column::int("b"), Column::int("k")]);
    let rows = (0..n)
        .map(|i| vec![Value::Int(i % 10), Value::Int(i), Value::Int(i % 7)])
        .collect();
    c.add_table(Table::new("t", s, rows));
    c
}

#[test]
fn selective_filter_defers_gathers_and_shares_one_selection() {
    let c = wide_catalog(100);
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::lt("b", Value::Int(50)));
    let plan = b.build(s);
    let out = execute_full(&plan, &c);
    assert_eq!(out.num_rows(), 50);

    let slices = out.slices();
    let table_cols = c.table("t").columns();
    let top = slices[0].top_selection().expect("selective scan");
    for (slice, table_col) in slices.iter().zip(table_cols) {
        // Zero payload copies: the base is the table's own allocation …
        assert!(
            slice.base().ptr_eq(table_col),
            "selective scan must not gather payloads"
        );
        // … and all columns read through the *same* selection vector.
        assert!(
            std::sync::Arc::ptr_eq(slice.top_selection().expect("selected"), top),
            "one shared selection per batch"
        );
    }
    // Densifying at the edge detaches (fresh payloads), as stage one did.
    for (col, table_col) in out.columns().iter().zip(table_cols) {
        assert!(!col.ptr_eq(table_col));
    }
}

#[test]
fn stacked_filters_flatten_past_the_depth_bound() {
    let c = wide_catalog(200);
    let mut b = PlanBuilder::new();
    // Scan + 5 selective filters: 6 selection layers requested, so the
    // chain must have been flattened at least once — and the result must
    // still be exactly what the reference executor computes.
    let mut n = b.seq_scan("t", Pred::lt("b", Value::Int(160)));
    for cut in [140, 110, 80, 50, 20] {
        n = b.filter(n, Pred::lt("b", Value::Int(cut)));
    }
    let plan = b.build(n);
    let out = execute_full(&plan, &c);
    assert_eq!(out.num_rows(), 20);
    for s in out.slices() {
        let depth = s.selection_depth();
        assert!(
            (1..=MAX_SELECTION_DEPTH).contains(&depth),
            "expected a flattened, still-selective chain, got depth {depth}"
        );
    }
    assert_eq!(out.rows(), execute_full_rows(&plan, &c).rows);
}

#[test]
fn row_pages_concatenate_to_rows_exactly() {
    let c = wide_catalog(103);
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::ge("b", Value::Int(3)));
    let plan = b.build(s);
    let out = execute_full(&plan, &c);
    assert_eq!(out.num_rows(), 100);

    for page_size in [1, 7, 32, 100] {
        let pages: Vec<Vec<_>> = out.row_pages(page_size).collect();
        assert_eq!(pages.len(), out.num_rows().div_ceil(page_size));
        assert!(pages.iter().all(|p| p.len() <= page_size));
        let concat: Vec<_> = pages.into_iter().flatten().collect();
        assert_eq!(concat, out.rows());
    }
}

#[test]
fn row_pages_never_materialize_the_full_mirror() {
    let c = wide_catalog(64);
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::lt("b", Value::Int(48)));
    let plan = b.build(s);
    let out = execute_full(&plan, &c);
    let total: usize = out.row_pages(10).map(|p| p.len()).sum();
    assert_eq!(total, 48);
    assert!(
        !out.rows_materialized(),
        "paged consumption must not build the row cache"
    );
}

#[test]
fn row_pages_edge_cases() {
    let c = wide_catalog(20);

    // Empty result: zero pages.
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::lt("b", Value::Int(-1)));
    let plan = b.build(s);
    let out = execute_full(&plan, &c);
    assert_eq!(out.row_pages(8).count(), 0);

    // page_size >= len: one page holding everything.
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::True);
    let plan = b.build(s);
    let out = execute_full(&plan, &c);
    let pages: Vec<Vec<_>> = out.row_pages(1000).collect();
    assert_eq!(pages.len(), 1);
    assert_eq!(pages[0].as_slice(), out.rows());

    // page_size 0 is clamped to 1, not an infinite loop.
    assert_eq!(out.row_pages(0).count(), out.num_rows());
}

#[test]
fn row_pages_serve_the_sample_mode_path() {
    let c = wide_catalog(80);
    let samples = c.draw_samples(0.5, 1, &mut Rng::new(3));
    let mut b = PlanBuilder::new();
    let s = b.seq_scan("t", Pred::lt("b", Value::Int(40)));
    let plan = b.build(s);
    let out = execute_on_samples(&plan, &samples);
    let concat: Vec<_> = out.row_pages(6).flatten().collect();
    assert_eq!(concat, out.rows());
    // Paging must not disturb what the prediction path reads.
    assert!(out.traces[0].prov.is_some());
}

/// Paged consumption of a large TPC-H join result with bounded peak
/// resident rows: run with `cargo test -- --ignored`.
#[test]
#[ignore = "large TPCH result; run explicitly"]
fn row_pages_bound_peak_resident_rows_on_large_tpch_result() {
    use uaq_datagen::GenConfig;
    use uaq_engine::{plan_query, JoinStep, QuerySpec, TableRef};

    let catalog = GenConfig::new(0.01, 0.0, 42).build();
    let plan = plan_query(
        &QuerySpec::scan("stress", TableRef::new("orders", Pred::True)).with_joins(vec![
            JoinStep::new(
                TableRef::new("lineitem", Pred::True),
                "o_orderkey",
                "l_orderkey",
            ),
        ]),
        &catalog,
    );
    let out = execute_full(&plan, &catalog);
    assert!(
        out.num_rows() > 50_000,
        "stress result too small: {}",
        out.num_rows()
    );

    const PAGE: usize = 4096;
    let mut total = 0usize;
    let mut max_page = 0usize;
    for page in out.row_pages(PAGE) {
        max_page = max_page.max(page.len());
        total += page.len();
        // Each page is dropped before the next is built: peak resident
        // row memory is one page.
        drop(page);
    }
    assert_eq!(total, out.num_rows());
    assert!(max_page <= PAGE);
    assert!(
        !out.rows_materialized(),
        "the full {}-row mirror must never exist",
        out.num_rows()
    );
}
