//! Criterion benchmarks for the execution data plane in isolation: raw
//! full-mode and sample-mode plan execution throughput, so future PRs can
//! track the data plane without the estimator/predictor layers on top.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use uaq_datagen::GenConfig;
use uaq_engine::{
    execute_full, execute_on_samples, plan_query, JoinStep, Plan, Pred, QuerySpec, TableRef,
};
use uaq_stats::Rng;
use uaq_storage::{Catalog, Value};

fn scan_plan(catalog: &Catalog) -> Plan {
    plan_query(
        &QuerySpec::scan(
            "scan",
            TableRef::new("lineitem", Pred::le("l_shipdate", Value::Int(1500))),
        ),
        catalog,
    )
}

/// Selective filter chain over a selective scan: the late-materialization
/// poster child — every kept row used to pay a fresh gather of all 16
/// lineitem columns at the scan and again at each filter.
fn filter_plan() -> Plan {
    let mut b = uaq_engine::PlanBuilder::new();
    let s = b.seq_scan("lineitem", Pred::le("l_shipdate", Value::Int(1500)));
    let f = b.filter(s, Pred::gt("l_quantity", Value::Float(25.0)));
    let g = b.filter(f, Pred::lt("l_extendedprice", Value::Float(30000.0)));
    b.build(g)
}

/// Sort above a selective scan: pre-PR 9 the sort re-gathered every column
/// to apply the permutation.
fn sort_plan() -> Plan {
    let mut b = uaq_engine::PlanBuilder::new();
    let s = b.seq_scan("orders", Pred::lt("o_orderdate", Value::Int(1200)));
    let srt = b.sort(
        s,
        vec![("o_totalprice".into(), uaq_engine::SortOrder::Desc)],
    );
    b.build(srt)
}

fn join3_plan(catalog: &Catalog) -> Plan {
    plan_query(
        &QuerySpec::scan(
            "join3",
            TableRef::new("customer", Pred::eq("c_mktsegment", Value::str("BUILDING"))),
        )
        .with_joins(vec![
            JoinStep::new(
                TableRef::new("orders", Pred::lt("o_orderdate", Value::Int(1200))),
                "c_custkey",
                "o_custkey",
            ),
            JoinStep::new(
                TableRef::new("lineitem", Pred::gt("l_shipdate", Value::Int(1200))),
                "o_orderkey",
                "l_orderkey",
            ),
        ]),
        catalog,
    )
}

fn bench_exec(c: &mut Criterion) {
    let catalog = GenConfig::new(0.002, 0.0, 42).build();
    let mut rng = Rng::new(7);
    let samples = catalog.draw_samples(0.05, 2, &mut rng);
    let scan = scan_plan(&catalog);
    let join3 = join3_plan(&catalog);
    let filter = filter_plan();
    let sort = sort_plan();

    let mut group = c.benchmark_group("exec");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(30);

    group.bench_function("full/scan", |b| b.iter(|| execute_full(&scan, &catalog)));
    group.bench_function("full/filter", |b| {
        b.iter(|| execute_full(&filter, &catalog))
    });
    group.bench_function("full/sort", |b| b.iter(|| execute_full(&sort, &catalog)));
    group.bench_function("full/join3", |b| b.iter(|| execute_full(&join3, &catalog)));
    group.bench_function("sample/scan", |b| {
        b.iter(|| execute_on_samples(&scan, &samples))
    });
    group.bench_function("sample/filter", |b| {
        b.iter(|| execute_on_samples(&filter, &samples))
    });
    group.bench_function("sample/join3", |b| {
        b.iter(|| execute_on_samples(&join3, &samples))
    });
    group.finish();
}

/// Micro-bench for the typed gather fast paths: `ColumnData::gather` /
/// `gather2` move payloads with one typed loop per column, vs. the per-cell
/// `Value` round-trip (`value(i)` + `push`) they replaced.
fn bench_column_gather(c: &mut Criterion) {
    use std::sync::Arc;
    use uaq_storage::{ColumnData, ColumnRef, ColumnSlice};

    let n = 65_536usize;
    let ints = ColumnRef::new(ColumnData::Int(
        (0..n as i64).map(|i| i.wrapping_mul(37)).collect(),
    ));
    let sel1: Arc<Vec<u32>> = Arc::new((0..n as u32).filter(|i| i % 3 != 0).collect());
    let sel2: Arc<Vec<u32>> = Arc::new((0..sel1.len() as u32).filter(|i| i % 2 == 0).collect());
    let depth1 = ColumnSlice::selected(ints.clone(), sel1.clone());
    let depth2 = depth1.select(&sel2);

    let mut group = c.benchmark_group("column_gather");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(50);

    group.bench_function("typed/depth1", |b| b.iter(|| depth1.to_dense()));
    group.bench_function("typed/depth2", |b| b.iter(|| depth2.to_dense()));
    group.bench_function("value_roundtrip/depth1", |b| {
        b.iter(|| {
            let mut out = ColumnData::with_capacity(depth1.ty(), depth1.len());
            for i in 0..depth1.len() {
                out.push(&depth1.value(i));
            }
            out
        })
    });
    group.finish();
}

criterion_group!(benches, bench_exec, bench_column_gather);
criterion_main!(benches);
