//! Benchmarks for the serving layer: what do the two cache levels buy per
//! prediction, and how does service throughput scale with workers?
//!
//! * `service/predict_cold/*` — every iteration predicts through fresh
//!   caches (miss + fill at both levels): the baseline a first-seen
//!   request pays.
//! * `service/predict_warm/*` — fit cache pre-warmed, estimate cache off:
//!   PR 2's warm path (fits skipped, sample pass still executed).
//! * `service/predict_warm_selest/*` — both caches pre-warmed: the full
//!   warm path for a repeated query instance (sample pass *and* fits
//!   skipped; only the variance algebra runs).
//! * `service/throughput/*` — wall-clock for a 64-request mixed batch
//!   through the full service (queue + worker pool + caches), per worker
//!   count.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;
use uaq_core::{Predictor, PredictorConfig};
use uaq_cost::{calibrate, CalibrationConfig, HardwareProfile, NoSelEstCache};
use uaq_datagen::GenConfig;
use uaq_engine::{plan_query, JoinStep, Plan, Pred, QuerySpec, TableRef};
use uaq_service::{
    PredictRequest, PredictionService, ServiceConfig, SharedFitCache, SharedSelEstCache, TenantId,
};
use uaq_stats::Rng;
use uaq_storage::{Catalog, SampleCatalog, Value};

struct Setup {
    predictor: Predictor,
    catalog: Arc<Catalog>,
    samples: Arc<SampleCatalog>,
    scan: Arc<Plan>,
    join3: Arc<Plan>,
}

fn setup() -> Setup {
    let catalog = GenConfig::new(0.002, 0.0, 42).build();
    let mut rng = Rng::new(7);
    let units = calibrate(
        &HardwareProfile::pc1(),
        &CalibrationConfig::default(),
        &mut rng,
    );
    let samples = catalog.draw_samples(0.05, 2, &mut rng);
    let scan = plan_query(
        &QuerySpec::scan(
            "scan",
            TableRef::new("lineitem", Pred::le("l_shipdate", Value::Int(1500))),
        ),
        &catalog,
    );
    let join3 = plan_query(
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
        &catalog,
    );
    Setup {
        predictor: Predictor::new(units, PredictorConfig::default()),
        catalog: Arc::new(catalog),
        samples: Arc::new(samples),
        scan: Arc::new(scan),
        join3: Arc::new(join3),
    }
}

/// Cold vs warm cache, per plan: the direct measurement of what the
/// fit cache removes from a repeated prediction.
fn bench_cache(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("service");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(30);
    for (name, plan) in [("scan", &s.scan), ("three_way_join", &s.join3)] {
        group.bench_function(BenchmarkId::new("predict_cold", name), |b| {
            // Fresh caches per iteration: every predict pays sample pass +
            // context build + grid fits (fill overhead at both levels
            // included, as in a real first-seen request).
            b.iter_batched(
                || (SharedFitCache::default(), SharedSelEstCache::default()),
                |(fit, sel)| {
                    s.predictor
                        .predict_with_caches(plan, &s.catalog, &s.samples, &fit, &sel)
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(BenchmarkId::new("predict_warm", name), |b| {
            // PR 2's warm path: fits cached, but the sample pass still
            // runs every prediction — the cost this PR's estimate cache
            // removes.
            let cache = SharedFitCache::default();
            s.predictor
                .predict_with_caches(plan, &s.catalog, &s.samples, &cache, &NoSelEstCache);
            b.iter(|| {
                s.predictor.predict_with_caches(
                    plan,
                    &s.catalog,
                    &s.samples,
                    &cache,
                    &NoSelEstCache,
                )
            })
        });
        group.bench_function(BenchmarkId::new("predict_warm_selest", name), |b| {
            // The full warm path: estimate cache + fit cache, the steady
            // serving state for a repeated query instance.
            let fit = SharedFitCache::default();
            let sel = SharedSelEstCache::default();
            s.predictor
                .predict_with_caches(plan, &s.catalog, &s.samples, &fit, &sel);
            b.iter(|| {
                s.predictor
                    .predict_with_caches(plan, &s.catalog, &s.samples, &fit, &sel)
            })
        });
    }
    group.finish();
}

/// Full-service throughput for a mixed 64-request batch, per worker count.
fn bench_throughput(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("service");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(15);
    let batch: Vec<Arc<Plan>> = (0..64)
        .map(|i| {
            if i % 2 == 0 {
                Arc::clone(&s.scan)
            } else {
                Arc::clone(&s.join3)
            }
        })
        .collect();
    for workers in [1usize, 2, 4] {
        let service = PredictionService::start(
            s.predictor.clone(),
            Arc::clone(&s.catalog),
            Arc::clone(&s.samples),
            ServiceConfig {
                workers,
                ..Default::default()
            },
        );
        group.bench_function(BenchmarkId::new("throughput_batch64", workers), |b| {
            b.iter(|| {
                let receivers: Vec<_> = batch
                    .iter()
                    .enumerate()
                    .map(|(i, plan)| {
                        service.submit(PredictRequest {
                            id: i as u64,
                            plan: Arc::clone(plan),
                            deadline_ms: Some(100.0),
                            tenant: TenantId::default(),
                        })
                    })
                    .collect();
                let responses: Vec<_> = receivers
                    .into_iter()
                    .map(|rx| rx.recv().expect("response"))
                    .collect();
                responses.len()
            })
        });
        service.shutdown();
    }
    group.finish();
}

/// PR 8 shard scaling: a warm 256-request batch submitted by 4 client
/// threads against the fully sharded configuration (per-worker queue
/// shards, sharded caches), per worker count. Both cache levels are
/// pre-warmed and only two keys are hot, so every serve is two cache hits
/// on at most two shard locks — the worst case for one lock per shard.
fn bench_shard_scaling(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("service");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(15);
    let clients = 4usize;
    let per_client = 64usize;
    for workers in [1usize, 2, 4] {
        let service = Arc::new(PredictionService::start(
            s.predictor.clone(),
            Arc::clone(&s.catalog),
            Arc::clone(&s.samples),
            ServiceConfig {
                workers,
                queue_shards: 0, // per-worker shards
                ..Default::default()
            },
        ));
        // Pre-warm both cache levels for both shapes.
        for plan in [&s.scan, &s.join3] {
            service.predict_blocking(Arc::clone(plan), None);
            service.predict_blocking(Arc::clone(plan), None);
        }
        group.bench_function(BenchmarkId::new("pr8_shard_scaling", workers), |b| {
            b.iter(|| {
                let handles: Vec<_> = (0..clients)
                    .map(|client| {
                        let service = Arc::clone(&service);
                        let scan = Arc::clone(&s.scan);
                        let join3 = Arc::clone(&s.join3);
                        std::thread::spawn(move || {
                            let receivers: Vec<_> = (0..per_client)
                                .map(|i| {
                                    let plan = if i % 2 == 0 { &scan } else { &join3 };
                                    service.submit(PredictRequest {
                                        id: (client * per_client + i) as u64,
                                        plan: Arc::clone(plan),
                                        deadline_ms: Some(100.0),
                                        tenant: TenantId::default(),
                                    })
                                })
                                .collect();
                            let mut served = 0usize;
                            for rx in receivers {
                                rx.recv().expect("response");
                                served += 1;
                            }
                            served
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .sum::<usize>()
            })
        });
        if let Ok(service) = Arc::try_unwrap(service) {
            service.shutdown();
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cache, bench_throughput, bench_shard_scaling);
criterion_main!(benches);
