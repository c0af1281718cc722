//! Service integration: concurrent clients against the worker pool.
//!
//! Pins down the property the service is designed around: with a fixed
//! seed, admission decisions are **deterministic** — independent of worker
//! count, client interleaving, and cache state — because predictions are
//! pure and cache hits are bit-identical to fresh fits. This is the test
//! CI runs with and without `--features parallel`.

use std::sync::Arc;
use uaq_core::{Predictor, PredictorConfig};
use uaq_cost::{calibrate, CalibrationConfig, HardwareProfile};
use uaq_engine::{plan_query, Plan};
use uaq_service::{
    AdmissionPolicy, CacheConfig, Decision, PredictRequest, PredictionService, ServiceConfig,
    TenantId,
};
use uaq_stats::Rng;
use uaq_storage::{Catalog, SampleCatalog};
use uaq_workloads::Benchmark;

const SEED: u64 = 2014;

fn setup() -> (Predictor, Arc<Catalog>, Arc<SampleCatalog>, Vec<Arc<Plan>>) {
    let catalog = uaq_datagen::GenConfig::new(0.002, 0.0, SEED).build();
    let mut rng = Rng::new(SEED ^ 0xF1);
    let units = calibrate(
        &HardwareProfile::pc1(),
        &CalibrationConfig::default(),
        &mut rng,
    );
    let samples = catalog.draw_samples(0.05, 2, &mut rng);
    // A mixed request stream: every SELJOIN template instance plus a slice
    // of the MICRO grid (keeps the test fast while covering scans, joins,
    // and multi-way shapes).
    let mut plans: Vec<Arc<Plan>> = Vec::new();
    for spec in Benchmark::SelJoin.queries(&catalog, 1, &mut rng) {
        plans.push(Arc::new(plan_query(&spec, &catalog)));
    }
    for spec in Benchmark::Micro
        .queries(&catalog, 1, &mut rng)
        .iter()
        .step_by(6)
    {
        plans.push(Arc::new(plan_query(spec, &catalog)));
    }
    (
        Predictor::new(units, PredictorConfig::default()),
        Arc::new(catalog),
        Arc::new(samples),
        plans,
    )
}

/// Deadline per request: a deterministic multiple of the reference mean so
/// the stream contains comfortable, borderline, and hopeless budgets.
fn deadline_for(reference: &[f64], i: usize) -> Option<f64> {
    match i % 4 {
        0 => None,
        1 => Some(reference[i] * 2.0),  // comfortable
        2 => Some(reference[i] * 1.02), // borderline
        _ => Some(reference[i] * 0.5),  // hopeless
    }
}

#[test]
fn concurrent_clients_get_deterministic_decisions() {
    let (predictor, catalog, samples, plans) = setup();

    // Sequential reference: predict + decide inline, no service.
    let policy = AdmissionPolicy::uncertainty_aware(0.9);
    let reference_means: Vec<f64> = plans
        .iter()
        .map(|p| predictor.predict(p, &catalog, &samples).mean_ms())
        .collect();
    let reference: Vec<(Decision, u64)> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let pred = predictor.predict(p, &catalog, &samples);
            let (d, prob) = policy.decide(&pred, deadline_for(&reference_means, i));
            (d, prob.to_bits())
        })
        .collect();

    // 4 client threads × 2 rounds each, all plans, against a 4-worker pool.
    let service = PredictionService::start(
        predictor,
        catalog,
        samples,
        ServiceConfig {
            workers: 4,
            policy,
            ..Default::default()
        },
    );
    let service = Arc::new(service);
    let clients = 4;
    let rounds = 2;
    let mut handles = Vec::new();
    for client in 0..clients {
        let service = Arc::clone(&service);
        let plans = plans.clone();
        let means = reference_means.clone();
        handles.push(std::thread::spawn(move || {
            let mut got: Vec<(u64, Decision, u64)> = Vec::new();
            for round in 0..rounds {
                let receivers: Vec<_> = plans
                    .iter()
                    .enumerate()
                    .map(|(i, plan)| {
                        let id = ((client * rounds + round) * plans.len() + i) as u64;
                        (
                            i,
                            id,
                            service.submit(PredictRequest {
                                id,
                                plan: Arc::clone(plan),
                                deadline_ms: deadline_for(&means, i),
                                tenant: TenantId::default(),
                            }),
                        )
                    })
                    .collect();
                for (i, id, rx) in receivers {
                    let resp = rx.recv().expect("response arrives");
                    assert_eq!(resp.id, id, "responses are matched by channel");
                    got.push((i as u64, resp.decision, resp.prob_in_time.to_bits()));
                }
            }
            got
        }));
    }

    let mut responses = 0;
    for h in handles {
        for (plan_idx, decision, prob_bits) in h.join().expect("client thread") {
            let (ref_d, ref_prob) = reference[plan_idx as usize];
            assert_eq!(decision, ref_d, "plan {plan_idx}: decision drifted");
            assert_eq!(prob_bits, ref_prob, "plan {plan_idx}: probability drifted");
            responses += 1;
        }
    }
    assert_eq!(
        responses,
        clients * rounds * plans.len(),
        "no lost responses"
    );

    // The stream repeats every plan 8×: the warm passes must actually hit.
    let stats = service.cache_stats();
    assert!(
        stats.fit_hits > stats.fit_misses,
        "repeated identical requests should be fit hits: {stats:?}"
    );
}

/// PR 8 golden differential: the sharded configuration (work-stealing
/// queue shards, sharded caches) must serve bit-identical predictions and
/// decisions to the unsharded baseline on both the cold and the warm pass,
/// across MICRO, SELJOIN, and TPCH shapes.
#[test]
fn sharded_and_unsharded_serving_are_bit_identical() {
    let (predictor, catalog, samples, mut plans) = setup();
    let mut rng = Rng::new(SEED ^ 0x7C);
    for spec in Benchmark::Tpch
        .queries(&catalog, 1, &mut rng)
        .iter()
        .step_by(3)
    {
        plans.push(Arc::new(plan_query(spec, &catalog)));
    }
    let run = |workers: usize, queue_shards: usize, cache_shards: usize| {
        let service = PredictionService::start(
            predictor.clone(),
            Arc::clone(&catalog),
            Arc::clone(&samples),
            ServiceConfig {
                workers,
                queue_shards,
                cache: CacheConfig {
                    shards: cache_shards,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        // Two passes: the first is all cache misses, the second all hits.
        let mut out: Vec<(Decision, u64, u64, u64)> = Vec::new();
        for _pass in 0..2 {
            for p in &plans {
                let r = service.predict_blocking(Arc::clone(p), Some(60.0));
                out.push((
                    r.decision,
                    r.prob_in_time.to_bits(),
                    r.prediction.mean_ms().to_bits(),
                    r.prediction.var().to_bits(),
                ));
            }
        }
        service.shutdown();
        out
    };
    let baseline = run(1, 1, 1);
    assert_eq!(baseline, run(4, 0, 8), "per-worker sharding drifted");
    assert_eq!(baseline, run(2, 3, 2), "odd shard counts drifted");
}

#[test]
fn single_worker_and_many_workers_agree() {
    let (predictor, catalog, samples, plans) = setup();
    let run = |workers: usize| -> Vec<(Decision, u64)> {
        let service = PredictionService::start(
            predictor.clone(),
            Arc::clone(&catalog),
            Arc::clone(&samples),
            ServiceConfig {
                workers,
                ..Default::default()
            },
        );
        let out = plans
            .iter()
            .map(|p| {
                let r = service.predict_blocking(Arc::clone(p), Some(50.0));
                (r.decision, r.prob_in_time.to_bits())
            })
            .collect();
        service.shutdown();
        out
    };
    assert_eq!(run(1), run(8));
}
