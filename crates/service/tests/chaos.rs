//! Seeded chaos suite: the supervision invariants under fault schedules.
//!
//! Each test drives the full `PredictionService` with a
//! [`SeededFaultInjector`] firing panics, delays, and cache-probe faults
//! at every probe site, and asserts the invariants that make the serving
//! layer trustworthy under partial failure:
//!
//! * **exactly one response** per accepted request — never lost (a killed
//!   worker's request is answered by the supervisor), never duplicated;
//! * **no deadlocked shutdown** — `shutdown` completes while faults fire,
//!   and every request still in the pipeline gets a final verdict;
//! * **bit-transparent recovery** — once the injector is disarmed, warm
//!   cached predictions are bit-identical to uncached references: poisoned
//!   cache locks recovered by invalidation, never by serving suspect
//!   state.
//!
//! The schedules are seeded (same seed ⇒ same fault stream), and the
//! invariants are interleaving-independent, so the suite is deterministic
//! in what it asserts while still exploring hundreds of distinct fault
//! mixes.

use std::sync::Arc;
use std::time::Duration;
use uaq_core::{Predictor, PredictorConfig};
use uaq_cost::{calibrate, CalibrationConfig, HardwareProfile};
use uaq_engine::{Plan, PlanBuilder, Pred};
use uaq_service::{
    silence_injected_panics, CacheConfig, Decision, FaultInjector, FaultPlan, PredictRequest,
    PredictionService, SeededFaultInjector, ServedTier, ServiceConfig, TenantClass, TenantId,
};
use uaq_stats::Rng;
use uaq_storage::{Catalog, SampleCatalog, Value};

fn setup() -> (Predictor, Arc<Catalog>, Arc<SampleCatalog>) {
    use uaq_storage::{Column, Schema, Table};
    let mut c = Catalog::new();
    let s = Schema::new(vec![Column::int("a"), Column::int("b")]);
    let rows = (0..4000)
        .map(|i| vec![Value::Int((i % 50) as i64), Value::Int(i as i64)])
        .collect();
    c.add_table(Table::new("t", s, rows));
    let s2 = Schema::new(vec![Column::int("x"), Column::int("y")]);
    let rows2 = (0..2000)
        .map(|i| vec![Value::Int((i % 50) as i64), Value::Int(i as i64)])
        .collect();
    c.add_table(Table::new("u", s2, rows2));
    let mut rng = Rng::new(19);
    let units = calibrate(
        &HardwareProfile::pc2(),
        &CalibrationConfig::default(),
        &mut rng,
    );
    let samples = c.draw_samples(0.05, 1, &mut rng);
    (
        Predictor::new(units, PredictorConfig::default()),
        Arc::new(c),
        Arc::new(samples),
    )
}

/// Two scan shapes, one join, one filter: enough shape/instance variety to
/// exercise both cache levels and the shape profile under faults.
fn plans() -> Vec<Arc<Plan>> {
    let scan_t = {
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("b", Value::Int(2000)));
        Arc::new(b.build(t))
    };
    let scan_u = {
        let mut b = PlanBuilder::new();
        let u = b.seq_scan("u", Pred::ge("y", Value::Int(700)));
        Arc::new(b.build(u))
    };
    let join = {
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("b", Value::Int(1500)));
        let u = b.seq_scan("u", Pred::True);
        let j = b.hash_join(t, u, "a", "x");
        Arc::new(b.build(j))
    };
    let filtered = {
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::True);
        let f = b.filter(t, Pred::between("a", Value::Int(5), Value::Int(45)));
        Arc::new(b.build(f))
    };
    vec![scan_t, scan_u, join, filtered]
}

/// The headline invariant, across 200 seeded fault schedules: every
/// accepted request gets exactly one response, and shutdown always
/// completes. Aggregated over all schedules the chaos must have actually
/// bitten — faults injected, workers respawned, degraded tiers served —
/// otherwise the suite proves nothing.
#[test]
fn two_hundred_seeded_schedules_never_lose_or_duplicate_a_response() {
    silence_injected_panics();
    let (predictor, catalog, samples) = setup();
    let plans = plans();

    let mut total_injected = 0u64;
    let mut total_respawned = 0u64;
    let mut total_degraded = 0u64;
    let mut total_panics = 0u64;
    let mut total_deferred = 0u64;
    // Defer-band deadlines, `mean + 0.5σ` of the in-thread reference:
    // `Pr(T ≤ d) = Φ(0.5) ≈ 0.69`, inside the default [0.45, 0.9) band.
    let borders: Vec<f64> = plans
        .iter()
        .map(|p| {
            let r = predictor.predict(p, &catalog, &samples);
            r.mean_ms() + 0.5 * r.std_dev_ms()
        })
        .collect();
    for seed in 0..200u64 {
        let injector = Arc::new(SeededFaultInjector::new(seed, FaultPlan::chaos()));
        let service = PredictionService::start_with_faults(
            predictor.clone(),
            Arc::clone(&catalog),
            Arc::clone(&samples),
            ServiceConfig {
                workers: 3,
                ..Default::default()
            },
            Arc::clone(&injector) as Arc<dyn FaultInjector>,
        );
        // 12 requests over 4 plans, deadlines mixed (None / generous /
        // already-blown / defer band; the class rotates against the plan
        // so every plan meets three of the four) — every decision path
        // under fire.
        let n = 12u64;
        let plan_of = |i: u64| (i as usize) % plans.len();
        let in_defer_band = |i: u64| (i + i / 4) % 4 == 3;
        let receivers: Vec<_> = (0..n)
            .map(|i| {
                let deadline = match (i + i / 4) % 4 {
                    0 => None,
                    1 => Some(1e6),
                    2 => Some(-1.0),
                    _ => Some(borders[plan_of(i)]),
                };
                service.submit(PredictRequest {
                    id: seed * 1000 + i,
                    plan: Arc::clone(&plans[plan_of(i)]),
                    deadline_ms: deadline,
                    tenant: TenantId::default(),
                })
            })
            .collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            let resp = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("seed {seed}: request {i} lost ({e})"));
            assert_eq!(resp.id, seed * 1000 + i as u64, "seed {seed}: id mixup");
            assert!(
                rx.try_recv().is_err(),
                "seed {seed}: request {i} answered twice"
            );
            if resp.tier != ServedTier::Full {
                total_degraded += 1;
            }
            // Defer is a terminal verdict, under faults too: whenever a
            // real distribution was served against a defer-band deadline
            // the one response says `Defer` (lower tiers have no band).
            if in_defer_band(i as u64)
                && matches!(resp.tier, ServedTier::Full | ServedTier::CachedEstimates)
            {
                assert_eq!(
                    resp.decision,
                    Decision::Defer,
                    "seed {seed}: request {i} at tier {:?}",
                    resp.tier
                );
                total_deferred += 1;
            }
        }
        let stats = service.robustness_stats();
        total_respawned += stats.workers_respawned;
        total_panics += stats.worker_panics + stats.ladder_panics_caught;
        total_injected += injector.injected();
        // Telemetry exact-count invariant, per schedule: every response
        // received above was counted under exactly one tier, no matter
        // which path (ladder, supervisor, shed) produced it.
        let snap = service.telemetry();
        assert_eq!(
            snap.counter_total("uaq_requests_served_total"),
            n,
            "seed {seed}: tier counters must sum to responses"
        );
        assert_eq!(
            snap.counter("uaq_requests_total", &[]),
            Some(n),
            "seed {seed}: every submit counted"
        );
        // Shutdown under a still-armed injector must terminate.
        service.shutdown();
    }
    assert!(total_injected > 0, "chaos schedules must inject faults");
    assert!(total_panics > 0, "some schedules must panic somewhere");
    assert!(total_respawned > 0, "some schedules must kill workers");
    assert!(total_degraded > 0, "some requests must serve degraded");
    assert!(total_deferred > 0, "some requests must be deferred");
}

/// Bit-transparency survives recovery: after a chaos phase (poisoned
/// cache locks, killed workers, forced misses), disarming the injector
/// returns the service to full-tier serving whose predictions are
/// bit-identical to the inline uncached reference — recovered caches hold
/// nothing suspect.
#[test]
fn caches_serve_bit_identical_predictions_after_recovery() {
    silence_injected_panics();
    let (predictor, catalog, samples) = setup();
    let plans = plans();
    let injector = Arc::new(SeededFaultInjector::new(0xFA11, FaultPlan::chaos()));
    let service = PredictionService::start_with_faults(
        predictor.clone(),
        Arc::clone(&catalog),
        Arc::clone(&samples),
        ServiceConfig {
            workers: 4,
            ..Default::default()
        },
        Arc::clone(&injector) as Arc<dyn FaultInjector>,
    );
    // Chaos phase: enough traffic to poison and recover the caches.
    let receivers: Vec<_> = (0..80u64)
        .map(|i| {
            service.submit(PredictRequest {
                id: i,
                plan: Arc::clone(&plans[(i as usize) % plans.len()]),
                deadline_ms: None,
                tenant: TenantId::default(),
            })
        })
        .collect();
    for rx in receivers {
        rx.recv_timeout(Duration::from_secs(30)).expect("answered");
    }
    assert!(injector.injected() > 0, "the chaos phase must inject");

    // Recovery phase: healthy service, warm caches.
    injector.disarm();
    for (i, plan) in plans.iter().enumerate() {
        let reference = predictor.predict(plan, &catalog, &samples);
        let first = service.predict_blocking(Arc::clone(plan), None);
        let second = service.predict_blocking(Arc::clone(plan), None);
        for (label, resp) in [("first", &first), ("second", &second)] {
            assert_eq!(
                resp.tier,
                ServedTier::Full,
                "plan {i} {label}: healthy service serves tier 0"
            );
            assert_eq!(
                resp.prediction.mean_ms().to_bits(),
                reference.mean_ms().to_bits(),
                "plan {i} {label}: mean drifted after recovery"
            );
            assert_eq!(
                resp.prediction.var().to_bits(),
                reference.var().to_bits(),
                "plan {i} {label}: variance drifted after recovery"
            );
            assert_eq!(
                resp.prediction.sel_estimates.canonical_bytes(),
                reference.sel_estimates.canonical_bytes(),
                "plan {i} {label}: selectivity traces drifted after recovery"
            );
        }
        assert!(
            !second.prediction.sample_pass_ran,
            "plan {i}: the repeat must be served warm"
        );
    }
    service.shutdown();
}

/// PR 8: the chaos invariants are shard-count independent. Seeded
/// schedules run against the fully sharded configuration (3 queue shards ×
/// 3 workers, 4 cache shards, a half-weight tenant class in the traffic):
/// exactly one response per request, tier counters sum to responses,
/// per-tenant shed counters sum to the total shed count, and once the
/// injector disarms the warm path serves bit-identical to the inline
/// unsharded reference.
#[test]
fn sharded_config_preserves_every_chaos_invariant() {
    silence_injected_panics();
    let (predictor, catalog, samples) = setup();
    let plans = plans();
    let light = TenantId(1);
    let mut total_shed = 0u64;
    for seed in 300..324u64 {
        let injector = Arc::new(SeededFaultInjector::new(seed, FaultPlan::chaos()));
        let service = PredictionService::start_with_faults(
            predictor.clone(),
            Arc::clone(&catalog),
            Arc::clone(&samples),
            ServiceConfig {
                workers: 3,
                queue_shards: 3,
                queue_capacity: Some(4),
                cache: CacheConfig {
                    shards: 4,
                    ..Default::default()
                },
                tenants: vec![(
                    light,
                    TenantClass {
                        shed_weight: 0.5,
                        ..TenantClass::default()
                    },
                )],
                ..Default::default()
            },
            Arc::clone(&injector) as Arc<dyn FaultInjector>,
        );
        let n = 24u64;
        let receivers: Vec<_> = (0..n)
            .map(|i| {
                service.submit(PredictRequest {
                    id: i,
                    plan: Arc::clone(&plans[(i as usize) % plans.len()]),
                    deadline_ms: (i % 2 == 0).then_some(50.0),
                    tenant: if i % 3 == 0 {
                        light
                    } else {
                        TenantId::default()
                    },
                })
            })
            .collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            let resp = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("seed {seed}: request {i} lost ({e})"));
            assert_eq!(resp.id, i as u64, "seed {seed}: id mixup");
            assert!(
                rx.try_recv().is_err(),
                "seed {seed}: request {i} answered twice"
            );
        }
        let snap = service.telemetry();
        for cache in ["fit", "selest"] {
            assert_eq!(
                snap.gauge("uaq_cache_shards", &[("cache", cache)]),
                Some(4.0),
                "the {cache} cache must run the configured shard count under an injector"
            );
        }
        assert_eq!(
            snap.counter_total("uaq_requests_served_total"),
            n,
            "seed {seed}: tier counters must sum to responses"
        );
        let shed = snap
            .counter("uaq_requests_served_total", &[("tier", "shed")])
            .unwrap_or(0);
        assert_eq!(
            snap.counter_total("uaq_requests_shed_total"),
            shed,
            "seed {seed}: per-tenant shed series must sum to total sheds"
        );
        total_shed += shed;
        // Recovery: the sharded caches are bit-transparent too.
        injector.disarm();
        for (i, plan) in plans.iter().enumerate() {
            let reference = predictor.predict(plan, &catalog, &samples);
            let first = service.predict_blocking(Arc::clone(plan), None);
            let second = service.predict_blocking(Arc::clone(plan), None);
            for (label, resp) in [("first", &first), ("second", &second)] {
                assert_eq!(resp.tier, ServedTier::Full, "seed {seed} plan {i} {label}");
                assert_eq!(
                    resp.prediction.mean_ms().to_bits(),
                    reference.mean_ms().to_bits(),
                    "seed {seed} plan {i} {label}: mean drifted"
                );
                assert_eq!(
                    resp.prediction.var().to_bits(),
                    reference.var().to_bits(),
                    "seed {seed} plan {i} {label}: variance drifted"
                );
            }
        }
        service.shutdown();
    }
    assert!(
        total_shed > 0,
        "the sharded schedules must actually shed somewhere"
    );
}

/// Shutdown while faults fire: a burst of fire-and-forget requests is
/// followed immediately by `shutdown()`. It must terminate (killed
/// workers may not strand the drain) and every accepted request must
/// still receive exactly one final verdict.
#[test]
fn shutdown_under_fire_answers_every_accepted_request() {
    silence_injected_panics();
    let (predictor, catalog, samples) = setup();
    let plans = plans();
    for seed in 200..224u64 {
        let injector = Arc::new(SeededFaultInjector::new(seed, FaultPlan::chaos()));
        let service = PredictionService::start_with_faults(
            predictor.clone(),
            Arc::clone(&catalog),
            Arc::clone(&samples),
            ServiceConfig {
                workers: 3,
                ..Default::default()
            },
            Arc::clone(&injector) as Arc<dyn FaultInjector>,
        );
        let receivers: Vec<_> = (0..40u64)
            .map(|i| {
                service.submit(PredictRequest {
                    id: i,
                    plan: Arc::clone(&plans[(i as usize) % plans.len()]),
                    deadline_ms: (i % 2 == 0).then_some(50.0),
                    tenant: TenantId::default(),
                })
            })
            .collect();
        // The registry outlives the service handle, so the tier counters
        // can be audited after the shutdown drain resolves everything.
        let registry = Arc::clone(service.registry());
        // No draining, no waiting: shut down into the backlog.
        service.shutdown();
        for (i, rx) in receivers.into_iter().enumerate() {
            let resp = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("seed {seed}: request {i} lost at shutdown ({e})"));
            assert_eq!(resp.id, i as u64);
            assert!(
                rx.try_recv().is_err(),
                "seed {seed}: request {i} answered twice"
            );
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_total("uaq_requests_served_total"),
            40,
            "seed {seed}: tier counters must sum to responses even through \
             a shutdown drain"
        );
    }
}

/// Malformed plans under fire: a stream mixing valid plans with every
/// class of statically-invalid plan (unknown table, unknown column,
/// string-vs-numeric ordering, duplicate join output columns) must keep
/// the one-response contract — each malformed submission earns exactly
/// one `Reject` on the `invalid` tier carrying a typed diagnostic, each
/// valid one is served normally, and the tier counters still sum to the
/// total even while the injector kills workers around the edge check.
#[test]
fn malformed_submissions_get_exactly_one_typed_rejection() {
    silence_injected_panics();
    let (predictor, catalog, samples) = setup();
    let valid = plans();
    let unknown_table = {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("nosuch", Pred::True);
        Arc::new(b.build(s))
    };
    let unknown_column = {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::lt("ghost", Value::Int(5)));
        Arc::new(b.build(s))
    };
    let str_ordering = {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::lt("b", Value::str("zzz")));
        Arc::new(b.build(s))
    };
    let dup_join = {
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("t", Pred::True);
        let j = b.hash_join(l, r, "a", "a");
        Arc::new(b.build(j))
    };
    let malformed = [unknown_table, unknown_column, str_ordering, dup_join];
    for seed in 300..316u64 {
        let injector = Arc::new(SeededFaultInjector::new(seed, FaultPlan::chaos()));
        let service = PredictionService::start_with_faults(
            predictor.clone(),
            Arc::clone(&catalog),
            Arc::clone(&samples),
            ServiceConfig {
                workers: 3,
                ..Default::default()
            },
            Arc::clone(&injector) as Arc<dyn FaultInjector>,
        );
        // Alternate valid and malformed so both paths interleave on the
        // same workers within one schedule.
        let n = 16u64;
        let receivers: Vec<_> = (0..n)
            .map(|i| {
                let plan = if i % 2 == 0 {
                    &valid[(i as usize / 2) % valid.len()]
                } else {
                    &malformed[(i as usize / 2) % malformed.len()]
                };
                service.submit(PredictRequest {
                    id: i,
                    plan: Arc::clone(plan),
                    deadline_ms: Some(1e6),
                    tenant: TenantId::default(),
                })
            })
            .collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            let resp = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("seed {seed}: request {i} lost ({e})"));
            assert_eq!(resp.id, i as u64, "seed {seed}: id mixup");
            assert!(
                rx.try_recv().is_err(),
                "seed {seed}: request {i} answered twice"
            );
            if i % 2 == 1 {
                // A worker killed mid-request may answer a malformed plan
                // from the supervisor's static fallback instead of the
                // edge check; either way it is exactly one response, and
                // an `Invalid` verdict always carries its diagnostic.
                if resp.tier == ServedTier::Invalid {
                    assert_eq!(resp.decision, Decision::Reject, "seed {seed}: req {i}");
                    assert!(
                        resp.plan_error.is_some(),
                        "seed {seed}: invalid response must carry the typed defect"
                    );
                    assert!(resp.prob_in_time.is_nan(), "seed {seed}: req {i}");
                } else {
                    assert_eq!(
                        resp.tier,
                        ServedTier::Static,
                        "seed {seed}: malformed request {i} served a prediction tier"
                    );
                }
            } else {
                assert_ne!(
                    resp.tier,
                    ServedTier::Invalid,
                    "seed {seed}: valid request {i} rejected as invalid"
                );
                assert!(resp.plan_error.is_none(), "seed {seed}: req {i}");
            }
        }
        let snap = service.telemetry();
        assert_eq!(
            snap.counter_total("uaq_requests_served_total"),
            n,
            "seed {seed}: tier counters must sum to responses"
        );
        service.shutdown();
    }
}
