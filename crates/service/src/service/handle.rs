//! [`PredictionService`]: start, submit (and shed), observe, shut down.

use super::lifecycle::Outcome;
use super::types::{PredictRequest, PredictResponse, RobustnessCounters, RobustnessStats};
use super::{worker, Job, ServiceConfig, Shared};
use crate::admission::TenantId;
use crate::cache::{CacheStats, SharedFitCache, SharedSelEstCache};
use crate::fault::FaultInjector;
use crate::queue::{Pushed, ShardedWorkQueue};
use crate::sync::lock_recover;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;
use uaq_core::Predictor;
use uaq_engine::Plan;
use uaq_storage::{Catalog, SampleCatalog};
use uaq_telemetry::{Registry, Snapshot};

/// A running prediction service. Dropping it (or calling
/// [`PredictionService::shutdown`]) closes the queue, drains pending
/// requests, and joins the workers.
pub struct PredictionService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl PredictionService {
    /// Starts the worker pool.
    pub fn start(
        predictor: Predictor,
        catalog: Arc<Catalog>,
        samples: Arc<SampleCatalog>,
        config: ServiceConfig,
    ) -> Self {
        Self::start_with_faults(
            predictor,
            catalog,
            samples,
            config,
            Arc::new(crate::fault::NoFaults),
        )
    }

    /// [`Self::start`] with a [`FaultInjector`] threaded through every
    /// probe point: the worker loop, the prediction pipeline, both cache
    /// lookup paths, and (via the engine's thread-local hook, installed
    /// per worker) the sample pass. An inactive injector (`active() ==
    /// false`, e.g. [`crate::fault::NoFaults`]) is stripped at
    /// construction so the production path pays one branch per probe.
    pub fn start_with_faults(
        predictor: Predictor,
        catalog: Arc<Catalog>,
        samples: Arc<SampleCatalog>,
        config: ServiceConfig,
        injector: Arc<dyn FaultInjector>,
    ) -> Self {
        let registry = Arc::new(Registry::new());
        let cache = SharedFitCache::new(config.cache)
            .with_injector(Arc::clone(&injector))
            .instrumented(&registry);
        let sel_cache = SharedSelEstCache::sharded(
            config.cache.max_sel_entries,
            config.cache.eviction,
            config.cache.shards,
        )
        .with_injector(Arc::clone(&injector))
        .instrumented(&registry);
        let injector = injector.active().then_some(injector);
        let workers = config.workers.max(1);
        let queue_shards = if config.queue_shards == 0 {
            workers
        } else {
            config.queue_shards
        };
        let shared = Arc::new(Shared {
            queue: match config.queue_capacity {
                Some(cap) => ShardedWorkQueue::bounded(queue_shards, cap),
                None => ShardedWorkQueue::new(queue_shards),
            },
            predictor,
            catalog,
            samples,
            cache,
            sel_cache,
            policy: config.policy,
            tenants: config.tenants.iter().copied().collect(),
            next_seq: AtomicU64::new(0),
            cache_enabled: config.cache_enabled,
            profile: Mutex::new(HashMap::new()),
            robustness: RobustnessCounters::registered(&registry),
            requests_total: registry.counter("uaq_requests_total", &[]),
            registry,
            record_spans: config.record_spans,
            injector,
            respawned: Mutex::new(Vec::new()),
            next_worker: AtomicUsize::new(workers),
        });
        let workers = (0..workers)
            .map(|worker| worker::spawn(&shared, worker).expect("spawn service worker"))
            .collect();
        Self { shared, workers }
    }

    /// Enqueues a request; the response arrives on the returned channel.
    ///
    /// Contract: every request accepted before shutdown receives exactly
    /// one response (shed requests included — they are rejected on the
    /// spot). Once shutdown has begun the queue is closed: the request is
    /// dropped together with its reply sender, so the returned receiver's
    /// `recv()` fails immediately with `RecvError` instead of blocking —
    /// submitting after shutdown never hangs and never panics.
    pub fn submit(&self, mut request: PredictRequest) -> mpsc::Receiver<PredictResponse> {
        let shared = &self.shared;
        // Tenant-class deadline default: applied once at the door, so
        // admission and shedding see the same deadline.
        if request.deadline_ms.is_none() {
            request.deadline_ms = shared.tenant_class(request.tenant).default_deadline_ms;
        }
        let (reply, rx) = mpsc::channel();
        let job = Job {
            request,
            reply,
            enqueued_at: Instant::now(),
            seq: shared.next_seq.fetch_add(1, Ordering::Relaxed),
        };
        // Weighted-fair shed priority of a job: the shape's relative
        // variance divided by the tenant's shed weight (a weight-2 tenant
        // takes half the shedding pressure at equal uncertainty; infinite
        // priorities stay infinite for every weight).
        let priority = |job: &Job| {
            shared.shed_priority_of(&job.request.plan)
                / shared.tenant_class(job.request.tenant).effective_weight()
        };
        // The selector is only consulted at the high-water mark of a
        // bounded queue. It sheds the single worst request — but only if
        // it is strictly worse than the incoming one (ties shed the
        // newcomer: displacing queued work needs a reason). Equal
        // priorities among the queued (the all-∞ unprofiled case included)
        // break on arrival seq, newest first — an ordering intrinsic to
        // the jobs, so the victim is the same for every shard count.
        let pushed = shared.queue.push_bounded(job, |queued, incoming| {
            let incoming_priority = priority(incoming);
            queued
                .iter()
                .enumerate()
                .map(|(i, j)| (i, priority(j), j.seq))
                .max_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)))
                .filter(|&(_, p, _)| p > incoming_priority)
                .map(|(i, _, _)| i)
        });
        match pushed {
            Pushed::Queued => shared.requests_total.inc(),
            // The victim gets its Reject right here on the submitter's
            // thread — overload control must not depend on a worker being
            // free to say no.
            Pushed::Shed(victim) => {
                shared.requests_total.inc();
                shared.respond(&victim, usize::MAX, Outcome::Shed, None);
            }
            // Closed queue: the job (and its reply sender) is dropped,
            // disconnecting `rx` right away. It never entered the
            // lifecycle, so it is not counted either.
            Pushed::Closed(_) => {}
        }
        rx
    }

    /// Convenience: submit and block for the response.
    pub fn predict_blocking(&self, plan: Arc<Plan>, deadline_ms: Option<f64>) -> PredictResponse {
        self.submit(PredictRequest {
            id: 0,
            plan,
            deadline_ms,
            tenant: TenantId::default(),
        })
        .recv()
        .expect("service workers alive")
    }

    /// Snapshot of both shared caches' hit/miss counters: the fit cache's
    /// fields plus the selectivity-estimate cache's `sel_*` fields.
    /// `poison_recoveries` sums both caches.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.shared.cache.stats();
        let sel = self.shared.sel_cache.stats();
        stats.sel_hits = sel.hits;
        stats.sel_misses = sel.misses;
        stats.sel_entries = sel.entries;
        stats.sel_evictions = sel.evictions;
        stats.poison_recoveries += sel.poison_recoveries;
        stats
    }

    /// Snapshot of the fault-handling counters: caught panics, respawns,
    /// shed requests, and per-tier serve counts.
    pub fn robustness_stats(&self) -> RobustnessStats {
        self.shared.robustness.snapshot()
    }

    /// One coherent snapshot of everything the service measures: request
    /// and per-tier serve counters, panic/respawn counters, cache probe
    /// counters, queue-occupancy gauges, and — with
    /// [`ServiceConfig::record_spans`] on — the per-stage and per-shape
    /// latency histograms. Occupancy gauges (`uaq_queue_depth`,
    /// `uaq_cache_entries`, …) are refreshed here rather than maintained
    /// on the hot path; everything else is whatever the always-on atomic
    /// counters have accumulated. Export with
    /// [`Snapshot::to_prometheus`] or [`Snapshot::to_json`].
    pub fn telemetry(&self) -> Snapshot {
        let r = &self.shared.registry;
        r.gauge("uaq_queue_depth", &[]).set(self.backlog() as f64);
        let stats = self.cache_stats();
        let occupancy = [
            ("uaq_cache_entries", "fit", stats.shapes as f64),
            ("uaq_cache_entries", "selest", stats.sel_entries as f64),
            ("uaq_cache_evictions", "fit", stats.shape_evictions as f64),
            ("uaq_cache_evictions", "selest", stats.sel_evictions as f64),
            (
                "uaq_cache_shards",
                "fit",
                self.shared.cache.shard_count() as f64,
            ),
            (
                "uaq_cache_shards",
                "selest",
                self.shared.sel_cache.shard_count() as f64,
            ),
        ];
        for (name, cache, value) in occupancy {
            r.gauge(name, &[("cache", cache)]).set(value);
        }
        // Hit-rate gauges. The stats methods return NaN on zero probes
        // (the unified "no data" convention); the exposition is kept
        // NaN-free by clamping non-finite rates to 0 here — the probe
        // counters on the same snapshot disambiguate "no probes yet"
        // from a true 0%.
        let rates = [
            ("fit", stats.fit_hit_rate()),
            ("selest", stats.sel_hit_rate()),
        ];
        for (cache, rate) in rates {
            r.gauge("uaq_cache_hit_rate", &[("cache", cache)])
                .set(if rate.is_finite() { rate } else { 0.0 });
        }
        r.snapshot()
    }

    /// The registry behind [`Self::telemetry`], for callers that want to
    /// hang their own series (e.g. calibration gauges) off the same
    /// snapshot.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// Requests currently queued (not yet picked up by a worker).
    pub fn backlog(&self) -> usize {
        self.shared.queue.len()
    }

    /// Closes the queue, drains pending requests, and joins the workers —
    /// which is what dropping the service does.
    pub fn shutdown(self) {}
}

impl Drop for PredictionService {
    fn drop(&mut self) {
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers respawned after panic deaths are joined too. A dying
        // worker pushes its replacement's handle *before* its own join
        // returns (the respawn happens in a drop guard during unwind),
        // and a closed queue stops further respawns — so this loop
        // observes every replacement and terminates.
        loop {
            let batch: Vec<_> = lock_recover(&self.shared.respawned).drain(..).collect();
            if batch.is_empty() {
                break;
            }
            for h in batch {
                let _ = h.join();
            }
        }
        // Pathological corner: every worker died panicking right at
        // close (no respawns once the queue is closed), leaving requests
        // in the queue with nobody to serve them. They still get a
        // response — the contract survives total pool loss.
        let mut drain_rng = 0;
        while let Some(job) = self.shared.queue.pop(0, &mut drain_rng) {
            self.shared.respond(&job, usize::MAX, Outcome::Static, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionPolicy, Decision, TenantClass};
    use crate::fault::{Fault, FaultSite};
    use crate::service::ServedTier;
    use uaq_core::PredictorConfig;
    use uaq_cost::{calibrate, CalibrationConfig, HardwareProfile};
    use uaq_engine::{PlanBuilder, Pred};
    use uaq_stats::Rng;
    use uaq_storage::{Column, Schema, Table, Value};
    use uaq_telemetry::span::Stage;

    fn setup() -> (Predictor, Arc<Catalog>, Arc<SampleCatalog>, Arc<Plan>) {
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a"), Column::int("b")]);
        let rows = (0..4000)
            .map(|i| vec![Value::Int((i % 50) as i64), Value::Int(i as i64)])
            .collect();
        c.add_table(Table::new("t", s, rows));
        let mut rng = Rng::new(11);
        let units = calibrate(
            &HardwareProfile::pc1(),
            &CalibrationConfig::default(),
            &mut rng,
        );
        let samples = c.draw_samples(0.1, 1, &mut rng);
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("b", Value::Int(2000)));
        let plan = b.build(t);
        (
            Predictor::new(units, PredictorConfig::default()),
            Arc::new(c),
            Arc::new(samples),
            Arc::new(plan),
        )
    }

    #[test]
    fn predict_blocking_round_trips() {
        let (predictor, catalog, samples, plan) = setup();
        let reference = predictor.predict(&plan, &catalog, &samples);
        let service =
            PredictionService::start(predictor, catalog, samples, ServiceConfig::default());
        let resp = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(resp.decision, Decision::Admit);
        assert_eq!(resp.prob_in_time, 1.0);
        assert_eq!(resp.prediction.mean_ms(), reference.mean_ms());
        assert_eq!(resp.prediction.var(), reference.var());
        service.shutdown();
    }

    #[test]
    fn invalid_plan_is_rejected_at_the_edge_with_a_typed_diagnostic() {
        let (predictor, catalog, samples, _) = setup();
        let service =
            PredictionService::start(predictor, catalog, samples, ServiceConfig::default());
        // One defect the binder would catch, one only the executor would
        // (its float ordering panics on NaN): both stop at the edge.
        let bad_plans = [
            (Pred::lt("ghost", Value::Int(5)), "unknown_column"),
            (Pred::lt("b", Value::Float(f64::NAN)), "nan_literal"),
        ];
        for (pred, code) in bad_plans {
            let mut b = PlanBuilder::new();
            let s = b.seq_scan("t", pred);
            let bad = Arc::new(b.build(s));
            // Submit twice: the second hit exercises the interned verdict.
            for _ in 0..2 {
                let resp = service.predict_blocking(Arc::clone(&bad), Some(1e6));
                assert_eq!(resp.tier, ServedTier::Invalid);
                assert_eq!(resp.decision, Decision::Reject);
                assert!(resp.prob_in_time.is_nan());
                let e = resp.plan_error.expect("Invalid carries the diagnostic");
                assert_eq!(e.code(), code, "{e}");
            }
        }
        let stats = service.robustness_stats();
        assert_eq!(stats.served_invalid, 4);
        assert_eq!(stats.ladder_panics_caught + stats.worker_panics, 0);
        service.shutdown();
    }

    #[test]
    fn warm_cache_hits_on_repeat() {
        let (predictor, catalog, samples, plan) = setup();
        let service =
            PredictionService::start(predictor, catalog, samples, ServiceConfig::default());
        let first = service.predict_blocking(Arc::clone(&plan), None);
        let second = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(first.prediction.mean_ms(), second.prediction.mean_ms());
        assert_eq!(first.prediction.var(), second.prediction.var());
        let stats = service.cache_stats();
        assert_eq!(stats.fit_hits, 1, "{stats:?}");
        assert_eq!(stats.fit_misses, 1, "{stats:?}");
        // The repeat also skipped the sample pass entirely.
        assert_eq!(stats.sel_hits, 1, "{stats:?}");
        assert_eq!(stats.sel_misses, 1, "{stats:?}");
        assert!(first.prediction.sample_pass_ran);
        assert!(!second.prediction.sample_pass_ran);
        service.shutdown();
    }

    #[test]
    fn cache_disabled_still_serves() {
        let (predictor, catalog, samples, plan) = setup();
        let service = PredictionService::start(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                cache_enabled: false,
                ..Default::default()
            },
        );
        let a = service.predict_blocking(Arc::clone(&plan), None);
        let b = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(a.prediction.mean_ms(), b.prediction.mean_ms());
        let stats = service.cache_stats();
        assert_eq!(stats.fit_hits + stats.fit_misses, 0, "{stats:?}");
        assert_eq!(stats.sel_hits + stats.sel_misses, 0, "{stats:?}");
        service.shutdown();
    }

    #[test]
    fn deadline_thresholds_produce_all_decisions() {
        let (predictor, catalog, samples, plan) = setup();
        let reference = predictor.predict(&plan, &catalog, &samples);
        let service =
            PredictionService::start(predictor, catalog, samples, ServiceConfig::default());
        let generous = reference.mean_ms() + 10.0 * reference.std_dev_ms();
        let hopeless = (reference.mean_ms() - 10.0 * reference.std_dev_ms()).max(0.0);
        let border = reference.mean_ms() + 0.5 * reference.std_dev_ms();
        assert_eq!(
            service
                .predict_blocking(Arc::clone(&plan), Some(generous))
                .decision,
            Decision::Admit
        );
        assert_eq!(
            service
                .predict_blocking(Arc::clone(&plan), Some(hopeless))
                .decision,
            Decision::Reject
        );
        assert_eq!(
            service
                .predict_blocking(Arc::clone(&plan), Some(border))
                .decision,
            Decision::Defer
        );
        service.shutdown();
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let (predictor, catalog, samples, plan) = setup();
        let service = PredictionService::start(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                workers: 0,
                ..Default::default()
            },
        );
        let resp = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(resp.decision, Decision::Admit);
        service.shutdown();
    }

    #[test]
    fn negative_budget_rejects_with_zero_probability() {
        let (predictor, catalog, samples, plan) = setup();
        for policy in [
            AdmissionPolicy::uncertainty_aware(0.9),
            AdmissionPolicy::mean_only(),
        ] {
            let service = PredictionService::start(
                predictor.clone(),
                Arc::clone(&catalog),
                Arc::clone(&samples),
                ServiceConfig {
                    policy,
                    ..Default::default()
                },
            );
            let resp = service.predict_blocking(Arc::clone(&plan), Some(-10.0));
            assert_eq!(resp.decision, Decision::Reject);
            assert_eq!(resp.prob_in_time, 0.0);
            service.shutdown();
        }
    }

    #[test]
    fn submit_after_shutdown_fails_fast_without_panicking() {
        let (predictor, catalog, samples, plan) = setup();
        let service =
            PredictionService::start(predictor, catalog, samples, ServiceConfig::default());
        // Simulate the shutdown race: the queue closes while a client
        // still holds a handle (e.g. another thread called shutdown).
        service.shared.queue.close();
        let rx = service.submit(PredictRequest {
            id: 99,
            plan: Arc::clone(&plan),
            deadline_ms: None,
            tenant: TenantId::default(),
        });
        // The request was dropped with its reply sender: recv fails
        // immediately instead of blocking forever.
        assert!(rx.recv().is_err(), "no response can ever arrive");
        // It never entered the lifecycle, so it is not a counted request
        // either: the two totals keep agreeing.
        let snap = service.telemetry();
        assert_eq!(snap.counter("uaq_requests_total", &[]), Some(0));
        assert_eq!(
            snap.counter_total("uaq_requests_served_total"),
            snap.counter("uaq_requests_total", &[]).unwrap_or(0),
            "every counted request is served exactly once"
        );
    }

    #[test]
    fn defer_is_a_terminal_response_answered_once() {
        let (predictor, catalog, samples, plan) = setup();
        let reference = predictor.predict(&plan, &catalog, &samples);
        let border = reference.mean_ms() + 0.5 * reference.std_dev_ms();
        let service =
            PredictionService::start(predictor, catalog, samples, ServiceConfig::default());
        let rx = service.submit(PredictRequest {
            id: 7,
            plan: Arc::clone(&plan),
            deadline_ms: Some(border),
            tenant: TenantId::default(),
        });
        let resp = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a deferring request is answered, not parked");
        assert_eq!(resp.decision, Decision::Defer);
        let policy = AdmissionPolicy::default();
        assert!(
            (policy.defer_threshold..policy.admit_threshold).contains(&resp.prob_in_time),
            "Pr(T ≤ d) = {} lies in the defer band",
            resp.prob_in_time
        );
        // Nothing re-decides it later: follow-up completions leave the
        // channel empty and the request counted once.
        for _ in 0..4 {
            service.predict_blocking(Arc::clone(&plan), None);
        }
        assert!(rx.try_recv().is_err(), "exactly one response");
        let snap = service.telemetry();
        assert_eq!(snap.counter("uaq_requests_total", &[]), Some(5));
        assert_eq!(snap.counter_total("uaq_requests_served_total"), 5);
        service.shutdown();
    }

    #[test]
    fn drop_shuts_down_cleanly_with_pending_work() {
        let (predictor, catalog, samples, plan) = setup();
        let service =
            PredictionService::start(predictor, catalog, samples, ServiceConfig::default());
        // Fire-and-forget a burst; drop the receivers immediately.
        for i in 0..32 {
            let _ = service.submit(PredictRequest {
                id: i,
                plan: Arc::clone(&plan),
                deadline_ms: None,
                tenant: TenantId::default(),
            });
        }
        drop(service); // must drain + join without deadlock or panic
    }

    /// Test injector: fires `fault` at `site` while armed. `once` limits
    /// it to a single firing (the first armed probe wins the swap).
    struct FireAt {
        site: FaultSite,
        fault: Fault,
        armed: std::sync::atomic::AtomicBool,
        once: bool,
    }

    impl FireAt {
        fn armed(site: FaultSite, fault: Fault, once: bool) -> Arc<Self> {
            Arc::new(Self {
                site,
                fault,
                armed: std::sync::atomic::AtomicBool::new(true),
                once,
            })
        }

        fn disarmed(site: FaultSite, fault: Fault) -> Arc<Self> {
            Arc::new(Self {
                site,
                fault,
                armed: std::sync::atomic::AtomicBool::new(false),
                once: false,
            })
        }

        fn arm(&self) {
            self.armed.store(true, Ordering::SeqCst);
        }

        fn disarm(&self) {
            self.armed.store(false, Ordering::SeqCst);
        }
    }

    impl crate::fault::FaultInjector for FireAt {
        fn inject(&self, site: FaultSite, _worker: usize) -> Option<Fault> {
            if site != self.site {
                return None;
            }
            let hit = if self.once {
                self.armed.swap(false, Ordering::SeqCst)
            } else {
                self.armed.load(Ordering::SeqCst)
            };
            hit.then_some(self.fault)
        }
    }

    #[test]
    fn predict_panic_degrades_to_cached_estimates_bit_identically() {
        let (predictor, catalog, samples, plan) = setup();
        let injector = FireAt::disarmed(FaultSite::Predict, Fault::Panic);
        let service = PredictionService::start_with_faults(
            predictor,
            catalog,
            samples,
            ServiceConfig::default(),
            Arc::clone(&injector) as Arc<dyn crate::fault::FaultInjector>,
        );
        // Healthy warm-up populates both cache levels.
        let full = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(full.tier, ServedTier::Full);
        // Now every full-pipeline attempt dies — the ladder must fall to
        // the sel-cache tier and reproduce the prediction bit for bit.
        injector.arm();
        let degraded = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(degraded.tier, ServedTier::CachedEstimates);
        assert_eq!(
            degraded.prediction.mean_ms().to_bits(),
            full.prediction.mean_ms().to_bits()
        );
        assert_eq!(
            degraded.prediction.var().to_bits(),
            full.prediction.var().to_bits()
        );
        assert_eq!(degraded.decision, Decision::Admit);
        let stats = service.robustness_stats();
        assert!(stats.ladder_panics_caught >= 1, "{stats:?}");
        assert_eq!(stats.worker_panics, 0, "the ladder contained the panic");
        assert_eq!(stats.served_cached_estimates, 1, "{stats:?}");
        service.shutdown();
    }

    #[test]
    fn predict_panic_without_caches_degrades_to_mean_only_then_static() {
        let (predictor, catalog, samples, plan) = setup();
        let injector = FireAt::disarmed(FaultSite::Predict, Fault::Panic);
        let service = PredictionService::start_with_faults(
            predictor,
            Arc::clone(&catalog),
            Arc::clone(&samples),
            ServiceConfig {
                cache_enabled: false,
                ..Default::default()
            },
            Arc::clone(&injector) as Arc<dyn crate::fault::FaultInjector>,
        );
        // Warm-up records the shape profile (every uncached serve runs a
        // real sample pass).
        let full = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(full.tier, ServedTier::Full);
        injector.arm();
        // No sel cache to fall back on ⇒ tier 2: a point mass at the
        // shape's last observed mean.
        let mean_only = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(mean_only.tier, ServedTier::MeanOnly);
        assert_eq!(
            mean_only.prediction.mean_ms(),
            full.prediction.mean_ms(),
            "profile holds the last real mean"
        );
        assert_eq!(mean_only.prediction.var(), 0.0);
        assert_eq!(mean_only.decision, Decision::Admit);
        // A shape never seen before has no profile either ⇒ tier 3:
        // static admission, no prediction (NaN probability).
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("a", Value::Int(10)));
        let fresh_shape = Arc::new(b.build(t));
        let stat = service.predict_blocking(Arc::clone(&fresh_shape), Some(50.0));
        assert_eq!(stat.tier, ServedTier::Static);
        assert!(stat.prob_in_time.is_nan());
        assert_eq!(stat.decision, Decision::Admit, "static admits d ≥ 0");
        let rejected = service.predict_blocking(fresh_shape, Some(-1.0));
        assert_eq!(rejected.decision, Decision::Reject, "static rejects d < 0");
        let stats = service.robustness_stats();
        assert_eq!(stats.served_mean_only, 1, "{stats:?}");
        assert_eq!(stats.served_static, 2, "{stats:?}");
        assert_eq!(stats.worker_panics, 0);
        service.shutdown();
    }

    #[test]
    fn mid_request_kill_answers_exactly_once_and_respawns_the_worker() {
        let (predictor, catalog, samples, plan) = setup();
        let injector = FireAt::armed(FaultSite::MidRequest, Fault::Panic, true);
        crate::fault::silence_injected_panics();
        let service = PredictionService::start_with_faults(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
            Arc::clone(&injector) as Arc<dyn crate::fault::FaultInjector>,
        );
        let rx = service.submit(PredictRequest {
            id: 1,
            plan: Arc::clone(&plan),
            deadline_ms: None,
            tenant: TenantId::default(),
        });
        let resp = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the supervisor answers for the killed worker");
        assert_eq!(resp.tier, ServedTier::Static);
        assert_eq!(resp.decision, Decision::Admit);
        assert!(resp.prob_in_time.is_nan());
        assert!(
            rx.try_recv().is_err(),
            "exactly one response per accepted request"
        );
        // The pool self-heals: the sole worker died, yet the next request
        // is served normally by its replacement.
        let next = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(next.tier, ServedTier::Full);
        let stats = service.robustness_stats();
        assert_eq!(stats.worker_panics, 1, "{stats:?}");
        assert_eq!(stats.workers_respawned, 1, "{stats:?}");
        service.shutdown();
    }

    #[test]
    fn worker_loop_kill_between_requests_is_invisible_to_clients() {
        let (predictor, catalog, samples, plan) = setup();
        let injector = FireAt::armed(FaultSite::WorkerLoop, Fault::Panic, true);
        crate::fault::silence_injected_panics();
        let service = PredictionService::start_with_faults(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
            Arc::clone(&injector) as Arc<dyn crate::fault::FaultInjector>,
        );
        // The sole worker dies on its very first loop probe, before any
        // request exists; the respawn must pick up the queue.
        let resp = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(resp.tier, ServedTier::Full);
        let stats = service.robustness_stats();
        assert_eq!(stats.workers_respawned, 1, "{stats:?}");
        assert_eq!(stats.worker_panics, 0, "no request was in flight");
        service.shutdown();
    }

    #[test]
    fn bounded_queue_sheds_the_highest_relative_variance_request() {
        let (predictor, catalog, samples, plan_a) = setup();
        // Plan B scans a different column: a distinct, never-profiled
        // shape whose shed priority is +∞.
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("a", Value::Int(10)));
        let plan_b = Arc::new(b.build(t));
        let injector = FireAt::disarmed(
            FaultSite::Predict,
            Fault::Delay(std::time::Duration::from_millis(150)),
        );
        let service = PredictionService::start_with_faults(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                workers: 1,
                queue_capacity: Some(2),
                ..Default::default()
            },
            Arc::clone(&injector) as Arc<dyn crate::fault::FaultInjector>,
        );
        // Profile plan A with a healthy serve: finite shed priority.
        let warm = service.predict_blocking(Arc::clone(&plan_a), None);
        assert_eq!(warm.tier, ServedTier::Full);
        // Stall the worker inside its next serve, then overfill the queue
        // while it is busy.
        injector.arm();
        let rx_stalled = service.submit(PredictRequest {
            id: 10,
            plan: Arc::clone(&plan_a),
            deadline_ms: None,
            tenant: TenantId::default(),
        });
        while service.backlog() > 0 {
            std::thread::yield_now(); // worker picked up the stalled job
        }
        let rx_a = service.submit(PredictRequest {
            id: 11,
            plan: Arc::clone(&plan_a),
            deadline_ms: Some(100.0),
            tenant: TenantId::default(),
        });
        let rx_b = service.submit(PredictRequest {
            id: 12,
            plan: Arc::clone(&plan_b),
            deadline_ms: Some(100.0),
            tenant: TenantId::default(),
        });
        // Queue is at capacity [A, B]; another A arrives with a finite
        // profiled priority. B's ∞ priority makes it the victim.
        let rx_a2 = service.submit(PredictRequest {
            id: 13,
            plan: Arc::clone(&plan_a),
            deadline_ms: Some(100.0),
            tenant: TenantId::default(),
        });
        let shed = rx_b
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("the victim is answered on the submitter's thread");
        assert_eq!(shed.id, 12);
        assert_eq!(shed.tier, ServedTier::Shed);
        assert_eq!(shed.decision, Decision::Reject);
        assert!(shed.prob_in_time.is_nan());
        // Every queued request still resolves once the worker unstalls.
        injector.disarm();
        for rx in [rx_stalled, rx_a, rx_a2] {
            let resp = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("queued requests survive the shed");
            assert_ne!(resp.tier, ServedTier::Shed);
        }
        let stats = service.robustness_stats();
        assert_eq!(stats.shed, 1, "{stats:?}");
        service.shutdown();
    }

    #[test]
    fn telemetry_snapshot_is_coherent_and_round_trips() {
        let (predictor, catalog, samples, plan) = setup();
        let service =
            PredictionService::start(predictor, catalog, samples, ServiceConfig::default());
        let n = 5;
        for i in 0..n {
            let resp = service.predict_blocking(Arc::clone(&plan), None);
            assert_eq!(resp.tier, ServedTier::Full);
            assert!(resp.stage_timings.is_none(), "spans are off by default");
            let _ = i;
        }
        let snap = service.telemetry();
        assert_eq!(snap.counter("uaq_requests_total", &[]), Some(n));
        assert_eq!(
            snap.counter_total("uaq_requests_served_total"),
            n,
            "one tier count per response"
        );
        assert_eq!(
            snap.counter("uaq_requests_served_total", &[("tier", "full")]),
            Some(n)
        );
        // Cache counters live on the same registry: 1 miss + (n-1) hits
        // at the sel level.
        assert_eq!(
            snap.counter(
                "uaq_cache_probes_total",
                &[("cache", "selest"), ("outcome", "hit")]
            ),
            Some(n - 1)
        );
        assert_eq!(snap.gauge("uaq_queue_depth", &[]), Some(0.0));
        assert_eq!(
            snap.gauge("uaq_cache_entries", &[("cache", "selest")]),
            Some(1.0)
        );
        // Both export formats reconstruct the exact snapshot.
        let prom = Snapshot::from_prometheus(&snap.to_prometheus()).expect("parses");
        assert_eq!(prom, snap);
        let json = Snapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(json, snap);
        service.shutdown();
    }

    #[test]
    fn spans_attach_timings_and_fill_stage_histograms() {
        let (predictor, catalog, samples, plan) = setup();
        let reference = predictor.predict(&plan, &catalog, &samples);
        let service = PredictionService::start(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                record_spans: true,
                ..Default::default()
            },
        );
        let cold = service.predict_blocking(Arc::clone(&plan), None);
        // Recording must not perturb the prediction itself.
        assert_eq!(
            cold.prediction.mean_ms().to_bits(),
            reference.mean_ms().to_bits()
        );
        let t = cold.stage_timings.as_ref().expect("spans on");
        assert!(t.get(Stage::SamplePass) > 0.0, "{t:?}");
        assert!(t.get(Stage::Fit) > 0.0, "{t:?}");
        assert!(t.get(Stage::Total) > 0.0, "{t:?}");
        assert!(t.get(Stage::Total) >= t.get(Stage::SamplePass), "{t:?}");
        let warm = service.predict_blocking(Arc::clone(&plan), None);
        let w = warm.stage_timings.as_ref().expect("spans on");
        assert_eq!(w.get(Stage::SamplePass), 0.0, "sel-cache hit skips it");
        assert!(w.get(Stage::SelCacheProbe) > 0.0, "{w:?}");
        let snap = service.telemetry();
        let hist = snap
            .histogram(
                "uaq_stage_seconds",
                &[("stage", "sample_pass"), ("tier", "full")],
            )
            .expect("populated");
        assert_eq!(hist.count(), 1, "one cold serve ran the sample pass");
        let total = snap
            .histogram("uaq_stage_seconds", &[("stage", "total"), ("tier", "full")])
            .expect("populated");
        assert_eq!(total.count(), 2);
        assert_eq!(
            snap.samples
                .iter()
                .filter(|s| s.name == "uaq_request_seconds")
                .count(),
            1,
            "one shape served → one per-shape series"
        );
        service.shutdown();
    }

    /// Every way a request's life can end, one row each, spans on: the
    /// caller gets exactly one response at the row's tier, the tier is
    /// counted once (`Σ served{tier} == requests_total`, stage histograms
    /// under the serving tier), and `stage_timings` ride along exactly
    /// when a worker ran the request to its end.
    #[test]
    fn every_terminal_state_answers_once_and_counts_once() {
        crate::fault::silence_injected_panics();
        let (predictor, catalog, samples, plan) = setup();
        let scan = |pred| {
            let mut b = PlanBuilder::new();
            let t = b.seq_scan("t", pred);
            Arc::new(b.build(t))
        };
        let unseen = scan(Pred::lt("a", Value::Int(10)));
        let bad_plan = scan(Pred::lt("ghost", Value::Int(5)));
        let start = |cache_enabled, queue_capacity, injector: &Arc<FireAt>| {
            PredictionService::start_with_faults(
                predictor.clone(),
                Arc::clone(&catalog),
                Arc::clone(&samples),
                ServiceConfig {
                    workers: 1,
                    cache_enabled,
                    queue_capacity,
                    record_spans: true,
                    ..Default::default()
                },
                Arc::clone(injector) as Arc<dyn crate::fault::FaultInjector>,
            )
        };
        let ask = |service: &PredictionService, plan: &Arc<Plan>| {
            service.submit(PredictRequest {
                id: 42,
                plan: Arc::clone(plan),
                deadline_ms: Some(1e6),
                tenant: TenantId::default(),
            })
        };
        // Asks for `asked` with `injector` firing from the start.
        let under = |injector: Arc<FireAt>, asked: &Arc<Plan>| {
            let service = start(true, None, &injector);
            let rx = ask(&service, asked);
            (service, rx)
        };
        let never = || FireAt::disarmed(FaultSite::Predict, Fault::Panic);
        // A healthy serve of `plan` fills both caches and the shape
        // profile; a Predict panic armed afterwards walks the ladder down.
        let degraded = |cache_enabled, asked: &Arc<Plan>| {
            let injector = never();
            let service = start(cache_enabled, None, &injector);
            let warm = service.predict_blocking(Arc::clone(&plan), None);
            assert_eq!(warm.tier, ServedTier::Full);
            injector.arm();
            let rx = ask(&service, asked);
            (service, rx)
        };
        // Every worker dies at its first loop probe, so the request stays
        // queued; closing the queue then vetoes further respawns and
        // leaves it to the shutdown drain.
        let pool_lost = || {
            let always = FireAt::armed(FaultSite::WorkerLoop, Fault::Panic, false);
            let (service, rx) = under(always, &plan);
            service.shared.queue.close();
            (service, rx)
        };
        // One request stalls the worker, one fills the queue; the third
        // ties with it (both unprofiled) and sheds itself.
        let overloaded = || {
            let stall = Fault::Delay(std::time::Duration::from_millis(150));
            let injector = FireAt::armed(FaultSite::Predict, stall, false);
            let service = start(true, Some(1), &injector);
            let _stalled = ask(&service, &plan);
            while service.backlog() > 0 {
                std::thread::yield_now();
            }
            let _queued = ask(&service, &plan);
            let rx = ask(&service, &plan);
            injector.disarm();
            (service, rx)
        };
        let kill = FireAt::armed(FaultSite::MidRequest, Fault::Panic, true);
        use ServedTier as T;
        type Driven = (PredictionService, mpsc::Receiver<PredictResponse>);
        // (row, tier served, carries stage timings, the driven request)
        let rows: [(&str, ServedTier, bool, Driven); 8] = [
            ("full", T::Full, true, under(never(), &plan)),
            ("cached", T::CachedEstimates, true, degraded(true, &plan)),
            ("mean only", T::MeanOnly, true, degraded(false, &plan)),
            ("bottom rung", T::Static, true, degraded(false, &unseen)),
            ("supervisor", T::Static, false, under(kill, &plan)),
            ("shutdown drain", T::Static, false, pool_lost()),
            ("shed", T::Shed, false, overloaded()),
            ("invalid", T::Invalid, true, under(never(), &bad_plan)),
        ];
        for (name, tier, timed, (service, rx)) in rows {
            // The deadline is generous: whatever has an estimate admits.
            let decision = match tier {
                T::Shed | T::Invalid => Decision::Reject,
                _ => Decision::Admit,
            };
            let registry = Arc::clone(service.registry());
            // Shutdown resolves whatever is still in flight, so the
            // counters below are final.
            service.shutdown();
            let resp = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("{name}: no response ({e})"));
            assert!(rx.try_recv().is_err(), "{name}: answered twice");
            assert_eq!(
                (resp.id, resp.tier, resp.decision),
                (42, tier, decision),
                "{name}"
            );
            assert_eq!(resp.plan_error.is_some(), tier == ServedTier::Invalid);
            assert_eq!(resp.stage_timings.is_some(), timed, "{name}");
            let snap = registry.snapshot();
            let label = [("tier", tier.label())];
            assert!(snap.counter("uaq_requests_served_total", &label) >= Some(1));
            assert_eq!(
                Some(snap.counter_total("uaq_requests_served_total")),
                snap.counter("uaq_requests_total", &[]),
                "{name}: every request counted under exactly one tier"
            );
            let harvested = snap
                .histogram(
                    "uaq_stage_seconds",
                    &[("stage", "total"), ("tier", tier.label())],
                )
                .is_some_and(|h| h.count() >= 1);
            assert_eq!(
                harvested, timed,
                "{name}: histograms fed iff timings harvested"
            );
        }
    }

    #[test]
    fn shed_ties_break_on_arrival_seq_at_every_shard_count() {
        // Two queued never-profiled requests share the maximum (infinite)
        // shed priority; the tie must fall to the newest arrival (highest
        // seq) — and because seq is intrinsic to the job, the victim must
        // be the same id no matter how the queue is sharded.
        let (predictor, catalog, samples, plan_a) = setup();
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("a", Value::Int(10)));
        let plan_b = Arc::new(b.build(t));
        for queue_shards in [1usize, 2, 4] {
            let injector = FireAt::disarmed(
                FaultSite::Predict,
                Fault::Delay(std::time::Duration::from_millis(150)),
            );
            let service = PredictionService::start_with_faults(
                predictor.clone(),
                Arc::clone(&catalog),
                Arc::clone(&samples),
                ServiceConfig {
                    workers: 1,
                    queue_shards,
                    queue_capacity: Some(2),
                    ..Default::default()
                },
                Arc::clone(&injector) as Arc<dyn crate::fault::FaultInjector>,
            );
            // Profile plan A so later A-submissions carry a finite priority.
            assert_eq!(
                service.predict_blocking(Arc::clone(&plan_a), None).tier,
                ServedTier::Full
            );
            injector.arm();
            let rx_stalled = service.submit(PredictRequest {
                id: 10,
                plan: Arc::clone(&plan_a),
                deadline_ms: None,
                tenant: TenantId::default(),
            });
            while service.backlog() > 0 {
                std::thread::yield_now();
            }
            // Queue: two B's (both ∞ priority), tie on priority alone.
            let rx_b1 = service.submit(PredictRequest {
                id: 11,
                plan: Arc::clone(&plan_b),
                deadline_ms: Some(100.0),
                tenant: TenantId::default(),
            });
            let rx_b2 = service.submit(PredictRequest {
                id: 12,
                plan: Arc::clone(&plan_b),
                deadline_ms: Some(100.0),
                tenant: TenantId::default(),
            });
            // A finite-priority A arrives at the high-water mark: the
            // victim among the tied ∞ pair is the newest, id 12.
            let rx_a = service.submit(PredictRequest {
                id: 13,
                plan: Arc::clone(&plan_a),
                deadline_ms: Some(100.0),
                tenant: TenantId::default(),
            });
            let shed = rx_b2
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("victim answered on the submitter's thread");
            assert_eq!(shed.id, 12, "shards={queue_shards}: newest tied job");
            assert_eq!(shed.tier, ServedTier::Shed);
            injector.disarm();
            for rx in [rx_stalled, rx_b1, rx_a] {
                let resp = rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("survivors resolve");
                assert_ne!(resp.tier, ServedTier::Shed, "shards={queue_shards}");
            }
            service.shutdown();
        }
    }

    #[test]
    fn tenant_classes_override_policy_and_default_deadline() {
        let (predictor, catalog, samples, plan) = setup();
        let reference = predictor.predict(&plan, &catalog, &samples);
        let border = reference.mean_ms() + 0.5 * reference.std_dev_ms();
        let hopeless = (reference.mean_ms() - 10.0 * reference.std_dev_ms()).max(0.0);
        let lenient = TenantId(1);
        let strict = TenantId(2);
        let service = PredictionService::start(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                tenants: vec![
                    (
                        lenient,
                        TenantClass {
                            policy: Some(AdmissionPolicy::mean_only()),
                            ..TenantClass::default()
                        },
                    ),
                    (
                        strict,
                        TenantClass {
                            default_deadline_ms: Some(hopeless),
                            ..TenantClass::default()
                        },
                    ),
                ],
                ..Default::default()
            },
        );
        let ask = |tenant: TenantId, deadline_ms: Option<f64>| {
            let rx = service.submit(PredictRequest {
                id: 0,
                plan: Arc::clone(&plan),
                deadline_ms,
                tenant,
            });
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .expect("served")
        };
        // Anonymous tenant, service-wide θ: the border deadline defers.
        assert_eq!(
            ask(TenantId::default(), Some(border)).decision,
            Decision::Defer
        );
        // Lenient class swaps in mean-only admission: border > mean admits.
        assert_eq!(ask(lenient, Some(border)).decision, Decision::Admit);
        // Strict class fills in a hopeless default deadline when the
        // request carries none; the service-wide θ then rejects it.
        assert_eq!(ask(strict, None).decision, Decision::Reject);
        // The default applies only to deadline-less requests.
        assert_eq!(ask(strict, Some(border)).decision, Decision::Defer);
        // And the anonymous tenant keeps its no-deadline unconditional admit.
        assert_eq!(ask(TenantId::default(), None).decision, Decision::Admit);
        service.shutdown();
    }

    #[test]
    fn weighted_shed_targets_low_weight_tenants_and_counters_sum() {
        let (predictor, catalog, samples, plan) = setup();
        let light = TenantId(9); // quarter-weight: 4× the shedding pressure
        let injector = FireAt::disarmed(
            FaultSite::Predict,
            Fault::Delay(std::time::Duration::from_millis(150)),
        );
        let service = PredictionService::start_with_faults(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                workers: 1,
                queue_capacity: Some(2),
                tenants: vec![(
                    light,
                    TenantClass {
                        shed_weight: 0.25,
                        ..TenantClass::default()
                    },
                )],
                ..Default::default()
            },
            Arc::clone(&injector) as Arc<dyn crate::fault::FaultInjector>,
        );
        // Profile the shape: every request below carries the same finite
        // relative variance, so only the tenant weights differ.
        assert_eq!(
            service.predict_blocking(Arc::clone(&plan), None).tier,
            ServedTier::Full
        );
        injector.arm();
        let rx_stalled = service.submit(PredictRequest {
            id: 10,
            plan: Arc::clone(&plan),
            deadline_ms: None,
            tenant: TenantId::default(),
        });
        while service.backlog() > 0 {
            std::thread::yield_now();
        }
        let rx_anon = service.submit(PredictRequest {
            id: 11,
            plan: Arc::clone(&plan),
            deadline_ms: Some(100.0),
            tenant: TenantId::default(),
        });
        let rx_light = service.submit(PredictRequest {
            id: 12,
            plan: Arc::clone(&plan),
            deadline_ms: Some(100.0),
            tenant: light,
        });
        // Same shape everywhere: the quarter-weight tenant's job is the
        // one shed when a full-weight request hits the high-water mark.
        let rx_anon2 = service.submit(PredictRequest {
            id: 13,
            plan: Arc::clone(&plan),
            deadline_ms: Some(100.0),
            tenant: TenantId::default(),
        });
        let shed = rx_light
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("low-weight victim answered");
        assert_eq!(shed.id, 12);
        assert_eq!(shed.tier, ServedTier::Shed);
        // Equal weights tie ⇒ the newcomer sheds itself (anonymous tenant).
        let rx_anon3 = service.submit(PredictRequest {
            id: 14,
            plan: Arc::clone(&plan),
            deadline_ms: Some(100.0),
            tenant: TenantId::default(),
        });
        let self_shed = rx_anon3
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("tied newcomer answered");
        assert_eq!(self_shed.tier, ServedTier::Shed);
        injector.disarm();
        for rx in [rx_stalled, rx_anon, rx_anon2] {
            let resp = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("queued requests survive");
            assert_ne!(resp.tier, ServedTier::Shed);
        }
        // Per-tenant shed series sum to the total shed count.
        let stats = service.robustness_stats();
        assert_eq!(stats.shed, 2, "{stats:?}");
        let snap = service.telemetry();
        assert_eq!(
            snap.counter("uaq_requests_shed_total", &[("tenant", "9")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("uaq_requests_shed_total", &[("tenant", "0")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_total("uaq_requests_shed_total"),
            stats.shed as u64
        );
        service.shutdown();
    }

    #[test]
    fn hostile_shape_labels_round_trip_through_prometheus() {
        // A table name carrying every character the exposition format
        // must escape (backslash, quote, newline) flows into the shape
        // key, the `uaq_request_seconds{shape}` label, and back out of
        // the text format bit-identically.
        let hostile_table = "e\\v\"i\nl";
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a"), Column::int("b")]);
        let rows = (0..500)
            .map(|i| vec![Value::Int((i % 50) as i64), Value::Int(i as i64)])
            .collect();
        c.add_table(Table::new(hostile_table, s, rows));
        let mut rng = Rng::new(11);
        let units = calibrate(
            &HardwareProfile::pc1(),
            &CalibrationConfig::default(),
            &mut rng,
        );
        let samples = c.draw_samples(0.1, 1, &mut rng);
        let mut b = PlanBuilder::new();
        let t = b.seq_scan(hostile_table, Pred::lt("b", Value::Int(100)));
        let plan = Arc::new(b.build(t));
        let catalog = Arc::new(c);
        let shape = Predictor::shape_key(&plan, &catalog);
        assert!(shape.contains(hostile_table), "key embeds the raw name");
        let service = PredictionService::start(
            Predictor::new(units, PredictorConfig::default()),
            Arc::clone(&catalog),
            Arc::new(samples),
            ServiceConfig {
                record_spans: true,
                ..Default::default()
            },
        );
        let resp = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(resp.tier, ServedTier::Full);
        let snap = service.telemetry();
        let hist = snap
            .histogram("uaq_request_seconds", &[("shape", &shape)])
            .expect("per-shape series recorded under the hostile label");
        assert_eq!(hist.count(), 1);
        let text = snap.to_prometheus();
        assert!(text.contains("\\\\"), "backslash escaped on export");
        assert!(text.contains("\\\""), "quote escaped on export");
        assert!(text.contains("\\n"), "newline escaped on export");
        let round = Snapshot::from_prometheus(&text).expect("parses");
        assert_eq!(round, snap, "hostile labels survive the round trip");
        service.shutdown();
    }

    #[test]
    fn zero_probe_hit_rates_export_as_zero_never_nan() {
        // With caches disabled there are zero probes: the stats-level
        // convention is NaN ("no data"), but the Prometheus gauge clamps
        // to 0.0 so no NaN ever reaches the text exposition.
        let (predictor, catalog, samples, plan) = setup();
        let service = PredictionService::start(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                cache_enabled: false,
                ..Default::default()
            },
        );
        let _ = service.predict_blocking(Arc::clone(&plan), None);
        let stats = service.cache_stats();
        assert!(stats.fit_hit_rate().is_nan(), "zero probes: NaN at the API");
        assert!(stats.sel_hit_rate().is_nan());
        let snap = service.telemetry();
        assert_eq!(
            snap.gauge("uaq_cache_hit_rate", &[("cache", "fit")]),
            Some(0.0)
        );
        assert_eq!(
            snap.gauge("uaq_cache_hit_rate", &[("cache", "selest")]),
            Some(0.0)
        );
        assert!(
            !snap.to_prometheus().contains("NaN"),
            "no NaN in the exposition"
        );
        service.shutdown();
    }
}
