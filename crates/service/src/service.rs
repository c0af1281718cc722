//! The prediction service: an MPMC work queue feeding a worker pool that
//! shares one predictor, one catalog, one sample set, and one fit cache.
//!
//! ```text
//!  clients ──submit──▶ ShardedWorkQueue ──pop/steal──▶ worker 0..N
//!                                          │  predict_with_caches(plan)
//!                                          │  policy.decide(prediction)
//!                                          ▼
//!                            mpsc reply channel per request
//! ```
//!
//! Every response carries the full [`Prediction`] (the distribution, not
//! just a mean) plus the admission [`Decision`] against the request's
//! deadline. Predictions are pure functions of (plan, catalog, samples,
//! predictor config) and the cache is bit-transparent, so responses are
//! deterministic regardless of worker count, scheduling order, or cache
//! state — the property the integration tests pin down.
//!
//! ## Deferred requests are not a black hole
//!
//! With a [`RetryPolicy`] enabled, a `Defer` verdict no longer terminates
//! the request: the job parks in a deferred queue and is **re-decided on
//! the same reply channel** with its recomputed remaining budget
//! (`deadline − time spent deferred`) every time a worker completes a
//! request (the service's "server freed" event), with an idle tick as a
//! fallback when no traffic flows. Re-decisions are bounded: after
//! `max_retries` consecutive `Defer` outcomes the service closes the
//! request with a final `Reject`, and `shutdown` gives every still-parked
//! request a final verdict — **every submitted request receives exactly
//! one response**. Retried decisions depend on wall-clock elapsed time,
//! so the bit-exact response determinism above holds for the default
//! terminal policy; with retries enabled it holds for every request that
//! is not deferred.
//!
//! One honest limitation: the service's re-decision budget can only
//! *shrink* (the prediction is fixed and the client-quoted deadline
//! drains in wall-clock time), so with today's budget model a deferred
//! request resolves to `Reject` — never `Admit`. The re-decision handles
//! all three verdicts because the protocol is written against
//! [`AdmissionPolicy::decide`]'s full contract: a budget model that can
//! *grow* — e.g. subtracting the service's own backlog from the initial
//! budget the way the deadline scenario's queue-aware admission does
//! ([`AdmissionPolicy::decide_queued`]) — makes defer→admit conversions
//! live here too, at the cost of response determinism (see ROADMAP).
//! What bounded retries buy today is the guarantee itself: a final,
//! observable verdict (`attempts`, `deferred_ms`) instead of a terminal
//! `Defer` the client must re-submit by hand.
//!
//! ## Failure model
//!
//! The service survives worker panics instead of silently losing the
//! request and the thread. Per-request handling runs under
//! `catch_unwind` at two levels: the **degradation ladder** catches
//! failures inside prediction and falls back tier by tier
//! ([`ServedTier`]: full pipeline → cached estimates → mean-only shape
//! profile → static heuristic), and an outer **supervisor** converts any
//! panic that escapes the ladder into a static-tier response on the
//! request's reply channel before letting the worker die — at which
//! point it is respawned (unless the service is shutting down). Locks
//! are poison-tolerant throughout ([`crate::sync`]), a bounded queue
//! with variance-aware shedding ([`ShedPolicy`]) keeps overload from
//! growing without bound, and the whole thing is provable because a
//! [`FaultInjector`](crate::fault::FaultInjector) can be threaded
//! through every probe point ([`PredictionService::start_with_faults`])
//! — the chaos suite drives hundreds of seeded fault schedules against
//! the exactly-one-response and cache-bit-transparency invariants.

use crate::admission::{shed_priority, AdmissionPolicy, Decision, TenantClass, TenantId};
use crate::cache::{CacheConfig, CacheStats, SharedFitCache, SharedSelEstCache};
use crate::fault::{FaultInjector, FaultSite};
use crate::queue::{Popped, Pushed, ShardedWorkQueue};
use crate::sync::lock_recover;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use uaq_core::{Prediction, Predictor};
use uaq_cost::{FitCache, NoFitCache, NoSelEstCache, SelEstCache};
use uaq_engine::Plan;
use uaq_storage::{Catalog, SampleCatalog};
use uaq_telemetry::span::{self, SpanRecorder, Stage};
use uaq_telemetry::{Counter, HistogramConfig, Registry, Snapshot, StageTimings};

/// One prediction request.
#[derive(Clone)]
pub struct PredictRequest {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    pub plan: Arc<Plan>,
    /// Remaining time budget for the deadline SLO, in milliseconds
    /// (deadline minus whatever wait the caller already accounts for).
    /// `None` means no deadline — unless the request's tenant class
    /// carries a default deadline, which `submit` applies.
    pub deadline_ms: Option<f64>,
    /// The tenant (workload class) this request belongs to;
    /// `TenantId::default()` gets the service-wide policy and weight 1.
    pub tenant: TenantId,
}

/// Which rung of the degradation ladder produced a response. Recorded on
/// every [`PredictResponse`] so admission quality per tier is measurable:
/// a fleet serving mostly `Full` is healthy; a drift toward the lower
/// tiers is the degradation signal itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedTier {
    /// The full uncertainty pipeline ran (possibly cache-accelerated):
    /// the response carries the real `N(E[t_q], Var[t_q])`.
    Full,
    /// The pipeline failed, but the selectivity-estimate cache held this
    /// exact query instance: the cached estimates were re-fed through
    /// fitting + variance algebra, producing a distribution bit-identical
    /// to a healthy sel-cache hit.
    CachedEstimates,
    /// Only the shape profile's last observed mean was available: the
    /// prediction is a point mass at that mean (zero variance), so
    /// admission degenerates to the mean-only check.
    MeanOnly,
    /// No usable estimate at all: the static heuristic admitted anything
    /// with a non-negative (or absent) deadline. `prob_in_time` is NaN —
    /// there is no distribution to integrate.
    Static,
    /// Never served: shed by overload control before reaching a worker.
    /// Always paired with [`Decision::Reject`] and a NaN `prob_in_time`.
    Shed,
    /// The plan failed static validation at the service edge: the request
    /// was answered with [`Decision::Reject`] and a typed
    /// [`PredictResponse::plan_error`] diagnostic instead of ever reaching
    /// the prediction pipeline. `prob_in_time` is NaN.
    Invalid,
}

impl ServedTier {
    pub fn label(&self) -> &'static str {
        match self {
            ServedTier::Full => "full",
            ServedTier::CachedEstimates => "cached-estimates",
            ServedTier::MeanOnly => "mean-only",
            ServedTier::Static => "static",
            ServedTier::Shed => "shed",
            ServedTier::Invalid => "invalid",
        }
    }
}

/// The service's answer to one request.
#[derive(Debug, Clone)]
pub struct PredictResponse {
    pub id: u64,
    pub prediction: Prediction,
    pub decision: Decision,
    /// `Pr(T ≤ deadline)` under the predicted distribution (1.0 when the
    /// request had no deadline). For retried requests this is the
    /// probability at the *final* re-decision, against the recomputed
    /// budget. NaN for the [`ServedTier::Static`] and
    /// [`ServedTier::Shed`] tiers, which have no distribution.
    pub prob_in_time: f64,
    /// Which worker served the request (diagnostics).
    pub worker: usize,
    /// Wall-clock seconds from dequeue to decision.
    pub service_seconds: f64,
    /// Number of admission evaluations this response took: 1 = decided at
    /// first sight; >1 = the request sat in the deferred queue and was
    /// re-decided on completion events / idle ticks.
    pub attempts: u32,
    /// Milliseconds spent in the deferred queue (0 when `attempts == 1`).
    pub deferred_ms: f64,
    /// Which degradation-ladder rung served this response.
    pub tier: ServedTier,
    /// The typed validation defect when `tier` is [`ServedTier::Invalid`];
    /// `None` everywhere else. Deliberately *outside* the bit-deterministic
    /// prediction fields — it is a diagnostic, not part of the prediction.
    pub plan_error: Option<uaq_engine::PlanError>,
    /// Per-stage wall-clock breakdown of this request, captured only when
    /// [`ServiceConfig::record_spans`] is on — deliberately *outside* the
    /// bit-deterministic prediction fields. `None` with spans off and on
    /// paths that never ran the pipeline (supervisor fallback, shed).
    pub stage_timings: Option<StageTimings>,
}

/// What the service does with a `Defer` verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of `Defer` re-decisions before the service closes
    /// the request with a final `Reject`. `0` keeps `Defer` as a terminal
    /// response (the pre-retry behaviour, and the default: it is the only
    /// mode whose responses are bit-deterministic, because re-decisions
    /// consume wall-clock budget).
    pub max_retries: u32,
    /// Fallback re-decision cadence when no completion events occur (an
    /// idle pool with parked requests): workers wake on this tick and
    /// re-decide the deferred queue, so a parked request resolves within
    /// roughly `max_retries × idle_tick` even with zero traffic.
    pub idle_tick: Duration,
}

impl RetryPolicy {
    /// `Defer` is a terminal response (the client decides what to do).
    pub fn terminal() -> Self {
        Self {
            max_retries: 0,
            idle_tick: Duration::from_millis(5),
        }
    }

    /// Deferred requests are re-decided up to `max_retries` times on the
    /// same reply channel, then finally rejected.
    pub fn bounded(max_retries: u32) -> Self {
        Self {
            max_retries,
            idle_tick: Duration::from_millis(5),
        }
    }

    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::terminal()
    }
}

/// What a full bounded queue sheds when one more request arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Plain backpressure: the incoming request is rejected, the queue is
    /// untouched (FIFO shedding — the baseline the overload experiment
    /// compares against).
    RejectNewest,
    /// Uncertainty-aware: shed whichever request — queued or incoming —
    /// has the highest *relative* predicted variance
    /// ([`shed_priority`]), looked up from the shape profile of past
    /// predictions. Highest-variance work is the worst SLO bet per unit
    /// of capacity, so shedding it first minimizes expected violations
    /// among what the service keeps. Unknown shapes (no profile yet)
    /// carry infinite priority: with no evidence they can meet anything,
    /// they are the first to go under pressure.
    #[default]
    HighestRelativeVariance,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads. 0 is clamped to 1.
    pub workers: usize,
    /// Work-queue shards. `0` (the default) uses one shard per worker —
    /// each worker drains its home shard and steals from the others in a
    /// seeded random order. `1` reproduces the single-queue FIFO exactly.
    pub queue_shards: usize,
    /// Per-tenant serving classes ([`TenantClass`]: θ-policy override,
    /// default deadline, weighted-fair shed share). Tenants not listed —
    /// including the anonymous [`TenantId::default()`] — get the
    /// service-wide policy and weight 1.
    pub tenants: Vec<(TenantId, TenantClass)>,
    pub policy: AdmissionPolicy,
    /// When false, workers predict with [`NoFitCache`] — the A/B switch the
    /// cold-vs-warm benchmarks and golden tests use.
    pub cache_enabled: bool,
    pub cache: CacheConfig,
    /// Deferred-request handling; see [`RetryPolicy`].
    pub retry: RetryPolicy,
    /// Maximum requests waiting in the work queue; `None` is unbounded
    /// (the pre-overload-control behaviour). At the mark, [`Self::shed`]
    /// picks the victim, which gets an immediate [`Decision::Reject`] at
    /// [`ServedTier::Shed`] — shedding is a response, never silence.
    pub queue_capacity: Option<usize>,
    /// Victim selection for a full queue; see [`ShedPolicy`].
    pub shed: ShedPolicy,
    /// When true, every served request runs under a
    /// [`uaq_telemetry::span::SpanRecorder`]: the response carries
    /// [`PredictResponse::stage_timings`] and the per-stage histograms
    /// (`uaq_stage_seconds{stage,tier}`) fill in. Off by default — a warm
    /// cached predict is microseconds, and the recorder's clock reads are
    /// measurable at that scale; counters stay on either way.
    pub record_spans: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_shards: 0,
            tenants: Vec::new(),
            policy: AdmissionPolicy::default(),
            cache_enabled: true,
            cache: CacheConfig::default(),
            retry: RetryPolicy::default(),
            queue_capacity: None,
            shed: ShedPolicy::default(),
            record_spans: false,
        }
    }
}

/// Point-in-time snapshot of the service's fault-handling counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustnessStats {
    /// Panics caught *inside* the degradation ladder (the worker kept
    /// running and served a lower tier).
    pub ladder_panics_caught: u64,
    /// Panics that escaped the ladder: the supervisor answered the
    /// request with a static-tier response and let the worker die.
    pub worker_panics: u64,
    /// Workers respawned after a panic death.
    pub workers_respawned: u64,
    /// Requests shed by overload control (each got a `Reject` response).
    pub shed: u64,
    /// Responses served per ladder tier (shed responses are counted in
    /// `shed`, not here; deferred requests count at park time under the
    /// tier that produced their prediction).
    pub served_full: u64,
    pub served_cached_estimates: u64,
    pub served_mean_only: u64,
    pub served_static: u64,
    /// Requests rejected at the edge by plan validation (each got a
    /// `Reject` response carrying the typed diagnostic).
    pub served_invalid: u64,
}

/// The fault-handling counters, as [`uaq_telemetry::Counter`] handles
/// registered on the service's registry: the same atomic cells back both
/// [`RobustnessStats`] (via [`Self::snapshot`]) and the
/// `uaq_requests_served_total{tier}` / `uaq_panics_total{scope}` series in
/// `PredictionService::telemetry()`.
#[derive(Debug, Default)]
struct RobustnessCounters {
    ladder_panics_caught: Counter,
    worker_panics: Counter,
    workers_respawned: Counter,
    shed: Counter,
    served_full: Counter,
    served_cached_estimates: Counter,
    served_mean_only: Counter,
    served_static: Counter,
    served_invalid: Counter,
}

impl RobustnessCounters {
    fn registered(registry: &Registry) -> Self {
        let tier =
            |t: ServedTier| registry.counter("uaq_requests_served_total", &[("tier", t.label())]);
        Self {
            ladder_panics_caught: registry.counter("uaq_panics_total", &[("scope", "ladder")]),
            worker_panics: registry.counter("uaq_panics_total", &[("scope", "worker")]),
            workers_respawned: registry.counter("uaq_workers_respawned_total", &[]),
            shed: tier(ServedTier::Shed),
            served_full: tier(ServedTier::Full),
            served_cached_estimates: tier(ServedTier::CachedEstimates),
            served_mean_only: tier(ServedTier::MeanOnly),
            served_static: tier(ServedTier::Static),
            served_invalid: tier(ServedTier::Invalid),
        }
    }

    fn count_tier(&self, tier: ServedTier) {
        let counter = match tier {
            ServedTier::Full => &self.served_full,
            ServedTier::CachedEstimates => &self.served_cached_estimates,
            ServedTier::MeanOnly => &self.served_mean_only,
            ServedTier::Static => &self.served_static,
            ServedTier::Shed => &self.shed,
            ServedTier::Invalid => &self.served_invalid,
        };
        counter.inc();
    }

    fn snapshot(&self) -> RobustnessStats {
        RobustnessStats {
            ladder_panics_caught: self.ladder_panics_caught.get(),
            worker_panics: self.worker_panics.get(),
            workers_respawned: self.workers_respawned.get(),
            shed: self.shed.get(),
            served_full: self.served_full.get(),
            served_cached_estimates: self.served_cached_estimates.get(),
            served_mean_only: self.served_mean_only.get(),
            served_static: self.served_static.get(),
            served_invalid: self.served_invalid.get(),
        }
    }
}

/// What the shape profile remembers about the last completed real
/// prediction (tier `Full`/`CachedEstimates`) for a plan shape. Feeds the
/// mean-only ladder tier and the variance-aware shedder.
#[derive(Debug, Clone, Copy)]
struct ShapeProfile {
    mean_ms: f64,
    var_ms2: f64,
}

/// Entries the shape-profile map holds at most (bounds memory under
/// adversarial shape churn; profiled shapes past the cap just miss).
const PROFILE_CAP: usize = 4096;

struct Job {
    request: PredictRequest,
    reply: mpsc::Sender<PredictResponse>,
    /// Submit-time stamp; the span layer turns it into the
    /// [`Stage::QueueWait`] interval at dequeue.
    enqueued_at: Instant,
    /// Global arrival sequence number, assigned at submit. The shed
    /// tie-breaker: among equal shed priorities (including the all-∞
    /// unprofiled case) the *newest* arrival is the victim, which extends
    /// "ties shed the newcomer" into the queued population and — because
    /// (priority, seq) is intrinsic to the job, not its queue position —
    /// makes victim selection bit-reproducible across shard counts.
    seq: u64,
}

/// A parked request: decided `Defer`, waiting for a re-decision event.
struct DeferredJob {
    id: u64,
    deadline_ms: f64,
    /// The admission policy that parked it (per-tenant override already
    /// resolved), so re-decisions apply the same θ.
    policy: AdmissionPolicy,
    reply: mpsc::Sender<PredictResponse>,
    prediction: Prediction,
    /// When the deferring decision was made (re-decisions recompute the
    /// budget as `deadline_ms − elapsed since then`).
    parked_at: Instant,
    /// `Defer` re-decisions so far.
    retries: u32,
    service_seconds: f64,
    /// Ladder tier that produced the parked prediction.
    tier: ServedTier,
    /// Timings captured up to the park (spans on only); attached to the
    /// final response when the request resolves.
    stage_timings: Option<StageTimings>,
}

struct Shared {
    queue: ShardedWorkQueue<Job>,
    predictor: Predictor,
    catalog: Arc<Catalog>,
    samples: Arc<SampleCatalog>,
    cache: SharedFitCache,
    sel_cache: SharedSelEstCache,
    policy: AdmissionPolicy,
    /// Per-tenant class overrides; requests from unlisted tenants use the
    /// service-wide defaults.
    tenants: HashMap<TenantId, TenantClass>,
    /// Arrival sequence counter backing [`Job::seq`].
    next_seq: AtomicU64,
    cache_enabled: bool,
    retry: RetryPolicy,
    deferred: Mutex<VecDeque<DeferredJob>>,
    shed: ShedPolicy,
    /// Last real prediction per plan shape; see [`ShapeProfile`].
    profile: Mutex<HashMap<u64, ShapeProfile>>,
    robustness: RobustnessCounters,
    /// The one registry every counter, gauge, and histogram the service
    /// owns lives on; `PredictionService::telemetry()` snapshots it.
    registry: Arc<Registry>,
    record_spans: bool,
    requests_total: Counter,
    deferred_parked: Counter,
    deferred_redecisions: Counter,
    /// `None` in production ([`crate::fault::NoFaults`] is stripped at
    /// start), so every probe point costs one branch.
    injector: Option<Arc<dyn FaultInjector>>,
    /// Workers respawned after panic deaths, joined at shutdown.
    respawned: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_worker: AtomicUsize,
}

impl Shared {
    /// Re-decides every parked request once with its recomputed remaining
    /// budget. Called whenever a worker completes a request (the service's
    /// "server freed" event), on the idle tick, and — with `final_pass` —
    /// at shutdown, where a still-deferring request gets a final `Reject`
    /// because no further events can ever resolve it.
    fn redecide_deferred(&self, worker: usize, final_pass: bool) {
        let mut q = lock_recover(&self.deferred);
        let parked = q.len();
        for _ in 0..parked {
            let mut d = q.pop_front().expect("len checked");
            let waited_ms = d.parked_at.elapsed().as_secs_f64() * 1e3;
            let budget = d.deadline_ms - waited_ms;
            let (decision, prob) = d.policy.decide(&d.prediction, Some(budget));
            d.retries += 1;
            self.deferred_redecisions.inc();
            let exhausted = final_pass || d.retries >= self.retry.max_retries;
            let verdict = match decision {
                Decision::Defer if !exhausted => {
                    q.push_back(d);
                    continue;
                }
                // Out of events (shutdown) or retries: the defer band
                // resolves to rejection, never to silence.
                Decision::Defer => Decision::Reject,
                other => other,
            };
            let _ = d.reply.send(PredictResponse {
                id: d.id,
                prediction: d.prediction,
                decision: verdict,
                prob_in_time: prob,
                worker,
                service_seconds: d.service_seconds,
                attempts: d.retries + 1,
                deferred_ms: waited_ms,
                tier: d.tier,
                stage_timings: d.stage_timings,
                plan_error: None,
            });
        }
    }

    fn has_deferred(&self) -> bool {
        !lock_recover(&self.deferred).is_empty()
    }

    fn probe(&self, site: FaultSite, worker: usize) {
        if let Some(inj) = &self.injector {
            if let Some(f) = inj.inject(site, worker) {
                crate::fault::apply(f, site);
            }
        }
    }

    fn profile_for(&self, shape_hash: u64) -> Option<ShapeProfile> {
        lock_recover(&self.profile).get(&shape_hash).copied()
    }

    /// The tenant's class, or the all-defaults class for unlisted tenants.
    fn tenant_class(&self, tenant: TenantId) -> TenantClass {
        self.tenants.get(&tenant).copied().unwrap_or_default()
    }

    /// The admission policy a request of `tenant` is decided under.
    fn policy_for(&self, tenant: TenantId) -> AdmissionPolicy {
        self.tenant_class(tenant).policy.unwrap_or(self.policy)
    }

    /// Records a completed real prediction in the shape profile. Called
    /// only when the sample pass actually ran (a warm sel-cache hit
    /// changes nothing the profile holds), keeping the repeated-query hot
    /// path free of this lock.
    fn record_profile(&self, plan: &Plan, prediction: &Prediction) {
        let mut profile = lock_recover(&self.profile);
        let entry = ShapeProfile {
            mean_ms: prediction.mean_ms(),
            var_ms2: prediction.var(),
        };
        let key = plan.shape_hash();
        if profile.contains_key(&key) || profile.len() < PROFILE_CAP {
            profile.insert(key, entry);
        }
    }

    /// Shed priority of a not-yet-predicted request, from the shape
    /// profile: relative variance of the shape's last real prediction, or
    /// +∞ for shapes never profiled (no evidence they can meet anything).
    fn shed_priority_of(&self, plan: &Plan) -> f64 {
        match self.profile_for(plan.shape_hash()) {
            Some(p) => shed_priority(&Prediction::degraded(
                p.mean_ms.max(0.0),
                p.var_ms2.max(0.0),
            )),
            None => f64::INFINITY,
        }
    }

    /// Weighted-fair shed priority of a queued job: the shape's relative
    /// variance divided by the tenant's shed weight (a weight-2 tenant
    /// takes half the shedding pressure at equal uncertainty). Infinite
    /// priorities stay infinite for every weight.
    fn shed_priority_of_job(&self, job: &Job) -> f64 {
        self.shed_priority_of(&job.request.plan)
            / self.tenant_class(job.request.tenant).effective_weight()
    }

    /// Answers a request that never reached a worker: shed by overload
    /// control, or left in the queue at shutdown after every worker died.
    fn respond_unserved(&self, job: Job, tier: ServedTier, worker: usize) {
        let decision = match tier {
            ServedTier::Shed => Decision::Reject,
            _ => static_decision(job.request.deadline_ms),
        };
        self.robustness.count_tier(tier);
        if tier == ServedTier::Shed {
            // Per-tenant shed accounting: these series sum to the total
            // shed count (`uaq_requests_served_total{tier="shed"}`).
            self.registry
                .counter(
                    "uaq_requests_shed_total",
                    &[("tenant", &job.request.tenant.label())],
                )
                .inc();
        }
        let _ = job.reply.send(PredictResponse {
            id: job.request.id,
            prediction: Prediction::degraded(0.0, 0.0),
            decision,
            prob_in_time: f64::NAN,
            worker,
            service_seconds: 0.0,
            attempts: 1,
            deferred_ms: 0.0,
            tier,
            stage_timings: None,
            plan_error: None,
        });
    }

    /// Feeds one finished request's timings into the aggregate histograms:
    /// per-stage `uaq_stage_seconds{stage,tier}` plus the per-shape
    /// end-to-end `uaq_request_seconds{shape}` (labeled with the exact
    /// shape key the caches group by). Only called with spans on.
    fn observe_timings(&self, timings: &StageTimings, tier: ServedTier, plan: &Plan) {
        for (stage, secs) in timings.iter() {
            self.registry
                .histogram(
                    "uaq_stage_seconds",
                    &[("stage", stage.label()), ("tier", tier.label())],
                    HistogramConfig::default(),
                )
                .record(secs);
        }
        let shape = Predictor::shape_key(plan, &self.catalog);
        self.registry
            .histogram(
                "uaq_request_seconds",
                &[("shape", &shape)],
                HistogramConfig::default(),
            )
            .record(timings.get(Stage::Total));
    }
}

/// The static admit heuristic (bottom ladder tier): with no prediction at
/// all, admit anything whose deadline has not already passed. Optimistic
/// by design — a degraded service keeps serving rather than rejecting
/// everything — and the served tier records the quality downgrade.
fn static_decision(deadline_ms: Option<f64>) -> Decision {
    match deadline_ms {
        Some(d) if d < 0.0 => Decision::Reject,
        _ => Decision::Admit,
    }
}

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
            retry: config.retry,
            deferred: Mutex::new(VecDeque::new()),
            shed: config.shed,
            profile: Mutex::new(HashMap::new()),
            robustness: RobustnessCounters::registered(&registry),
            requests_total: registry.counter("uaq_requests_total", &[]),
            deferred_parked: registry.counter("uaq_deferred_parked_total", &[]),
            deferred_redecisions: registry.counter("uaq_deferred_redecisions_total", &[]),
            registry,
            record_spans: config.record_spans,
            injector,
            respawned: Mutex::new(Vec::new()),
            next_worker: AtomicUsize::new(workers),
        });
        let workers = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("uaq-service-{worker}"))
                    .spawn(move || worker_entry(&shared, worker))
                    .expect("spawn service worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Enqueues a request; the response arrives on the returned channel.
    ///
    /// Contract: every request accepted before shutdown receives exactly
    /// one response (deferred requests included — they are re-decided and
    /// finally resolved at shutdown; shed requests included — they are
    /// rejected on the spot). Once shutdown has begun the queue is
    /// closed: the request is dropped together with its reply sender, so
    /// the returned receiver's `recv()` fails immediately with
    /// `RecvError` instead of blocking — submitting after shutdown never
    /// hangs and never panics.
    pub fn submit(&self, mut request: PredictRequest) -> mpsc::Receiver<PredictResponse> {
        let shared = &self.shared;
        // Tenant-class deadline default: applied once at the door, so
        // admission, deferral, and shedding all see the same deadline.
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
        shared.requests_total.inc();
        // The selector is only consulted at the high-water mark of a
        // bounded queue.
        let pushed = shared
            .queue
            .push_bounded(job, |queued, incoming| match shared.shed {
                ShedPolicy::RejectNewest => None,
                ShedPolicy::HighestRelativeVariance => {
                    // Shed the single worst weighted relative-variance
                    // request — but only if it is strictly worse than the
                    // incoming one (ties shed the newcomer: displacing
                    // queued work needs a reason). Equal priorities among
                    // the queued (the all-∞ unprofiled case included)
                    // break on arrival seq, newest first — an ordering
                    // intrinsic to the jobs, so the victim is the same
                    // for every shard count.
                    let incoming_priority = shared.shed_priority_of_job(incoming);
                    queued
                        .iter()
                        .enumerate()
                        .map(|(i, j)| (i, shared.shed_priority_of_job(j), j.seq))
                        .max_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)))
                        .filter(|&(_, p, _)| p > incoming_priority)
                        .map(|(i, _, _)| i)
                }
            });
        match pushed {
            Pushed::Queued => {}
            // The victim gets its Reject right here on the submitter's
            // thread — overload control must not depend on a worker being
            // free to say no.
            Pushed::Shed(victim) => shared.respond_unserved(victim, ServedTier::Shed, usize::MAX),
            // Closed queue: the job (and its reply sender) is dropped,
            // disconnecting `rx` right away.
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
    /// counters, retry counters, queue-occupancy gauges, and — with
    /// [`ServiceConfig::record_spans`] on — the per-stage and per-shape
    /// latency histograms. Occupancy gauges (`uaq_queue_depth`,
    /// `uaq_cache_entries`, …) are refreshed here rather than maintained
    /// on the hot path; everything else is whatever the always-on atomic
    /// counters have accumulated. Export with
    /// [`Snapshot::to_prometheus`] or [`Snapshot::to_json`].
    pub fn telemetry(&self) -> Snapshot {
        let r = &self.shared.registry;
        r.gauge("uaq_queue_depth", &[]).set(self.backlog() as f64);
        r.gauge("uaq_deferred_depth", &[])
            .set(self.deferred_backlog() as f64);
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

    /// Requests currently parked in the deferred queue awaiting a
    /// re-decision (0 unless a [`RetryPolicy`] is enabled).
    pub fn deferred_backlog(&self) -> usize {
        lock_recover(&self.shared.deferred).len()
    }

    /// Closes the queue, drains pending requests, joins the workers, and
    /// gives every still-deferred request a final verdict.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
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
        while let Popped::Item(job) =
            self.shared
                .queue
                .pop_timeout(0, &mut drain_rng, Some(Duration::ZERO))
        {
            self.shared
                .respond_unserved(job, ServedTier::Static, usize::MAX);
        }
        // Workers are gone: no further completion events or ticks can
        // resolve a parked request, so re-decide each one final time
        // (still-deferring ⇒ Reject — never silence).
        self.shared.redecide_deferred(usize::MAX, true);
    }
}

impl Drop for PredictionService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Respawns the worker if its thread dies panicking. Armed for the whole
/// worker lifetime; a normal loop exit (closed queue) disarms it, and a
/// closed queue also vetoes respawning — shutdown must converge.
struct RespawnGuard {
    shared: Arc<Shared>,
    armed: bool,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !self.armed || !std::thread::panicking() || self.shared.queue.is_closed() {
            return;
        }
        let worker = self.shared.next_worker.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        // `Builder::spawn` returns a Result instead of panicking — vital
        // here: a panic inside this unwinding Drop would abort the
        // process. If the OS refuses a thread, the pool just shrinks
        // (shutdown still answers whatever the lost worker would have).
        let spawned = std::thread::Builder::new()
            .name(format!("uaq-service-{worker}"))
            .spawn(move || worker_entry(&shared, worker));
        if let Ok(handle) = spawned {
            self.shared.robustness.workers_respawned.inc();
            lock_recover(&self.shared.respawned).push(handle);
        }
    }
}

/// Thread body of one worker: installs the per-thread engine fault hook
/// (when an injector is active), arms the respawn guard, and runs the
/// serve loop.
fn worker_entry(shared: &Arc<Shared>, worker: usize) {
    if let Some(inj) = &shared.injector {
        // Thread-locals don't cross threads: every worker — initial or
        // respawned — installs its own forwarder to the shared injector.
        let inj = Arc::clone(inj);
        uaq_engine::fault::install_sample_pass_hook(Box::new(move || {
            if let Some(f) = inj.inject(FaultSite::SamplePass, worker) {
                crate::fault::apply(f, FaultSite::SamplePass);
            }
        }));
    }
    let mut guard = RespawnGuard {
        shared: Arc::clone(shared),
        armed: true,
    };
    worker_loop(shared, worker);
    guard.armed = false;
}

fn worker_loop(shared: &Shared, worker: usize) {
    // Steal order is a pure function of this seed (see
    // [`crate::queue::ShardedWorkQueue`]), so a replayed schedule visits
    // victim shards in the same order every run. A respawned worker
    // reuses its slot's seed, keeping replays deterministic across
    // panics too.
    let mut steal_rng = 0x9E37_79B9_7F4A_7C15u64 ^ worker as u64;
    loop {
        // Worker-kill / worker-stall probe, between requests: a panic
        // here unwinds into the respawn guard with no request in hand.
        shared.probe(FaultSite::WorkerLoop, worker);
        // Bound the wait only while requests are parked: the tick is the
        // fallback re-decision event for a quiet pool.
        let timeout =
            (shared.retry.enabled() && shared.has_deferred()).then_some(shared.retry.idle_tick);
        match shared.queue.pop_timeout(worker, &mut steal_rng, timeout) {
            Popped::Item(job) => {
                let completed = supervised_serve(shared, worker, job);
                if completed {
                    // A completed request is the service's "server freed"
                    // event: offer the parked requests a re-decision.
                    shared.redecide_deferred(worker, false);
                }
            }
            Popped::TimedOut => shared.redecide_deferred(worker, false),
            Popped::Closed => break,
        }
    }
}

/// Runs [`serve_job`] under the supervisor's `catch_unwind`: a panic that
/// escapes the degradation ladder (a mid-request kill, or a bug in the
/// decide/park/send path itself) still produces exactly one response —
/// static tier, decided by the heuristic — before the panic resumes and
/// the respawn guard replaces the worker. The `AssertUnwindSafe` is
/// justified by the poison-tolerance design: everything `shared` guards
/// recovers from a mid-update panic (see [`crate::sync`]).
fn supervised_serve(shared: &Shared, worker: usize, job: Job) -> bool {
    let id = job.request.id;
    let deadline_ms = job.request.deadline_ms;
    let reply = job.reply.clone();
    match catch_unwind(AssertUnwindSafe(|| serve_job(shared, worker, job))) {
        Ok(completed) => completed,
        Err(payload) => {
            shared.robustness.worker_panics.inc();
            shared.robustness.count_tier(ServedTier::Static);
            // The original job (and its reply sender) died inside the
            // closure, so this clone is the only sender left: at most one
            // response can ever reach the client. `serve_job` sends or
            // parks only as its final action, after every panic source —
            // so a panic implies no response was sent and the request is
            // not parked; this is the exactly-one response.
            let _ = reply.send(PredictResponse {
                id,
                prediction: Prediction::degraded(0.0, 0.0),
                decision: static_decision(deadline_ms),
                prob_in_time: f64::NAN,
                worker,
                service_seconds: 0.0,
                attempts: 1,
                deferred_ms: 0.0,
                tier: ServedTier::Static,
                stage_timings: None,
                plan_error: None,
            });
            resume_unwind(payload)
        }
    }
}

/// Runs the degradation ladder for one request: each tier is attempted
/// under its own `catch_unwind`, and a failing tier falls through to the
/// next cheaper one. Returns `None` only when even the shape profile is
/// empty — the static tier, which needs no prediction.
fn ladder_predict(
    shared: &Shared,
    worker: usize,
    plan: &Arc<Plan>,
) -> (Option<Prediction>, ServedTier) {
    let (fit_cache, sel_cache): (&dyn FitCache, &dyn SelEstCache) = if shared.cache_enabled {
        (&shared.cache, &shared.sel_cache)
    } else {
        (&NoFitCache, &NoSelEstCache)
    };

    // Tier 0 — the full pipeline.
    let full = catch_unwind(AssertUnwindSafe(|| {
        shared.probe(FaultSite::Predict, worker);
        shared.predictor.predict_with_caches(
            &plan.clone(),
            &shared.catalog,
            &shared.samples,
            fit_cache,
            sel_cache,
        )
    }));
    match full {
        Ok(prediction) => {
            // A fresh sample pass is new evidence for the profile (a
            // warm sel-cache hit would only rewrite what it holds, so
            // the repeated-query hot path skips the profile lock).
            if prediction.sample_pass_ran {
                shared.record_profile(plan, &prediction);
            }
            return (Some(prediction), ServedTier::Full);
        }
        Err(_) => {
            shared.robustness.ladder_panics_caught.inc();
        }
    }

    // Tier 1 — cached estimates. No sample pass: only worth attempting
    // when the sel cache might hold this exact instance.
    if shared.cache_enabled {
        let cached = catch_unwind(AssertUnwindSafe(|| {
            let key = shared
                .predictor
                .sel_instance_key(plan, &shared.catalog, &shared.samples);
            sel_cache.get(&key).map(|estimates| {
                shared
                    .predictor
                    .predict_from_estimates(plan, &shared.catalog, estimates, fit_cache)
            })
        }));
        match cached {
            Ok(Some(prediction)) => return (Some(prediction), ServedTier::CachedEstimates),
            Ok(None) => {}
            Err(_) => {
                shared.robustness.ladder_panics_caught.inc();
            }
        }
    }

    // Tier 2 — mean-only from the shape profile: a point mass at the
    // shape's last observed mean. Tail-probability admission on a point
    // mass degenerates to the mean-only check, which is exactly this
    // tier's contract.
    if let Some(p) = shared.profile_for(plan.shape_hash()) {
        if p.mean_ms.is_finite() && p.mean_ms >= 0.0 {
            return (
                Some(Prediction::degraded(p.mean_ms, 0.0)),
                ServedTier::MeanOnly,
            );
        }
    }

    // Tier 3 — static: no prediction at all.
    (None, ServedTier::Static)
}

/// Serves one request. Returns `false` when the request was parked in the
/// deferred queue (no response yet), `true` when a response was sent.
/// Sending/parking is the **last** action — every panic source (the
/// ladder's tiers re-panic only through injected `MidRequest` faults;
/// tier internals are caught) runs before it, which is what lets the
/// supervisor equate "panicked" with "no response sent yet".
fn serve_job(shared: &Shared, worker: usize, job: Job) -> bool {
    let t0 = Instant::now();
    // Spans on: install the per-thread recorder so every `span::timed`
    // site down the pipeline (cache probes, sample pass, fitting)
    // accrues. The queue wait is already over — credit it from the
    // enqueue stamp. `begin` replaces any recorder a panicking previous
    // request left behind.
    let recorder = shared.record_spans.then(|| {
        let r = SpanRecorder::begin();
        span::record(
            Stage::QueueWait,
            t0.duration_since(job.enqueued_at).as_secs_f64(),
        );
        r
    });
    // Harvests the recorder at response time: `Total` is end-to-end from
    // submit, and the aggregate histograms get fed under the serving tier.
    let harvest = |r: SpanRecorder, tier: ServedTier| {
        span::record(Stage::Total, job.enqueued_at.elapsed().as_secs_f64());
        let timings = r.finish();
        shared.observe_timings(&timings, tier, &job.request.plan);
        timings
    };
    // Edge validation: a malformed plan earns a typed rejection here, not
    // a panic inside a worker (the executor's own failure modes — unknown
    // columns, duplicate join outputs, mixed-type ordering — would burn a
    // `catch_unwind` per tier and still answer with an uninformative
    // static-tier response). The verdict is interned on the plan keyed by
    // the catalog+sample fingerprints, so re-submitting a warm `Arc<Plan>`
    // costs one atomic load and a `u64` compare.
    if let Err(e) =
        uaq_engine::validate_cached_on_samples(&job.request.plan, &shared.catalog, &shared.samples)
    {
        shared.robustness.count_tier(ServedTier::Invalid);
        let stage_timings = recorder.map(|r| harvest(r, ServedTier::Invalid));
        let _ = job.reply.send(PredictResponse {
            id: job.request.id,
            prediction: Prediction::degraded(0.0, 0.0),
            decision: Decision::Reject,
            prob_in_time: f64::NAN,
            worker,
            service_seconds: t0.elapsed().as_secs_f64(),
            attempts: 1,
            deferred_ms: 0.0,
            tier: ServedTier::Invalid,
            stage_timings,
            plan_error: Some(e),
        });
        return true;
    }
    let (prediction, tier) = ladder_predict(shared, worker, &job.request.plan);
    // Mid-request kill probe: after the prediction, while the request is
    // still unanswered — the panic escapes to the supervisor, which owns
    // the response.
    shared.probe(FaultSite::MidRequest, worker);
    let Some(prediction) = prediction else {
        // Static tier: heuristic decision, no distribution to defer on.
        shared.robustness.count_tier(ServedTier::Static);
        let stage_timings = recorder.map(|r| harvest(r, ServedTier::Static));
        let _ = job.reply.send(PredictResponse {
            id: job.request.id,
            prediction: Prediction::degraded(0.0, 0.0),
            decision: static_decision(job.request.deadline_ms),
            prob_in_time: f64::NAN,
            worker,
            service_seconds: t0.elapsed().as_secs_f64(),
            attempts: 1,
            deferred_ms: 0.0,
            tier: ServedTier::Static,
            stage_timings,
            plan_error: None,
        });
        return true;
    };
    let policy = shared.policy_for(job.request.tenant);
    let (decision, prob_in_time) = span::timed(Stage::Admission, || {
        policy.decide(&prediction, job.request.deadline_ms)
    });
    shared.robustness.count_tier(tier);
    let stage_timings = recorder.map(|r| harvest(r, tier));
    if decision == Decision::Defer && shared.retry.enabled() {
        if let Some(deadline_ms) = job.request.deadline_ms {
            shared.deferred_parked.inc();
            lock_recover(&shared.deferred).push_back(DeferredJob {
                id: job.request.id,
                deadline_ms,
                policy,
                reply: job.reply,
                prediction,
                parked_at: Instant::now(),
                retries: 0,
                service_seconds: t0.elapsed().as_secs_f64(),
                tier,
                stage_timings,
            });
            return false;
        }
    }
    // A dropped receiver just means the client stopped waiting; the
    // worker moves on.
    let _ = job.reply.send(PredictResponse {
        id: job.request.id,
        prediction,
        decision,
        prob_in_time,
        worker,
        service_seconds: t0.elapsed().as_secs_f64(),
        attempts: 1,
        deferred_ms: 0.0,
        tier,
        stage_timings,
        plan_error: None,
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use uaq_core::PredictorConfig;
    use uaq_cost::{calibrate, CalibrationConfig, HardwareProfile};
    use uaq_engine::{PlanBuilder, Pred};
    use uaq_stats::Rng;
    use uaq_storage::{Column, Schema, Table, Value};

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
    }

    #[test]
    fn deferred_request_is_redecided_on_completion_events() {
        let (predictor, catalog, samples, plan) = setup();
        let reference = predictor.predict(&plan, &catalog, &samples);
        let border = reference.mean_ms() + 0.5 * reference.std_dev_ms();
        let service = PredictionService::start(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                workers: 1,
                retry: RetryPolicy::bounded(3),
                ..Default::default()
            },
        );
        // The border request defers and parks; follow-up no-deadline
        // requests complete and each completion re-decides it. The budget
        // only shrinks (elapsed wall-clock), so the defer band drains to
        // a final Reject on the same reply channel — never silence, never
        // a terminal Defer.
        let rx = service.submit(PredictRequest {
            id: 7,
            plan: Arc::clone(&plan),
            deadline_ms: Some(border),
            tenant: TenantId::default(),
        });
        for i in 0..8 {
            let _ = service
                .submit(PredictRequest {
                    id: 100 + i,
                    plan: Arc::clone(&plan),
                    deadline_ms: None,
                    tenant: TenantId::default(),
                })
                .recv()
                .expect("worker alive");
        }
        let resp = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("deferred request must resolve via completion events or ticks");
        assert_eq!(resp.id, 7);
        assert_ne!(resp.decision, Decision::Defer, "defer is not terminal");
        assert_eq!(resp.decision, Decision::Reject);
        assert!(resp.attempts > 1, "went through the retry queue");
        assert!(resp.attempts <= 4, "initial decision + at most 3 retries");
        assert!(resp.deferred_ms >= 0.0);
        assert_eq!(service.deferred_backlog(), 0);
        service.shutdown();
    }

    #[test]
    fn idle_tick_resolves_a_lone_deferred_request() {
        // No follow-up traffic at all: the fallback tick must still
        // resolve the parked request (bounded retries ⇒ final Reject)
        // without waiting for shutdown.
        let (predictor, catalog, samples, plan) = setup();
        let reference = predictor.predict(&plan, &catalog, &samples);
        let border = reference.mean_ms() + 0.5 * reference.std_dev_ms();
        let service = PredictionService::start(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                workers: 2,
                retry: RetryPolicy {
                    max_retries: 2,
                    idle_tick: std::time::Duration::from_millis(2),
                },
                ..Default::default()
            },
        );
        let rx = service.submit(PredictRequest {
            id: 1,
            plan: Arc::clone(&plan),
            deadline_ms: Some(border),
            tenant: TenantId::default(),
        });
        let resp = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("resolved by idle ticks");
        assert_eq!(resp.decision, Decision::Reject);
        assert!(resp.attempts > 1);
        service.shutdown();
    }

    #[test]
    fn shutdown_gives_parked_requests_a_final_verdict() {
        let (predictor, catalog, samples, plan) = setup();
        let reference = predictor.predict(&plan, &catalog, &samples);
        let border = reference.mean_ms() + 0.5 * reference.std_dev_ms();
        let service = PredictionService::start(
            predictor,
            catalog,
            samples,
            ServiceConfig {
                workers: 1,
                // A huge retry budget and a long tick: only the shutdown
                // pass can resolve the request within the test's patience.
                retry: RetryPolicy {
                    max_retries: u32::MAX,
                    idle_tick: std::time::Duration::from_secs(3600),
                },
                ..Default::default()
            },
        );
        let rx = service.submit(PredictRequest {
            id: 3,
            plan: Arc::clone(&plan),
            deadline_ms: Some(border),
            tenant: TenantId::default(),
        });
        // Give the worker a moment to park it, then shut down.
        while service.backlog() > 0 {
            std::thread::yield_now();
        }
        service.shutdown();
        let resp = rx.recv().expect("shutdown resolves parked requests");
        assert_eq!(resp.decision, Decision::Reject);
        assert!(resp.attempts > 1);
    }

    #[test]
    fn terminal_policy_keeps_defer_as_a_terminal_response() {
        let (predictor, catalog, samples, plan) = setup();
        let reference = predictor.predict(&plan, &catalog, &samples);
        let border = reference.mean_ms() + 0.5 * reference.std_dev_ms();
        let service = PredictionService::start(
            predictor,
            catalog,
            samples,
            ServiceConfig::default(), // retry: RetryPolicy::terminal()
        );
        let resp = service.predict_blocking(Arc::clone(&plan), Some(border));
        assert_eq!(resp.decision, Decision::Defer);
        assert_eq!(resp.attempts, 1);
        assert_eq!(resp.deferred_ms, 0.0);
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
    fn responses_carry_the_full_tier_on_the_healthy_path() {
        let (predictor, catalog, samples, plan) = setup();
        let service =
            PredictionService::start(predictor, catalog, samples, ServiceConfig::default());
        let cold = service.predict_blocking(Arc::clone(&plan), None);
        let warm = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(cold.tier, ServedTier::Full);
        assert_eq!(warm.tier, ServedTier::Full, "cache hits are still tier 0");
        let stats = service.robustness_stats();
        assert_eq!(stats.served_full, 2, "{stats:?}");
        assert_eq!(stats.worker_panics + stats.ladder_panics_caught, 0);
        service.shutdown();
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
                shed: ShedPolicy::HighestRelativeVariance,
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

    #[test]
    fn stage_histograms_cover_every_served_tier() {
        // Drive the ladder through all four served tiers with spans on and
        // check each one landed its own labeled histogram series.
        let (predictor, catalog, samples, plan) = setup();
        let injector = FireAt::disarmed(FaultSite::Predict, Fault::Panic);
        let spans_on = |cache_enabled| ServiceConfig {
            cache_enabled,
            record_spans: true,
            ..Default::default()
        };
        // Caches on: Full, then (predict panics) CachedEstimates.
        let service = PredictionService::start_with_faults(
            predictor.clone(),
            Arc::clone(&catalog),
            Arc::clone(&samples),
            spans_on(true),
            Arc::clone(&injector) as Arc<dyn crate::fault::FaultInjector>,
        );
        assert_eq!(
            service.predict_blocking(Arc::clone(&plan), None).tier,
            ServedTier::Full
        );
        injector.arm();
        assert_eq!(
            service.predict_blocking(Arc::clone(&plan), None).tier,
            ServedTier::CachedEstimates
        );
        let snap = service.telemetry();
        for tier in ["full", "cached-estimates"] {
            assert!(
                snap.histogram("uaq_stage_seconds", &[("stage", "total"), ("tier", tier)])
                    .is_some_and(|h| h.count() == 1),
                "missing total histogram for tier {tier}"
            );
        }
        injector.disarm();
        service.shutdown();
        // Caches off: Full, then (predict panics) MeanOnly, then a fresh
        // shape with no profile → Static.
        let injector = FireAt::disarmed(FaultSite::Predict, Fault::Panic);
        let service = PredictionService::start_with_faults(
            predictor,
            catalog,
            samples,
            spans_on(false),
            Arc::clone(&injector) as Arc<dyn crate::fault::FaultInjector>,
        );
        assert_eq!(
            service.predict_blocking(Arc::clone(&plan), None).tier,
            ServedTier::Full
        );
        injector.arm();
        let mean_only = service.predict_blocking(Arc::clone(&plan), None);
        assert_eq!(mean_only.tier, ServedTier::MeanOnly);
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("a", Value::Int(10)));
        let fresh_shape = Arc::new(b.build(t));
        let stat = service.predict_blocking(fresh_shape, None);
        assert_eq!(stat.tier, ServedTier::Static);
        assert!(
            stat.stage_timings.is_some(),
            "ladder-served static tier still carries timings"
        );
        let snap = service.telemetry();
        for tier in ["full", "mean-only", "static"] {
            assert!(
                snap.histogram("uaq_stage_seconds", &[("stage", "total"), ("tier", tier)])
                    .is_some_and(|h| h.count() == 1),
                "missing total histogram for tier {tier}"
            );
        }
        service.shutdown();
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
                    shed: ShedPolicy::HighestRelativeVariance,
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
                shed: ShedPolicy::HighestRelativeVariance,
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
