//! The service's public plain data: request, response, configuration and
//! the fault-handling counters.

use crate::admission::{AdmissionPolicy, Decision, TenantClass, TenantId};
use crate::cache::CacheConfig;
use std::sync::Arc;
use uaq_core::Prediction;
use uaq_engine::Plan;
use uaq_telemetry::{Counter, Registry, StageTimings};

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
    /// request had no deadline). NaN for the [`ServedTier::Static`],
    /// [`ServedTier::Shed`] and [`ServedTier::Invalid`] tiers, which have
    /// no distribution.
    pub prob_in_time: f64,
    /// Which worker served the request (diagnostics).
    pub worker: usize,
    /// Wall-clock seconds from dequeue to decision.
    pub service_seconds: f64,
    /// Which degradation-ladder rung served this response.
    pub tier: ServedTier,
    /// The typed validation defect when `tier` is [`ServedTier::Invalid`];
    /// `None` everywhere else. Deliberately *outside* the bit-deterministic
    /// prediction fields — it is a diagnostic, not part of the prediction.
    pub plan_error: Option<uaq_engine::PlanError>,
    /// Per-stage wall-clock breakdown of this request, captured only when
    /// [`ServiceConfig::record_spans`] is on — deliberately *outside* the
    /// bit-deterministic prediction fields. `None` with spans off and on
    /// paths no worker ran to the end (shed, supervisor fallback, shutdown
    /// drain).
    pub stage_timings: Option<StageTimings>,
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
    /// When false, workers predict with [`uaq_cost::NoFitCache`] — the A/B switch the
    /// cold-vs-warm benchmarks and golden tests use.
    pub cache_enabled: bool,
    pub cache: CacheConfig,
    /// Maximum requests waiting in the work queue; `None` is unbounded.
    /// At the mark the service sheds whichever request — queued or
    /// incoming — has the highest *relative* predicted variance
    /// ([`crate::admission::shed_priority`] of the shape's last real
    /// prediction, over the tenant's shed weight): the worst SLO bet per
    /// unit of capacity. Shapes never profiled carry infinite priority,
    /// and ties shed the newcomer. The victim gets an immediate
    /// [`Decision::Reject`] at [`ServedTier::Shed`] — shedding is a
    /// response, never silence.
    pub queue_capacity: Option<usize>,
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
            queue_capacity: None,
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
    /// `shed`, not here).
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
/// [`PredictionService::telemetry()`](super::PredictionService::telemetry).
#[derive(Debug, Default)]
pub(super) struct RobustnessCounters {
    pub(super) ladder_panics_caught: Counter,
    pub(super) worker_panics: Counter,
    pub(super) workers_respawned: Counter,
    shed: Counter,
    served_full: Counter,
    served_cached_estimates: Counter,
    served_mean_only: Counter,
    served_static: Counter,
    served_invalid: Counter,
}

impl RobustnessCounters {
    pub(super) fn registered(registry: &Registry) -> Self {
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

    pub(super) fn count_tier(&self, tier: ServedTier) {
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

    pub(super) fn snapshot(&self) -> RobustnessStats {
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
