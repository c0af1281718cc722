//! # uaq-service
//!
//! The serving layer: a multi-threaded prediction service over the
//! uncertainty-aware predictor, turning the paper's distributions into
//! online *decisions* (Wu et al. §1, §6.5.3: admission control and
//! deadline-aware scheduling via `Pr(T ≤ d)`).
//!
//! Four pieces:
//!
//! * [`PredictionService`] — a [`ShardedWorkQueue`] (per-worker deques
//!   with seeded work stealing; one shard is a single exact-FIFO MPMC
//!   queue) feeding a pool of worker threads that share
//!   one [`Predictor`](uaq_core::Predictor), catalog, and sample set
//!   behind `Arc`s; each [`PredictRequest`] (plan + optional deadline +
//!   [`TenantId`]) yields a [`PredictResponse`] carrying the full
//!   [`Prediction`](uaq_core::Prediction) and an admission [`Decision`].
//! * [`SharedSelEstCache`] — the concurrent selectivity-estimate cache
//!   (implementing [`uaq_cost::SelEstCache`]): keyed on the full query
//!   *instance* (shape signature + `Plan::literal_key()` + catalog and
//!   sample fingerprints), it skips the sample pass entirely for repeated
//!   queries — the dominant cost of a warm prediction once fits are
//!   cached.
//! * [`SharedFitCache`] — the concurrent plan-shape fit cache
//!   (implementing [`uaq_cost::FitCache`]): keyed on
//!   `Plan::shape_signature()` (literals masked), it shares per-node cost
//!   contexts across literal-perturbed instances of a query template and
//!   skips the oracle-probe grid fits entirely for bit-identical repeats.
//! * [`AdmissionPolicy`] — `Pr(T ≤ budget) ≥ θ` tail-probability admission
//!   (with a defer band), plus the mean-only baseline a point predictor
//!   would be limited to. All three verdicts — `Defer` included — are
//!   terminal at the service: the prediction is computed once and the
//!   quoted deadline only drains, so a service-side re-decision could only
//!   turn a `Defer` into a later `Reject`. Re-deciding lives in the
//!   scheduler, whose queue-aware budget can grow at a freed server
//!   ([`AdmissionPolicy::decide_queued`]; see the note in [`service`]).
//!
//! Both caches are bounded with a pluggable [`EvictionPolicy`] (segmented
//! LRU by default) and sharded, each shard one bounded map behind one
//! mutex. Responses are
//! deterministic: predictions are pure functions of (plan, catalog,
//! samples, config), and hits at either cache level are bit-identical to
//! fresh computations by construction, so worker count, scheduling order,
//! and eviction state cannot change any decision.
//!
//! ```no_run
//! use std::sync::Arc;
//! use uaq_service::{PredictionService, PredictRequest, ServiceConfig};
//! # let predictor: uaq_core::Predictor = unimplemented!();
//! # let catalog: std::sync::Arc<uaq_storage::Catalog> = unimplemented!();
//! # let samples: std::sync::Arc<uaq_storage::SampleCatalog> = unimplemented!();
//! # let plan: std::sync::Arc<uaq_engine::Plan> = unimplemented!();
//! use uaq_service::TenantId;
//! let service = PredictionService::start(predictor, catalog, samples, ServiceConfig::default());
//! let rx = service.submit(PredictRequest {
//!     id: 1,
//!     plan,
//!     deadline_ms: Some(100.0),
//!     tenant: TenantId::default(),
//! });
//! let resp = rx.recv().unwrap();
//! println!("{}: Pr(in time) = {:.3}", resp.decision.label(), resp.prob_in_time);
//! ```

pub mod admission;
pub mod cache;
pub mod fault;
pub mod queue;
pub mod service;
pub(crate) mod sync;

pub use admission::{
    shed_priority, weighted_shed_priority, AdmissionMode, AdmissionPolicy, Decision, TenantClass,
    TenantId,
};
pub use cache::{
    CacheConfig, CacheStats, EvictionPolicy, SelCacheStats, SharedFitCache, SharedSelEstCache,
    DEFAULT_SHARDS,
};
pub use fault::{
    silence_injected_panics, Fault, FaultInjector, FaultPlan, FaultSite, NoFaults,
    SeededFaultInjector, INJECTED_PANIC,
};
pub use queue::{Pushed, ShardedWorkQueue};
pub use service::{
    PredictRequest, PredictResponse, PredictionService, RobustnessStats, ServedTier, ServiceConfig,
};
