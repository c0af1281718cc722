//! The prediction service: an MPMC work queue feeding a worker pool that
//! shares one predictor, one catalog, one sample set, and one fit cache.
//!
//! ```text
//!  clients ──submit──▶ ShardedWorkQueue ──pop/steal──▶ worker 0..N
//!     │ (shed at a full queue)               │ validate ▸ ladder ▸ decide
//!     └──────────────▶ respond(Outcome) ◀────┘
//!                           ▼
//!              mpsc reply channel per request
//! ```
//!
//! Every response carries the full [`Prediction`](uaq_core::Prediction)
//! (the distribution, not just a mean) plus the admission
//! [`Decision`](crate::Decision) against the request's deadline.
//! Predictions are pure functions of (plan, catalog, samples, predictor
//! config) and the cache is bit-transparent, so responses are
//! deterministic regardless of worker count, scheduling order, or cache
//! state — the property the integration tests pin down.
//!
//! ## A request is answered once, from one place
//!
//! A request's life is `submit → queue → worker → respond`, and it ends
//! in one of four terminal states (the private `Outcome` enum): shed at a
//! full queue, rejected as an invalid plan, answered by the static
//! heuristic (bottom ladder rung, supervisor fallback, shutdown drain),
//! or decided on a prediction. Whatever the path, `Shared::respond` is
//! the single place that counts the tier, harvests the spans, builds the
//! [`PredictResponse`] and sends it — **every accepted request receives
//! exactly one response**.
//!
//! `Defer` is terminal like the other two verdicts. The prediction is
//! computed once and the client-quoted deadline only drains in wall-clock
//! time, so — [`AdmissionPolicy::decide`] being monotone in the budget —
//! a service-side re-decision could only turn a `Defer` into a later
//! `Reject`. Re-deciding belongs where the budget can *grow*: in the
//! scheduler, when a server frees up (`uaq_experiments::sim`,
//! [`AdmissionPolicy::decide_queued`]).
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
//! with variance-aware shedding ([`ServiceConfig::queue_capacity`]) keeps
//! overload from growing without bound, and the whole thing is provable
//! because a [`FaultInjector`] can be threaded through every probe point
//! ([`PredictionService::start_with_faults`]) — the chaos suite drives
//! hundreds of seeded fault schedules against the exactly-one-response
//! and cache-bit-transparency invariants.

mod handle;
mod ladder;
mod lifecycle;
mod types;
mod worker;

pub use handle::PredictionService;
pub use types::{PredictRequest, PredictResponse, RobustnessStats, ServedTier, ServiceConfig};

use crate::admission::{AdmissionPolicy, TenantClass, TenantId};
use crate::cache::{SharedFitCache, SharedSelEstCache};
use crate::fault::{FaultInjector, FaultSite};
use crate::queue::ShardedWorkQueue;
use ladder::ShapeProfile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;
use types::RobustnessCounters;
use uaq_core::Predictor;
use uaq_storage::{Catalog, SampleCatalog};
use uaq_telemetry::{Counter, Registry};

/// One queued request. `Clone` (a sender and an `Arc` bump) so the
/// supervisor can keep a copy outside the `catch_unwind` the job moves
/// into.
#[derive(Clone)]
struct Job {
    /// The request, tenant-class default deadline already applied.
    request: PredictRequest,
    reply: mpsc::Sender<PredictResponse>,
    /// Submit-time stamp; the span layer turns it into the
    /// [`Stage::QueueWait`](uaq_telemetry::span::Stage::QueueWait)
    /// interval at dequeue.
    enqueued_at: Instant,
    /// Global arrival sequence number, assigned at submit. The shed
    /// tie-breaker: among equal shed priorities (including the all-∞
    /// unprofiled case) the *newest* arrival is the victim, which extends
    /// "ties shed the newcomer" into the queued population and — because
    /// (priority, seq) is intrinsic to the job, not its queue position —
    /// makes victim selection bit-reproducible across shard counts.
    seq: u64,
}

/// The state every worker, the supervisor and the service handle share.
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
    /// Last real prediction per plan shape; see [`ShapeProfile`].
    profile: Mutex<HashMap<u64, ShapeProfile>>,
    robustness: RobustnessCounters,
    /// The one registry every counter, gauge, and histogram the service
    /// owns lives on; `PredictionService::telemetry()` snapshots it.
    registry: Arc<Registry>,
    record_spans: bool,
    /// Requests that entered the lifecycle (queued, or shed on arrival):
    /// each is answered once, so this equals the per-tier serve counters'
    /// sum once the service is idle.
    requests_total: Counter,
    /// `None` in production ([`crate::fault::NoFaults`] is stripped at
    /// start), so every probe point costs one branch.
    injector: Option<Arc<dyn FaultInjector>>,
    /// Workers respawned after panic deaths, joined at shutdown.
    respawned: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_worker: AtomicUsize,
}

impl Shared {
    fn probe(&self, site: FaultSite, worker: usize) {
        if let Some(inj) = &self.injector {
            if let Some(f) = inj.inject(site, worker) {
                crate::fault::apply(f, site);
            }
        }
    }

    /// The tenant's class, or the all-defaults class for unlisted tenants.
    fn tenant_class(&self, tenant: TenantId) -> TenantClass {
        self.tenants.get(&tenant).copied().unwrap_or_default()
    }
}
