//! A request's life on a worker, and its one exit: `serve` walks
//! `validate ▸ ladder ▸ decide` to an [`Outcome`], and [`Shared::respond`]
//! turns any outcome — a worker's, the supervisor's, the submitter's
//! (shed) or the shutdown drain's — into the one response the caller gets.

use super::types::{PredictResponse, ServedTier};
use super::{Job, Shared};
use crate::admission::Decision;
use crate::fault::FaultSite;
use std::time::Instant;
use uaq_core::{Prediction, Predictor};
use uaq_engine::PlanError;
use uaq_telemetry::span::{self, SpanRecorder, Stage};
use uaq_telemetry::{HistogramConfig, StageTimings};

/// How a request's life ended.
pub(super) enum Outcome {
    /// Displaced at a full queue by overload control.
    Shed,
    /// The plan failed static validation at the service edge.
    Invalid(PlanError),
    /// No usable estimate at all — the ladder's bottom rung, a worker
    /// killed mid-request, or a request still queued after the whole pool
    /// died. The static heuristic admits anything whose deadline has not
    /// already passed: optimistic by design — a degraded service keeps
    /// serving rather than rejecting everything — and the served tier
    /// records the quality downgrade.
    Static,
    /// A ladder rung produced a prediction and the admission policy
    /// decided on it. `Defer` is as final here as the other two verdicts.
    Decided {
        prediction: Prediction,
        tier: ServedTier,
        decision: Decision,
        prob_in_time: f64,
    },
}

/// What only the worker that ran a request to its end can add to the
/// response: the dequeue instant `service_seconds` counts from and, spans
/// on, the request's recorder.
pub(super) struct Ran(Instant, Option<SpanRecorder>);

impl Shared {
    /// Serves one dequeued request. Responding is the **last** action —
    /// every panic source (the ladder's tiers re-panic only through
    /// injected `MidRequest` faults; tier internals are caught) runs
    /// before the send that ends [`Self::respond`], which is what lets the
    /// supervisor equate "panicked" with "no response sent yet".
    pub(super) fn serve(&self, worker: usize, job: Job) {
        let dequeued_at = Instant::now();
        // Spans on: install the per-thread recorder so every `span::timed`
        // site down the pipeline (cache probes, sample pass, fitting)
        // accrues. The queue wait is already over — credit it from the
        // enqueue stamp. `begin` replaces any recorder a panicking previous
        // request left behind.
        let recorder = self.record_spans.then(|| {
            let r = SpanRecorder::begin();
            span::record(
                Stage::QueueWait,
                dequeued_at.duration_since(job.enqueued_at).as_secs_f64(),
            );
            r
        });
        let outcome = self.outcome_of(worker, &job);
        self.respond(&job, worker, outcome, Some(Ran(dequeued_at, recorder)));
    }

    fn outcome_of(&self, worker: usize, job: &Job) -> Outcome {
        let request = &job.request;
        // Edge validation: a malformed plan earns a typed rejection here, not
        // a panic inside a worker (the executor's own failure modes — unknown
        // columns, duplicate join outputs, mixed-type ordering — would burn a
        // `catch_unwind` per tier and still answer with an uninformative
        // static-tier response). The verdict is interned on the plan keyed by
        // the catalog+sample fingerprints, so re-submitting a warm `Arc<Plan>`
        // costs one atomic load and a `u64` compare.
        if let Err(e) =
            uaq_engine::validate_cached_on_samples(&request.plan, &self.catalog, &self.samples)
        {
            return Outcome::Invalid(e);
        }
        let (prediction, tier) = self.ladder_predict(worker, &request.plan);
        // Mid-request kill probe: after the prediction, while the request is
        // still unanswered — the panic escapes to the supervisor, which owns
        // the response.
        self.probe(FaultSite::MidRequest, worker);
        let Some(prediction) = prediction else {
            return Outcome::Static;
        };
        let class = self.tenant_class(request.tenant);
        let policy = class.policy.unwrap_or(self.policy);
        let (decision, prob_in_time) = span::timed(Stage::Admission, || {
            policy.decide(&prediction, request.deadline_ms)
        });
        Outcome::Decided {
            prediction,
            tier,
            decision,
            prob_in_time,
        }
    }

    /// The one exit of every request: counts the tier, harvests the spans,
    /// builds the response and sends it, in that order. `worker` is
    /// `usize::MAX` when none is involved (shed, shutdown drain); `ran` is
    /// present only when `worker` ran the request to its end.
    pub(super) fn respond(&self, job: &Job, worker: usize, outcome: Outcome, ran: Option<Ran>) {
        let request = &job.request;
        // Every outcome but `Decided` answers without a distribution.
        let bare = |tier, decision, plan_error| {
            let nothing = Prediction::degraded(0.0, 0.0);
            (tier, nothing, decision, f64::NAN, plan_error)
        };
        let (tier, prediction, decision, prob_in_time, plan_error) = match outcome {
            Outcome::Shed => bare(ServedTier::Shed, Decision::Reject, None),
            Outcome::Invalid(e) => bare(ServedTier::Invalid, Decision::Reject, Some(e)),
            Outcome::Static => {
                let decision = match request.deadline_ms {
                    Some(d) if d < 0.0 => Decision::Reject,
                    _ => Decision::Admit,
                };
                bare(ServedTier::Static, decision, None)
            }
            Outcome::Decided {
                prediction,
                tier,
                decision,
                prob_in_time,
            } => (tier, prediction, decision, prob_in_time, None),
        };
        self.robustness.count_tier(tier);
        if tier == ServedTier::Shed {
            // Per-tenant shed accounting: these series sum to the total
            // shed count (`uaq_requests_served_total{tier="shed"}`).
            let tenant = request.tenant.label();
            self.registry
                .counter("uaq_requests_shed_total", &[("tenant", &tenant)])
                .inc();
        }
        let (service_seconds, stage_timings) = match ran {
            Some(Ran(dequeued_at, recorder)) => {
                let timings = recorder.map(|r| self.harvest(r, tier, job));
                (dequeued_at.elapsed().as_secs_f64(), timings)
            }
            None => (0.0, None),
        };
        // A dropped receiver just means the client stopped waiting; the
        // worker moves on.
        let _ = job.reply.send(PredictResponse {
            id: request.id,
            prediction,
            decision,
            prob_in_time,
            worker,
            service_seconds,
            tier,
            plan_error,
            stage_timings,
        });
    }

    /// Closes a request's recorder (`Total` is end-to-end from submit) and
    /// feeds its timings into the aggregate histograms: per-stage
    /// `uaq_stage_seconds{stage,tier}` plus the per-shape end-to-end
    /// `uaq_request_seconds{shape}` (labeled with the exact shape key the
    /// caches group by).
    fn harvest(&self, recorder: SpanRecorder, tier: ServedTier, job: &Job) -> StageTimings {
        span::record(Stage::Total, job.enqueued_at.elapsed().as_secs_f64());
        let timings = recorder.finish();
        for (stage, secs) in timings.iter() {
            self.registry
                .histogram(
                    "uaq_stage_seconds",
                    &[("stage", stage.label()), ("tier", tier.label())],
                    HistogramConfig::default(),
                )
                .record(secs);
        }
        let shape = Predictor::shape_key(&job.request.plan, &self.catalog);
        self.registry
            .histogram(
                "uaq_request_seconds",
                &[("shape", &shape)],
                HistogramConfig::default(),
            )
            .record(timings.get(Stage::Total));
        timings
    }
}
