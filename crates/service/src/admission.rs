//! Deadline-aware admission control on predicted time *distributions*.
//!
//! The paper's stated payoff for predicting `t_q ~ N(E[t_q], Var[t_q])`
//! rather than a point estimate is exactly this decision: given a deadline
//! SLO `d`, admit on `Pr(T ≤ d) ≥ θ` instead of `E[T] ≤ d` (§1, §6.5.3).
//! Two queries with the same mean can carry very different risk; the
//! tail-probability policy sees the difference, the mean-only policy
//! cannot.

use uaq_core::Prediction;

/// Admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Run it: the deadline is met with at least the admit confidence.
    Admit,
    /// Risky now, but not hopeless: confidence lies in the defer band —
    /// e.g. retry when the backlog drains or route to a bigger replica.
    Defer,
    /// The deadline is unlikely enough to be met that running the query
    /// would just burn resources on an SLO violation.
    Reject,
}

impl Decision {
    pub fn label(&self) -> &'static str {
        match self {
            Decision::Admit => "admit",
            Decision::Defer => "defer",
            Decision::Reject => "reject",
        }
    }
}

/// How the deadline check consumes the prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// `E[T] ≤ budget` — what a point predictor (the paper's \[48\]) can do.
    MeanOnly,
    /// `Pr(T ≤ budget) ≥ θ` — the uncertainty-aware policy.
    TailProbability,
}

/// Admission policy: mode plus thresholds.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    pub mode: AdmissionMode,
    /// Minimum `Pr(T ≤ budget)` to admit (tail mode).
    pub admit_threshold: f64,
    /// Minimum `Pr(T ≤ budget)` to defer instead of reject (tail mode).
    /// Set equal to `admit_threshold` to disable the defer band.
    pub defer_threshold: f64,
}

impl AdmissionPolicy {
    /// Tail-probability policy with an admit threshold of `theta` and a
    /// defer band down to `theta / 2`.
    pub fn uncertainty_aware(theta: f64) -> Self {
        assert!((0.0..=1.0).contains(&theta));
        Self {
            mode: AdmissionMode::TailProbability,
            admit_threshold: theta,
            defer_threshold: theta / 2.0,
        }
    }

    /// Mean-only baseline (point-estimate admission).
    pub fn mean_only() -> Self {
        Self {
            mode: AdmissionMode::MeanOnly,
            admit_threshold: 0.5,
            defer_threshold: 0.5,
        }
    }

    /// Decides on a request whose remaining time budget is `budget_ms`
    /// (deadline minus any wait the caller already knows about — queueing,
    /// scheduling). Returns the decision and `Pr(T ≤ budget_ms)` under the
    /// predicted distribution (reported in both modes for observability).
    ///
    /// `budget_ms = None` means no deadline: always admitted, probability 1.
    /// A *negative* budget means the deadline has already passed (the wait
    /// ate the whole slack): both modes reject, with `Pr(T ≤ budget)`
    /// reported as exactly 0 — running times are non-negative, so the
    /// normal tail below zero is model artifact, not probability mass.
    pub fn decide(&self, prediction: &Prediction, budget_ms: Option<f64>) -> (Decision, f64) {
        let Some(budget) = budget_ms else {
            return (Decision::Admit, 1.0);
        };
        if budget < 0.0 {
            return (Decision::Reject, 0.0);
        }
        let prob = prediction.prob_completes_by(budget);
        let decision = match self.mode {
            AdmissionMode::MeanOnly => {
                if prediction.mean_ms() <= budget {
                    Decision::Admit
                } else {
                    Decision::Reject
                }
            }
            AdmissionMode::TailProbability => {
                if prob >= self.admit_threshold {
                    Decision::Admit
                } else if prob >= self.defer_threshold {
                    Decision::Defer
                } else {
                    Decision::Reject
                }
            }
        };
        (decision, prob)
    }

    /// Decides on a request that would have to wait `wait_ms` in a run
    /// queue before starting: the effective budget is `slack_ms − wait_ms`
    /// and the base verdict is [`Self::decide`] on that budget. On top of
    /// it, tail mode distinguishes *why* a request is hopeless: when the
    /// effective budget rejects but the **unqueued** probability
    /// `Pr(T ≤ slack)` clears the admit threshold, the queue — not the
    /// query — is the problem, and the verdict is `Defer` instead of
    /// `Reject`: park it and re-decide when the backlog drains (the
    /// scheduler re-consults with a recomputed budget at every freed
    /// server). The returned probability is always `Pr(T ≤ effective
    /// budget)`, the number the base decision thresholds on.
    pub fn decide_queued(
        &self,
        prediction: &Prediction,
        slack_ms: f64,
        wait_ms: f64,
    ) -> (Decision, f64) {
        let (decision, prob) = self.decide(prediction, Some(slack_ms - wait_ms));
        if decision == Decision::Reject
            && self.mode == AdmissionMode::TailProbability
            && wait_ms > 0.0
            && prediction.prob_completes_by(slack_ms) >= self.admit_threshold
        {
            return (Decision::Defer, prob);
        }
        (decision, prob)
    }
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self::uncertainty_aware(0.9)
    }
}

/// A tenant (workload class) identifier carried on every request.
/// `TenantId::default()` (tenant 0) is the anonymous tenant: requests
/// that never opted into a class get the service-wide defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// Label value used for per-tenant telemetry series.
    pub fn label(&self) -> String {
        self.0.to_string()
    }
}

/// Per-tenant serving class: an optional θ-admission override, an
/// optional default deadline applied when a request carries none, and a
/// weighted-fair shed share. The cloud scenario from the paper's lineage
/// (per-tenant slot-time SLOs under shared capacity): one θ per contract
/// tier, and overload pain distributed by weight instead of uniformly.
#[derive(Debug, Clone, Copy)]
pub struct TenantClass {
    /// Admission policy override; `None` uses the service-wide policy.
    pub policy: Option<AdmissionPolicy>,
    /// Deadline applied to the tenant's requests that carry none.
    pub default_deadline_ms: Option<f64>,
    /// Weighted-fair shed share. Under overload a request's effective
    /// shed priority is `shed_priority / weight`, so a tenant with
    /// weight 2 takes half the shedding pressure of a weight-1 tenant at
    /// equal predicted uncertainty. Non-positive or NaN weights are
    /// treated as 1.0.
    pub shed_weight: f64,
}

impl Default for TenantClass {
    fn default() -> Self {
        Self {
            policy: None,
            default_deadline_ms: None,
            shed_weight: 1.0,
        }
    }
}

impl TenantClass {
    /// The shed weight with degenerate values normalized away.
    pub fn effective_weight(&self) -> f64 {
        if self.shed_weight.is_finite() && self.shed_weight > 0.0 {
            self.shed_weight
        } else {
            1.0
        }
    }
}

/// Shed priority of a queued request: its predicted *relative* variance
/// (coefficient of variation, `σ/μ`). Under overload the shedder drops
/// the highest-priority items first — the paper's uncertainty estimate
/// used as an operational signal: among requests we cannot all serve,
/// the ones whose runtime we are least sure about are the worst SLO
/// bets per unit of capacity they consume. Dimensionless, so cheap
/// short queries and expensive long ones compete fairly; a degenerate
/// non-positive mean (no real prediction) sorts first — there is no
/// evidence such a request can meet anything.
pub fn shed_priority(prediction: &Prediction) -> f64 {
    let mean = prediction.mean_ms();
    if mean.is_nan() || mean <= 0.0 {
        return f64::INFINITY;
    }
    prediction.std_dev_ms() / mean
}

/// [`shed_priority`] scaled by a tenant's weighted-fair share: a heavier
/// weight divides the priority, sheltering that tenant's requests under
/// overload at equal predicted uncertainty. Infinite priorities stay
/// infinite — a request with no real prediction is the first to shed
/// regardless of tenant weight. Degenerate weights (non-positive, NaN,
/// infinite) fall back to 1.0.
pub fn weighted_shed_priority(prediction: &Prediction, weight: f64) -> f64 {
    let w = if weight.is_finite() && weight > 0.0 {
        weight
    } else {
        1.0
    };
    shed_priority(prediction) / w
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_core::{Predictor, PredictorConfig};
    use uaq_cost::{calibrate, CalibrationConfig, HardwareProfile};
    use uaq_engine::{PlanBuilder, Pred};
    use uaq_stats::Rng;
    use uaq_storage::{Catalog, Column, Schema, Table, Value};

    fn prediction() -> Prediction {
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a"), Column::int("b")]);
        let rows = (0..4000)
            .map(|i| vec![Value::Int((i % 50) as i64), Value::Int(i as i64)])
            .collect();
        c.add_table(Table::new("t", s, rows));
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("b", Value::Int(2000)));
        let plan = b.build(t);
        let mut rng = Rng::new(3);
        let units = calibrate(
            &HardwareProfile::pc1(),
            &CalibrationConfig::default(),
            &mut rng,
        );
        let samples = c.draw_samples(0.1, 1, &mut rng);
        Predictor::new(units, PredictorConfig::default()).predict(&plan, &c, &samples)
    }

    #[test]
    fn no_deadline_always_admits() {
        let p = prediction();
        for policy in [
            AdmissionPolicy::uncertainty_aware(0.99),
            AdmissionPolicy::mean_only(),
        ] {
            let (d, prob) = policy.decide(&p, None);
            assert_eq!(d, Decision::Admit);
            assert_eq!(prob, 1.0);
        }
    }

    #[test]
    fn generous_budget_admits_tight_budget_rejects() {
        let p = prediction();
        let policy = AdmissionPolicy::uncertainty_aware(0.9);
        let generous = p.mean_ms() + 10.0 * p.std_dev_ms();
        let hopeless = (p.mean_ms() - 10.0 * p.std_dev_ms()).max(0.0);
        assert_eq!(policy.decide(&p, Some(generous)).0, Decision::Admit);
        assert_eq!(policy.decide(&p, Some(hopeless)).0, Decision::Reject);
    }

    #[test]
    fn borderline_mean_splits_the_policies() {
        // Budget just above the mean: Pr(T ≤ budget) ≈ 0.5 — mean-only
        // admits, a 0.9-confidence policy does not.
        let p = prediction();
        let budget = p.mean_ms() + 0.01 * p.std_dev_ms();
        let (mean_d, prob) = AdmissionPolicy::mean_only().decide(&p, Some(budget));
        assert_eq!(mean_d, Decision::Admit);
        assert!((prob - 0.5).abs() < 0.05, "prob {prob}");
        let (tail_d, _) = AdmissionPolicy::uncertainty_aware(0.9).decide(&p, Some(budget));
        assert_ne!(tail_d, Decision::Admit);
    }

    #[test]
    fn negative_budget_rejects_in_both_modes() {
        // budget = slack − wait < 0: the deadline is already blown before
        // the query would even start. No mode may admit, and the reported
        // probability is exactly 0 (not the normal's sub-zero tail).
        let p = prediction();
        for policy in [
            AdmissionPolicy::uncertainty_aware(0.9),
            AdmissionPolicy::mean_only(),
        ] {
            let (d, prob) = policy.decide(&p, Some(-5.0));
            assert_eq!(d, Decision::Reject);
            assert_eq!(prob, 0.0);
        }
    }

    #[test]
    fn defer_band_sits_between_admit_and_reject() {
        let p = prediction();
        let policy = AdmissionPolicy::uncertainty_aware(0.9);
        // Find a budget whose probability lands inside [0.45, 0.9).
        let budget = p.mean_ms() + 0.5 * p.std_dev_ms();
        let (d, prob) = policy.decide(&p, Some(budget));
        assert!(prob >= policy.defer_threshold && prob < policy.admit_threshold);
        assert_eq!(d, Decision::Defer);
    }

    #[test]
    fn queued_reject_upgrades_to_defer_when_the_queue_is_the_problem() {
        let p = prediction();
        let policy = AdmissionPolicy::uncertainty_aware(0.9);
        // Generous slack, but a wait that eats it whole: unqueued the
        // query clears θ comfortably, so the verdict is "wait for the
        // backlog to drain", not "burn the query".
        let slack = p.mean_ms() + 5.0 * p.std_dev_ms();
        let wait = slack + 1.0;
        let (d, prob) = policy.decide_queued(&p, slack, wait);
        assert_eq!(d, Decision::Defer);
        assert_eq!(prob, 0.0, "the effective budget is negative");
        // Without the queue the same call is a plain admit.
        assert_eq!(policy.decide_queued(&p, slack, 0.0).0, Decision::Admit);
    }

    #[test]
    fn shed_priority_is_relative_variance_and_ranks_uncertainty() {
        let p = prediction();
        let rel = shed_priority(&p);
        assert!((rel - p.std_dev_ms() / p.mean_ms()).abs() < 1e-12);
        // Same mean, zero variance ⇒ zero priority (a sure thing is the
        // last to shed); a zero-mean placeholder (degraded tier, no real
        // evidence) sorts first.
        let confident = Prediction::degraded(p.mean_ms(), 0.0);
        assert_eq!(shed_priority(&confident), 0.0);
        assert!(rel > shed_priority(&confident));
        assert_eq!(
            shed_priority(&Prediction::degraded(0.0, 0.0)),
            f64::INFINITY
        );
    }

    #[test]
    fn tenant_weights_scale_shed_priority_but_not_infinity() {
        let p = prediction();
        let base = shed_priority(&p);
        assert!((weighted_shed_priority(&p, 2.0) - base / 2.0).abs() < 1e-15);
        assert_eq!(weighted_shed_priority(&p, 1.0), base);
        // Degenerate weights normalize to 1.0.
        for w in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert_eq!(weighted_shed_priority(&p, w), base, "weight {w}");
        }
        // A no-evidence prediction sheds first for every tenant.
        let hopeless = Prediction::degraded(0.0, 0.0);
        assert_eq!(weighted_shed_priority(&hopeless, 100.0), f64::INFINITY);
        // TenantClass mirrors the same normalization.
        let class = TenantClass {
            shed_weight: -1.0,
            ..TenantClass::default()
        };
        assert_eq!(class.effective_weight(), 1.0);
        assert_eq!(TenantClass::default().effective_weight(), 1.0);
    }

    #[test]
    fn queued_reject_stays_reject_when_the_query_is_the_problem() {
        let p = prediction();
        let policy = AdmissionPolicy::uncertainty_aware(0.9);
        // Hopeless even unqueued: waiting cannot save it.
        let slack = (p.mean_ms() - 10.0 * p.std_dev_ms()).max(0.0);
        assert_eq!(policy.decide_queued(&p, slack, 5.0).0, Decision::Reject);
        // Mean-only has no defer concept: backlog rejects stay rejects.
        let generous = p.mean_ms() + 5.0 * p.std_dev_ms();
        assert_eq!(
            AdmissionPolicy::mean_only()
                .decide_queued(&p, generous, generous + 1.0)
                .0,
            Decision::Reject
        );
    }
}
