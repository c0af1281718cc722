//! The degradation ladder — full pipeline → cached estimates → mean-only
//! → static — and the shape profile that feeds its mean-only rung and
//! the variance-aware shedder.

use super::types::ServedTier;
use super::Shared;
use crate::admission::shed_priority;
use crate::fault::FaultSite;
use crate::sync::lock_recover;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use uaq_core::Prediction;
use uaq_cost::{FitCache, NoFitCache, NoSelEstCache, SelEstCache};
use uaq_engine::Plan;

/// What the shape profile remembers about the last completed real
/// prediction (tier `Full`/`CachedEstimates`) for a plan shape.
#[derive(Debug, Clone, Copy)]
pub(super) struct ShapeProfile {
    mean_ms: f64,
    var_ms2: f64,
}

/// Entries the shape-profile map holds at most (bounds memory under
/// adversarial shape churn; profiled shapes past the cap just miss).
const PROFILE_CAP: usize = 4096;

impl Shared {
    fn profile_for(&self, shape_hash: u64) -> Option<ShapeProfile> {
        lock_recover(&self.profile).get(&shape_hash).copied()
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
    pub(super) fn shed_priority_of(&self, plan: &Plan) -> f64 {
        match self.profile_for(plan.shape_hash()) {
            Some(p) => shed_priority(&Prediction::degraded(
                p.mean_ms.max(0.0),
                p.var_ms2.max(0.0),
            )),
            None => f64::INFINITY,
        }
    }

    /// Runs the degradation ladder for one request: each tier is attempted
    /// under its own `catch_unwind`, and a failing tier falls through to
    /// the next cheaper one. Returns `None` only when even the shape
    /// profile is empty — the static tier, which needs no prediction.
    pub(super) fn ladder_predict(
        &self,
        worker: usize,
        plan: &Arc<Plan>,
    ) -> (Option<Prediction>, ServedTier) {
        let (fit_cache, sel_cache): (&dyn FitCache, &dyn SelEstCache) = if self.cache_enabled {
            (&self.cache, &self.sel_cache)
        } else {
            (&NoFitCache, &NoSelEstCache)
        };

        // Tier 0 — the full pipeline.
        let full = catch_unwind(AssertUnwindSafe(|| {
            self.probe(FaultSite::Predict, worker);
            self.predictor.predict_with_caches(
                plan,
                &self.catalog,
                &self.samples,
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
                    self.record_profile(plan, &prediction);
                }
                return (Some(prediction), ServedTier::Full);
            }
            Err(_) => {
                self.robustness.ladder_panics_caught.inc();
            }
        }

        // Tier 1 — cached estimates. No sample pass: only worth attempting
        // when the sel cache might hold this exact instance.
        if self.cache_enabled {
            let cached = catch_unwind(AssertUnwindSafe(|| {
                let key = self
                    .predictor
                    .sel_instance_key(plan, &self.catalog, &self.samples);
                sel_cache.get(&key).map(|estimates| {
                    self.predictor
                        .predict_from_estimates(plan, &self.catalog, estimates, fit_cache)
                })
            }));
            match cached {
                Ok(Some(prediction)) => return (Some(prediction), ServedTier::CachedEstimates),
                Ok(None) => {}
                Err(_) => {
                    self.robustness.ladder_panics_caught.inc();
                }
            }
        }

        // Tier 2 — mean-only from the shape profile: a point mass at the
        // shape's last observed mean. Tail-probability admission on a point
        // mass degenerates to the mean-only check, which is exactly this
        // tier's contract.
        if let Some(p) = self.profile_for(plan.shape_hash()) {
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
}
