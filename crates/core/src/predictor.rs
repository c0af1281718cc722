//! The uncertainty-aware predictor (Algorithms 2 and 3).
//!
//! `Predictor::predict` runs the full pipeline of the paper:
//!
//! 1. execute the plan once over the sample tables, collecting provenance
//!    (§3.2.2);
//! 2. derive every operator's selectivity distribution `X ~ N(ρ_n, σ_n²)`
//!    (Algorithm 1);
//! 3. fit the logical cost functions on the `[μ ± 3σ]` grid (§4.2);
//! 4. combine with the calibrated cost-unit distributions into
//!    `t_q ~ N(E[t_q], Var[t_q])` (§5), computing `Var[t_q]` from exact
//!    same-operator moments plus root-to-leaf-path covariance bounds
//!    (Algorithm 3).

use crate::terms::{resolve_term, CovEnv, VarTerm};
use crate::variant::Variant;
use std::sync::Arc;
use uaq_cost::{
    fit_node, CostUnit, FitCache, FitConfig, FitSignature, FittedCost, NoFitCache, NoSelEstCache,
    NodeCostContext, NodeFits, SelEstCache, UnitDists,
};
use uaq_engine::{NodeId, Plan};
use uaq_selest::{AggCardinalitySource, SelEstimates};
use uaq_stats::Normal;
use uaq_storage::{Catalog, SampleCatalog};
use uaq_telemetry::span::{self, Stage};

/// Predictor configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredictorConfig {
    pub fit: FitConfig,
    pub variant: Variant,
    /// How aggregate output cardinalities are estimated (the paper uses the
    /// optimizer's estimate; GEE is its named extension, §3.2.2).
    pub agg_source: AggCardinalitySource,
}

/// Where the predicted variance came from (diagnostics; also the data behind
/// the ablation discussion in §6.3.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct VarianceBreakdown {
    /// `Σ_c σ_c² (Σ_i E[f_ic])²` — cost-unit fluctuation against the mean
    /// workload (the dominant term; dropping it is "No Var\[c\]").
    pub unit_variance: f64,
    /// `Σ_{c,c'} μ_c μ_c' Σ_i Cov(f_ic, f_ic')` — same-operator selectivity
    /// uncertainty (exact moment algebra).
    pub selectivity_exact: f64,
    /// `Σ_{c,c'} μ_c μ_c' Σ_{i≠j} Cov(f_ic, f_jc')` — cross-operator
    /// covariance bounds along root-to-leaf paths (dropping it is "No Cov").
    pub covariance_bounds: f64,
    /// `Σ_c σ_c² Σ_{i,j} Cov(f_ic, f_jc)` — second-order interaction of unit
    /// and selectivity noise.
    pub interaction: f64,
}

impl VarianceBreakdown {
    pub fn total(&self) -> f64 {
        self.unit_variance + self.selectivity_exact + self.covariance_bounds + self.interaction
    }
}

/// A complete prediction: the distribution of likely running times.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// `t_q ~ N(E[t_q], Var[t_q])`, in milliseconds.
    distribution: Normal,
    pub breakdown: VarianceBreakdown,
    /// Per-operator selectivity estimates (inputs to Tables 6–9), shared
    /// with the selectivity-estimate cache when one is in play.
    pub sel_estimates: SelEstimates,
    /// Whether the sample-pass stage actually executed (`false` when a
    /// selectivity-estimate cache hit skipped it). A deterministic
    /// indicator: a `Prediction` carries **no wall-clock fields**, so two
    /// runs of the same inputs are bit-identical structs. Stage durations
    /// (the paper's §6.4 relative-overhead numerator included) are
    /// captured by `uaq_telemetry::span` when a recorder is active.
    pub sample_pass_ran: bool,
}

impl Prediction {
    /// Point estimate `E[t_q]` in milliseconds (what \[48\] would report).
    pub fn mean_ms(&self) -> f64 {
        self.distribution.mean()
    }

    /// `Var[t_q]` in ms².
    pub fn var(&self) -> f64 {
        self.distribution.var()
    }

    /// Standard deviation in milliseconds — the paper's uncertainty signal.
    pub fn std_dev_ms(&self) -> f64 {
        self.distribution.std_dev()
    }

    /// The full normal distribution of likely running times.
    pub fn distribution(&self) -> Normal {
        self.distribution
    }

    /// Central interval containing probability `p`: the "with probability
    /// 70%, the running time should be between 10s and 20s" statement of §1.
    ///
    /// `p` must lie in `[0, 1)`: `p = 0` collapses to the point interval
    /// at the mean, and **`p ≥ 1` panics** — the predicted distribution is
    /// a normal, whose 100% interval is unbounded (see
    /// [`uaq_stats::Normal::confidence_interval`]).
    pub fn confidence_interval_ms(&self, p: f64) -> (f64, f64) {
        self.distribution.confidence_interval(p)
    }

    /// `Pr(|T − E[t_q]| ≤ α·σ) = 2Φ(α) − 1` (§6.3).
    pub fn prob_within_alpha(&self, alpha: f64) -> f64 {
        Normal::prob_within_alpha_sigmas(alpha)
    }

    /// `Pr(T ≤ deadline_ms)` under the predicted distribution — the
    /// quantity deadline-aware admission control thresholds on (§1's "the
    /// DBA can ask how likely the query finishes within d").
    pub fn prob_completes_by(&self, deadline_ms: f64) -> f64 {
        self.distribution.cdf(deadline_ms)
    }

    /// A placeholder prediction for degraded serving tiers: a bare
    /// `N(mean_ms, var_ms2)` with no breakdown and no per-operator
    /// estimates. With `var_ms2 = 0` the distribution collapses to
    /// a point, so tail-probability admission on it degenerates to exactly
    /// the mean-only check `mean ≤ budget` (the CDF of a point mass is a
    /// step) — which is precisely what a mean-only fallback tier should
    /// decide. Both arguments must be finite and `var_ms2 ≥ 0`
    /// ([`Normal::new`] asserts this); callers with *no* usable estimate
    /// signal that out of band, not through a NaN mean.
    pub fn degraded(mean_ms: f64, var_ms2: f64) -> Self {
        Self {
            distribution: Normal::new(mean_ms, var_ms2),
            breakdown: VarianceBreakdown::default(),
            sel_estimates: SelEstimates::from_vec(Vec::new()),
            sample_pass_ran: false,
        }
    }
}

/// The uncertainty-aware query execution time predictor.
#[derive(Debug, Clone)]
pub struct Predictor {
    units: UnitDists,
    config: PredictorConfig,
}

impl Predictor {
    /// Creates a predictor from calibrated cost-unit distributions (§3.1).
    ///
    /// `config.fit.grid_w` is clamped to ≥ 1: a zero-interval grid has no
    /// points to fit on, and would otherwise panic in every prediction.
    pub fn new(units: UnitDists, mut config: PredictorConfig) -> Self {
        let units = match config.variant {
            Variant::NoCostUnitVariance => units.without_variance(),
            _ => units,
        };
        config.fit.grid_w = config.fit.grid_w.max(1);
        Self { units, config }
    }

    pub fn variant(&self) -> Variant {
        self.config.variant
    }

    pub fn units(&self) -> &UnitDists {
        &self.units
    }

    /// Predicts the running-time distribution of `plan` (Algorithm 2).
    pub fn predict(&self, plan: &Plan, catalog: &Catalog, samples: &SampleCatalog) -> Prediction {
        self.predict_with_caches(plan, catalog, samples, &NoFitCache, &NoSelEstCache)
    }

    /// The full serving pipeline: [`Predictor::predict`] with a cache in
    /// front of each expensive stage. With [`NoFitCache`] and
    /// [`NoSelEstCache`] this is byte-for-byte the original pipeline.
    ///
    /// The **fit cache** is threaded through the fitting stage (step 3):
    /// same-shape plans reuse the per-node cost contexts and — when the
    /// selectivity distributions match bit-exactly (e.g. a repeated
    /// identical query) — the fitted cost functions themselves, skipping
    /// the oracle-probe grid fits that dominate short plans. Cached fits
    /// are keyed on everything they depend on ([`FitSignature`]).
    ///
    /// The **selectivity-estimate cache** sits in front of it. On a hit —
    /// same plan shape, same predicate literals, same catalog, same sample
    /// set, same aggregate-cardinality source — steps 1–2 (the sample pass
    /// and Algorithm 1) are skipped entirely and the cached
    /// [`SelEstimates`] are re-fed to the pipeline bit-exactly; combined
    /// with a fit hit, a repeated query instance pays only the variance
    /// algebra. Estimates are pure functions of everything the key
    /// captures, so cached and uncached predictions are bit-identical at
    /// both cache levels (only the [`Prediction::sample_pass_ran`]
    /// indicator differs).
    pub fn predict_with_caches(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        samples: &SampleCatalog,
        fit_cache: &dyn FitCache,
        sel_cache: &dyn SelEstCache,
    ) -> Prediction {
        // Shape key, shared by both cache levels: the catalog fingerprint
        // is mixed in so one cache instance can never serve entries built
        // against a different database (same-shape plans over different
        // catalogs differ in cardinalities, pages, and key densities).
        // Each enabled cache travels with it from here on.
        let (fit_on, sel_on) = (fit_cache.enabled(), sel_cache.enabled());
        let shape = (fit_on || sel_on).then(|| Self::shape_key(plan, catalog));
        let sel_cache = shape.as_deref().filter(|_| sel_on).map(|s| (sel_cache, s));
        let fit_cache = shape.as_deref().filter(|_| fit_on).map(|s| (fit_cache, s));

        // 1.+2. One provenance-tracked pass over the sample tables plus the
        //       selectivity distributions per operator (Algorithm 1) —
        //       unless the estimate cache already holds this exact query
        //       instance over this exact sample set.
        let (raw_estimates, sample_pass_ran) = if let Some((sel_cache, shape)) = sel_cache {
            let key = Self::sel_key_for_shape(shape, plan, samples, self.config.agg_source);
            match span::timed(Stage::SelCacheProbe, || sel_cache.get(&key)) {
                Some(estimates) => (estimates, false),
                None => {
                    let estimates = span::timed(Stage::SamplePass, || {
                        SelEstimates::compute(plan, samples, catalog, self.config.agg_source)
                    });
                    span::timed(Stage::SelCacheProbe, || sel_cache.put(&key, &estimates));
                    (estimates, true)
                }
            }
        } else {
            let estimates = span::timed(Stage::SamplePass, || {
                SelEstimates::compute(plan, samples, catalog, self.config.agg_source)
            });
            (estimates, true)
        };
        self.finish_prediction(plan, catalog, raw_estimates, sample_pass_ran, fit_cache)
    }

    /// Completes a prediction from already-obtained selectivity estimates
    /// (steps 3–4: fitting plus the variance algebra), **skipping the
    /// sample pass entirely**. This is the serving layer's degraded
    /// "cached estimates" tier: when the full pipeline fails or is over
    /// budget but the selectivity-estimate cache holds this exact query
    /// instance (probe with [`Self::sel_instance_key`]), the cached
    /// estimates still produce the full uncertainty distribution — fed
    /// through the identical code path, so the result is bit-identical to
    /// a [`Self::predict_with_caches`] sel-cache hit.
    pub fn predict_from_estimates(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        estimates: SelEstimates,
        fit_cache: &dyn FitCache,
    ) -> Prediction {
        let shape = fit_cache.enabled().then(|| Self::shape_key(plan, catalog));
        let fit_cache = shape.as_deref().map(|s| (fit_cache, s));
        self.finish_prediction(plan, catalog, estimates, false, fit_cache)
    }

    /// The cache key under which [`Self::predict_with_caches`] stores this
    /// exact query instance's selectivity estimates (plan shape, catalog
    /// fingerprint, sample-set fingerprint, aggregate-cardinality source,
    /// and predicate literals). Exposed so a caller holding only the
    /// [`SelEstCache`] can probe for reusable estimates without running
    /// any part of the pipeline.
    pub fn sel_instance_key(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        samples: &SampleCatalog,
    ) -> String {
        Self::sel_key_for_shape(
            &Self::shape_key(plan, catalog),
            plan,
            samples,
            self.config.agg_source,
        )
    }

    /// The plan-shape key both cache levels group by (shape signature plus
    /// catalog fingerprint). Public so the observability layer can label
    /// per-shape metrics with the exact grouping the caches use.
    pub fn shape_key(plan: &Plan, catalog: &Catalog) -> String {
        format!(
            "{}#cat{:016x}",
            plan.shape_signature(),
            catalog.fingerprint()
        )
    }

    fn sel_key_for_shape(
        shape: &str,
        plan: &Plan,
        samples: &SampleCatalog,
        agg_source: AggCardinalitySource,
    ) -> String {
        format!(
            "{}#smp{:016x}#agg{}|{}",
            shape,
            samples.fingerprint(),
            match agg_source {
                AggCardinalitySource::Optimizer => "opt",
                AggCardinalitySource::Gee => "gee",
            },
            plan.literal_key()
        )
    }

    /// Steps 3–4 of the pipeline, shared verbatim by every entry point so
    /// cached, uncached, and degraded-tier predictions run the identical
    /// floating-point operation sequence (the bit-identity guarantee).
    /// `fit_cache` is the *enabled* fit cache together with the shape key
    /// it is probed under, or `None` to fit from scratch.
    fn finish_prediction(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        raw_estimates: SelEstimates,
        sample_pass_ran: bool,
        fit_cache: Option<(&dyn FitCache, &str)>,
    ) -> Prediction {
        // The "No Var[X]" ablation zeroes a deep copy: cached raw estimates
        // are shared with other predictions and must stay untouched.
        let estimates = if self.config.variant == Variant::NoSelectivityVariance {
            raw_estimates.with_zero_variance()
        } else {
            raw_estimates
        };

        let dists: Vec<Normal> = estimates.distributions();

        // 3. Fit the logical cost functions per (operator, unit),
        //    consulting the fit cache at both levels (contexts, fits).
        //    Span attribution: cache traffic → FitCacheProbe, the context
        //    build + grid fits + variance algebra → Fit.
        let fits = if let Some((fit_cache, shape)) = fit_cache {
            let sig = FitSignature::new(self.config.fit.grid_w, &dists);
            match span::timed(Stage::FitCacheProbe, || fit_cache.get_fits(shape, &sig)) {
                Some(fits) => fits,
                None => {
                    let contexts = match span::timed(Stage::FitCacheProbe, || {
                        fit_cache.get_contexts(shape)
                    }) {
                        Some(c) => c,
                        None => {
                            let c = span::timed(Stage::Fit, || {
                                Arc::new(NodeCostContext::build_all(plan, catalog))
                            });
                            span::timed(Stage::FitCacheProbe, || fit_cache.put_contexts(shape, &c));
                            c
                        }
                    };
                    let f = span::timed(Stage::Fit, || {
                        Arc::new(self.fit_all(plan, &contexts, &dists))
                    });
                    span::timed(Stage::FitCacheProbe, || fit_cache.put_fits(shape, &sig, &f));
                    f
                }
            }
        } else {
            span::timed(Stage::Fit, || {
                let contexts = NodeCostContext::build_all(plan, catalog);
                Arc::new(self.fit_all(plan, &contexts, &dists))
            })
        };

        // 4. Combine (Algorithm 3).
        let env = CovEnv {
            plan,
            dists: &dists,
            estimates: &estimates,
            drop_cross_covariances: self.config.variant == Variant::NoCovariance,
        };
        let (mean, breakdown) = span::timed(Stage::Fit, || {
            self.mean_and_variance(plan, &fits, &dists, &env)
        });

        Prediction {
            distribution: Normal::new(mean, breakdown.total().max(0.0)),
            breakdown,
            sel_estimates: estimates,
            sample_pass_ran,
        }
    }

    /// Per-node input/own selectivity distributions.
    fn node_vars(plan: &Plan, dists: &[Normal], id: NodeId) -> (Normal, Normal, Normal) {
        let children = plan.op(id).children();
        let xl = children.first().map_or(Normal::point(0.0), |&c| dists[c]);
        let xr = children.get(1).map_or(Normal::point(0.0), |&c| dists[c]);
        (xl, xr, dists[id])
    }

    fn fit_all(&self, plan: &Plan, contexts: &[NodeCostContext], dists: &[Normal]) -> NodeFits {
        plan.node_ids()
            .map(|id| {
                let (xl, xr, own) = Self::node_vars(plan, dists, id);
                fit_node(&contexts[id], &xl, &xr, &own, &self.config.fit)
            })
            .collect()
    }

    /// `E[t_q]` and the `Var[t_q]` breakdown.
    ///
    /// With `t_q = Σ_i Σ_c f_ic·c`, cost units independent of selectivities
    /// and of each other (Assumption 1):
    ///
    /// `Var[t_q] = Σ_c σ_c²(Σ_i E[f_ic])²` (unit term)
    /// `        + Σ_{c,c'} μ_c μ_c' Σ_{i,j} Cov(f_ic, f_jc')` (selectivity)
    /// `        + Σ_c σ_c² Σ_{i,j} Cov(f_ic, f_jc)` (interaction),
    ///
    /// where same-operator covariances are exact and cross-operator ones are
    /// the Theorem 7–10 upper bounds.
    fn mean_and_variance(
        &self,
        plan: &Plan,
        fits: &[[Option<FittedCost>; 5]],
        dists: &[Normal],
        env: &CovEnv<'_>,
    ) -> (f64, VarianceBreakdown) {
        // Flatten the active (node, unit) cost functions with their term
        // decompositions and means.
        struct Piece {
            node: NodeId,
            unit: CostUnit,
            mean: f64,
            terms: Vec<(VarTerm, f64)>,
        }
        let mut pieces: Vec<Piece> = Vec::new();
        for id in plan.node_ids() {
            let (xl, xr, own) = Self::node_vars(plan, dists, id);
            for unit in CostUnit::ALL {
                if let Some(f) = &fits[id][unit.idx()] {
                    let (mean, _) = f.mean_var(&xl, &xr, &own);
                    let terms = f
                        .terms()
                        .into_iter()
                        .filter(|(_, coef)| *coef != 0.0)
                        .map(|(t, coef)| (resolve_term(plan, id, t), coef))
                        .collect();
                    pieces.push(Piece {
                        node: id,
                        unit,
                        mean,
                        terms,
                    });
                }
            }
        }

        // E[t_q] = Σ E[f_ic]·μ_c.
        let mean_ms: f64 = pieces
            .iter()
            .map(|p| p.mean * self.units[p.unit].mean())
            .sum();

        // Unit-variance term: σ_c²·(Σ_i E[f_ic])².
        let mut unit_totals = [0.0f64; CostUnit::COUNT];
        for p in &pieces {
            unit_totals[p.unit.idx()] += p.mean;
        }
        let unit_variance: f64 = CostUnit::ALL
            .iter()
            .map(|&u| self.units[u].var() * unit_totals[u.idx()] * unit_totals[u.idx()])
            .sum();

        // Selectivity and interaction terms over all piece pairs.
        let mut selectivity_exact = 0.0;
        let mut covariance_bounds = 0.0;
        let mut interaction = 0.0;
        for (a_idx, a) in pieces.iter().enumerate() {
            for b in &pieces[a_idx..] {
                // Σ over term pairs of Cov(Z, Z').
                let mut cov_ff = 0.0;
                for &(ta, ca) in &a.terms {
                    if ta == VarTerm::Const {
                        continue;
                    }
                    for &(tb, cb) in &b.terms {
                        if tb == VarTerm::Const {
                            continue;
                        }
                        cov_ff += ca * cb * env.cov(ta, tb);
                    }
                }
                if cov_ff == 0.0 {
                    continue;
                }
                // Count symmetric pairs twice; diagonal once.
                let pair_weight = if std::ptr::eq(a, b) { 1.0 } else { 2.0 };
                let mu_prod = self.units[a.unit].mean() * self.units[b.unit].mean();
                let sel_contrib = pair_weight * mu_prod * cov_ff;
                if a.node == b.node {
                    selectivity_exact += sel_contrib;
                } else {
                    covariance_bounds += sel_contrib;
                }
                if a.unit == b.unit {
                    interaction += pair_weight * self.units[a.unit].var() * cov_ff;
                }
            }
        }

        (
            mean_ms,
            VarianceBreakdown {
                unit_variance,
                selectivity_exact,
                covariance_bounds,
                interaction,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_cost::{simulate_actual_time, HardwareProfile, SimConfig};
    use uaq_engine::{execute_full, PlanBuilder, Pred};
    use uaq_stats::Rng;
    use uaq_storage::{Column, Schema, Table, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a"), Column::int("b")]);
        let rows = (0..8000)
            .map(|i| vec![Value::Int((i % 50) as i64), Value::Int(i as i64)])
            .collect();
        c.add_table(Table::new("t", s, rows));
        let s2 = Schema::new(vec![Column::int("x"), Column::int("y")]);
        let rows2 = (0..4000)
            .map(|i| vec![Value::Int((i % 50) as i64), Value::Int(i as i64)])
            .collect();
        c.add_table(Table::new("u", s2, rows2));
        c
    }

    fn join_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("b", Value::Int(4000)));
        let u = b.seq_scan("u", Pred::True);
        let j = b.hash_join(t, u, "a", "x");
        b.build(j)
    }

    fn calibrated_units(profile: &HardwareProfile, seed: u64) -> UnitDists {
        uaq_cost::calibrate(
            profile,
            &uaq_cost::CalibrationConfig::default(),
            &mut Rng::new(seed),
        )
    }

    #[test]
    fn prediction_mean_tracks_simulated_actual() {
        let c = catalog();
        let plan = join_plan();
        let profile = HardwareProfile::pc1();
        let units = calibrated_units(&profile, 50);
        let predictor = Predictor::new(units, PredictorConfig::default());
        let mut rng = Rng::new(51);
        let samples = c.draw_samples(0.1, 1, &mut rng);
        let prediction = predictor.predict(&plan, &c, &samples);

        let out = execute_full(&plan, &c);
        let ctxs = NodeCostContext::build_all(&plan, &c);
        let actual = simulate_actual_time(
            &plan,
            &ctxs,
            &out.traces,
            &profile,
            &SimConfig {
                runs: 200,
                model_error_sigma: 0.0,
                per_operator_unit_draws: false,
            },
            &mut rng,
        );
        let rel = (prediction.mean_ms() - actual.mean_ms).abs() / actual.mean_ms;
        assert!(
            rel < 0.15,
            "predicted {} vs actual {} (rel {rel})",
            prediction.mean_ms(),
            actual.mean_ms
        );
    }

    #[test]
    fn variance_is_positive_with_sensible_breakdown() {
        let c = catalog();
        let plan = join_plan();
        let units = calibrated_units(&HardwareProfile::pc1(), 52);
        let predictor = Predictor::new(units, PredictorConfig::default());
        let mut rng = Rng::new(53);
        let samples = c.draw_samples(0.05, 1, &mut rng);
        let p = predictor.predict(&plan, &c, &samples);
        assert!(p.var() > 0.0);
        assert!(p.breakdown.unit_variance > 0.0);
        assert!(p.breakdown.selectivity_exact >= 0.0);
        assert!(p.breakdown.covariance_bounds >= 0.0);
        assert!((p.breakdown.total() - p.var()).abs() < 1e-9);
        assert!(p.std_dev_ms() > 0.0);
    }

    #[test]
    fn smaller_samples_mean_more_uncertainty() {
        let c = catalog();
        let plan = join_plan();
        let units = calibrated_units(&HardwareProfile::pc1(), 54);
        let predictor = Predictor::new(units, PredictorConfig::default());
        let mut rng = Rng::new(55);
        let small = c.draw_samples(0.02, 1, &mut rng);
        let large = c.draw_samples(0.4, 1, &mut rng);
        let p_small = predictor.predict(&plan, &c, &small);
        let p_large = predictor.predict(&plan, &c, &large);
        // Selectivity-driven variance must shrink with more samples.
        let sel_small = p_small.breakdown.selectivity_exact + p_small.breakdown.covariance_bounds;
        let sel_large = p_large.breakdown.selectivity_exact + p_large.breakdown.covariance_bounds;
        assert!(
            sel_small > sel_large,
            "sel var small-sample {sel_small} vs large-sample {sel_large}"
        );
    }

    #[test]
    fn variants_reduce_variance() {
        let c = catalog();
        let plan = join_plan();
        let units = calibrated_units(&HardwareProfile::pc1(), 56);
        let mut rng = Rng::new(57);
        let samples = c.draw_samples(0.05, 1, &mut rng);
        let var_of = |variant: Variant| {
            let p = Predictor::new(
                units,
                PredictorConfig {
                    variant,
                    ..Default::default()
                },
            )
            .predict(&plan, &c, &samples);
            p.var()
        };
        let all = var_of(Variant::All);
        let no_c = var_of(Variant::NoCostUnitVariance);
        let no_x = var_of(Variant::NoSelectivityVariance);
        let no_cov = var_of(Variant::NoCovariance);
        assert!(
            no_c < all,
            "No Var[c] must reduce variance: {no_c} vs {all}"
        );
        assert!(
            no_x < all,
            "No Var[X] must reduce variance: {no_x} vs {all}"
        );
        assert!(no_cov <= all, "No Cov must not increase variance");
        assert!(
            no_cov >= no_x,
            "No Cov keeps same-operator selectivity variance"
        );
    }

    #[test]
    fn no_var_x_keeps_unit_variance_only_for_sel_terms() {
        let c = catalog();
        let plan = join_plan();
        let units = calibrated_units(&HardwareProfile::pc2(), 58);
        let mut rng = Rng::new(59);
        let samples = c.draw_samples(0.05, 1, &mut rng);
        let p = Predictor::new(
            units,
            PredictorConfig {
                variant: Variant::NoSelectivityVariance,
                ..Default::default()
            },
        )
        .predict(&plan, &c, &samples);
        assert!(p.breakdown.unit_variance > 0.0);
        assert!(p.breakdown.selectivity_exact.abs() < 1e-12);
        assert!(p.breakdown.covariance_bounds.abs() < 1e-12);
        assert!(p.breakdown.interaction.abs() < 1e-12);
    }

    #[test]
    fn confidence_interval_is_centered_and_ordered() {
        let c = catalog();
        let plan = join_plan();
        let units = calibrated_units(&HardwareProfile::pc1(), 60);
        let predictor = Predictor::new(units, PredictorConfig::default());
        let mut rng = Rng::new(61);
        let samples = c.draw_samples(0.1, 1, &mut rng);
        let p = predictor.predict(&plan, &c, &samples);
        let (lo70, hi70) = p.confidence_interval_ms(0.70);
        let (lo95, hi95) = p.confidence_interval_ms(0.95);
        assert!(lo95 < lo70 && lo70 < p.mean_ms() && p.mean_ms() < hi70 && hi70 < hi95);
        assert!((p.prob_within_alpha(1.0) - 0.6827).abs() < 1e-3);
    }

    #[test]
    fn predict_from_estimates_is_bit_identical_to_the_full_pipeline() {
        let c = catalog();
        let plan = join_plan();
        let units = calibrated_units(&HardwareProfile::pc1(), 64);
        let predictor = Predictor::new(units, PredictorConfig::default());
        let mut rng = Rng::new(65);
        let samples = c.draw_samples(0.05, 1, &mut rng);
        let full = predictor.predict(&plan, &c, &samples);
        let estimates =
            SelEstimates::compute(&plan, &samples, &c, PredictorConfig::default().agg_source);
        let from_est = predictor.predict_from_estimates(&plan, &c, estimates, &NoFitCache);
        assert_eq!(full.mean_ms().to_bits(), from_est.mean_ms().to_bits());
        assert_eq!(full.var().to_bits(), from_est.var().to_bits());
        assert!(
            !from_est.sample_pass_ran,
            "the skipped stage reports that it was skipped"
        );
        assert!(full.sample_pass_ran);
    }

    #[test]
    fn zero_grid_width_clamps_to_one() {
        /// Records the signature fits are stored under.
        #[derive(Default)]
        struct Recording(std::sync::Mutex<Vec<FitSignature>>);
        impl FitCache for Recording {
            fn get_contexts(&self, _: &str) -> Option<Arc<Vec<NodeCostContext>>> {
                None
            }
            fn put_contexts(&self, _: &str, _: &Arc<Vec<NodeCostContext>>) {}
            fn get_fits(&self, _: &str, _: &FitSignature) -> Option<Arc<NodeFits>> {
                None
            }
            fn put_fits(&self, _: &str, sig: &FitSignature, _: &Arc<NodeFits>) {
                self.0.lock().unwrap().push(sig.clone());
            }
        }

        let c = catalog();
        let plan = join_plan();
        let units = calibrated_units(&HardwareProfile::pc1(), 68);
        let with_grid = |grid_w| {
            let fit = FitConfig { grid_w };
            Predictor::new(
                units,
                PredictorConfig {
                    fit,
                    ..Default::default()
                },
            )
        };
        let samples = c.draw_samples(0.05, 1, &mut Rng::new(69));
        let cache = Recording::default();
        let zero = with_grid(0).predict_with_caches(&plan, &c, &samples, &cache, &NoSelEstCache);
        let one = with_grid(1).predict(&plan, &c, &samples);
        assert!(zero.var() > 0.0);
        assert_eq!(zero.mean_ms().to_bits(), one.mean_ms().to_bits());
        assert_eq!(zero.var().to_bits(), one.var().to_bits());
        let keyed = cache.0.lock().unwrap();
        assert_eq!(
            *keyed,
            [FitSignature::new(1, &zero.sel_estimates.distributions())]
        );
    }

    #[test]
    fn degraded_prediction_is_a_point_mass_with_step_cdf() {
        let p = Prediction::degraded(10.0, 0.0);
        assert_eq!(p.mean_ms(), 10.0);
        assert_eq!(p.var(), 0.0);
        // Point mass ⇒ tail-probability admission degenerates to the
        // mean-only check: all-or-nothing around the mean.
        assert_eq!(p.prob_completes_by(9.9), 0.0);
        assert_eq!(p.prob_completes_by(10.0), 1.0);
        assert!(p.sel_estimates.is_empty());
    }

    #[test]
    fn span_recording_captures_stages_without_perturbing_the_prediction() {
        let c = catalog();
        let plan = join_plan();
        let units = calibrated_units(&HardwareProfile::pc1(), 62);
        let predictor = Predictor::new(units, PredictorConfig::default());
        let mut rng = Rng::new(63);
        let samples = c.draw_samples(0.05, 1, &mut rng);

        // Baseline: no recorder active.
        let plain = predictor.predict(&plan, &c, &samples);
        assert_eq!(plain.sel_estimates.len(), plan.len());

        // Same inputs with a recorder active: the prediction is
        // bit-identical (the span layer only observes; it never feeds
        // wall-clock values back into the result), and the pipeline
        // stages show up in the timings.
        let span = uaq_telemetry::span::SpanRecorder::begin();
        let recorded = predictor.predict(&plan, &c, &samples);
        let timings = span.finish();
        assert_eq!(plain.mean_ms().to_bits(), recorded.mean_ms().to_bits());
        assert_eq!(plain.var().to_bits(), recorded.var().to_bits());
        assert_eq!(plain.sample_pass_ran, recorded.sample_pass_ran);
        assert!(timings.get(Stage::SamplePass) > 0.0);
        assert!(timings.get(Stage::Fit) > 0.0);
        // The engine's executor stage nests inside the sample pass.
        assert!(timings.get(Stage::Exec) > 0.0);
        assert!(timings.get(Stage::Exec) <= timings.get(Stage::SamplePass));
        // No caches in play: the probe stages never ran.
        assert_eq!(timings.get(Stage::SelCacheProbe), 0.0);
        assert_eq!(timings.get(Stage::FitCacheProbe), 0.0);
    }

    /// The satellite-1 pin: a `Prediction` must carry no wall-clock
    /// fields, so two runs of the identical inputs are bit-identical
    /// structs — not just close, *identical* — field by field.
    #[test]
    fn predictions_are_bit_deterministic_across_runs() {
        let c = catalog();
        let plan = join_plan();
        let units = calibrated_units(&HardwareProfile::pc1(), 66);
        let predictor = Predictor::new(units, PredictorConfig::default());
        let mut rng = Rng::new(67);
        let samples = c.draw_samples(0.05, 1, &mut rng);
        let a = predictor.predict(&plan, &c, &samples);
        let b = predictor.predict(&plan, &c, &samples);
        assert_eq!(a.mean_ms().to_bits(), b.mean_ms().to_bits());
        assert_eq!(a.var().to_bits(), b.var().to_bits());
        assert_eq!(
            a.breakdown.unit_variance.to_bits(),
            b.breakdown.unit_variance.to_bits()
        );
        assert_eq!(
            a.breakdown.selectivity_exact.to_bits(),
            b.breakdown.selectivity_exact.to_bits()
        );
        assert_eq!(
            a.breakdown.covariance_bounds.to_bits(),
            b.breakdown.covariance_bounds.to_bits()
        );
        assert_eq!(
            a.breakdown.interaction.to_bits(),
            b.breakdown.interaction.to_bits()
        );
        assert_eq!(a.sample_pass_ran, b.sample_pass_ran);
        assert_eq!(
            a.sel_estimates.canonical_bytes(),
            b.sel_estimates.canonical_bytes()
        );
    }
}
