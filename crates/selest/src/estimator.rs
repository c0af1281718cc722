//! One-pass selectivity and variance estimation (§3.2, Algorithm 1).
//!
//! After executing a plan over the sample tables with provenance tracking
//! (`uaq_engine::execute_on_samples`), this module turns each operator's
//! output provenance into:
//!
//! * `ρ_n` — the Haas et al. estimator of the operator's selectivity, and
//! * `S_n²`-based variance components — one per leaf relation, whose sum
//!   over `S_k²/n_k` estimates `Var[ρ_n]` (Eq. 5 generalised to per-relation
//!   sample sizes).
//!
//! The per-relation split is kept because the restricted variance
//! `S_ρ²(m, n)` over the `m` relations *shared* with another operator is the
//! ingredient of the refined covariance bound (Theorem 7) — it is just the
//! partial sum over the shared leaves.

use crate::gee;

use uaq_engine::{estimate_cardinalities, ExecOutcome, NodeId, Op, Plan, SelKind};
use uaq_stats::Normal;
use uaq_storage::{Catalog, SampleCatalog};

/// How aggregate output cardinalities are estimated (Algorithm 1, lines
/// 2–5, leaves the choice open; the paper uses the optimizer's estimate and
/// names the GEE estimator as the planned extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggCardinalitySource {
    /// The optimizer's histogram-based estimate (the paper's §6 strategy).
    #[default]
    Optimizer,
    /// The GEE sampling-based distinct-value estimator (the paper's §3.2.2
    /// "we are working to incorporate ... the GEE estimator \[11\]").
    Gee,
}

/// Where an operator's selectivity estimate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelSource {
    /// Sampled via `ρ_n`/`S_n²` (scans, filters, joins below any aggregate).
    Sampled,
    /// Child's estimate passed through (sort / materialize).
    PassThrough,
    /// Optimizer cardinality estimate with zero variance (aggregates and
    /// everything above them; Algorithm 1 lines 2–5).
    OptimizerFallback,
}

/// Selectivity estimate of one operator.
#[derive(Debug, Clone)]
pub struct SelEstimate {
    pub node: NodeId,
    /// `ρ_n` — estimated selectivity (output fraction of `∏|R|`).
    pub rho: f64,
    /// Estimated `Var[ρ_n] ≈ Σ_k S_k²/n_k`.
    pub var: f64,
    /// Per-leaf variance components `S_k²/n_k`, aligned with the node's
    /// `leaf_tables`; empty for optimizer-fallback estimates.
    pub per_leaf_var: Vec<f64>,
    /// Sample size `n_k` per leaf, same alignment.
    pub leaf_sample_sizes: Vec<usize>,
    pub source: SelSource,
}

impl SelEstimate {
    /// The asymptotically normal selectivity distribution `X ~ N(ρ_n, σ_n²)`
    /// (§3.2.1, by the CLT).
    pub fn distribution(&self) -> Normal {
        Normal::new(self.rho, self.var.max(0.0))
    }

    /// Restricted variance `S_ρ²(m, n)` over a subset of leaf indices —
    /// the partial sum of per-leaf components (Theorem 7's ingredient).
    pub fn restricted_var(&self, leaf_indices: &[usize]) -> f64 {
        leaf_indices
            .iter()
            .map(|&i| self.per_leaf_var.get(i).copied().unwrap_or(0.0))
            .sum()
    }
}

/// Estimates `ρ_n` and `Var[ρ_n]` for every operator of a plan from a
/// provenance-tracked sample execution.
///
/// `sample_outcome` must come from `execute_on_samples(plan, samples)`;
/// `catalog` supplies the base cardinalities (selectivity denominators) and
/// the optimizer statistics for the aggregate fallback.
pub fn estimate_selectivities(
    plan: &Plan,
    sample_outcome: &ExecOutcome,
    samples: &SampleCatalog,
    catalog: &Catalog,
) -> Vec<SelEstimate> {
    estimate_selectivities_with(
        plan,
        sample_outcome,
        samples,
        catalog,
        AggCardinalitySource::Optimizer,
    )
}

/// Like [`estimate_selectivities`], with a configurable aggregate
/// cardinality source (GEE is the paper's named extension).
pub fn estimate_selectivities_with(
    plan: &Plan,
    sample_outcome: &ExecOutcome,
    samples: &SampleCatalog,
    catalog: &Catalog,
    agg_source: AggCardinalitySource,
) -> Vec<SelEstimate> {
    // Read only at or above an aggregate, and the root is above them all.
    let optimizer_est = if plan.meta(plan.root()).agg_at_or_below {
        estimate_cardinalities(plan, catalog)
    } else {
        Vec::new()
    };
    let mut out: Vec<Option<SelEstimate>> = vec![None; plan.len()];

    for id in plan.postorder() {
        let meta = plan.meta(id);
        let estimate = if meta.agg_at_or_below {
            // Aggregate or above: fixed cardinality estimate, zero variance.
            let denom = plan.leaf_cardinality_product(id, catalog).max(1.0);
            let cardinality = match (agg_source, plan.op(id)) {
                (AggCardinalitySource::Gee, Op::HashAggregate { group_by, .. }) => {
                    let input_est = plan
                        .op(id)
                        .children()
                        .first()
                        .and_then(|&c| out[c].as_ref())
                        .map(|e| e.rho * plan.leaf_cardinality_product(e.node, catalog))
                        .unwrap_or(optimizer_est[id]);
                    gee_aggregate_cardinality(plan, id, group_by, samples, catalog, input_est)
                        .unwrap_or(optimizer_est[id])
                }
                _ => optimizer_est[id],
            };
            SelEstimate {
                node: id,
                rho: (cardinality / denom).clamp(0.0, 1.0),
                var: 0.0,
                per_leaf_var: vec![0.0; meta.leaf_tables.len()],
                leaf_sample_sizes: leaf_sizes(plan, id, samples),
                source: SelSource::OptimizerFallback,
            }
        } else {
            match meta.sel_kind {
                SelKind::PassThrough => {
                    let child = plan.op(id).children()[0];
                    let mut e = out[child].clone().expect("child estimated first");
                    e.node = id;
                    e.source = SelSource::PassThrough;
                    e
                }
                SelKind::Estimable => estimate_sampled(plan, id, sample_outcome, samples),
                SelKind::Aggregate => unreachable!("handled by agg_at_or_below"),
            }
        };
        out[id] = Some(estimate);
    }
    out.into_iter().map(|e| e.expect("all estimated")).collect()
}

fn leaf_sizes(plan: &Plan, id: NodeId, samples: &SampleCatalog) -> Vec<usize> {
    plan.meta(id)
        .leaf_tables
        .iter()
        .map(|l| samples.sample(&l.relation, l.occurrence).len())
        .collect()
}

/// GEE-based group-count estimate for an aggregate node: per grouping
/// column, find the leaf relation that owns the column and apply the GEE
/// distinct estimator to its sample; multiply across columns (independence)
/// capped by the input-cardinality estimate. Returns `None` when a grouping
/// column cannot be resolved to a base relation (e.g. it is itself an
/// aggregate output).
fn gee_aggregate_cardinality(
    plan: &Plan,
    id: NodeId,
    group_by: &[String],
    samples: &SampleCatalog,
    catalog: &Catalog,
    input_estimate: f64,
) -> Option<f64> {
    if group_by.is_empty() {
        return Some(1.0);
    }
    let mut pairs = Vec::with_capacity(group_by.len());
    for col in group_by {
        let leaf = plan
            .meta(id)
            .leaf_tables
            .iter()
            .find(|l| catalog.table(&l.relation).schema().index_of(col).is_some())?;
        pairs.push((
            samples.sample(&leaf.relation, leaf.occurrence),
            col.as_str(),
        ));
    }
    let refs: Vec<(&uaq_storage::SampleTable, &str)> =
        pairs.iter().map(|(s, c)| (*s, *c)).collect();
    Some(gee::gee_group_count(&refs, input_estimate.max(1.0)))
}

/// The sampled case of Algorithm 1: `ρ_n` from the output count, `S_k²` from
/// the `Q_{k,j,n}` counters.
fn estimate_sampled(
    plan: &Plan,
    id: NodeId,
    sample_outcome: &ExecOutcome,
    samples: &SampleCatalog,
) -> SelEstimate {
    let trace = &sample_outcome.traces[id];
    let prov = trace
        .prov
        .as_ref()
        .unwrap_or_else(|| panic!("node {id} has no provenance; was the plan run on samples?"));
    let sizes = leaf_sizes(plan, id, samples);
    let arity = sizes.len();
    assert_eq!(
        prov.arity(),
        arity,
        "provenance arity mismatch at node {id}"
    );

    let denom: f64 = sizes.iter().map(|&n| n as f64).product();
    let count = prov.rows() as f64;
    let rho = if denom > 0.0 { count / denom } else { 0.0 };

    // Zero-output smoothing: an empty sample result does NOT mean the true
    // selectivity is zero with certainty — it means it is below the sample's
    // resolution. Reporting ρ_n = 0 with S_n² = 0 would make the predictor
    // confidently wrong (and break the self-awareness the paper is after).
    // We report half a pseudo-occurrence, ρ = 0.5/∏n_k, with σ = 2ρ: the
    // same ±few-pseudo-occurrences scale the single-occurrence case gets
    // from the Q-map formula (there, σ/ρ = √K). The variance must scale
    // with ρ² — anything coarser (e.g. the binomial ρ(1−ρ)/n_k) is off by
    // ∏_{k'≠k} n_{k'} for joins and explodes through the |R| products of
    // the cost-function coefficients.
    if count == 0.0 && denom > 0.0 {
        let rho = 0.5 / denom;
        let k = sizes.len().max(1) as f64;
        let per_leaf_var: Vec<f64> = sizes.iter().map(|_| (2.0 * rho).powi(2) / k).collect();
        return SelEstimate {
            node: id,
            rho,
            var: per_leaf_var.iter().sum(),
            per_leaf_var,
            leaf_sample_sizes: sizes,
            source: SelSource::Sampled,
        };
    }

    // Q_{k,j,n}: for each leaf k, how many output tuples involve sample step
    // j of that leaf (§3.2.2). The step domain is exactly `0..n_k` (sample
    // table row positions), so the counters live in a dense vector — one
    // strided pass down column k of the flat provenance matrix (indexed
    // loads when the matrix sits behind a selection vector — see
    // `ProvData::for_each_leaf_step`),
    // no hashing, and the Σ_j loop visits steps in index order, keeping the
    // float summation order deterministic (bit-reproducible experiments).
    let mut per_leaf_var = Vec::with_capacity(arity);
    let mut q: Vec<u64> = Vec::new();
    for (k, &n_k) in sizes.iter().enumerate() {
        if n_k < 2 {
            per_leaf_var.push(0.0);
            continue;
        }
        q.clear();
        q.resize(n_k, 0);
        prov.for_each_leaf_step(k, |step| q[step as usize] += 1);
        // D_k = ∏_{k' ≠ k} n_{k'} — the normaliser `n^{K−1}` of Eq. 5.
        let d_k = denom / n_k as f64;
        // Σ_j (Q_j/D_k − ρ)² over all n_k steps (never-seen steps
        // contribute ρ² each).
        let rho_sq = rho * rho;
        let mut sum_sq = 0.0;
        for &qj in &q {
            if qj == 0 {
                sum_sq += rho_sq;
            } else {
                let dev = qj as f64 / d_k - rho;
                sum_sq += dev * dev;
            }
        }
        let s2_k = sum_sq / (n_k as f64 - 1.0);
        per_leaf_var.push(s2_k / n_k as f64);
    }

    SelEstimate {
        node: id,
        rho,
        var: per_leaf_var.iter().sum(),
        per_leaf_var,
        leaf_sample_sizes: sizes,
        source: SelSource::Sampled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_engine::{execute_full, execute_on_samples, PlanBuilder, Pred};
    use uaq_stats::Rng;
    use uaq_storage::{Column, Schema, Table, Value};

    fn catalog(rows_t: usize, rows_u: usize) -> Catalog {
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a"), Column::int("b")]);
        let rows = (0..rows_t)
            .map(|i| vec![Value::Int((i % 20) as i64), Value::Int(i as i64)])
            .collect();
        c.add_table(Table::new("t", s, rows));
        let s2 = Schema::new(vec![Column::int("x"), Column::int("y")]);
        let rows2 = (0..rows_u)
            .map(|i| vec![Value::Int((i % 20) as i64), Value::Int(i as i64)])
            .collect();
        c.add_table(Table::new("u", s2, rows2));
        c
    }

    fn scan_plan(sel: i64, rows: usize) -> Plan {
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::lt("b", Value::Int(sel * rows as i64 / 100)));
        b.build(s)
    }

    #[test]
    fn scan_estimate_matches_closed_form() {
        // For a scan the paper derives S_n² ≈ ρ(1 − ρ); our generic Q-map
        // path must reproduce the exact (n−1)-denominator version.
        let c = catalog(5000, 100);
        let mut rng = Rng::new(11);
        let samples = c.draw_samples(0.1, 1, &mut rng);
        let plan = scan_plan(30, 5000);
        let out = execute_on_samples(&plan, &samples);
        let est = estimate_selectivities(&plan, &out, &samples, &c);
        let e = &est[0];
        assert_eq!(e.source, SelSource::Sampled);
        let n = samples.sample("t", 0).len() as f64;
        let m = out.traces[0].output_rows as f64;
        let rho = m / n;
        assert!((e.rho - rho).abs() < 1e-12);
        let s2_exact = ((n - m) * rho * rho + m * (1.0 - rho) * (1.0 - rho)) / (n - 1.0);
        assert!(
            (e.var - s2_exact / n).abs() < 1e-12,
            "var {} vs closed form {}",
            e.var,
            s2_exact / n
        );
        // And the ρ(1−ρ) approximation is close for large n.
        assert!((e.var - rho * (1.0 - rho) / n).abs() < 1e-4);
    }

    #[test]
    fn scan_estimate_is_consistent() {
        // More samples ⇒ estimate closer to truth and variance shrinking.
        let c = catalog(20_000, 100);
        let plan = scan_plan(30, 20_000);
        let truth = {
            let out = execute_full(&plan, &c);
            out.traces[0].output_rows as f64 / 20_000.0
        };
        let mut rng = Rng::new(12);
        let small = c.draw_samples(0.01, 1, &mut rng);
        let large = c.draw_samples(0.3, 1, &mut rng);
        let est_small = {
            let out = execute_on_samples(&plan, &small);
            estimate_selectivities(&plan, &out, &small, &c)[0].clone()
        };
        let est_large = {
            let out = execute_on_samples(&plan, &large);
            estimate_selectivities(&plan, &out, &large, &c)[0].clone()
        };
        assert!(est_large.var < est_small.var);
        assert!((est_large.rho - truth).abs() < 0.02);
    }

    #[test]
    fn estimated_variance_matches_observed_variance_of_estimator() {
        // Repeat sampling many times; the spread of ρ_n across sample sets
        // should match the average estimated Var[ρ_n] (this is the whole
        // point of S_n²).
        let c = catalog(4000, 100);
        let plan = scan_plan(25, 4000);
        let mut rng = Rng::new(13);
        let mut rhos = Vec::new();
        let mut predicted_vars = Vec::new();
        for _ in 0..300 {
            let samples = c.draw_samples(0.05, 1, &mut rng);
            let out = execute_on_samples(&plan, &samples);
            let e = estimate_selectivities(&plan, &out, &samples, &c)[0].clone();
            rhos.push(e.rho);
            predicted_vars.push(e.var);
        }
        let observed = uaq_stats::sample_variance(&rhos);
        let predicted = uaq_stats::mean(&predicted_vars);
        assert!(
            (observed - predicted).abs() / observed < 0.25,
            "observed {observed} vs predicted {predicted}"
        );
    }

    #[test]
    fn join_estimate_unbiased_and_variance_conservative() {
        // `S_n²/n` estimates `σ²/n`, the *leading* term of Var[ρ_n]
        // (Theorem 3). With uniform join keys the per-relation components
        // σ_k² vanish and the estimator keeps only finite-sample mass, so it
        // over-reports by up to ~2× — the conservative direction. It must
        // stay within a small constant factor and never grossly undershoot.
        let c = catalog(2000, 1000);
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::True);
        let j = b.hash_join(l, r, "a", "x");
        let plan = b.build(j);
        let truth = {
            let out = execute_full(&plan, &c);
            out.traces[j].output_rows as f64 / (2000.0 * 1000.0)
        };
        let mut rng = Rng::new(14);
        let mut rhos = Vec::new();
        let mut vars = Vec::new();
        for _ in 0..200 {
            let samples = c.draw_samples(0.05, 1, &mut rng);
            let out = execute_on_samples(&plan, &samples);
            let e = estimate_selectivities(&plan, &out, &samples, &c)[j].clone();
            rhos.push(e.rho);
            vars.push(e.var);
        }
        let mean_rho = uaq_stats::mean(&rhos);
        assert!(
            (mean_rho - truth).abs() / truth < 0.05,
            "mean ρ {mean_rho} vs truth {truth}"
        );
        let observed = uaq_stats::sample_variance(&rhos);
        let predicted = uaq_stats::mean(&vars);
        let ratio = predicted / observed;
        assert!(
            (0.7..3.0).contains(&ratio),
            "predicted/observed variance ratio {ratio} (observed {observed}, predicted {predicted})"
        );
    }

    #[test]
    fn join_variance_estimate_tracks_skewed_keys() {
        // With a skewed key distribution the per-relation components σ_k²
        // dominate and `S_n²/n` is sharp: predicted ≈ observed.
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a")]);
        // t.a: value v appears 2(v+1) times, v ∈ 0..40 (skewed).
        let mut rows = Vec::new();
        for v in 0..40i64 {
            for _ in 0..2 * (v + 1) {
                rows.push(vec![Value::Int(v)]);
            }
        }
        c.add_table(Table::new("t", s, rows));
        // u.x: value v appears (v+1) times.
        let s2 = Schema::new(vec![Column::int("x")]);
        let mut rows2 = Vec::new();
        for v in 0..40i64 {
            for _ in 0..(v + 1) {
                rows2.push(vec![Value::Int(v)]);
            }
        }
        c.add_table(Table::new("u", s2, rows2));

        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::True);
        let j = b.hash_join(l, r, "a", "x");
        let plan = b.build(j);
        let mut rng = Rng::new(19);
        let mut rhos = Vec::new();
        let mut vars = Vec::new();
        for _ in 0..300 {
            let samples = c.draw_samples(0.25, 1, &mut rng);
            let out = execute_on_samples(&plan, &samples);
            let e = estimate_selectivities(&plan, &out, &samples, &c)[j].clone();
            rhos.push(e.rho);
            vars.push(e.var);
        }
        let observed = uaq_stats::sample_variance(&rhos);
        let predicted = uaq_stats::mean(&vars);
        let ratio = predicted / observed;
        assert!(
            (0.7..1.6).contains(&ratio),
            "predicted/observed variance ratio {ratio} (observed {observed}, predicted {predicted})"
        );
    }

    #[test]
    fn join_per_leaf_components_sum_to_var() {
        let c = catalog(1000, 500);
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::True);
        let j = b.hash_join(l, r, "a", "x");
        let plan = b.build(j);
        let mut rng = Rng::new(15);
        let samples = c.draw_samples(0.1, 1, &mut rng);
        let out = execute_on_samples(&plan, &samples);
        let e = &estimate_selectivities(&plan, &out, &samples, &c)[j];
        assert_eq!(e.per_leaf_var.len(), 2);
        assert!((e.per_leaf_var.iter().sum::<f64>() - e.var).abs() < 1e-15);
        assert!(e.per_leaf_var.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn pass_through_copies_child() {
        let c = catalog(1000, 100);
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::lt("b", Value::Int(300)));
        let srt = b.sort(s, vec![("b".into(), uaq_engine::SortOrder::Asc)]);
        let plan = b.build(srt);
        let mut rng = Rng::new(16);
        let samples = c.draw_samples(0.2, 1, &mut rng);
        let out = execute_on_samples(&plan, &samples);
        let est = estimate_selectivities(&plan, &out, &samples, &c);
        assert_eq!(est[1].source, SelSource::PassThrough);
        assert_eq!(est[1].rho, est[0].rho);
        assert_eq!(est[1].var, est[0].var);
    }

    #[test]
    fn aggregate_falls_back_to_optimizer() {
        let c = catalog(1000, 100);
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::True);
        let a = b.aggregate(
            s,
            vec!["a".into()],
            vec![("cnt".into(), uaq_engine::AggFunc::CountStar)],
        );
        let plan = b.build(a);
        let mut rng = Rng::new(17);
        let samples = c.draw_samples(0.2, 1, &mut rng);
        let out = execute_on_samples(&plan, &samples);
        let est = estimate_selectivities(&plan, &out, &samples, &c);
        assert_eq!(est[a].source, SelSource::OptimizerFallback);
        assert_eq!(est[a].var, 0.0);
        // Optimizer estimates 20 groups out of 1000 rows ⇒ ρ = 0.02.
        assert!((est[a].rho - 0.02).abs() < 1e-9);
        // The scan below is still sampled.
        assert_eq!(est[s].source, SelSource::Sampled);
    }

    #[test]
    fn gee_source_changes_aggregate_estimate_only() {
        let c = catalog(1000, 100);
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::True);
        let a = b.aggregate(
            s,
            vec!["a".into()],
            vec![("cnt".into(), uaq_engine::AggFunc::CountStar)],
        );
        let plan = b.build(a);
        let mut rng = Rng::new(77);
        let samples = c.draw_samples(0.3, 1, &mut rng);
        let out = execute_on_samples(&plan, &samples);
        let opt =
            estimate_selectivities_with(&plan, &out, &samples, &c, AggCardinalitySource::Optimizer);
        let gee = estimate_selectivities_with(&plan, &out, &samples, &c, AggCardinalitySource::Gee);
        // The scan estimate is untouched; the aggregate may differ but both
        // must be sane (catalog has 20 distinct `a` values in 1000 rows).
        assert_eq!(opt[s].rho, gee[s].rho);
        let truth = 20.0 / 1000.0;
        for est in [&opt[a], &gee[a]] {
            assert_eq!(est.var, 0.0);
            assert!(
                (est.rho - truth).abs() / truth < 0.6,
                "agg rho {} vs truth {truth}",
                est.rho
            );
        }
    }

    #[test]
    fn empty_sample_output_is_smoothed_not_certain_zero() {
        let c = catalog(1000, 100);
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::eq("b", Value::Int(-5)));
        let plan = b.build(s);
        let mut rng = Rng::new(18);
        let samples = c.draw_samples(0.1, 1, &mut rng);
        let out = execute_on_samples(&plan, &samples);
        let est = estimate_selectivities(&plan, &out, &samples, &c);
        let n = samples.sample("t", 0).len() as f64;
        // Half a pseudo-occurrence, with uncertainty twice the estimate.
        assert!((est[0].rho - 0.5 / n).abs() < 1e-12);
        assert!(est[0].var > 0.0);
        let std = est[0].var.sqrt();
        assert!(
            (std - 2.0 * est[0].rho).abs() < 1e-12,
            "std {std} vs rho {}",
            est[0].rho
        );
    }

    #[test]
    fn distribution_wraps_estimate() {
        let e = SelEstimate {
            node: 0,
            rho: 0.3,
            var: 0.01,
            per_leaf_var: vec![0.01],
            leaf_sample_sizes: vec![100],
            source: SelSource::Sampled,
        };
        let d = e.distribution();
        assert_eq!(d.mean(), 0.3);
        assert_eq!(d.var(), 0.01);
        assert_eq!(e.restricted_var(&[0]), 0.01);
        assert_eq!(e.restricted_var(&[]), 0.0);
    }
}
