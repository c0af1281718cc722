//! The sample pass factored behind a cacheable value object.
//!
//! A prediction's selectivity estimates are a pure function of
//! `(plan, samples, catalog, aggregate-cardinality source)`: the
//! provenance-tracked execution over the sample tables is deterministic,
//! and Algorithm 1's `ρ_n`/`S_n²` arithmetic visits provenance in index
//! order. [`SelEstimates`] packages the result of that pass as an
//! immutable, `Arc`-backed value that can be stored in a cache, cloned in
//! O(1), and re-fed to the rest of the prediction pipeline **bit-exactly**
//! — the foundation of the serving layer's selectivity-estimate cache,
//! which skips the sample pass entirely for repeated query instances.

use crate::estimator::{estimate_selectivities_with, AggCardinalitySource, SelEstimate, SelSource};
use std::ops::Deref;
use std::sync::Arc;
use uaq_engine::{execute_on_samples, Plan};
use uaq_stats::Normal;
use uaq_storage::{Catalog, SampleCatalog};

/// All per-operator selectivity estimates of one plan, shareable and
/// immutable. Derefs to `[SelEstimate]`, so consumers index and iterate it
/// like the plain vector it replaces.
#[derive(Debug, Clone)]
pub struct SelEstimates {
    estimates: Arc<Vec<SelEstimate>>,
}

impl SelEstimates {
    /// Runs the provenance-tracked sample pass (`execute_on_samples`) and
    /// Algorithm 1 end-to-end. Pure: this crate never reads the clock, so
    /// the result is a function of its inputs alone. Wall-clock cost of
    /// the stage — the numerator of the paper's relative-overhead metric —
    /// is captured by callers through `uaq_telemetry::span` when a
    /// recorder is active.
    pub fn compute(
        plan: &Plan,
        samples: &SampleCatalog,
        catalog: &Catalog,
        agg_source: AggCardinalitySource,
    ) -> Self {
        let outcome = execute_on_samples(plan, samples);
        let estimates = estimate_selectivities_with(plan, &outcome, samples, catalog, agg_source);
        Self::from_vec(estimates)
    }

    /// Wraps an already-computed estimate vector.
    pub fn from_vec(estimates: Vec<SelEstimate>) -> Self {
        Self {
            estimates: Arc::new(estimates),
        }
    }

    /// The per-node selectivity distributions `X ~ N(ρ_n, σ_n²)` in node
    /// order — the input of the fitting stage and the fit-cache signature.
    pub fn distributions(&self) -> Vec<Normal> {
        self.estimates.iter().map(|e| e.distribution()).collect()
    }

    /// A copy with every variance component zeroed (the predictor's
    /// "No Var\[X\]" ablation). Deep-copies the vector: the ablation must not
    /// contaminate a cached value other predictions share.
    pub fn with_zero_variance(&self) -> Self {
        let mut estimates = (*self.estimates).clone();
        for e in &mut estimates {
            e.var = 0.0;
            for v in &mut e.per_leaf_var {
                *v = 0.0;
            }
        }
        Self::from_vec(estimates)
    }

    /// True if both values share one allocation — the property a cache hit
    /// guarantees (stronger than equality; used by tests to prove the
    /// sample pass was actually skipped, not recomputed equal).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.estimates, &other.estimates)
    }

    /// Canonical byte encoding of every field of every estimate, floats as
    /// IEEE-754 bit patterns. Two values with equal bytes are bit-identical
    /// inputs to the rest of the pipeline; the differential test harness
    /// compares these directly.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.estimates.len() * 64);
        for e in self.estimates.iter() {
            out.extend_from_slice(&(e.node as u64).to_le_bytes());
            out.extend_from_slice(&e.rho.to_bits().to_le_bytes());
            out.extend_from_slice(&e.var.to_bits().to_le_bytes());
            out.extend_from_slice(&(e.per_leaf_var.len() as u64).to_le_bytes());
            for v in &e.per_leaf_var {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            out.extend_from_slice(&(e.leaf_sample_sizes.len() as u64).to_le_bytes());
            for &n in &e.leaf_sample_sizes {
                out.extend_from_slice(&(n as u64).to_le_bytes());
            }
            out.push(match e.source {
                SelSource::Sampled => 0,
                SelSource::PassThrough => 1,
                SelSource::OptimizerFallback => 2,
            });
        }
        out
    }
}

impl Deref for SelEstimates {
    type Target = [SelEstimate];

    fn deref(&self) -> &[SelEstimate] {
        &self.estimates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_engine::{PlanBuilder, Pred};
    use uaq_stats::Rng;
    use uaq_storage::{Column, Schema, Table, Value};

    fn setup() -> (Catalog, SampleCatalog, Plan) {
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a"), Column::int("b")]);
        let rows = (0..2000)
            .map(|i| vec![Value::Int((i % 20) as i64), Value::Int(i as i64)])
            .collect();
        c.add_table(Table::new("t", s, rows));
        let mut rng = Rng::new(3);
        let samples = c.draw_samples(0.1, 1, &mut rng);
        let mut b = PlanBuilder::new();
        let t = b.seq_scan("t", Pred::lt("b", Value::Int(600)));
        let plan = b.build(t);
        (c, samples, plan)
    }

    #[test]
    fn compute_matches_direct_estimation() {
        let (c, samples, plan) = setup();
        let est = SelEstimates::compute(&plan, &samples, &c, AggCardinalitySource::Optimizer);
        let outcome = execute_on_samples(&plan, &samples);
        let direct = estimate_selectivities_with(
            &plan,
            &outcome,
            &samples,
            &c,
            AggCardinalitySource::Optimizer,
        );
        assert_eq!(est.len(), direct.len());
        for (a, b) in est.iter().zip(&direct) {
            assert_eq!(a.rho.to_bits(), b.rho.to_bits());
            assert_eq!(a.var.to_bits(), b.var.to_bits());
        }
        // Recomputing is deterministic down to the bytes.
        let again = SelEstimates::compute(&plan, &samples, &c, AggCardinalitySource::Optimizer);
        assert_eq!(est.canonical_bytes(), again.canonical_bytes());
        assert!(!est.ptr_eq(&again));
    }

    #[test]
    fn clones_share_the_allocation() {
        let (c, samples, plan) = setup();
        let est = SelEstimates::compute(&plan, &samples, &c, AggCardinalitySource::Optimizer);
        let clone = est.clone();
        assert!(est.ptr_eq(&clone));
        assert_eq!(est.canonical_bytes(), clone.canonical_bytes());
    }

    #[test]
    fn zero_variance_copy_leaves_original_untouched() {
        let (c, samples, plan) = setup();
        let est = SelEstimates::compute(&plan, &samples, &c, AggCardinalitySource::Optimizer);
        assert!(est[0].var > 0.0);
        let zeroed = est.with_zero_variance();
        assert!(!est.ptr_eq(&zeroed));
        assert_eq!(zeroed[0].var, 0.0);
        assert!(zeroed[0].per_leaf_var.iter().all(|&v| v == 0.0));
        assert!(est[0].var > 0.0, "original must be unchanged");
        assert_eq!(est[0].rho.to_bits(), zeroed[0].rho.to_bits());
    }

    #[test]
    fn canonical_bytes_reflect_every_field() {
        let base = SelEstimates::from_vec(vec![SelEstimate {
            node: 0,
            rho: 0.5,
            var: 0.01,
            per_leaf_var: vec![0.01],
            leaf_sample_sizes: vec![100],
            source: SelSource::Sampled,
        }]);
        let tweak = |f: &mut dyn FnMut(&mut SelEstimate)| {
            let mut e = base[0].clone();
            f(&mut e);
            SelEstimates::from_vec(vec![e]).canonical_bytes()
        };
        let b = base.canonical_bytes();
        assert_ne!(b, tweak(&mut |e| e.rho = 0.6));
        assert_ne!(b, tweak(&mut |e| e.var = 0.02));
        assert_ne!(b, tweak(&mut |e| e.per_leaf_var[0] = 0.02));
        assert_ne!(b, tweak(&mut |e| e.leaf_sample_sizes[0] = 99));
        assert_ne!(b, tweak(&mut |e| e.source = SelSource::PassThrough));
        // -0.0 vs 0.0 rho: distinct bit patterns are distinct bytes.
        assert_ne!(tweak(&mut |e| e.rho = 0.0), tweak(&mut |e| e.rho = -0.0));
    }
}
