//! Property-based tests for the selectivity estimator and covariance bounds.

use proptest::prelude::*;
use uaq_engine::{execute_full, execute_on_samples, PlanBuilder, Pred};
use uaq_selest::{
    cov_bounds, estimate_selectivities, shared_leaves, AggCardinalitySource, SelEstimates,
    SelSource,
};
use uaq_stats::Rng;
use uaq_storage::{Catalog, Column, Schema, Table, Value};

fn catalog(t: &[(i64, i64)], u: &[(i64, i64)]) -> Catalog {
    let mut c = Catalog::new();
    let ts = Schema::new(vec![Column::int("a"), Column::int("b")]);
    c.add_table(Table::new(
        "t",
        ts,
        t.iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect(),
    ));
    let us = Schema::new(vec![Column::int("x"), Column::int("y")]);
    c.add_table(Table::new(
        "u",
        us,
        u.iter()
            .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)])
            .collect(),
    ));
    c
}

fn rows_strategy(min: usize, max: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..6, 0i64..40), min..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn estimates_are_valid_probabilities(
        t in rows_strategy(8, 120),
        u in rows_strategy(8, 80),
        seed in any::<u64>(),
        cut in 0i64..40,
    ) {
        let c = catalog(&t, &u);
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t", Pred::lt("b", Value::Int(cut)));
        let r = b.seq_scan("u", Pred::True);
        let j = b.hash_join(l, r, "a", "x");
        let plan = b.build(j);
        let mut rng = Rng::new(seed);
        let samples = c.draw_samples(0.5, 1, &mut rng);
        let out = execute_on_samples(&plan, &samples);
        let est = estimate_selectivities(&plan, &out, &samples, &c);
        for e in &est {
            prop_assert!((0.0..=1.0).contains(&e.rho), "rho {}", e.rho);
            prop_assert!(e.var >= 0.0);
            prop_assert!(e.per_leaf_var.iter().all(|&v| v >= 0.0));
            let sum: f64 = e.per_leaf_var.iter().sum();
            prop_assert!((sum - e.var).abs() <= 1e-12 + 1e-9 * e.var);
            prop_assert_eq!(e.source, SelSource::Sampled);
        }
    }

    #[test]
    fn scan_matches_closed_form(
        t in rows_strategy(8, 150),
        seed in any::<u64>(),
        cut in 0i64..40,
    ) {
        // The paper's closed form for selections: S_n² with the exact (n−1)
        // denominator; our generic Q-map path must reproduce it.
        let c = catalog(&t, &[(0, 0)]);
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::lt("b", Value::Int(cut)));
        let plan = b.build(s);
        let mut rng = Rng::new(seed);
        let samples = c.draw_samples(0.6, 1, &mut rng);
        let out = execute_on_samples(&plan, &samples);
        let est = &estimate_selectivities(&plan, &out, &samples, &c)[0];
        let n = samples.sample("t", 0).len() as f64;
        let m = out.traces[0].output_rows as f64;
        if m > 0.0 {
            let rho = m / n;
            let s2 = ((n - m) * rho * rho + m * (1.0 - rho) * (1.0 - rho)) / (n - 1.0);
            prop_assert!((est.rho - rho).abs() < 1e-12);
            prop_assert!((est.var - s2 / n).abs() < 1e-12);
        } else {
            // Smoothed zero: half a pseudo-occurrence, σ = 2ρ.
            prop_assert!((est.rho - 0.5 / n).abs() < 1e-15);
            prop_assert!((est.var.sqrt() - 2.0 * est.rho).abs() < 1e-15);
        }
    }

    #[test]
    fn bound_ordering_b1_le_b2(
        t in rows_strategy(10, 100),
        u in rows_strategy(10, 80),
        seed in any::<u64>(),
    ) {
        let c = catalog(&t, &u);
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t", Pred::lt("b", Value::Int(20)));
        let r = b.seq_scan("u", Pred::True);
        let j = b.hash_join(l, r, "a", "x");
        let plan = b.build(j);
        let mut rng = Rng::new(seed);
        let samples = c.draw_samples(0.4, 1, &mut rng);
        let out = execute_on_samples(&plan, &samples);
        let est = estimate_selectivities(&plan, &out, &samples, &c);
        let shared = shared_leaves(&plan, l, j).expect("scan under join");
        let bounds = cov_bounds(&est[l], &est[j], &shared);
        prop_assert!(bounds.b1 <= bounds.b2 + 1e-15, "B1 {} > B2 {}", bounds.b1, bounds.b2);
        prop_assert!(bounds.b1 >= 0.0 && bounds.b2 >= 0.0 && bounds.b3 >= 0.0);
        prop_assert!(bounds.tightest() <= bounds.b1 + 1e-15);
    }

    #[test]
    fn join_estimator_is_unbiased_in_expectation(
        t in rows_strategy(30, 120),
        u in rows_strategy(30, 80),
        seed in any::<u64>(),
    ) {
        // Average ρ_n over several independent sample sets should approach
        // the true selectivity (strong consistency / unbiasedness of the
        // Haas estimator). With 12 sample sets we allow a loose tolerance.
        let c = catalog(&t, &u);
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::True);
        let j = b.hash_join(l, r, "a", "x");
        let plan = b.build(j);
        let truth = {
            let out = execute_full(&plan, &c);
            out.traces[j].output_rows as f64 / (t.len() as f64 * u.len() as f64)
        };
        let mut rng = Rng::new(seed);
        let mut sum = 0.0;
        let reps = 12;
        for _ in 0..reps {
            let samples = c.draw_samples(0.5, 1, &mut rng);
            let out = execute_on_samples(&plan, &samples);
            sum += estimate_selectivities(&plan, &out, &samples, &c)[j].rho;
        }
        let mean = sum / reps as f64;
        // Loose statistical check: within 50% relative or 0.02 absolute.
        prop_assert!(
            (mean - truth).abs() < (0.5 * truth).max(0.02),
            "mean {mean} vs truth {truth}"
        );
    }
}

/// A sample table's join index lives in the table and dies with it. The
/// regression this pins: an index cache keyed by column address served
/// catalog A's index to catalog B after A was dropped and B's columns were
/// allocated at the same addresses, silently shifting B's estimates.
#[test]
fn a_dropped_catalogs_join_index_never_leaks_into_the_next() {
    let rows = |n: i64, m: i64| (0..n).map(|i| (i % m, i)).collect::<Vec<_>>();
    let c = catalog(&rows(400, 7), &rows(300, 5));
    let mut b = PlanBuilder::new();
    let l = b.seq_scan("t", Pred::lt("b", Value::Int(300)));
    let r = b.seq_scan("u", Pred::ge("y", Value::Int(20)));
    let j = b.hash_join(l, r, "a", "x");
    let plan = b.build(j);
    let estimate = |seed: u64| {
        let samples = c.draw_samples(0.25, 1, &mut Rng::new(seed));
        SelEstimates::compute(&plan, &samples, &c, AggCardinalitySource::Optimizer)
            .canonical_bytes()
    };
    for (seed_a, seed_b) in [(1, 2), (3, 4), (5, 6), (7, 8)] {
        let b_only = estimate(seed_b);
        // Draw A, predict, drop A; draw B (same shapes and sizes, so the
        // allocator tends to hand back A's addresses), predict.
        let a = estimate(seed_a);
        let b_after_a = estimate(seed_b);
        assert_ne!(a, b_only, "different draws must differ");
        assert_eq!(b_after_a, b_only, "seeds {seed_a} then {seed_b}");
    }
}
