//! Fit-cache correctness: cached predictions must be **bit-identical** to
//! uncached ones on every workload, and the plan-shape key must collapse
//! literal-perturbed instances of a template onto one entry.

use proptest::prelude::*;
use std::sync::Arc;
use uaq_core::{Prediction, Predictor, PredictorConfig};
use uaq_cost::{calibrate, CalibrationConfig, FitCache, HardwareProfile, NoSelEstCache};
use uaq_engine::{plan_query, Plan, PlanBuilder, Pred};
use uaq_service::SharedFitCache;
use uaq_stats::Rng;
use uaq_storage::{Catalog, SampleCatalog, Value};
use uaq_workloads::Benchmark;

fn setup() -> (Predictor, Catalog, SampleCatalog) {
    let catalog = uaq_datagen::GenConfig::new(0.002, 0.0, 42).build();
    let mut rng = Rng::new(7);
    let units = calibrate(
        &HardwareProfile::pc1(),
        &CalibrationConfig::default(),
        &mut rng,
    );
    let samples = catalog.draw_samples(0.05, 2, &mut rng);
    (
        Predictor::new(units, PredictorConfig::default()),
        catalog,
        samples,
    )
}

/// Exact equality on everything the prediction's distribution is built
/// from — no epsilons anywhere.
fn assert_bit_identical(a: &Prediction, b: &Prediction, what: &str) {
    assert_eq!(a.mean_ms().to_bits(), b.mean_ms().to_bits(), "{what}: mean");
    assert_eq!(a.var().to_bits(), b.var().to_bits(), "{what}: var");
    let (ba, bb) = (&a.breakdown, &b.breakdown);
    assert_eq!(
        ba.unit_variance.to_bits(),
        bb.unit_variance.to_bits(),
        "{what}: unit_variance"
    );
    assert_eq!(
        ba.selectivity_exact.to_bits(),
        bb.selectivity_exact.to_bits(),
        "{what}: selectivity_exact"
    );
    assert_eq!(
        ba.covariance_bounds.to_bits(),
        bb.covariance_bounds.to_bits(),
        "{what}: covariance_bounds"
    );
    assert_eq!(
        ba.interaction.to_bits(),
        bb.interaction.to_bits(),
        "{what}: interaction"
    );
    assert_eq!(a.sel_estimates.len(), b.sel_estimates.len(), "{what}");
    for (ea, eb) in a.sel_estimates.iter().zip(b.sel_estimates.iter()) {
        assert_eq!(ea.rho.to_bits(), eb.rho.to_bits(), "{what}: rho");
        assert_eq!(ea.var.to_bits(), eb.var.to_bits(), "{what}: sel var");
    }
}

/// The golden test of the ISSUE: across MICRO, SELJOIN, and TPCH, a
/// prediction served through the cache — cold (miss + fill) *and* warm
/// (pure hit) — is bit-identical to the uncached reference.
#[test]
fn cached_predictions_bit_identical_on_all_workloads() {
    let (predictor, catalog, samples) = setup();
    let cache = SharedFitCache::default();
    let mut rng = Rng::new(123);
    for benchmark in Benchmark::ALL {
        let instances = match benchmark {
            Benchmark::Micro => 1,
            Benchmark::SelJoin => 1,
            Benchmark::Tpch => 1,
        };
        let specs = benchmark.queries(&catalog, instances, &mut rng);
        for spec in &specs {
            let plan = plan_query(spec, &catalog);
            let reference = predictor.predict(&plan, &catalog, &samples);
            let cold =
                predictor.predict_with_caches(&plan, &catalog, &samples, &cache, &NoSelEstCache);
            let warm =
                predictor.predict_with_caches(&plan, &catalog, &samples, &cache, &NoSelEstCache);
            let label = format!("{}/{}", benchmark.label(), spec.name);
            assert_bit_identical(&reference, &cold, &format!("{label} cold"));
            assert_bit_identical(&reference, &warm, &format!("{label} warm"));
        }
    }
    let stats = cache.stats();
    // Every warm pass must have skipped the grid fits entirely.
    assert!(stats.fit_hits >= stats.fit_misses, "{stats:?}");
    assert!(stats.shapes > 0);
}

/// Literal-perturbed instances of one template must share a cache entry:
/// the second query's `NodeCostContext`s come from the cache even though
/// its literals (and therefore its selectivities and fits) differ.
#[test]
fn literal_perturbed_plans_share_contexts() {
    let (predictor, catalog, samples) = setup();
    let cache = SharedFitCache::default();
    let plan_with_cut = |cut: i64| {
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("lineitem", Pred::lt("l_shipdate", Value::Int(cut)));
        b.build(l)
    };
    let p1 = plan_with_cut(800);
    let p2 = plan_with_cut(2000);
    assert_eq!(p1.shape_signature(), p2.shape_signature());

    predictor.predict_with_caches(&p1, &catalog, &samples, &cache, &NoSelEstCache);
    let stats1 = cache.stats();
    assert_eq!(stats1.context_misses, 1);
    assert_eq!(stats1.shapes, 1);

    let cached = predictor.predict_with_caches(&p2, &catalog, &samples, &cache, &NoSelEstCache);
    let stats2 = cache.stats();
    assert_eq!(stats2.context_hits, 1, "{stats2:?}");
    assert_eq!(stats2.shapes, 1, "one shared shape entry");
    // Different literals ⇒ different selectivities ⇒ the fits themselves
    // miss (they depend on the estimate distributions)…
    assert_eq!(stats2.fit_hits, 0, "{stats2:?}");
    // …and the result still matches an uncached run exactly.
    let reference = predictor.predict(&p2, &catalog, &samples);
    assert_bit_identical(&reference, &cached, "perturbed");
}

/// Random single-scan plans: same structure with different literals always
/// hashes equal (and hits the shape entry); changing the filtered column
/// changes the shape.
fn scan_plan(table: &str, col: &str, cut: i64) -> Plan {
    let mut b = PlanBuilder::new();
    let s = b.seq_scan(table, Pred::lt(col, Value::Int(cut)));
    b.build(s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn structurally_equal_plans_hash_equal(cut_a in 1i64..3000, cut_b in 1i64..3000) {
        let a = scan_plan("lineitem", "l_shipdate", cut_a);
        let b = scan_plan("lineitem", "l_shipdate", cut_b);
        prop_assert_eq!(a.shape_signature(), b.shape_signature());
        prop_assert_eq!(a.shape_hash(), b.shape_hash());
        let c = scan_plan("lineitem", "l_quantity", cut_a);
        prop_assert!(a.shape_signature() != c.shape_signature());
        // The literal key is the complement: equal shape, but injective on
        // the literals the shape masks.
        prop_assert_eq!(
            cut_a == cut_b,
            a.literal_key() == b.literal_key(),
            "literal keys must separate exactly the distinct cuts"
        );
    }

    #[test]
    fn literal_perturbed_joins_hit_the_cache(cut_a in 1i64..4000, cut_b in 1i64..4000) {
        let (predictor, catalog, samples) = small_setup();
        let join = |cut: i64| {
            let mut b = PlanBuilder::new();
            let t = b.seq_scan("t", Pred::lt("b", Value::Int(cut)));
            let u = b.seq_scan("u", Pred::True);
            let j = b.hash_join(t, u, "a", "x");
            Arc::new(b.build(j))
        };
        let cache = SharedFitCache::default();
        predictor.predict_with_caches(&join(cut_a), &catalog, &samples, &cache, &NoSelEstCache);
        predictor.predict_with_caches(&join(cut_b), &catalog, &samples, &cache, &NoSelEstCache);
        let stats = cache.stats();
        prop_assert_eq!(stats.shapes, 1);
        // Second prediction reused the shape entry: a context hit, or —
        // when both cuts produce bit-equal estimates — a full fit hit.
        prop_assert!(stats.context_hits + stats.fit_hits >= 1, "{:?}", stats);
    }
}

/// Cheap hand-built catalog for the per-case property tests (the datagen
/// catalog is too expensive to rebuild dozens of times).
fn small_setup() -> (Predictor, Catalog, SampleCatalog) {
    use uaq_storage::{Column, Schema, Table};
    let mut c = Catalog::new();
    let s = Schema::new(vec![Column::int("a"), Column::int("b")]);
    let rows = (0..4000)
        .map(|i| vec![Value::Int((i % 50) as i64), Value::Int(i as i64)])
        .collect();
    c.add_table(Table::new("t", s, rows));
    let s2 = Schema::new(vec![Column::int("x"), Column::int("y")]);
    let rows2 = (0..2000)
        .map(|i| vec![Value::Int((i % 50) as i64), Value::Int(i as i64)])
        .collect();
    c.add_table(Table::new("u", s2, rows2));
    let mut rng = Rng::new(19);
    let units = calibrate(
        &HardwareProfile::pc2(),
        &CalibrationConfig::default(),
        &mut rng,
    );
    let samples = c.draw_samples(0.05, 1, &mut rng);
    (
        Predictor::new(units, PredictorConfig::default()),
        c,
        samples,
    )
}

/// One cache shared across two *different catalogs* must never cross-serve
/// contexts: the catalog fingerprint in the key separates same-shape plans
/// over different databases, and every prediction still matches its own
/// uncached reference bit-for-bit.
#[test]
fn distinct_catalogs_never_share_entries() {
    use uaq_storage::{Column, Schema, Table};
    let build_catalog = |rows: usize| {
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a"), Column::int("b")]);
        let data = (0..rows)
            .map(|i| vec![Value::Int((i % 50) as i64), Value::Int(i as i64)])
            .collect();
        c.add_table(Table::new("t", s, data));
        c
    };
    let big = build_catalog(8000);
    let small = build_catalog(2000);
    assert_ne!(big.fingerprint(), small.fingerprint());

    let mut rng = Rng::new(29);
    let units = calibrate(
        &HardwareProfile::pc1(),
        &CalibrationConfig::default(),
        &mut rng,
    );
    let predictor = Predictor::new(units, PredictorConfig::default());
    let samples_big = big.draw_samples(0.05, 1, &mut rng);
    let samples_small = small.draw_samples(0.05, 1, &mut rng);
    let plan = scan_plan("t", "b", 1000);

    let cache = SharedFitCache::default();
    let on_big = predictor.predict_with_caches(&plan, &big, &samples_big, &cache, &NoSelEstCache);
    let on_small =
        predictor.predict_with_caches(&plan, &small, &samples_small, &cache, &NoSelEstCache);
    // Same plan shape, two catalogs: two separate cache entries…
    assert_eq!(cache.stats().shapes, 2, "{:?}", cache.stats());
    assert_eq!(cache.stats().context_hits, 0, "{:?}", cache.stats());
    // …and each result identical to its own uncached reference.
    assert_bit_identical(
        &predictor.predict(&plan, &big, &samples_big),
        &on_big,
        "big catalog",
    );
    assert_bit_identical(
        &predictor.predict(&plan, &small, &samples_small),
        &on_small,
        "small catalog",
    );
}

/// The cache trait surface stays usable through a `&dyn` object (the
/// predictor takes `&dyn FitCache`).
#[test]
fn works_through_dyn_object() {
    let (predictor, catalog, samples) = setup();
    let cache = SharedFitCache::default();
    let dyn_cache: &dyn FitCache = &cache;
    let plan = scan_plan("customer", "c_acctbal", 500);
    let a = predictor.predict_with_caches(&plan, &catalog, &samples, dyn_cache, &NoSelEstCache);
    let b = predictor.predict_with_caches(&plan, &catalog, &samples, dyn_cache, &NoSelEstCache);
    assert_bit_identical(&a, &b, "dyn");
    assert_eq!(cache.stats().fit_hits, 1);
}
