//! Cost-function fitting (§4.2).
//!
//! The predictor treats the optimizer cost model as a black box: it picks
//! selectivity points on the `[μ − 3σ, μ + 3σ]` interval (where ≈ 99.7% of
//! the estimate's mass lives), invokes the model there, and solves the
//! non-negative least-squares problem `min ‖Ab − y‖, b ≥ 0` for the logical
//! form's coefficients — the paper uses Scilab's `qpsolve`; we use our
//! Lawson–Hanson NNLS (see `uaq_stats::nnls`).

use crate::logical::{CostForm, FittedCost};
use crate::oracle::NodeCostContext;
use crate::units::{CostUnit, UnitCounts};
use uaq_stats::{Gram, Matrix, Normal};

/// Fitting knobs.
#[derive(Debug, Clone, Copy)]
pub struct FitConfig {
    /// Number of grid subintervals `W` (§4.2): `W + 1` points per variable.
    /// Must be ≥ 1 ([`grid_points`] asserts it); `Predictor::new` clamps a
    /// zero to 1, so a mis-set serving config predicts instead of panicking
    /// in every worker.
    pub grid_w: usize,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self { grid_w: 8 }
    }
}

/// The `W + 1` boundary points of `[μ − 3σ, μ + 3σ] ∩ [0, 1]`, widened to a
/// small relative interval when the variance is (near) zero so the fit still
/// sees the local shape of the function.
pub fn grid_points(x: &Normal, w: usize) -> Vec<f64> {
    assert!(w >= 1);
    let (mut lo, mut hi) = (
        (x.mean() - 3.0 * x.std_dev()).max(0.0),
        (x.mean() + 3.0 * x.std_dev()).min(1.0),
    );
    if hi - lo < 1e-12 {
        lo = (x.mean() * 0.9).max(0.0);
        hi = (x.mean() * 1.1).min(1.0);
    }
    if hi - lo < 1e-12 {
        // Mean is (near) zero with zero variance: probe a sliver above zero.
        hi = (lo + 1e-9).min(1.0);
    }
    (0..=w)
        .map(|i| lo + (hi - lo) * i as f64 / w as f64)
        .collect()
}

/// Probe points of one grid category with the oracle's counts at each
/// point — computed once per operator and shared by every cost unit whose
/// form reads the same variables (the oracle returns all five units per
/// probe, so probing per-unit would repeat identical work five times).
struct Probes {
    /// `(xl, xr, own)` per probe point.
    points: Vec<(f64, f64, f64)>,
    counts: Vec<UnitCounts>,
}

fn probe(ctx: &NodeCostContext, points: Vec<(f64, f64, f64)>) -> Probes {
    let counts = points
        .iter()
        .map(|&(pl, pr, po)| ctx.counts(pl, pr, po))
        .collect();
    Probes { points, counts }
}

/// The design matrix of `form` over the probe points, column-scaled, with
/// the scales (1 past the form's arity).
///
/// Column scaling: selectivities can be ~1e-9 while the intercept column
/// is 1, which would wreck the normal equations' conditioning. NNLS is
/// scale-covariant under positive column scaling, so the fits solve the
/// scaled problem and unscale the coefficients.
fn scaled_design(form: CostForm, points: &[(f64, f64, f64)]) -> (Matrix, [f64; 4]) {
    // One flat design matrix, no per-row allocation.
    let cols = form.arity();
    let mut data = Vec::with_capacity(points.len() * cols);
    for &(pl, pr, po) in points {
        form.design_row_into(pl, pr, po, &mut data);
    }
    let mut scale = [0.0f64; 4];
    for row in data.chunks_exact(cols) {
        for (s, v) in scale.iter_mut().zip(row) {
            *s = s.max(v.abs());
        }
    }
    for s in &mut scale {
        if *s == 0.0 {
            *s = 1.0;
        }
    }
    for row in data.chunks_exact_mut(cols) {
        for (v, s) in row.iter_mut().zip(&scale) {
            *v /= s;
        }
    }
    (Matrix::from_flat(data, cols), scale)
}

/// Fits the cost function of one (operator, cost-unit) pair: one slot of
/// [`fit_node`]. Returns `None` when the operator never exercises the unit.
pub fn fit_cost_function(
    ctx: &NodeCostContext,
    unit: CostUnit,
    xl: &Normal,
    xr: &Normal,
    own: &Normal,
    config: &FitConfig,
) -> Option<FittedCost> {
    let fits = fit_node(ctx, xl, xr, own, config);
    fits.into_iter().nth(unit.idx()).flatten()
}

/// Probe points for a form's grid category (§4.2).
fn grid_for_form(
    form: CostForm,
    xl: &Normal,
    xr: &Normal,
    own: &Normal,
    config: &FitConfig,
) -> Vec<(f64, f64, f64)> {
    if form.uses_right() {
        // Binary: (W+1) × (W+1) grid over I_l × I_r.
        let gl = grid_points(xl, config.grid_w);
        let gr = grid_points(xr, config.grid_w);
        let mut out = Vec::with_capacity(gl.len() * gr.len());
        for &pl in &gl {
            for &pr in &gr {
                out.push((pl, pr, 0.0));
            }
        }
        out
    } else if form.uses_own() {
        grid_points(own, config.grid_w)
            .into_iter()
            .map(|p| (0.0, 0.0, p))
            .collect()
    } else {
        grid_points(xl, config.grid_w)
            .into_iter()
            .map(|p| (p, 0.0, 0.0))
            .collect()
    }
}

/// Grid category of a form, used to share probes between units.
fn grid_category(form: CostForm) -> u8 {
    if form.uses_right() {
        0
    } else if form.uses_own() {
        1
    } else {
        2
    }
}

/// Fits all five unit functions of one operator. Oracle probes are shared
/// across units with the same grid category (one `counts()` call yields all
/// five unit values, so each distinct grid is walked exactly once), and the
/// scaled design matrix and its normal equations across units with the same
/// form: a scan's `c_t`/`c_o`, a join's two C6' fits or an index scan's four
/// C2' fits differ only in the right-hand side, so each costs one `Aᵀy` and
/// one 4 × 4 active-set solve on top of the form's single design + Gram.
pub fn fit_node(
    ctx: &NodeCostContext,
    xl: &Normal,
    xr: &Normal,
    own: &Normal,
    config: &FitConfig,
) -> [Option<FittedCost>; 5] {
    let forms = CostUnit::ALL.map(|unit| ctx.form_for(unit));
    let mut cached: [Option<Probes>; 3] = [None, None, None];
    let mut fits: [Option<FittedCost>; 5] = [None, None, None, None, None];
    let mut y = Vec::new();
    for (first, &form) in forms.iter().enumerate() {
        let Some(form) = form else { continue };
        // A form's first unit fits every unit that shares it.
        if forms.iter().take(first).any(|&f| f == Some(form)) {
            continue;
        }
        let sharing = (CostUnit::ALL.iter().zip(&forms).zip(&mut fits))
            .filter(|((_, &f), _)| f == Some(form))
            .map(|((&unit, _), slot)| (unit, slot));
        if form == CostForm::Const {
            for (unit, slot) in sharing {
                let value = ctx.counts(xl.mean(), xr.mean(), own.mean())[unit];
                *slot = Some(FittedCost::constant(value));
            }
            continue;
        }
        let probes = cached[grid_category(form) as usize]
            .get_or_insert_with(|| probe(ctx, grid_for_form(form, xl, xr, own, config)));
        let (design, scale) = scaled_design(form, &probes.points);
        let gram = Gram::new(&design);
        for (unit, slot) in sharing {
            y.clear();
            y.extend(probes.counts.iter().map(|c| c[unit]));
            let mut b = gram.solve(&y);
            for (coeff, s) in b.iter_mut().zip(&scale) {
                *coeff /= s;
            }
            *slot = Some(FittedCost { form, b });
        }
    }
    fits
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_engine::{PlanBuilder, Pred, SortOrder};
    use uaq_storage::{Catalog, Column, Schema, Table, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a"), Column::int("b")]);
        let rows = (0..6400)
            .map(|i| vec![Value::Int(i % 80), Value::Int(i)])
            .collect();
        c.add_table(Table::new("t", s, rows));
        let s2 = Schema::new(vec![Column::int("x")]);
        let rows2 = (0..3200).map(|i| vec![Value::Int(i % 80)]).collect();
        c.add_table(Table::new("u", s2, rows2));
        c
    }

    #[test]
    fn grid_stays_in_unit_interval_and_covers_3sigma() {
        let x = Normal::new(0.5, 0.01);
        let pts = grid_points(&x, 8);
        assert_eq!(pts.len(), 9);
        assert!((pts[0] - 0.2).abs() < 1e-12);
        assert!((pts[8] - 0.8).abs() < 1e-12);
        let tight = grid_points(&Normal::new(0.99, 0.01), 4);
        assert!(tight.iter().all(|&p| p <= 1.0));
        let degenerate = grid_points(&Normal::point(0.4), 4);
        assert!(degenerate.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn linear_forms_are_recovered_exactly() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::True);
        let j = b.hash_join(l, r, "a", "x");
        let plan = b.build(j);
        let ctx = NodeCostContext::build(&plan, j, &c);
        let xl = Normal::new(0.4, 0.003);
        let xr = Normal::new(0.5, 0.002);
        let fit = fit_cost_function(
            &ctx,
            CostUnit::CpuTuple,
            &xl,
            &xr,
            &Normal::point(0.0),
            &FitConfig::default(),
        )
        .expect("hash join exercises c_t");
        // Oracle: n_t = Nl + Nr = 6400·Xl + 3200·Xr — a C5' exactly.
        for (pl, pr) in [(0.3, 0.4), (0.45, 0.55), (0.5, 0.5)] {
            let truth = ctx.counts(pl, pr, 0.0)[CostUnit::CpuTuple];
            assert!(
                (fit.eval(pl, pr, 0.0) - truth).abs() / truth < 1e-6,
                "fit {} vs oracle {truth}",
                fit.eval(pl, pr, 0.0)
            );
        }
    }

    #[test]
    fn nl_join_product_form_recovered() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let l = b.seq_scan("t", Pred::True);
        let r = b.seq_scan("u", Pred::True);
        let j = b.nl_join(l, r, "a", "x");
        let plan = b.build(j);
        let ctx = NodeCostContext::build(&plan, j, &c);
        let xl = Normal::new(0.2, 0.001);
        let xr = Normal::new(0.3, 0.001);
        let fit = fit_cost_function(
            &ctx,
            CostUnit::CpuOp,
            &xl,
            &xr,
            &Normal::point(0.0),
            &FitConfig::default(),
        )
        .expect("nl join exercises c_o");
        let truth = ctx.counts(0.25, 0.35, 0.0)[CostUnit::CpuOp];
        assert!((fit.eval(0.25, 0.35, 0.0) - truth).abs() / truth < 1e-6);
        assert_eq!(fit.form, CostForm::ProductBoth);
    }

    #[test]
    fn sort_nlogn_fits_quadratic_within_interval() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::True);
        let srt = b.sort(s, vec![("b".into(), SortOrder::Asc)]);
        let plan = b.build(srt);
        let ctx = NodeCostContext::build(&plan, srt, &c);
        let xl = Normal::new(0.5, 0.004);
        let fit = fit_cost_function(
            &ctx,
            CostUnit::CpuOp,
            &xl,
            &Normal::point(0.0),
            &Normal::point(0.0),
            &FitConfig::default(),
        )
        .expect("sort exercises c_o");
        assert_eq!(fit.form, CostForm::QuadLeft);
        // Inside the 3σ interval the quadratic approximation of N log N is
        // accurate to well under 1%.
        for p in [0.4, 0.5, 0.6] {
            let truth = ctx.counts(p, 0.0, 0.0)[CostUnit::CpuOp];
            let rel = (fit.eval(p, 0.0, 0.0) - truth).abs() / truth;
            assert!(rel < 0.01, "rel err {rel} at X={p}");
        }
    }

    #[test]
    fn tiny_selectivities_stay_numerically_stable() {
        // Join-output selectivities can be ~1e-6 or less; the column-scaled
        // NNLS must not blow up.
        let c = catalog();
        let mut b = PlanBuilder::new();
        let s = b.index_scan("t", "b", Pred::lt("b", Value::Int(6)));
        let plan = b.build(s);
        let ctx = NodeCostContext::build(&plan, s, &c);
        let own = Normal::new(1e-6, 1e-14);
        let fit = fit_cost_function(
            &ctx,
            CostUnit::RandPage,
            &Normal::point(0.0),
            &Normal::point(0.0),
            &own,
            &FitConfig::default(),
        )
        .expect("index scan does random I/O");
        let truth = ctx.counts(0.0, 0.0, 1e-6)[CostUnit::RandPage];
        assert!(
            (fit.eval(0.0, 0.0, 1e-6) - truth).abs() <= truth * 1e-3 + 1e-9,
            "fit {} vs truth {truth}",
            fit.eval(0.0, 0.0, 1e-6)
        );
    }

    /// The per-unit definition of one slot: that unit's own probes, its own
    /// scaled design matrix, the public one-shot `nnls`.
    fn fit_unit_alone(
        ctx: &NodeCostContext,
        unit: CostUnit,
        (xl, xr, own): (&Normal, &Normal, &Normal),
        config: &FitConfig,
    ) -> Option<FittedCost> {
        let form = ctx.form_for(unit)?;
        if form == CostForm::Const {
            let value = ctx.counts(xl.mean(), xr.mean(), own.mean())[unit];
            return Some(FittedCost::constant(value));
        }
        let points = grid_for_form(form, xl, xr, own, config);
        let mut rows: Vec<Vec<f64>> = points
            .iter()
            .map(|&(pl, pr, po)| form.design_row(pl, pr, po))
            .collect();
        let scale: Vec<f64> = (0..form.arity())
            .map(|c| rows.iter().fold(0.0f64, |s, row| s.max(row[c].abs())))
            .map(|s| if s == 0.0 { 1.0 } else { s })
            .collect();
        for row in &mut rows {
            for (v, s) in row.iter_mut().zip(&scale) {
                *v /= s;
            }
        }
        let y: Vec<f64> = points
            .iter()
            .map(|&(pl, pr, po)| ctx.counts(pl, pr, po)[unit])
            .collect();
        let solution = uaq_stats::nnls(&Matrix::from_rows(rows), &y);
        let coeffs: Vec<f64> = solution.x.iter().zip(&scale).map(|(b, s)| b / s).collect();
        Some(FittedCost::new(form, &coeffs))
    }

    #[test]
    fn shared_design_fits_equal_per_unit_fits_bit_for_bit() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let seq = b.seq_scan("t", Pred::lt("b", Value::Int(900)));
        let idx = b.index_scan("u", "x", Pred::lt("x", Value::Int(40)));
        let filter = b.filter(seq, Pred::lt("a", Value::Int(40)));
        let sort = b.sort(filter, vec![("b".into(), SortOrder::Asc)]);
        let mat = b.materialize(idx);
        let hash = b.hash_join(sort, mat, "a", "x");
        let seq2 = b.seq_scan("u", Pred::True);
        let nl = b.nl_join(hash, seq2, "a", "x");
        let agg = b.aggregate(
            nl,
            vec!["a".into()],
            vec![("cnt".into(), uaq_engine::AggFunc::CountStar)],
        );
        let plan = b.build(agg);
        let kinds = [seq, idx, filter, sort, mat, hash, nl, agg];

        let dists = [
            Normal::new(0.4, 0.003),
            Normal::new(1e-6, 1e-14),
            // Degenerate: zero variance (at an interior mean, at 0, at 1).
            Normal::point(0.4),
            Normal::point(0.0),
            Normal::point(1.0),
            Normal::new(0.0, 0.0004),
            Normal::new(1.0, 0.0004),
            // σ wide enough that [μ ± 3σ] clamps at 0, at 1, at both.
            Normal::new(0.05, 0.01),
            Normal::new(0.95, 0.01),
            Normal::new(0.5, 0.25),
        ];
        let mut slots = 0;
        for &id in &kinds {
            let ctx = NodeCostContext::build(&plan, id, &c);
            for grid_w in [1usize, 4, 8, 16] {
                let config = FitConfig { grid_w };
                for (i, xl) in dists.iter().enumerate() {
                    // Pair every left distribution with two others.
                    let xr = &dists[(i + 3) % dists.len()];
                    let own = &dists[(i + 7) % dists.len()];
                    let fits = fit_node(&ctx, xl, xr, own, &config);
                    for unit in CostUnit::ALL {
                        let alone = fit_unit_alone(&ctx, unit, (xl, xr, own), &config);
                        let shared = &fits[unit.idx()];
                        assert_eq!(
                            shared.as_ref().map(|f| (f.form, f.b.map(f64::to_bits))),
                            alone.as_ref().map(|f| (f.form, f.b.map(f64::to_bits))),
                            "{} {unit} W={grid_w} xl={xl:?} xr={xr:?} own={own:?}: \
                             {shared:?} vs {alone:?}",
                            plan.op(id).name()
                        );
                        assert_eq!(fit_cost_function(&ctx, unit, xl, xr, own, &config), *shared);
                        slots += usize::from(shared.is_some());
                    }
                }
            }
        }
        // 8 operators × 4 widths × 10 distribution triples; 2–4 live units each.
        assert!(slots >= 8 * 4 * 10 * 2, "{slots}");
    }

    #[test]
    fn unused_units_fit_to_none() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::True);
        let plan = b.build(s);
        let ctx = NodeCostContext::build(&plan, s, &c);
        let fits = fit_node(
            &ctx,
            &Normal::point(0.0),
            &Normal::point(0.0),
            &Normal::new(0.5, 0.01),
            &FitConfig::default(),
        );
        assert!(fits[CostUnit::RandPage.idx()].is_none());
        assert!(fits[CostUnit::CpuIndex.idx()].is_none());
        assert!(fits[CostUnit::SeqPage.idx()].is_some());
    }

    #[test]
    fn coefficients_are_nonnegative() {
        let c = catalog();
        let mut b = PlanBuilder::new();
        let s = b.seq_scan("t", Pred::True);
        let srt = b.sort(s, vec![("b".into(), SortOrder::Asc)]);
        let plan = b.build(srt);
        let ctx = NodeCostContext::build(&plan, srt, &c);
        let fit = fit_cost_function(
            &ctx,
            CostUnit::CpuOp,
            &Normal::new(0.3, 0.01),
            &Normal::point(0.0),
            &Normal::point(0.0),
            &FitConfig::default(),
        )
        .expect("fit");
        assert!(fit.b.iter().all(|&b| b >= 0.0), "{:?}", fit.b);
    }
}
