//! Non-negative least squares (Lawson–Hanson active set method).
//!
//! The paper fits the coefficients `b` of the logical cost functions by
//! solving `min ‖Ab − y‖ s.t. b ≥ 0` with Scilab's `qpsolve` (§4.2, noting
//! that "other equivalent solvers could also be used"). Our problems are tiny
//! (≤ 4 unknowns, tens of rows) so a dense active-set solver is exact and
//! fast: it works from the normal equations in fixed-size storage ([`Gram`]),
//! off the heap, and one design's normal equations serve every right-hand
//! side fitted against it. [`nnls`] is the one-shot entry point.

/// Dense row-major matrix, only what NNLS needs.
#[derive(Debug, Clone)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "empty matrix");
        let cols = rows[0].len();
        assert!(cols > 0, "zero-column matrix");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in &rows {
            assert_eq!(r.len(), cols, "ragged matrix rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from flat row-major data with `cols` columns.
    pub fn from_flat(data: Vec<f64>, cols: usize) -> Self {
        assert!(cols > 0, "zero-column matrix");
        assert_eq!(data.len() % cols, 0, "flat data not a multiple of cols");
        assert!(!data.is_empty(), "empty matrix");
        Self {
            rows: data.len() / cols,
            cols,
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// `A x` for a dense vector `x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|r| {
                let row = &self.data[r * self.cols..(r + 1) * self.cols];
                row.iter().zip(x).map(|(a, b)| a * b).sum()
            })
            .collect()
    }
}

/// Most unknowns a [`Gram`] holds: C6' (`X_l·X_r, X_l, X_r, 1`) is the
/// largest logical form.
const MAX_UNKNOWNS: usize = 4;

type Vec4 = [f64; MAX_UNKNOWNS];
type Mat4 = [Vec4; MAX_UNKNOWNS];

/// The normal equations of one design matrix, in fixed-size storage: the
/// Gram matrix `G = AᵀA` and what the solver's tolerance needs of `A`. Built
/// once per design and shared by every right-hand side solved against it
/// ([`Gram::solve`]) — the cost units of one (operator, form) pair differ
/// only in `y`.
#[derive(Debug)]
pub struct Gram<'a> {
    a: &'a Matrix,
    /// `AᵀA`; rows and columns past `a.cols()` are zero.
    g: Mat4,
    /// `max(1, max |a_ij|)`.
    a_scale: f64,
}

impl<'a> Gram<'a> {
    /// Accumulates `AᵀA` (upper triangle, then mirrored).
    pub fn new(a: &'a Matrix) -> Self {
        assert!(
            a.cols <= MAX_UNKNOWNS,
            "Gram: {} unknowns, but the logical forms C1'–C6' have at most {MAX_UNKNOWNS}",
            a.cols
        );
        let mut g = Mat4::default();
        for row in a.data.chunks_exact(a.cols) {
            for (i, (gi, &ai)) in g.iter_mut().zip(row).enumerate() {
                if ai == 0.0 {
                    continue;
                }
                for (gij, &aj) in gi.iter_mut().zip(row).skip(i) {
                    *gij += ai * aj;
                }
            }
        }
        for i in 1..a.cols {
            let (head, tail) = g.split_at_mut(i);
            for (lower, upper) in tail[0].iter_mut().zip(head.iter()) {
                *lower = upper[i];
            }
        }
        let a_scale = a.data.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
        Self { a, g, a_scale }
    }

    /// Lawson–Hanson non-negative least squares against this design:
    /// `argmin ‖Ax − y‖₂ s.t. x ≥ 0`, entries past `a.cols()` zero.
    /// Allocation-free: every gradient evaluation and passive-set solve
    /// reads the `≤ 4 × 4` normal equations (O(n²)) instead of rescanning
    /// the design matrix.
    pub fn solve(&self, y: &[f64]) -> [f64; 4] {
        assert_eq!(self.a.rows, y.len(), "nnls: dimension mismatch");
        let n = self.a.cols;
        let tol = 1e-10 * self.a_scale * y.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
        let mut b = Vec4::default();
        for (row, &yr) in self.a.data.chunks_exact(n).zip(y) {
            for (bi, &ai) in b.iter_mut().zip(row) {
                *bi += ai * yr;
            }
        }

        let mut x = Vec4::default();
        let mut in_passive = [false; MAX_UNKNOWNS];
        for _outer in 0..10 * n.max(3) {
            // Gradient of 0.5‖Ax − y‖²: w = Aᵀ(y − Ax) = b − Gx.
            let mut w = Vec4::default();
            for ((wi, bi), gi) in w.iter_mut().zip(&b).zip(&self.g) {
                *wi = bi - gi.iter().zip(&x).take(n).map(|(g, xj)| g * xj).sum::<f64>();
            }
            let candidate = (0..n)
                .filter(|&i| !in_passive[i])
                .max_by(|&i, &j| w[i].total_cmp(&w[j]));
            let Some(j) = candidate else { break };
            if w[j] <= tol {
                break;
            }
            in_passive[j] = true;

            // Inner loop: keep the passive solution feasible.
            for _inner in 0..10 * n.max(3) {
                let Some(z) = ls_on_passive(&self.g, &b, &in_passive) else {
                    // Singular subproblem: drop the newest variable and give up on it.
                    in_passive[j] = false;
                    break;
                };
                let passive = || z.iter().zip(&x).zip(&in_passive).filter(|(_, &p)| p);
                if passive().all(|((&zi, _), _)| zi > tol) {
                    x = z;
                    break;
                }
                // Step toward z while staying feasible.
                let mut alpha = f64::INFINITY;
                for ((&zi, &xi), _) in passive() {
                    if zi <= tol {
                        let denom = xi - zi;
                        if denom > 0.0 {
                            alpha = alpha.min(xi / denom);
                        }
                    }
                }
                if !alpha.is_finite() {
                    x = z.map(|v| v.max(0.0));
                    break;
                }
                for ((xi, &zi), p) in x.iter_mut().zip(&z).zip(&mut in_passive) {
                    *xi += alpha * (zi - *xi);
                    if *p && *xi <= tol {
                        *xi = 0.0;
                        *p = false;
                    }
                }
            }
        }
        x
    }
}

/// Solves the leading `n × n` system `M z = b` by Gaussian elimination with
/// partial pivoting. Returns `None` if `M` is (numerically) singular.
fn solve_square(mut m: Mat4, mut b: Vec4, n: usize) -> Option<Vec4> {
    for col in 0..n {
        let (pivot_row, pivot_abs) = (col..n)
            .map(|r| (r, m[r][col].abs()))
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        if pivot_abs < 1e-12 {
            return None;
        }
        m.swap(col, pivot_row);
        b.swap(col, pivot_row);
        let (pivot_rows, rest) = m.split_at_mut(col + 1);
        let (pivot_b, rest_b) = b.split_at_mut(col + 1);
        let (pivot, pivot_b) = (&pivot_rows[col], pivot_b[col]);
        for (row, br) in rest.iter_mut().zip(rest_b).take(n - col - 1) {
            let factor = row[col] / pivot[col];
            if factor == 0.0 {
                continue;
            }
            for (mc, pc) in row.iter_mut().zip(pivot).take(n).skip(col) {
                *mc -= factor * pc;
            }
            *br -= factor * pivot_b;
        }
    }
    let mut z = Vec4::default();
    for row in (0..n).rev() {
        let m_row = &m[row];
        let solved = m_row.iter().zip(&z).take(n).skip(row + 1);
        z[row] = solved.fold(b[row], |acc, (mc, zc)| acc - mc * zc) / m_row[row];
    }
    Some(z)
}

/// Unconstrained least squares restricted to the passive columns, solved
/// from the normal equations (our systems are tiny and well scaled), with
/// the solution scattered back to full width (zero off the passive set).
fn ls_on_passive(gram: &Mat4, b: &Vec4, in_passive: &[bool; MAX_UNKNOWNS]) -> Option<Vec4> {
    let mut ata = Mat4::default();
    let mut aty = Vec4::default();
    let mut p = 0;
    let passive_rows = gram.iter().zip(b).zip(in_passive).filter(|(_, &on)| on);
    for ((row, rhs), ((gi, &bi), _)) in ata.iter_mut().zip(&mut aty).zip(passive_rows) {
        let passive_cols = gi.iter().zip(in_passive).filter(|(_, &on)| on);
        for (mij, (&gij, _)) in row.iter_mut().zip(passive_cols) {
            *mij = gij;
        }
        *rhs = bi;
        // A whisper of ridge for near-collinear grids (e.g. a degenerate
        // fitting interval where X is constant).
        row[p] += 1e-12 * (1.0 + row[p]);
        p += 1;
    }
    let z_p = solve_square(ata, aty, p)?;
    let mut z = Vec4::default();
    let passive_slots = z.iter_mut().zip(in_passive).filter(|(_, &on)| on);
    for ((zi, _), &v) in passive_slots.zip(&z_p) {
        *zi = v;
    }
    Some(z)
}

/// Result of an NNLS solve.
#[derive(Debug, Clone)]
pub struct NnlsSolution {
    /// Optimal non-negative coefficients.
    pub x: Vec<f64>,
    /// `‖Ax − y‖₂` at the optimum.
    pub residual_norm: f64,
}

/// Lawson–Hanson non-negative least squares: `min ‖Ax − y‖₂ s.t. x ≥ 0`,
/// for `a.cols() ≤ 4`. One-shot form of [`Gram::solve`] that also reports
/// the residual.
pub fn nnls(a: &Matrix, y: &[f64]) -> NnlsSolution {
    let x = Gram::new(a)
        .solve(y)
        .into_iter()
        .take(a.cols)
        .collect::<Vec<_>>();
    let ax = a.mul_vec(&x);
    let residual_norm = y
        .iter()
        .zip(&ax)
        .map(|(yi, axi)| (yi - axi) * (yi - axi))
        .sum::<f64>()
        .sqrt();
    NnlsSolution { x, residual_norm }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn residual(a: &Matrix, x: &[f64], y: &[f64]) -> f64 {
        a.mul_vec(x)
            .iter()
            .zip(y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn exact_recovery_when_unconstrained_optimum_is_nonnegative() {
        // y = 3x + 2 on a grid: coefficients recoverable exactly.
        let xs = [0.0, 0.25, 0.5, 0.75, 1.0];
        let a = Matrix::from_rows(xs.iter().map(|&x| vec![x, 1.0]).collect());
        let y: Vec<f64> = xs.iter().map(|&x| 3.0 * x + 2.0).collect();
        let sol = nnls(&a, &y);
        assert!((sol.x[0] - 3.0).abs() < 1e-8, "{:?}", sol.x);
        assert!((sol.x[1] - 2.0).abs() < 1e-8, "{:?}", sol.x);
        assert!(sol.residual_norm < 1e-8);
    }

    #[test]
    fn clamps_negative_component() {
        // y decreases in x, but coefficient must be >= 0: optimum is slope 0.
        let xs = [0.0, 0.5, 1.0];
        let a = Matrix::from_rows(xs.iter().map(|&x| vec![x]).collect());
        let y = vec![0.0, -1.0, -2.0];
        let sol = nnls(&a, &y);
        assert!(sol.x[0].abs() < 1e-10, "{:?}", sol.x);
    }

    #[test]
    fn quadratic_fit_matches_generator() {
        // Fit C4'-style columns [x², x, 1] against a true quadratic.
        let a = Matrix::from_rows(
            (0..=10)
                .map(|i| {
                    let x = i as f64 / 10.0;
                    vec![x * x, x, 1.0]
                })
                .collect(),
        );
        let y: Vec<f64> = (0..=10)
            .map(|i| {
                let x = i as f64 / 10.0;
                5.0 * x * x + 1.0 * x + 0.5
            })
            .collect();
        let sol = nnls(&a, &y);
        assert!((sol.x[0] - 5.0).abs() < 1e-6);
        assert!((sol.x[1] - 1.0).abs() < 1e-6);
        assert!((sol.x[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn nlogn_is_well_approximated_by_quadratic() {
        // The C4' rationale: N log N over a narrow interval fits a quadratic
        // well. Check the relative residual is small.
        let lo = 1000.0;
        let hi = 2000.0;
        let pts: Vec<f64> = (0..=10).map(|i| lo + (hi - lo) * i as f64 / 10.0).collect();
        let a = Matrix::from_rows(pts.iter().map(|&n| vec![n * n, n, 1.0]).collect());
        let y: Vec<f64> = pts.iter().map(|&n| n * n.log2()).collect();
        let sol = nnls(&a, &y);
        let rel = sol.residual_norm / y.iter().map(|v| v * v).sum::<f64>().sqrt();
        // The non-negativity constraint bites (the unconstrained optimum has a
        // negative intercept), but the fit stays well under 1% relative error.
        assert!(rel < 0.01, "relative residual {rel}");
    }

    #[test]
    fn solution_is_optimal_versus_grid_search() {
        // 2-variable problem: compare against a dense feasible grid.
        let a = Matrix::from_rows(vec![
            vec![1.0, 2.0],
            vec![2.0, 0.5],
            vec![0.3, 1.7],
            vec![1.1, 1.1],
        ]);
        let y = vec![2.0, 1.0, 3.0, 0.2];
        let sol = nnls(&a, &y);
        let best_feasible = (0..=200)
            .flat_map(|i| (0..=200).map(move |j| (i as f64 / 50.0, j as f64 / 50.0)))
            .map(|(x0, x1)| residual(&a, &[x0, x1], &y))
            .fold(f64::INFINITY, f64::min);
        assert!(
            sol.residual_norm <= best_feasible + 1e-6,
            "nnls {} vs grid {}",
            sol.residual_norm,
            best_feasible
        );
    }

    #[test]
    fn kkt_conditions_hold_on_random_problems() {
        let mut rng = Rng::new(2024);
        for _ in 0..50 {
            let rows = 5 + rng.usize_below(10);
            let cols = 1 + rng.usize_below(4);
            let a = Matrix::from_rows(
                (0..rows)
                    .map(|_| (0..cols).map(|_| rng.f64() * 4.0 - 1.0).collect())
                    .collect(),
            );
            let y: Vec<f64> = (0..rows).map(|_| rng.f64() * 10.0 - 5.0).collect();
            let sol = nnls(&a, &y);
            let ax = a.mul_vec(&sol.x);
            let resid: Vec<f64> = y.iter().zip(&ax).map(|(yi, axi)| yi - axi).collect();
            // Gradient Aᵀ(y − Ax), column by column.
            let w: Vec<f64> = (0..cols)
                .map(|c| (0..rows).map(|r| a.at(r, c) * resid[r]).sum())
                .collect();
            for (i, &xi) in sol.x.iter().enumerate() {
                assert!(xi >= 0.0, "infeasible x");
                if xi > 1e-8 {
                    // Active coordinates: zero gradient.
                    assert!(w[i].abs() < 1e-5, "grad {} at active coord", w[i]);
                } else {
                    // Bound coordinates: gradient must not be ascent direction.
                    assert!(w[i] < 1e-5, "grad {} at bound coord", w[i]);
                }
            }
        }
    }

    #[test]
    fn one_gram_serves_every_right_hand_side() {
        let a = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 2.0], vec![1.0, 1.0]]);
        let gram = Gram::new(&a);
        for y in [[1.0, 2.0, 2.0], [3.0, -1.0, 0.5], [0.0, 0.0, 0.0]] {
            let x = gram.solve(&y);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x[..2]), bits(&nnls(&a, &y).x));
            // The unused tail of the fixed-size solution stays zero.
            assert_eq!(bits(&x[2..]), bits(&[0.0, 0.0]));
        }
    }

    #[test]
    #[should_panic(expected = "C1'–C6' have at most 4")]
    fn more_unknowns_than_the_largest_form_is_refused() {
        let a = Matrix::from_rows(vec![vec![1.0; 5]; 6]);
        let _ = Gram::new(&a);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = Matrix::from_rows(vec![vec![1.0, 0.5], vec![0.5, 1.0]]);
        let sol = nnls(&a, &[0.0, 0.0]);
        assert!(sol.x.iter().all(|&v| v == 0.0));
        assert_eq!(sol.residual_norm, 0.0);
    }
}
