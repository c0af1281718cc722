//! Cross-implementation golden for the NNLS solver.
//!
//! The digest below was recorded from the `Vec<Vec<f64>>` Lawson–Hanson
//! solver of PR 13 *before* it was rewritten onto fixed-size normal
//! equations. The solver's arithmetic is `+ − × ÷`, `abs`, `max` and
//! comparisons only — all exactly rounded IEEE-754 operations — so the
//! solution bit patterns are portable, and any change of operation order
//! (Gram accumulation, `Aᵀy` row order, pivot or candidate tie-breaking,
//! ridge, tolerance) moves the digest. "KKT holds" tests cannot see that;
//! the fit cache's bit-identity guarantee depends on it.

use uaq_stats::{nnls, Matrix, Rng};

/// FNV-1a over the little-endian bytes of each word.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Solves one problem and folds its shape and solution bits in.
    fn problem(&mut self, rows: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        let x = nnls(&Matrix::from_rows(rows.to_vec()), y).x;
        self.word(rows.len() as u64);
        self.word(x.len() as u64);
        for v in &x {
            self.word(v.to_bits());
        }
        x
    }
}

fn random_rows(rng: &mut Rng, rows: usize, cols: usize, lo: f64, hi: f64) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|_| (0..cols).map(|_| rng.f64_range(lo, hi)).collect())
        .collect()
}

fn random_rhs(rng: &mut Rng, rows: usize) -> Vec<f64> {
    (0..rows).map(|_| rng.f64_range(-5.0, 5.0)).collect()
}

/// `y = A·coeffs` (mixed-sign `coeffs` make the constraint bite).
fn rhs_from(rows: &[Vec<f64>], coeffs: &[f64]) -> Vec<f64> {
    rows.iter()
        .map(|r| r.iter().zip(coeffs).map(|(a, c)| a * c).sum())
        .collect()
}

/// Folds the whole corpus; returns the digest and how many problems ended
/// with a strictly interior / a partly clamped solution (so the corpus is
/// known to exercise both).
fn corpus_digest() -> (u64, usize, usize) {
    let mut d = Digest::new();
    let mut rng = Rng::new(0x6e6e_6c73);
    let (mut interior, mut clamped) = (0, 0);
    let mut tally = |x: &[f64]| {
        if x.iter().all(|&v| v > 0.0) {
            interior += 1;
        } else {
            clamped += 1;
        }
    };

    // Every shape the fits can produce and the ones around them: mixed-sign
    // designs against arbitrary right-hand sides, and the fit's own kind of
    // design (non-negative, column maxima near 1) against a right-hand side
    // generated from mixed-sign coefficients.
    for cols in 1..=4usize {
        for rows in 3..=81usize {
            let a = random_rows(&mut rng, rows, cols, -1.0, 3.0);
            let y = random_rhs(&mut rng, rows);
            tally(&d.problem(&a, &y));

            let a = random_rows(&mut rng, rows, cols, 0.0, 1.0);
            let coeffs: Vec<f64> = (0..cols).map(|_| rng.f64_range(-2.0, 6.0)).collect();
            tally(&d.problem(&a, &rhs_from(&a, &coeffs)));
        }
    }

    for cols in 1..=4usize {
        let rows = 9;
        let base = random_rows(&mut rng, rows, cols, 0.0, 1.0);
        let y = random_rhs(&mut rng, rows);

        // Zero right-hand side: the gradient never exceeds the tolerance.
        tally(&d.problem(&base, &vec![0.0; rows]));

        // An all-zero column (the zero skip in the Gram accumulation, and a
        // zero pivot should that column ever be tried).
        for dead in 0..cols {
            let mut a = base.clone();
            for r in &mut a {
                r[dead] = 0.0;
            }
            tally(&d.problem(&a, &y));
            tally(&d.problem(&a, &rhs_from(&a, &vec![1.5; cols])));
        }

        // A constant column (the intercept of every form) and an all-ones
        // design (a degenerate fitting interval).
        let mut a = base.clone();
        for r in &mut a {
            r[cols - 1] = 1.0;
        }
        tally(&d.problem(&a, &y));
        tally(&d.problem(&a, &rhs_from(&a, &vec![0.75; cols])));
        tally(&d.problem(
            &vec![vec![1.0; cols]; rows],
            &y.iter().map(|v| v.abs()).collect::<Vec<_>>(),
        ));

        // Columns scaled to 1e-9 (unscaled selectivity columns).
        for tiny in 0..cols {
            let mut a = base.clone();
            for r in &mut a {
                r[tiny] *= 1e-9;
            }
            tally(&d.problem(&a, &y));
            tally(&d.problem(&a, &rhs_from(&a, &vec![2.0; cols])));
        }

        // Two identical columns: the twin's gradient falls to rounding
        // level once the first is in, and the ridge keeps the passive-set
        // system solvable should it still clear the tolerance.
        if cols >= 2 {
            for twin in 1..cols {
                let mut a = base.clone();
                for r in &mut a {
                    r[twin] = r[0];
                }
                tally(&d.problem(&a, &y));
                tally(&d.problem(&a, &rhs_from(&a, &vec![1.0; cols])));
            }
        }
    }

    // A right-hand side that forces a variable *out* of the passive set:
    // column 0 has the larger gradient and enters first, but with column 1
    // in, its least-squares coefficient is negative (y = 2·c1 − c0/3), so
    // the feasibility step lands it on the boundary and removes it.
    let forced = vec![vec![3.0, 1.0], vec![3.0, 2.0], vec![3.0, 3.0]];
    let x = d.problem(&forced, &[1.0, 3.0, 5.0]);
    assert!(x[0] == 0.0 && x[1] > 1.5, "{x:?}");
    tally(&x);
    // The same mechanism at random: strongly correlated columns, the
    // heavier one carrying a negative true coefficient.
    for cols in 2..=4usize {
        for rows in [5usize, 9, 27, 81] {
            let mut a = random_rows(&mut rng, rows, cols, 0.5, 1.0);
            for r in &mut a {
                r[0] = 3.0 * r[1] + 0.05 * r[0];
            }
            let mut coeffs = vec![2.0; cols];
            coeffs[0] = -0.5;
            tally(&d.problem(&a, &rhs_from(&a, &coeffs)));
        }
    }

    // A column almost orthogonal to the right-hand side: its gradient
    // clears the tolerance but its least-squares coefficient does not, so
    // the solver takes the "no feasible step" exit and keeps `max(z, 0)`.
    let x = d.problem(&[vec![10.0], vec![10.0], vec![10.0]], &[1.0, -1.0, 3e-9]);
    assert!(x[0] > 0.0 && x[0] < 1e-9, "{x:?}");
    tally(&x);

    (d.0, interior, clamped)
}

#[test]
fn solution_bits_match_the_recorded_solver() {
    let (digest, interior, clamped) = corpus_digest();
    assert!(interior > 100 && clamped > 100, "{interior} / {clamped}");
    assert_eq!(
        digest, GOLDEN,
        "NNLS solution bits moved: {digest:#018x} (interior {interior}, clamped {clamped})"
    );
}

/// Recorded from the parent's `nnls` (commit 0eede4e) before the rewrite.
const GOLDEN: u64 = 0xd40c_e0da_40dd_9a24;
