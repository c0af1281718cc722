//! Cost-unit calibration (§3.1, extending the framework of \[48\]).
//!
//! Five dedicated calibration query shapes isolate the units one at a time
//! (Example 3: `SELECT * FROM R` on a memory-resident table exposes `c_t`).
//! Each query is "run" on the simulated hardware several times over several
//! table sizes; inverting the known count equation per run yields i.i.d.
//! samples of the unit, and — this paper's extension over \[48\] — we keep the
//! sample *variance*, not just the mean, giving `c ~ N(μ̂, σ̂²)`.

use crate::profile::HardwareProfile;
use crate::units::{CostUnit, UnitCounts, UnitDists};
use uaq_stats::{Normal, Rng, Welford};

/// Relative standard deviation of timing-measurement noise (clock jitter).
const MEASUREMENT_NOISE_REL_STD: f64 = 0.005;

/// Calibration effort knobs.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// Repetitions per (query shape, table size).
    pub runs_per_size: usize,
    /// Synthetic table sizes (row counts) the calibration queries scan.
    pub table_sizes: [usize; 3],
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            runs_per_size: 8,
            table_sizes: [20_000, 50_000, 100_000],
        }
    }
}

/// Runs one calibration query: the simulated hardware draws a system state,
/// executes the known count vector, and reports wall-clock time with a
/// little measurement noise.
fn observe(profile: &HardwareProfile, counts: &UnitCounts, rng: &mut Rng) -> f64 {
    let state = profile.draw(rng);
    let t = state.time_for(counts);
    t * (1.0 + rng.normal(0.0, MEASUREMENT_NOISE_REL_STD))
}

/// Calibrates all five units against a hardware profile, in the dependency
/// order of \[48\]: `c_t` first, then units whose queries also exercise
/// already-calibrated ones (their means are subtracted out).
pub fn calibrate(
    profile: &HardwareProfile,
    config: &CalibrationConfig,
    rng: &mut Rng,
) -> UnitDists {
    let tuples_per_page = uaq_storage::DEFAULT_TUPLES_PER_PAGE as f64;

    // 1. c_t: in-memory full scan; τ = N·c_t.
    let ct = collect(
        config,
        |n, rng| {
            let mut counts = UnitCounts::default();
            counts[CostUnit::CpuTuple] = n;
            observe(profile, &counts, rng) / n
        },
        rng,
    );

    // 2. c_o: in-memory scan plus two primitive ops per tuple;
    //    τ = N·c_t + 2N·c_o ⇒ c_o = (τ − N·μ̂_t) / 2N.
    let co = collect(
        config,
        |n, rng| {
            let mut counts = UnitCounts::default();
            counts[CostUnit::CpuTuple] = n;
            counts[CostUnit::CpuOp] = 2.0 * n;
            (observe(profile, &counts, rng) - n * ct.mean()) / (2.0 * n)
        },
        rng,
    );

    // 3. c_s: cold sequential scan; τ = P·c_s + N·c_t.
    let cs = collect(
        config,
        |n, rng| {
            let pages = n / tuples_per_page;
            let mut counts = UnitCounts::default();
            counts[CostUnit::SeqPage] = pages;
            counts[CostUnit::CpuTuple] = n;
            (observe(profile, &counts, rng) - n * ct.mean()) / pages
        },
        rng,
    );

    // 4. c_i: in-memory index-only lookup of M tuples; τ = M·c_i + M·c_t.
    let ci = collect(
        config,
        |n, rng| {
            let m = n / 10.0;
            let mut counts = UnitCounts::default();
            counts[CostUnit::CpuIndex] = m;
            counts[CostUnit::CpuTuple] = m;
            (observe(profile, &counts, rng) - m * ct.mean()) / m
        },
        rng,
    );

    // 5. c_r: cold index scan; τ = M·c_r + M·c_i + M·c_t.
    let cr = collect(
        config,
        |n, rng| {
            let m = n / 10.0;
            let mut counts = UnitCounts::default();
            counts[CostUnit::RandPage] = m;
            counts[CostUnit::CpuIndex] = m;
            counts[CostUnit::CpuTuple] = m;
            (observe(profile, &counts, rng) - m * (ct.mean() + ci.mean())) / m
        },
        rng,
    );

    UnitDists([cs, cr, ct, ci, co])
}

/// Collects unit samples across sizes and repetitions; returns the fitted
/// normal (sample mean + unbiased sample variance).
fn collect(
    config: &CalibrationConfig,
    mut one_sample: impl FnMut(f64, &mut Rng) -> f64,
    rng: &mut Rng,
) -> Normal {
    let mut w = Welford::new();
    for &size in &config.table_sizes {
        for _ in 0..config.runs_per_size {
            w.push(one_sample(size as f64, rng));
        }
    }
    Normal::new(w.mean().max(0.0), w.sample_variance())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_means_track_truth() {
        let profile = HardwareProfile::pc1();
        let mut rng = Rng::new(1000);
        // Generous effort for a tight test.
        let config = CalibrationConfig {
            runs_per_size: 200,
            table_sizes: [20_000, 50_000, 100_000],
        };
        let calibrated = calibrate(&profile, &config, &mut rng);
        for u in CostUnit::ALL {
            let truth = profile.true_units()[u].mean();
            let got = calibrated[u].mean();
            assert!(
                (got - truth).abs() / truth < 0.05,
                "{u}: calibrated {got} vs true {truth}"
            );
        }
    }

    #[test]
    fn calibrated_variances_are_positive_and_sane() {
        let profile = HardwareProfile::pc2();
        let mut rng = Rng::new(2000);
        let config = CalibrationConfig {
            runs_per_size: 100,
            table_sizes: [20_000, 50_000, 100_000],
        };
        let calibrated = calibrate(&profile, &config, &mut rng);
        for u in CostUnit::ALL {
            let truth = profile.true_units()[u];
            let got = calibrated[u];
            assert!(got.var() > 0.0, "{u}: zero variance");
            // Contamination from subtracting mean estimates inflates the
            // variance of dependent units; it must stay within an order of
            // magnitude of the truth and never undershoot grossly.
            assert!(
                got.var() < 30.0 * truth.var() && got.var() > 0.2 * truth.var(),
                "{u}: var {} vs true {}",
                got.var(),
                truth.var()
            );
        }
    }

    #[test]
    fn default_effort_is_modest_but_stable() {
        let profile = HardwareProfile::pc1();
        let mut rng = Rng::new(3000);
        let calibrated = calibrate(&profile, &CalibrationConfig::default(), &mut rng);
        for u in CostUnit::ALL {
            let truth = profile.true_units()[u].mean();
            assert!(
                (calibrated[u].mean() - truth).abs() / truth < 0.25,
                "{u} badly calibrated"
            );
        }
    }

    #[test]
    fn calibration_is_deterministic_by_seed() {
        let profile = HardwareProfile::pc1();
        let a = calibrate(&profile, &CalibrationConfig::default(), &mut Rng::new(4));
        let b = calibrate(&profile, &CalibrationConfig::default(), &mut Rng::new(4));
        for u in CostUnit::ALL {
            assert_eq!(a[u].mean(), b[u].mean());
        }
    }
}
