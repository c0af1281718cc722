//! What the service workloads and `paper_cells` share: the reference every
//! output is checked against, the repeated and timed set-up, and the timed
//! calls into the engine.

use crate::summary::Measured;
use std::hint::black_box;
use std::time::Instant;
use uaq_core::{Prediction, Predictor, PredictorConfig};
use uaq_cost::{calibrate, CalibrationConfig};
use uaq_engine::{execute_full, Plan};
use uaq_experiments::Machine;
use uaq_selest::SelEstimates;
use uaq_stats::Rng;
use uaq_storage::{Catalog, SampleCatalog};

pub const SAMPLING_RATIO: f64 = 0.05;

/// Set-up is repeated and its median reported, so that one disturbed
/// set-up does not read as a regression.
const SETUPS: usize = 3;

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The in-thread `Predictor::predict` answer for one query, built in
/// set-up; every output is checked against it bit for bit.
pub struct Reference {
    pub prediction: Prediction,
}

impl Reference {
    pub fn of(
        predictor: &Predictor,
        plan: &Plan,
        catalog: &Catalog,
        samples: &SampleCatalog,
    ) -> Self {
        Self {
            prediction: predictor.predict(plan, catalog, samples),
        }
    }

    pub fn matches(&self, other: &Prediction) -> bool {
        other.mean_ms().is_finite()
            && other.var().is_finite()
            && other.mean_ms().to_bits() == self.prediction.mean_ms().to_bits()
            && other.var().to_bits() == self.prediction.var().to_bits()
    }
}

/// What each step of one set-up cost; the per-layer metrics that should
/// move `setup_s`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepTimes {
    pub datagen_ms: f64,
    pub calibrate_ms: f64,
    pub draw_samples_ms: f64,
    pub pool_gen_ms: f64,
    pub plan_ms: f64,
    pub plans: usize,
}

impl StepTimes {
    pub fn layers(&self) -> [(&'static str, f64); 5] {
        [
            ("datagen.build_ms", self.datagen_ms),
            ("cost.calibrate_ms", self.calibrate_ms),
            ("storage.draw_samples_ms", self.draw_samples_ms),
            ("workloads.pool_gen_ms", self.pool_gen_ms),
            ("engine.plan_us", self.plan_ms * 1e3 / self.plans as f64),
        ]
    }
}

/// The predictor every workload uses: `Machine::Pc1` units calibrated from
/// the seed, default configuration.
pub fn calibrated_predictor(rng: &mut Rng, times: &mut StepTimes) -> Predictor {
    let t = Instant::now();
    let units = calibrate(&Machine::Pc1.profile(), &CalibrationConfig::default(), rng);
    times.calibrate_ms = ms_since(t);
    Predictor::new(units, PredictorConfig::default())
}

/// Sets up `SETUPS` times, each earlier result dropped before the next
/// begins, and returns the last with the median time (`seconds` reads the
/// time a set-up took off its result).
pub fn repeat_set_up<T>(set_up: impl Fn() -> T, seconds: impl Fn(&T) -> f64) -> (T, Measured) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let built = set_up();
        times.push(seconds(&built));
        last = Some(built);
    }
    (last.expect("SETUPS > 0"), Measured::median_of(&times))
}

/// One timed `execute_full`: microseconds, and the rows its operators put
/// out.
pub fn timed_full_exec(plan: &Plan, catalog: &Catalog) -> (f64, u64) {
    let t = Instant::now();
    let outcome = black_box(execute_full(plan, catalog));
    let us = us_since(t);
    let rows = outcome.traces.iter().map(|t| t.output_rows as u64).sum();
    (us, rows)
}

/// One timed sample pass (sample execution + Algorithm 1), in microseconds:
/// the numerator of the paper's narrower §6.4 ratio.
pub fn timed_sample_pass(plan: &Plan, samples: &SampleCatalog, catalog: &Catalog) -> f64 {
    let agg_source = PredictorConfig::default().agg_source;
    let t = Instant::now();
    black_box(SelEstimates::compute(plan, samples, catalog, agg_source));
    us_since(t)
}
