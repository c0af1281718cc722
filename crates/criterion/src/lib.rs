//! Offline stand-in for the [criterion](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no network access to crates.io, so this crate
//! provides the (small) API subset our benches use — `Criterion`,
//! `BenchmarkGroup`, `Bencher`, `BenchmarkId`, `BatchSize`, and the
//! `criterion_group!` / `criterion_main!` macros — with real wall-clock
//! measurement behind it:
//!
//! * each benchmark warms up for `warm_up_time`, sizes its iteration count
//!   from the warm-up, then takes `sample_size` timed samples spread over
//!   `measurement_time`;
//! * results are printed in a criterion-like `time: [lo mean hi]` format and
//!   appended to `target/criterion-shim/<bench-binary>.json`, so numbers
//!   quoted from a micro-bench come from machine runs rather than being
//!   hand-copied. (Regression gating is `uaq-bench`'s job, on live runs.)
//!
//! Swapping in the real criterion later is a one-line change in
//! `crates/bench/Cargo.toml`; no bench source needs to change.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` inputs are grouped. Only a hint in the real criterion;
/// ignored here (every sample re-runs its setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Identifier `function/parameter` for parameterised benchmarks.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// One measured benchmark: mean/min/max nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub id: String,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
    pub samples: usize,
    pub iters_per_sample: u64,
}

/// Timing loop driver handed to benchmark closures.
pub struct Bencher<'a> {
    config: &'a MeasureConfig,
    result: Option<Measurement>,
    id: String,
}

#[derive(Debug, Clone)]
struct MeasureConfig {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        Self {
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
            sample_size: 20,
        }
    }
}

impl Bencher<'_> {
    /// Times `routine` over warm-up-sized batches of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run until the warm-up budget is spent, counting iterations
        // to size the measured batches.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.config.warm_up {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;

        let samples = self.config.sample_size.max(2);
        let budget = self.config.measurement.as_secs_f64();
        let iters = ((budget / samples as f64) / per_iter.max(1e-9))
            .ceil()
            .max(1.0) as u64;

        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            times.push(t0.elapsed().as_secs_f64() / iters as f64 * 1e9);
        }
        self.record(times, iters);
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        let mut warm_spent = Duration::ZERO;
        while warm_start.elapsed() < self.config.warm_up {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            warm_spent += t0.elapsed();
            warm_iters += 1;
        }
        let per_iter = warm_spent.as_secs_f64() / warm_iters.max(1) as f64;

        let samples = self.config.sample_size.max(2);
        let budget = self.config.measurement.as_secs_f64();
        let iters = ((budget / samples as f64) / per_iter.max(1e-9))
            .ceil()
            .max(1.0) as u64;

        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut spent = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let t0 = Instant::now();
                black_box(routine(input));
                spent += t0.elapsed();
            }
            times.push(spent.as_secs_f64() / iters as f64 * 1e9);
        }
        self.record(times, iters);
    }

    fn record(&mut self, times: Vec<f64>, iters: u64) {
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        self.result = Some(Measurement {
            id: self.id.clone(),
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
            samples: times.len(),
            iters_per_sample: iters,
        });
    }
}

/// A named group of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    config: MeasureConfig,
}

impl BenchmarkGroup<'_> {
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.config.warm_up = d;
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.config.measurement = d;
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n;
        self
    }

    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let mut b = Bencher {
            config: &self.config,
            result: None,
            id: full,
        };
        f(&mut b);
        self.criterion.finish_bench(b);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        let mut b = Bencher {
            config: &self.config,
            result: None,
            id: full,
        };
        f(&mut b, input);
        self.criterion.finish_bench(b);
        self
    }

    pub fn finish(&mut self) {}
}

/// The harness entry point: collects measurements, prints them, and writes
/// the JSON report at the end of `criterion_main!`.
#[derive(Default)]
pub struct Criterion {
    results: Vec<Measurement>,
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            config: MeasureConfig::default(),
            criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let config = MeasureConfig::default();
        let mut b = Bencher {
            config: &config,
            result: None,
            id: id.to_string(),
        };
        f(&mut b);
        self.finish_bench(b);
        self
    }

    fn finish_bench(&mut self, b: Bencher) {
        if let Some(m) = b.result {
            println!(
                "{:<40} time: [{} {} {}]",
                m.id,
                fmt_ns(m.min_ns),
                fmt_ns(m.mean_ns),
                fmt_ns(m.max_ns)
            );
            self.results.push(m);
        }
    }

    /// Writes all collected measurements as JSON under
    /// `target/criterion-shim/`, named after the running bench binary.
    pub fn write_report(&self) {
        if self.results.is_empty() {
            return;
        }
        let exe = std::env::args().next().unwrap_or_else(|| "bench".into());
        let base = std::path::Path::new(&exe)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("bench")
            .to_string();
        // Cargo names bench binaries `<name>-<hash>`; strip the hash suffix.
        let name = match base.rsplit_once('-') {
            Some((head, tail))
                if tail.len() == 16 && tail.chars().all(|c| c.is_ascii_hexdigit()) =>
            {
                head.to_string()
            }
            _ => base,
        };
        // cargo runs bench binaries with the package dir as cwd; walk up to
        // the workspace `target/` so reports land in one place.
        let target_dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(std::path::PathBuf::from)
            .or_else(|| {
                let mut dir = std::env::current_dir().ok()?;
                loop {
                    let cand = dir.join("target");
                    if cand.is_dir() {
                        return Some(cand);
                    }
                    if !dir.pop() {
                        return None;
                    }
                }
            })
            .unwrap_or_else(|| std::path::PathBuf::from("target"));
        let mut json = String::from("[\n");
        for (i, m) in self.results.iter().enumerate() {
            let _ = write!(
                json,
                "  {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}{}",
                m.id,
                m.mean_ns,
                m.min_ns,
                m.max_ns,
                m.samples,
                m.iters_per_sample,
                if i + 1 < self.results.len() { ",\n" } else { "\n" }
            );
        }
        json.push_str("]\n");
        let dir = target_dir.join("criterion-shim");
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{name}.json"));
            if std::fs::write(&path, json).is_ok() {
                println!("criterion-shim: wrote {}", path.display());
            }
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Declares a benchmark group function running each listed bench.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares `main` running the listed groups and writing the JSON report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
            c.write_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_something() {
        let config = MeasureConfig {
            warm_up: Duration::from_millis(10),
            measurement: Duration::from_millis(20),
            sample_size: 3,
        };
        let mut b = Bencher {
            config: &config,
            result: None,
            id: "t".into(),
        };
        b.iter(|| (0..100).sum::<u64>());
        let m = b.result.expect("measured");
        assert!(m.mean_ns > 0.0);
        assert!(m.min_ns <= m.mean_ns && m.mean_ns <= m.max_ns);
        assert_eq!(m.samples, 3);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 0.5).to_string(), "f/0.5");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }
}
