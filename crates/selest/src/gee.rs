//! The GEE distinct-value estimator (Charikar, Chaudhuri, Motwani,
//! Narasayya: "Towards estimation error guarantees for distinct values",
//! PODS 2000) — the estimator the paper names as the way to extend
//! sampling-based selectivity estimation to aggregates ("we are working to
//! incorporate sampling-based estimators for aggregates (e.g., the GEE
//! estimator \[11\]) into our current framework", §3.2.2).
//!
//! GEE estimates the number of distinct values `D` of a column from a
//! uniform sample of `n` of `N` rows:
//!
//! `D̂ = sqrt(N/n) · f₁ + Σ_{j≥2} f_j`
//!
//! where `f_j` counts the values seen exactly `j` times in the sample.
//! Values seen twice or more are (almost surely) frequent enough to have
//! been counted; each *singleton* stands in for `sqrt(N/n)` unseen values —
//! the geometric mean of the two extreme hypotheses (a singleton is unique
//! in the table vs. a singleton's value fills the unsampled rows), which is
//! what gives GEE its `O(sqrt(N/n))` ratio-error guarantee.

use std::collections::HashMap;
#[cfg(test)]
use uaq_storage::Value;
use uaq_storage::{ColumnData, SampleTable};

/// Frequency-of-frequencies profile of a sample column.
#[derive(Debug, Clone, Default)]
pub struct FrequencyProfile {
    /// `f[j] = f_{j+1}`: number of distinct values seen exactly `j+1` times.
    freq_of_freq: Vec<usize>,
    /// Sample size `n`.
    n: usize,
}

impl FrequencyProfile {
    /// Profiles one column of a sample (by column index). Reads the typed
    /// column directly — materializing the sample's row mirror just to
    /// count one column would undo the columnar draw fast path.
    pub fn from_sample_column(sample: &SampleTable, column_idx: usize) -> Self {
        let counts: Vec<usize> = match sample.table().columns()[column_idx].as_ref() {
            ColumnData::Int(v) => {
                let mut m: HashMap<i64, usize> = HashMap::new();
                for &x in v {
                    *m.entry(x).or_insert(0) += 1;
                }
                m.into_values().collect()
            }
            ColumnData::Float(v) => {
                // Bit equality, matching `Value::eq` on floats.
                let mut m: HashMap<u64, usize> = HashMap::new();
                for &x in v {
                    *m.entry(x.to_bits()).or_insert(0) += 1;
                }
                m.into_values().collect()
            }
            ColumnData::Str(v) => {
                let mut m: HashMap<&str, usize> = HashMap::new();
                for x in v {
                    *m.entry(x).or_insert(0) += 1;
                }
                m.into_values().collect()
            }
        };
        let mut freq_of_freq: Vec<usize> = Vec::new();
        for &c in &counts {
            if c > freq_of_freq.len() {
                freq_of_freq.resize(c, 0);
            }
            freq_of_freq[c - 1] += 1;
        }
        Self {
            freq_of_freq,
            n: sample.len(),
        }
    }

    /// Number of values seen exactly `j` times (`j ≥ 1`).
    pub fn f(&self, j: usize) -> usize {
        if j == 0 {
            0
        } else {
            self.freq_of_freq.get(j - 1).copied().unwrap_or(0)
        }
    }

    /// Distinct values observed in the sample (`Σ_j f_j`).
    pub fn distinct_in_sample(&self) -> usize {
        self.freq_of_freq.iter().sum()
    }

    pub fn sample_size(&self) -> usize {
        self.n
    }
}

/// The GEE estimate of the number of distinct values in a base relation of
/// `base_rows` rows, from a profile of an `n`-row uniform sample.
///
/// Clamped to `[distinct_in_sample, base_rows]` — the estimator can
/// otherwise exceed the table size on pathological profiles.
pub fn gee_distinct(profile: &FrequencyProfile, base_rows: usize) -> f64 {
    if profile.n == 0 || base_rows == 0 {
        return 0.0;
    }
    let scale = (base_rows as f64 / profile.n as f64).sqrt();
    let singletons = profile.f(1) as f64;
    let repeated = (profile.distinct_in_sample() - profile.f(1)) as f64;
    (scale * singletons + repeated)
        .max(profile.distinct_in_sample() as f64)
        .min(base_rows as f64)
}

/// Convenience: GEE distinct estimate for a named column of a sample table.
pub fn gee_distinct_for_column(sample: &SampleTable, column: &str) -> f64 {
    let idx = sample.table().schema().expect_index(column);
    let profile = FrequencyProfile::from_sample_column(sample, idx);
    gee_distinct(&profile, sample.base_rows())
}

/// GEE-based output-cardinality estimate for a group-by over the given
/// columns: the product of per-column GEE distinct estimates (independence
/// across grouping columns, as the optimizer assumes), capped by the
/// estimated input cardinality.
pub fn gee_group_count(samples: &[(&SampleTable, &str)], input_cardinality_estimate: f64) -> f64 {
    let product: f64 = samples
        .iter()
        .map(|(s, col)| gee_distinct_for_column(s, col))
        .product();
    product.min(input_cardinality_estimate).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_stats::Rng;
    use uaq_storage::{Column, Schema, Table};

    fn table_with_distinct(d: usize, rows: usize, skewed: bool, seed: u64) -> Table {
        let mut rng = Rng::new(seed);
        let schema = Schema::new(vec![Column::int("v")]);
        let zipf = uaq_stats::Zipf::new(d, if skewed { 1.0 } else { 0.0 });
        let data = (0..rows)
            .map(|_| vec![Value::Int(zipf.sample(&mut rng) as i64)])
            .collect();
        Table::new("t", schema, data)
    }

    fn true_distinct(t: &Table) -> usize {
        let mut seen = std::collections::HashSet::new();
        for row in t.rows() {
            seen.insert(row[0].as_int());
        }
        seen.len()
    }

    #[test]
    fn frequency_profile_counts() {
        // Values: 1,1,1,2,2,3 → f1=1 (the 3), f2=1 (the 2), f3=1 (the 1).
        let schema = Schema::new(vec![Column::int("v")]);
        let rows = [1, 1, 1, 2, 2, 3]
            .iter()
            .map(|&v| vec![Value::Int(v)])
            .collect();
        let base = Table::new("t", schema, rows);
        let mut rng = Rng::new(1);
        // Sample the whole table (n = |R| by the floor rule).
        let s = SampleTable::draw(&base, 6, 0, &mut rng);
        let p = FrequencyProfile::from_sample_column(&s, 0);
        assert_eq!(p.sample_size(), 6);
        assert_eq!(
            p.distinct_in_sample(),
            p.f(1) + p.f(2) + p.f(3) + p.f(4) + p.f(5) + p.f(6)
        );
        assert_eq!(p.f(0), 0);
    }

    #[test]
    fn gee_is_exact_when_sample_is_the_table() {
        // With n = N the scale factor is 1 and GEE returns the exact count.
        let t = table_with_distinct(50, 400, false, 7);
        let truth = true_distinct(&t);
        let mut rng = Rng::new(8);
        let s = SampleTable::draw(&t, 400, 0, &mut rng);
        let p = FrequencyProfile::from_sample_column(&s, 0);
        let est = gee_distinct(&p, 400);
        // Sampling with replacement may miss a few values even at n = N.
        assert!(
            (est - truth as f64).abs() / truth as f64 <= 0.25,
            "est {est} vs truth {truth}"
        );
    }

    #[test]
    fn gee_beats_naive_sample_distinct_on_uniform_data() {
        // Classic failure of the naive estimator: with many distinct values
        // and a small sample, "distinct in sample" under-counts badly; GEE's
        // sqrt(N/n) singleton scaling recovers most of it.
        let t = table_with_distinct(2000, 8000, false, 9);
        let truth = true_distinct(&t) as f64;
        let mut rng = Rng::new(10);
        let s = SampleTable::draw(&t, 800, 0, &mut rng);
        let p = FrequencyProfile::from_sample_column(&s, 0);
        let naive = p.distinct_in_sample() as f64;
        let gee = gee_distinct(&p, 8000);
        assert!(
            (gee - truth).abs() < (naive - truth).abs(),
            "gee {gee} vs naive {naive}, truth {truth}"
        );
        assert!(
            (gee - truth).abs() / truth < 0.5,
            "gee {gee} vs truth {truth}"
        );
    }

    #[test]
    fn gee_is_clamped() {
        let t = table_with_distinct(10, 100, false, 11);
        let mut rng = Rng::new(12);
        let s = SampleTable::draw(&t, 30, 0, &mut rng);
        let p = FrequencyProfile::from_sample_column(&s, 0);
        let est = gee_distinct(&p, 100);
        assert!(est >= p.distinct_in_sample() as f64);
        assert!(est <= 100.0);
    }

    #[test]
    fn gee_handles_skew() {
        // Zipf data: a few heavy values plus a long tail of rare ones.
        let t = table_with_distinct(500, 5000, true, 13);
        let truth = true_distinct(&t) as f64;
        let mut rng = Rng::new(14);
        let s = SampleTable::draw(&t, 500, 0, &mut rng);
        let p = FrequencyProfile::from_sample_column(&s, 0);
        let est = gee_distinct(&p, 5000);
        // GEE's guarantee is a ratio error of O(sqrt(N/n)) ≈ 3.2 here; in
        // practice it lands much closer.
        let ratio = (est / truth).max(truth / est);
        assert!(
            ratio < 3.2,
            "ratio error {ratio} (est {est}, truth {truth})"
        );
    }

    #[test]
    fn group_count_caps_at_input() {
        let t = table_with_distinct(40, 1000, false, 15);
        let mut rng = Rng::new(16);
        let s = SampleTable::draw(&t, 200, 0, &mut rng);
        let est = gee_group_count(&[(&s, "v"), (&s, "v")], 100.0);
        assert!(est <= 100.0);
        assert!(est >= 1.0);
    }

    #[test]
    fn empty_inputs() {
        let p = FrequencyProfile::default();
        assert_eq!(gee_distinct(&p, 0), 0.0);
        assert_eq!(gee_distinct(&p, 100), 0.0);
    }
}
