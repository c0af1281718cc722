//! Order statistics the way the benchmark reports them.

/// Nearest-rank percentile of an ascending slice, never reading an order
/// statistic with fewer than ten samples beyond it: a tail percentile the
/// sample cannot support is clamped down to the highest one it can (so
/// p999 of 5 000 samples reads the 4 990th value, p99.8).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let supported = n.saturating_sub(10).max(n.div_ceil(2));
    sorted[rank.min(supported) - 1]
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// A value with the spread of the parts it was taken over (segments of a
/// phase, sweeps, repeated set-ups): the distance between the parts' first
/// and third quartile as a share of their median. `compare` calls a
/// difference smaller than this spread unresolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub spread: f64,
}

impl Measured {
    /// The median of `parts` with their quartile spread.
    pub fn median_of(parts: &[f64]) -> Self {
        Self {
            value: median(parts),
            spread: quartile_spread(parts),
        }
    }

    /// `value` computed elsewhere (e.g. a percentile over the whole phase),
    /// with the spread of the per-part values.
    pub fn with_parts(value: f64, parts: &[f64]) -> Self {
        Self {
            value,
            spread: quartile_spread(parts),
        }
    }
}

/// Inclusive-method quartiles, as Python's
/// `statistics.quantiles(xs, n=4, method="inclusive")`.
fn quartile_spread(parts: &[f64]) -> f64 {
    if parts.len() < 2 {
        return 0.0;
    }
    let s = sorted(parts.to_vec());
    let at = |q: f64| {
        let pos = q * (s.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    let mid = at(0.5);
    if mid == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 500.0);
        assert_eq!(percentile(&xs, 0.95), 950.0);
        assert_eq!(percentile(&xs, 0.99), 990.0);
        // 1000 samples cannot support p999 (one sample beyond): clamped
        // to the 990th, which has exactly ten beyond it.
        assert_eq!(percentile(&xs, 0.999), 990.0);
        let big: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.999), 99_900.0);
        // Tiny samples fall back to the median, never below it.
        let tiny: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile(&tiny, 0.95), 6.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn spread_is_the_interquartile_share() {
        let m = Measured::median_of(&[10.0, 11.0, 12.0, 13.0, 14.0]);
        assert_eq!(m.value, 12.0);
        assert!((m.spread - 2.0 / 12.0).abs() < 1e-12);
        assert_eq!(Measured::median_of(&[5.0]).spread, 0.0);
    }
}
