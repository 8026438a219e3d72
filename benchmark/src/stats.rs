//! Order statistics the ledger reports: medians, quartiles, and the
//! "highest percentile that still has ten samples beyond it" rule.

/// How many samples must lie beyond a reported tail percentile.
pub const BEYOND: usize = 10;

/// Fewest timed samples a run takes: the median itself then has
/// [`BEYOND`] samples above it.
pub const MIN_SAMPLES: usize = 2 * BEYOND + 1;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median of `values` (mean of the two middle samples when even).
///
/// # Panics
///
/// Panics on an empty slice: every caller has taken at least one
/// sample by construction.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, computed the way
/// Python's `statistics.quantiles(values, n=4)` (exclusive method)
/// does, so the spread printed here is the one an outside checker
/// recomputes. A single sample is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile range as a share of the median (0 when the median
/// is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The tail statistic: with `n` sorted samples, the sample at index
/// `n - 1 - BEYOND` has exactly [`BEYOND`] samples beyond it, and sits
/// at percentile `100·(n-1-BEYOND)/(n-1)` (p66 at 31 samples, p58 at
/// 25, p83 at 61, the median itself at 21). Below [`MIN_SAMPLES`]
/// the median is all the data supports.
pub fn hi_percentile(n: usize) -> u32 {
    if n < MIN_SAMPLES {
        return 50;
    }
    (100 * (n - 1 - BEYOND) / (n - 1)) as u32
}

/// The sample [`hi_percentile`] names.
pub fn hi_value(values: &[f64]) -> f64 {
    let n = values.len();
    if n < MIN_SAMPLES {
        return median(values);
    }
    sorted(values)[n - 1 - BEYOND]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(hi_percentile(21), 50);
        assert_eq!(hi_percentile(25), 58);
        assert_eq!(hi_percentile(31), 66);
        assert_eq!(hi_percentile(61), 83);
        assert_eq!(hi_percentile(5), 50);
        for n in [21usize, 25, 31, 61] {
            let values: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let hi = hi_value(&values);
            assert_eq!(values.iter().filter(|&&v| v > hi).count(), BEYOND, "n={n}");
        }
        // At the minimum sample count the tail statistic is the median.
        let values: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(hi_value(&values), median(&values));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
