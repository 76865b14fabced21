//! Order statistics over timing samples.
//!
//! Rank rules, stated once so every number the benchmark prints can be
//! recomputed by hand:
//!
//! * **median** — the middle sample of the sorted values, or the mean of
//!   the two middle samples when the count is even (Python's
//!   `statistics.median`);
//! * **quartiles** — Python's `statistics.quantiles(values, n=4)` with its
//!   default `exclusive` method: for `i ∈ {1, 2, 3}` take
//!   `j = ⌊i·(n+1)/4⌋` clamped to `1..n−1` and interpolate linearly
//!   between the `j`-th and `(j+1)`-th sorted samples (1-based) by the
//!   remainder `(i·(n+1) − 4j)/4`, which extrapolates past the ends when
//!   the clamp moved `j` (two samples);
//! * **percentile `q`** — nearest rank: the `⌈q·n⌉`-th sorted sample,
//!   clamped to `1..n` (the rule `ossm_obs::quantile` uses for its log2
//!   histograms, here applied to exact samples).
//!
//! Empty inputs yield 0 so a report never carries NaN.

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles, `statistics.quantiles(values, n=4)`
/// (exclusive method). A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => (0.0, 0.0),
        1 => (sorted[0], sorted[0]),
        _ => {
            let q = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Nearest-rank percentile: the `⌈q·n⌉`-th smallest sample.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile rank {q} outside [0, 1]"
    );
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped j extrapolates.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.999), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0, "rank clamps to 1");
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&[9.0, 1.0], 0.5), 1.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
