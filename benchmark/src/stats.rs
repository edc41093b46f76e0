//! Round statistics: nearest-rank percentiles within a round, then the
//! median across rounds with the inter-quartile spread across rounds as
//! the run's own noise floor.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method), so the spreads printed here are the numbers
//! an outside driver computes from repeated runs.

pub use islabel_bench::timing::percentile_us;

/// The highest of p99 / p95 / p90 that still leaves at least ten samples
/// beyond it in a sample of `n`; p50 when none does (the 15-sample
/// `build` case). A percentile with fewer than ten samples beyond it is
/// a handful of outliers, not a statistic.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // Whole percents, so that 100 samples × 10 % is exactly ten.
    [99usize, 95, 90]
        .into_iter()
        .find(|p| n * (100 - p) >= 1_000)
        .map_or(0.50, |p| p as f64 / 100.0)
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of integer samples (nanoseconds, counts), as `f64`.
pub fn median_u64(values: &[u64]) -> f64 {
    let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    median(&as_f64)
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them; `None` below two values (Python raises there).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; 0 when there are
/// fewer than two values or the median is 0.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// A per-round statistic reduced across rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median across rounds — the reported value.
    pub median: f64,
    /// Inter-quartile spread across rounds, as a share of the median.
    pub spread: f64,
    /// Rounds that contributed.
    pub rounds: usize,
}

/// Median-across-rounds and spread of one per-round statistic.
pub fn summarize(per_round: &[f64]) -> Summary {
    Summary {
        median: median(per_round),
        spread: iqr_spread(per_round),
        rounds: per_round.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        // The `build` workload: 15 builds support the median only.
        assert_eq!(highest_supported_percentile(15), 0.50);
        assert_eq!(highest_supported_percentile(0), 0.50);
        assert_eq!(highest_supported_percentile(99), 0.50);
        assert_eq!(highest_supported_percentile(100), 0.90);
        assert_eq!(highest_supported_percentile(200), 0.95);
        assert_eq!(highest_supported_percentile(999), 0.95);
        assert_eq!(highest_supported_percentile(1000), 0.99);
        assert_eq!(highest_supported_percentile(500_000), 0.99);
    }

    #[test]
    fn percentiles_are_nearest_rank_over_sorted_nanoseconds() {
        let sorted: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        // `timing::percentile_us` picks index round((n - 1) * q).
        assert_eq!(percentile_us(&sorted, 0.50), 501.0);
        assert_eq!(percentile_us(&sorted, 0.99), 990.0);
        assert_eq!(percentile_us(&[], 0.99), 0.0);
    }

    #[test]
    fn median_handles_empty_odd_and_even() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_u64(&[10, 30, 20]), 20.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8], n=4) == [2.25, 4.5, 6.75]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).unwrap();
        assert_eq!((q1, q3), (2.25, 6.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[20.0, 10.0]).unwrap();
        assert_eq!((q1, q3), (7.5, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4)[0::2] == [2, 32]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]).unwrap();
        assert_eq!((q1, q3), (2.0, 32.0));
    }

    #[test]
    fn summaries_of_empty_and_single_round_inputs_have_no_spread() {
        assert_eq!(
            summarize(&[]),
            Summary {
                median: 0.0,
                spread: 0.0,
                rounds: 0
            }
        );
        let one = summarize(&[42.0]);
        assert_eq!((one.median, one.spread, one.rounds), (42.0, 0.0, 1));
        let eight = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(eight.median, 4.5);
        assert!((eight.spread - 1.0).abs() < 1e-12);
        // A zero median cannot carry a relative spread.
        assert_eq!(iqr_spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
