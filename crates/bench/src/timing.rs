//! Timing helpers.

use std::time::{Duration, Instant};

/// Runs `f`, returning its result and wall-clock duration.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Formats a duration as fractional milliseconds: build times and the
/// modeled Time (a).
pub fn ms(d: Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

/// Nearest-rank percentile of pre-sorted nanosecond latencies, in
/// microseconds — the definition behind the repo benchmark's
/// `latency_p50_us` / `latency_p90_us` (`benchmark/`).
pub fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Formats per-query times as their median with the p25–p75 range, in
/// microseconds: `"1.23 µs (1.10–1.40)"`.
pub fn median_us(samples: impl IntoIterator<Item = Duration>) -> String {
    let mut ns: Vec<u64> = samples.into_iter().map(|d| d.as_nanos() as u64).collect();
    ns.sort_unstable();
    let p = |q| percentile_us(&ns, q);
    format!("{:.2} µs ({:.2}–{:.2})", p(0.5), p(0.25), p(0.75))
}

/// Mean duration per item.
pub fn per_query(total: Duration, n: usize) -> Duration {
    if n == 0 {
        Duration::ZERO
    } else {
        total / n as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(ms(Duration::from_micros(1500)), "1.50 ms");
        let samples = [4, 1, 3, 2, 5].map(Duration::from_micros);
        assert_eq!(median_us(samples), "3.00 µs (2.00–4.00)");
    }

    #[test]
    fn per_query_division() {
        assert_eq!(
            per_query(Duration::from_millis(100), 10),
            Duration::from_millis(10)
        );
        assert_eq!(per_query(Duration::from_millis(100), 0), Duration::ZERO);
    }

    #[test]
    fn time_measures() {
        let (v, d) = time(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }
}
