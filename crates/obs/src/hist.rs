//! The power-of-two latency histogram, promoted here from
//! `islabel-serve` so every layer (the query service, the network server,
//! exposition) shares one implementation. PR 10 adds a running
//! nanosecond sum so the Prometheus `_sum` series is exact rather than
//! bucket-approximated.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets in a [`LatencyHistogram`]: bucket `i` counts
/// latencies in `[2^i, 2^{i+1})` nanoseconds, so 40 buckets span 1 ns to
/// ~18 minutes — any conceivable query service time.
pub const LATENCY_BUCKETS: usize = 40;

/// Lock-free recorder behind [`LatencyHistogram`]: one relaxed atomic
/// bucket increment plus one relaxed sum add per observation, shared
/// across threads. Used by `QueryService` in `islabel-serve` and by
/// the network server in `islabel-net`.
pub struct AtomicLatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_nanos: AtomicU64,
}

impl Default for AtomicLatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicLatencyHistogram {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Records one observation (a relaxed increment of one bucket plus
    /// the running sum).
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        // ordering: Relaxed — independent bucket counters; histogram
        // reads tolerate tearing across buckets by design.
        self.buckets[bucket_index(elapsed)].fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — same counter discipline; the sum may tear
        // against the buckets in a snapshot, which exposition tolerates.
        self.sum_nanos.fetch_add(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counts.
    pub fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            // ordering: Relaxed — same bucket-counter discipline.
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            // ordering: Relaxed — same counter discipline.
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for AtomicLatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

#[inline]
fn bucket_index(elapsed: Duration) -> usize {
    let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    // floor(log2(ns)); `| 1` makes 0 ns land in bucket 0.
    let idx = (63 - (ns | 1).leading_zeros()) as usize;
    idx.min(LATENCY_BUCKETS - 1)
}

/// A fixed-bucket (power-of-two) latency histogram: cheap to record
/// (one increment), cheap to merge, and accurate enough for serving
/// percentiles — [`percentile`](LatencyHistogram::percentile) reports the
/// upper edge of the bucket the quantile falls in, i.e. within 2x of the
/// true value, conservatively rounded up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    sum_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; LATENCY_BUCKETS],
            sum_nanos: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles a histogram from raw parts (the wire `Stats` payload
    /// carries the buckets and sum verbatim).
    pub fn from_parts(counts: [u64; LATENCY_BUCKETS], sum_nanos: u64) -> Self {
        Self { counts, sum_nanos }
    }

    /// Records one observation (single-threaded variant; serving layers
    /// share an [`AtomicLatencyHistogram`] instead).
    pub fn record(&mut self, elapsed: Duration) {
        self.counts[bucket_index(elapsed)] += 1;
        self.sum_nanos += elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact sum of all recorded observations, in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Adds another histogram's counts (and sum) into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum_nanos += other.sum_nanos;
    }

    /// The raw bucket counts; bucket `i` covers `[2^i, 2^{i+1})` ns.
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.counts
    }

    /// The latency at quantile `q` in `[0, 1]`: the upper edge of the
    /// first bucket whose cumulative count reaches `q` of the total.
    /// [`Duration::ZERO`] when nothing has been recorded.
    pub fn percentile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(1u64 << (i + 1).min(63));
            }
        }
        Duration::from_nanos(1u64 << LATENCY_BUCKETS.min(63))
    }

    /// Median observed latency (histogram upper bound).
    pub fn p50(&self) -> Duration {
        self.percentile(0.50)
    }

    /// 99th-percentile observed latency (histogram upper bound).
    pub fn p99(&self) -> Duration {
        self.percentile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_tracks_observations_through_merge_and_snapshot() {
        let atomic = AtomicLatencyHistogram::new();
        atomic.record(Duration::from_nanos(100));
        atomic.record(Duration::from_nanos(300));
        let snap = atomic.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.sum_nanos(), 400);

        let mut local = LatencyHistogram::new();
        local.record(Duration::from_nanos(50));
        local.merge(&snap);
        assert_eq!(local.count(), 3);
        assert_eq!(local.sum_nanos(), 450);

        let rebuilt = LatencyHistogram::from_parts(*local.buckets(), local.sum_nanos());
        assert_eq!(rebuilt, local);
    }

    #[test]
    fn latency_histogram_buckets_and_percentiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), Duration::ZERO);
        // 90 fast observations (~1 µs) and 10 slow ones (~1 ms): p50 must
        // land in the fast bucket's range, p99 in the slow one's.
        for _ in 0..90 {
            h.record(Duration::from_micros(1));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(1));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.p50();
        let p99 = h.p99();
        assert!(
            p50 >= Duration::from_micros(1) && p50 <= Duration::from_micros(2),
            "{p50:?}"
        );
        assert!(
            p99 >= Duration::from_millis(1) && p99 <= Duration::from_millis(2),
            "{p99:?}"
        );
        // Conservative upper edge: the quantile never under-reports by
        // more than the bucket width (2x).
        assert!(h.percentile(1.0) >= p99);

        let atomic = AtomicLatencyHistogram::new();
        atomic.record(Duration::from_nanos(0)); // bucket 0, no panic
        atomic.record(Duration::from_secs(3600)); // clamps to the top bucket
        let snap = atomic.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.buckets()[0], 1);
        assert_eq!(snap.buckets()[LATENCY_BUCKETS - 1], 1);

        let mut merged = snap.clone();
        merged.merge(&h);
        assert_eq!(merged.count(), 102);
    }
}
