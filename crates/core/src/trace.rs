//! Allocation-free per-session query-phase tracing.
//!
//! Every engine session (heap, patched-overlay, directed, mmap) routes
//! its queries through [`crate::dense::seeded_search`], which records the
//! per-phase split the paper's experiments report — Equation-1 label
//! intersection, seed fetch/translation, dense `G_k` search — into a
//! [`QueryTrace`] owned by the session.
//!
//! Two invariants keep tracing free on the hot path (see the
//! `islabel-obs` crate docs for the full counter-placement argument):
//!
//! * **Plain pre-sized fields.** The trace is a handful of `u64`s on the
//!   session struct — no atomics, no allocation, so the counting-
//!   allocator audit (`tests/alloc_free.rs`) and the `lint.toml` alloc
//!   zones hold with tracing active (the default).
//! * **`Instant` reads only at phase boundaries.** At most four
//!   `Instant::now()` calls per query, none inside a loop; with
//!   [`QueryTrace::enabled`] false, zero.
//!
//! The serving layers drain [`QueryTrace::last`] once per query into the
//! process-wide registry and the slow-query log; the cumulative fields
//! let offline tools (`islabel stats`, the repo benchmark's traced runs)
//! report phase shares without touching a registry at all.

/// The phase split of a single traced query, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSample {
    /// Equation-1 label intersection.
    pub intersect_ns: u64,
    /// Seed fetch: label entries translated to dense ids.
    pub seed_ns: u64,
    /// Dense `G_k` bidirectional search.
    pub search_ns: u64,
    /// Vertices settled by the dense search.
    pub settled: u64,
    /// Edges scanned by the dense search (pruned ones included).
    pub relaxed: u64,
    /// Heap pushes or decrease-keys made by the dense search, seeds
    /// included — the relaxations that survived the µ bound.
    pub pushed: u64,
}

impl PhaseSample {
    /// Sum of the traced phases (excludes per-query bookkeeping outside
    /// the search itself).
    pub fn total_ns(&self) -> u64 {
        self.intersect_ns + self.seed_ns + self.search_ns
    }
}

/// Per-session trace state: cumulative phase totals plus the most recent
/// query's sample. Enabled by default; flipping [`enabled`] off removes
/// even the boundary `Instant` reads (the bench's metrics-off mode).
///
/// [`enabled`]: QueryTrace::enabled
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// Whether phase boundaries are timed. Default `true`.
    pub enabled: bool,
    /// Queries traced through the seeded search.
    pub queries: u64,
    /// Cumulative Equation-1 intersect time.
    pub intersect_ns: u64,
    /// Cumulative seed-fetch time.
    pub seed_ns: u64,
    /// Cumulative dense-search time.
    pub search_ns: u64,
    /// Cumulative settled vertices.
    pub settled: u64,
    /// Cumulative scanned edges.
    pub relaxed: u64,
    /// Cumulative heap pushes or decrease-keys.
    pub pushed: u64,
    /// The most recent query's sample.
    pub last: PhaseSample,
}

impl Default for QueryTrace {
    fn default() -> Self {
        Self {
            enabled: true,
            queries: 0,
            intersect_ns: 0,
            seed_ns: 0,
            search_ns: 0,
            settled: 0,
            relaxed: 0,
            pushed: 0,
            last: PhaseSample::default(),
        }
    }
}

impl QueryTrace {
    /// An enabled, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A trace that records nothing (and reads no clocks).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Accumulates one query's phase sample. Called by the seeded search
    /// at the final phase boundary; plain field adds, no allocation.
    #[inline]
    pub fn record_query(&mut self, sample: PhaseSample) {
        self.queries += 1;
        self.intersect_ns += sample.intersect_ns;
        self.seed_ns += sample.seed_ns;
        self.search_ns += sample.search_ns;
        self.settled += sample.settled;
        self.relaxed += sample.relaxed;
        self.pushed += sample.pushed;
        self.last = sample;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_keeps_last() {
        let mut tr = QueryTrace::new();
        assert!(tr.enabled);
        let sample = |a, b, c, settled, relaxed, pushed| PhaseSample {
            intersect_ns: a,
            seed_ns: b,
            search_ns: c,
            settled,
            relaxed,
            pushed,
        };
        tr.record_query(sample(10, 20, 30, 4, 40, 7));
        tr.record_query(sample(1, 2, 3, 5, 50, 8));
        assert_eq!(tr.queries, 2);
        assert_eq!(tr.intersect_ns, 11);
        assert_eq!(tr.seed_ns, 22);
        assert_eq!(tr.search_ns, 33);
        assert_eq!((tr.settled, tr.relaxed, tr.pushed), (9, 90, 15));
        assert_eq!(tr.last.total_ns(), 6);
        assert!(!QueryTrace::disabled().enabled);
    }
}
