//! Process-wide query-phase counters: the serving layers drain each
//! session's `QueryTrace` sample here once per query, after the kernel
//! returns (the counter-placement invariant in the [crate docs](crate)).

use crate::metric::Counter;
use crate::names::{
    METRIC_QUERY_PHASE_NANOSECONDS_TOTAL, METRIC_QUERY_PUSHED_TOTAL, METRIC_QUERY_RELAXED_TOTAL,
    METRIC_QUERY_SETTLED_TOTAL, METRIC_QUERY_TRACED_TOTAL,
};
use crate::registry::Registry;
use std::sync::{Arc, OnceLock};

/// Owned handles for the per-phase totals; one relaxed add per phase per
/// query at the serving layer.
#[derive(Debug)]
pub struct QueryPhases {
    intersect_ns: Arc<Counter>,
    seed_ns: Arc<Counter>,
    search_ns: Arc<Counter>,
    settled: Arc<Counter>,
    relaxed: Arc<Counter>,
    pushed: Arc<Counter>,
    traced: Arc<Counter>,
}

impl QueryPhases {
    /// Handles registered on `registry`.
    pub fn with_registry(registry: &Registry) -> Self {
        const PHASE_HELP: &str =
            "Cumulative query time by phase (Equation-1 intersect / seed fetch / dense search).";
        Self {
            intersect_ns: registry.counter(
                METRIC_QUERY_PHASE_NANOSECONDS_TOTAL,
                PHASE_HELP,
                &[("phase", "intersect")],
            ),
            seed_ns: registry.counter(
                METRIC_QUERY_PHASE_NANOSECONDS_TOTAL,
                PHASE_HELP,
                &[("phase", "seed")],
            ),
            search_ns: registry.counter(
                METRIC_QUERY_PHASE_NANOSECONDS_TOTAL,
                PHASE_HELP,
                &[("phase", "search")],
            ),
            settled: registry.counter(
                METRIC_QUERY_SETTLED_TOTAL,
                "Vertices settled by the dense G_k search, summed over queries.",
                &[],
            ),
            relaxed: registry.counter(
                METRIC_QUERY_RELAXED_TOTAL,
                "Edges scanned by the dense G_k search (pruned ones included), summed over queries.",
                &[],
            ),
            pushed: registry.counter(
                METRIC_QUERY_PUSHED_TOTAL,
                "Heap pushes or decrease-keys made by the dense G_k search, summed over queries.",
                &[],
            ),
            traced: registry.counter(
                METRIC_QUERY_TRACED_TOTAL,
                "Queries whose phase trace was recorded.",
                &[],
            ),
        }
    }

    /// The handles on [`Registry::global`].
    pub fn global() -> &'static QueryPhases {
        static GLOBAL: OnceLock<QueryPhases> = OnceLock::new();
        GLOBAL.get_or_init(|| QueryPhases::with_registry(Registry::global()))
    }

    /// Adds one traced query's phase sample: the three phase times, then
    /// the search's work counts.
    #[inline]
    pub fn record(
        &self,
        intersect_ns: u64,
        seed_ns: u64,
        search_ns: u64,
        settled: u64,
        relaxed: u64,
        pushed: u64,
    ) {
        self.intersect_ns.add(intersect_ns);
        self.seed_ns.add(seed_ns);
        self.search_ns.add(search_ns);
        self.settled.add(settled);
        self.relaxed.add(relaxed);
        self.pushed.add(pushed);
        self.traced.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_land_in_labeled_series() {
        let r = Registry::new();
        let p = QueryPhases::with_registry(&r);
        p.record(10, 20, 30, 4, 40, 7);
        p.record(1, 2, 3, 5, 50, 8);
        let text = r.render();
        assert!(
            text.contains("islabel_query_phase_nanoseconds_total{phase=\"intersect\"} 11"),
            "{text}"
        );
        assert!(
            text.contains("islabel_query_phase_nanoseconds_total{phase=\"seed\"} 22"),
            "{text}"
        );
        assert!(
            text.contains("islabel_query_phase_nanoseconds_total{phase=\"search\"} 33"),
            "{text}"
        );
        assert!(text.contains("islabel_query_settled_total 9"), "{text}");
        assert!(text.contains("islabel_query_relaxed_total 90"), "{text}");
        assert!(text.contains("islabel_query_pushed_total 15"), "{text}");
        assert!(text.contains("islabel_query_traced_total 2"), "{text}");
    }
}
