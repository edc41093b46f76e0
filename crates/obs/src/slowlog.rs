//! The slow-query ring log: a fixed-capacity buffer of the most recent
//! queries whose total service time crossed a runtime-settable
//! threshold. Entries carry the full phase breakdown the paper's
//! experiments report per query — Equation-1 intersect time, seed
//! translation, dense `G_k` search, settled vertices — plus the snapshot
//! generation that answered, so one log line is enough to attribute an
//! outlier.
//!
//! The threshold defaults to 0 = disabled: the hot path then pays one
//! relaxed atomic load per query and nothing else.

use crate::metric::Counter;
use crate::names::METRIC_SLOW_QUERIES_TOTAL;
use crate::registry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One logged slow query. `seq` is assigned by the log (monotonic since
/// process start), everything else by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// Monotonic sequence number assigned at
    /// [`observe`](SlowQueryLog::observe) time.
    pub seq: u64,
    /// Query source vertex.
    pub src: u32,
    /// Query target vertex.
    pub dst: u32,
    /// Answered distance (`None` = unreachable or errored).
    pub dist: Option<u64>,
    /// Total service time.
    pub total_ns: u64,
    /// Equation-1 label-intersection phase.
    pub intersect_ns: u64,
    /// Seed fetch/translation phase.
    pub seed_ns: u64,
    /// Dense `G_k` bidirectional search phase.
    pub search_ns: u64,
    /// Vertices settled by the dense search.
    pub settled: u64,
    /// Snapshot generation (hot-swap version) that answered.
    pub snapshot_generation: u64,
}

struct Ring {
    entries: Vec<SlowQuery>,
    /// Index the next entry overwrites once the ring is full.
    next: usize,
    seq: u64,
}

/// Threshold-gated ring buffer of recent slow queries. See the
/// [module docs](self).
pub struct SlowQueryLog {
    threshold_ns: AtomicU64,
    capacity: usize,
    ring: Mutex<Ring>,
    logged: Arc<Counter>,
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryLog")
            .field("threshold_ns", &self.threshold_ns())
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// Default capacity of [`SlowQueryLog::global`].
const DEFAULT_SLOWLOG_CAPACITY: usize = 128;

impl SlowQueryLog {
    /// A disabled log (threshold 0) holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self::with_registry(capacity, Registry::global())
    }

    /// [`new`](Self::new) counting into a private registry (tests).
    pub fn with_registry(capacity: usize, registry: &Registry) -> Self {
        Self {
            threshold_ns: AtomicU64::new(0),
            capacity: capacity.max(1),
            ring: Mutex::new(Ring {
                entries: Vec::new(),
                next: 0,
                seq: 0,
            }),
            logged: registry.counter(
                METRIC_SLOW_QUERIES_TOTAL,
                "Queries that crossed the slow-query threshold.",
                &[],
            ),
        }
    }

    /// The process-wide log the serving layers feed and the `Metrics`
    /// exposition appends.
    pub fn global() -> &'static SlowQueryLog {
        static GLOBAL: OnceLock<SlowQueryLog> = OnceLock::new();
        GLOBAL.get_or_init(|| SlowQueryLog::new(DEFAULT_SLOWLOG_CAPACITY))
    }

    /// Sets the logging threshold; 0 disables the log.
    pub fn set_threshold_ns(&self, ns: u64) {
        // ordering: Relaxed — a runtime knob read per query; no memory
        // is published through it.
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Current threshold in nanoseconds (0 = disabled).
    pub fn threshold_ns(&self) -> u64 {
        // ordering: Relaxed — same knob discipline as the store.
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Logs `q` if its `total_ns` crosses the threshold (`seq` is
    /// overwritten with the log's own sequence). A no-op while disabled
    /// — one relaxed load and out.
    pub fn observe(&self, mut q: SlowQuery) {
        let threshold = self.threshold_ns();
        if threshold == 0 || q.total_ns < threshold {
            return;
        }
        self.logged.inc();
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.seq += 1;
        q.seq = ring.seq;
        if ring.entries.len() < self.capacity {
            ring.entries.push(q);
        } else {
            let at = ring.next;
            ring.entries[at] = q;
        }
        ring.next = (ring.next + 1) % self.capacity;
    }

    /// Queries logged since process start (survives ring wraparound).
    pub fn total_logged(&self) -> u64 {
        self.logged.get()
    }

    /// A snapshot of the retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(ring.entries.len());
        if ring.entries.len() == self.capacity {
            out.extend_from_slice(&ring.entries[ring.next..]);
            out.extend_from_slice(&ring.entries[..ring.next]);
        } else {
            out.extend_from_slice(&ring.entries);
        }
        out
    }

    /// Appends the retained entries as `#`-comment lines (scrapers
    /// ignore comments, humans reading the exposition get the log for
    /// free).
    pub fn render_into(&self, out: &mut String) {
        for e in self.entries() {
            out.push_str(&format!(
                "# slow_query seq={} src={} dst={} dist={} total_ns={} intersect_ns={} seed_ns={} search_ns={} settled={} snapshot={}\n",
                e.seq,
                e.src,
                e.dst,
                e.dist.map_or_else(|| "unreachable".to_string(), |d| d.to_string()),
                e.total_ns,
                e.intersect_ns,
                e.seed_ns,
                e.search_ns,
                e.settled,
                e.snapshot_generation,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(total_ns: u64, src: u32) -> SlowQuery {
        SlowQuery {
            seq: 0,
            src,
            dst: src + 1,
            dist: Some(u64::from(src) * 2),
            total_ns,
            intersect_ns: 1,
            seed_ns: 2,
            search_ns: total_ns.saturating_sub(3),
            settled: 10,
            snapshot_generation: 7,
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let r = Registry::new();
        let log = SlowQueryLog::with_registry(4, &r);
        log.observe(q(1_000_000, 1));
        assert!(log.entries().is_empty());
        assert_eq!(log.total_logged(), 0);
    }

    #[test]
    fn threshold_gates_and_ring_wraps_oldest_first() {
        let r = Registry::new();
        let log = SlowQueryLog::with_registry(3, &r);
        log.set_threshold_ns(100);
        log.observe(q(99, 0)); // below threshold: dropped
        for i in 1..=5u32 {
            log.observe(q(100 + u64::from(i), i));
        }
        assert_eq!(log.total_logged(), 5);
        let entries = log.entries();
        // Capacity 3: entries 1 and 2 were overwritten by 4 and 5.
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries.iter().map(|e| e.src).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        // seq is monotonic and oldest-first.
        assert!(entries.windows(2).all(|w| w[0].seq < w[1].seq));

        let mut text = String::new();
        log.render_into(&mut text);
        assert_eq!(text.lines().count(), 3);
        assert!(
            text.contains("# slow_query seq=5 src=5 dst=6 dist=10"),
            "{text}"
        );
        assert!(text.contains("settled=10 snapshot=7"), "{text}");
    }
}
