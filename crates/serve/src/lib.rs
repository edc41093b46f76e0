#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # islabel-serve
//!
//! The concurrent serving layer over the IS-LABEL workspace: a
//! [`QueryService`] that answers point-to-point distance queries from an
//! immutable, hot-swappable index [`Snapshot`] **on the thread that
//! asked** (ADR-0008).
//!
//! The paper's index is built once and then serves a workload of
//! independent queries that cost microseconds each (Section 2), so there
//! is nothing to hand a query to: the service owns no thread, no queue
//! and no lock.
//!
//! * **Caller-runs** — [`QueryService::query`] pins the current snapshot,
//!   opens a [`QuerySession`] and answers before it returns.
//! * **Batches** — [`QueryService::submit`] pins **one** snapshot for the
//!   whole batch, cuts it into at most [`ServeConfig::shards`] chunks and
//!   answers the first on the caller and the rest under
//!   [`std::thread::scope`], each chunk through its own session. The
//!   [`BatchTicket`] it returns already holds the result.
//! * **Hot swap** — the service queries through an [`OracleHandle`]: swap
//!   in a freshly built index at any time. A call pins exactly one
//!   generation before its first query and every answer it returns comes
//!   from that generation; the next call sees the new index.
//! * **Observability** — one set of query / chunk / error / busy-time
//!   counters and a fixed-bucket latency histogram per service
//!   ([`ServiceStats`]); [`answer_traced`] re-emits every query's phase
//!   trace to the process-wide registry and slow-query log, here and in
//!   the network server.
//! * **Background compaction** — [`RebuildCoordinator`] ([`rebuild`])
//!   folds accumulated dynamic updates (overlay + write-ahead log) into a
//!   fresh pristine index on a worker thread, then atomically persists,
//!   swaps, and truncates the log — *new index durable → swap → WAL
//!   truncate*, so a crash at any point loses nothing. It runs core's one
//!   compaction pipeline (`persist::compact_and_publish`) and supplies
//!   only the swap.
//!
//! ```
//! use islabel_core::{BuildConfig, IsLabelIndex};
//! use islabel_graph::GraphBuilder;
//! use islabel_serve::{QueryService, ServeConfig};
//! use std::sync::Arc;
//!
//! let mut b = GraphBuilder::new(4);
//! for v in 0..3 {
//!     b.add_edge(v, v + 1, 2);
//! }
//! let index = IsLabelIndex::try_build(&b.build(), BuildConfig::default())?;
//!
//! let service = QueryService::start(Arc::new(index), ServeConfig::default());
//! assert_eq!(service.query(0, 3), Ok(Some(6)));
//! let ticket = service.submit(&[(0, 1), (1, 1), (0, 3)]);
//! assert_eq!(ticket.wait(), Ok(vec![Some(2), Some(0), Some(6)]));
//! let stats = service.shutdown();
//! assert_eq!(stats.queries, 4);
//! # Ok::<(), islabel_core::Error>(())
//! ```

pub mod rebuild;

#[cfg(test)]
#[path = "../../core/src/testdir.rs"]
mod testdir;

pub use rebuild::{CompactError, CompactStats, RebuildCoordinator};

use islabel_core::snapshot::{OracleHandle, SharedOracle, Snapshot};
use islabel_core::{DistanceOracle, QueryError, QuerySession};
use islabel_graph::{Dist, VertexId};
use islabel_obs::{AtomicLatencyHistogram, LatencyHistogram};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one sizing knob of a [`QueryService`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// Most chunks (and so threads, the caller included) one
    /// [`submit`](QueryService::submit) is split over; `0` selects
    /// [`std::thread::available_parallelism`].
    pub shards: usize,
}

impl ServeConfig {
    /// A config with an explicit shard count (`0` = auto).
    pub fn with_shards(shards: usize) -> Self {
        Self { shards }
    }

    fn effective_shards(&self) -> usize {
        match self.shards {
            0 => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

/// The result of one [`QueryService::submit`] call. The batch was answered
/// before `submit` returned; the ticket only carries the answers out.
#[must_use = "the answers are inside: call wait()"]
#[derive(Debug)]
pub struct BatchTicket {
    result: Result<Vec<Option<Dist>>, QueryError>,
}

impl BatchTicket {
    /// The distances in input order; never blocks. Any failing query fails
    /// the whole batch (as in [`DistanceOracle::distance_batch`]) with the
    /// error of the first failing pair in input order.
    pub fn wait(self) -> Result<Vec<Option<Dist>>, QueryError> {
        self.result
    }
}

/// Monotonic per-service counters, written by whichever thread answers
/// with relaxed atomics.
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    batches: AtomicU64,
    busy_nanos: AtomicU64,
    errors: AtomicU64,
    latency: AtomicLatencyHistogram,
}

/// A point-in-time snapshot of a service's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries answered (including ones that returned an error).
    pub queries: u64,
    /// Chunks answered: one per [`query`](QueryService::query), up to
    /// [`shards`](ServeConfig::shards) per [`submit`](QueryService::submit).
    pub batches: u64,
    /// Wall-clock time spent answering chunks, session open included,
    /// summed over the threads that ran them.
    pub busy: Duration,
    /// Chunks cut short by a typed query error.
    pub errors: u64,
    /// Per-query service-time distribution (the session call alone), with
    /// [`p50`](LatencyHistogram::p50) / [`p99`](LatencyHistogram::p99)
    /// accessors.
    pub latency: LatencyHistogram,
}

impl ServiceStats {
    /// Mean busy time per query (`busy / queries`).
    pub fn mean_query_latency(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.busy / self.queries.min(u64::from(u32::MAX)) as u32
        }
    }
}

/// Answers distance queries from a hot-swappable index snapshot on the
/// calling thread.
///
/// See the [crate docs](crate) for the serving model. The service owns no
/// thread: it is a handle, a chunk count and a set of counters, and load
/// is bounded by the number of callers.
#[derive(Debug)]
pub struct QueryService {
    handle: Arc<OracleHandle>,
    shards: usize,
    counters: Arc<Counters>,
}

impl QueryService {
    /// Starts a service over a freshly wrapped oracle.
    pub fn start(oracle: SharedOracle, config: ServeConfig) -> Self {
        Self::with_handle(
            Arc::new(OracleHandle::new(Snapshot::from_arc(oracle))),
            config,
        )
    }

    /// Starts a service over an existing [`OracleHandle`], sharing it with
    /// whoever performs the swaps (e.g. an index-rebuild pipeline).
    pub fn with_handle(handle: Arc<OracleHandle>, config: ServeConfig) -> Self {
        Self {
            handle,
            shards: config.effective_shards(),
            counters: Arc::default(),
        }
    }

    /// The shared handle every call loads its snapshot from.
    pub fn handle(&self) -> &Arc<OracleHandle> {
        &self.handle
    }

    /// Hot-swaps the served index (see [`OracleHandle::swap`]): calls that
    /// start afterwards are answered by `oracle`, calls already running
    /// finish on the snapshot they pinned. Returns the retired snapshot.
    pub fn swap(&self, oracle: SharedOracle) -> Snapshot {
        self.handle.swap(oracle)
    }

    /// Convenience: [`swap`](QueryService::swap) for an unshared engine.
    pub fn swap_oracle(&self, oracle: impl DistanceOracle + 'static) -> Snapshot {
        self.handle.swap_oracle(oracle)
    }

    /// Most chunks one [`submit`](QueryService::submit) is split over.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Answers a batch of independent queries from **one** snapshot and
    /// returns them in a ticket. The batch is cut into at most
    /// [`num_shards`](QueryService::num_shards) contiguous chunks; the
    /// first runs on the caller, the rest on scoped threads, each through
    /// its own session.
    pub fn submit(&self, pairs: &[(VertexId, VertexId)]) -> BatchTicket {
        let snapshot = &self.handle.load();
        let mut out = vec![None; pairs.len()];
        let chunk = pairs.len().div_ceil(self.shards).max(1);
        let mut chunks = pairs.chunks(chunk).zip(out.chunks_mut(chunk));
        let first = chunks.next();
        let result = std::thread::scope(|scope| {
            let rest: Vec<_> = chunks
                .map(|(work, slots)| scope.spawn(move || self.answer_chunk(snapshot, work, slots)))
                .collect();
            let mut result = match first {
                Some((work, slots)) => self.answer_chunk(snapshot, work, slots),
                None => Ok(()),
            };
            for worker in rest {
                result = result.and(worker.join().expect("batch chunk panicked"));
            }
            result
        });
        BatchTicket {
            result: result.map(|()| out),
        }
    }

    /// Answers one query on the calling thread.
    pub fn query(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        let mut out = [None];
        self.answer_chunk(&self.handle.load(), &[(s, t)], &mut out)?;
        Ok(out[0])
    }

    /// Answers `pairs` into `out` through one session of `snapshot`,
    /// stopping at the first error, and counts the chunk.
    fn answer_chunk(
        &self,
        snapshot: &Snapshot,
        pairs: &[(VertexId, VertexId)],
        out: &mut [Option<Dist>],
    ) -> Result<(), QueryError> {
        let t0 = Instant::now();
        let mut session = snapshot.session();
        let mut answered = 0;
        let mut result = Ok(());
        for (slot, &(s, t)) in out.iter_mut().zip(pairs) {
            let (answer, elapsed) = answer_traced(session.as_mut(), s, t, snapshot.version());
            self.counters.latency.record(elapsed);
            answered += 1;
            match answer {
                Ok(d) => *slot = d,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        let c = &self.counters;
        // ordering: Relaxed — independent monotonic counters; stats reads
        // tolerate tearing across counters by design.
        c.queries.fetch_add(answered, Ordering::Relaxed);
        c.batches.fetch_add(1, Ordering::Relaxed);
        c.busy_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if result.is_err() {
            // ordering: Relaxed — same counter discipline.
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// A point-in-time snapshot of the service's counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            // ordering: Relaxed — independent monotonic counters; a stats
            // snapshot tolerates tearing by design.
            queries: c.queries.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            busy: Duration::from_nanos(c.busy_nanos.load(Ordering::Relaxed)),
            errors: c.errors.load(Ordering::Relaxed),
            latency: c.latency.snapshot(),
        }
    }

    /// Registers this service's counters and latency histogram on
    /// `registry` as collector closures (sampled at exposition time, so
    /// recording stays a plain relaxed atomic on the answering thread).
    /// Re-registering — e.g. after a service restart — replaces the
    /// previous instance's collectors.
    pub fn register_metrics(&self, registry: &islabel_obs::Registry) {
        use islabel_obs::names::*;
        let counter = |name, help, read: fn(&Counters) -> &AtomicU64| {
            let c = Arc::clone(&self.counters);
            // ordering: Relaxed — independent monotonic counter; the
            // exposition snapshot tolerates tearing by design.
            registry.counter_fn(name, help, &[], move || read(&c).load(Ordering::Relaxed));
        };
        counter(
            METRIC_SERVE_QUERIES_TOTAL,
            "Queries answered by the service.",
            |c| &c.queries,
        );
        counter(
            METRIC_SERVE_BATCHES_TOTAL,
            "Batch chunks answered by the service.",
            |c| &c.batches,
        );
        counter(
            METRIC_SERVE_ERRORS_TOTAL,
            "Chunks cut short by a typed query error.",
            |c| &c.errors,
        );
        counter(
            METRIC_SERVE_BUSY_NANOSECONDS_TOTAL,
            "Wall-clock nanoseconds spent answering, summed over threads.",
            |c| &c.busy_nanos,
        );
        let c = Arc::clone(&self.counters);
        registry.histogram_fn(
            METRIC_SERVE_QUERY_LATENCY_SECONDS,
            "Service time per query.",
            &[],
            move || c.latency.snapshot(),
        );
    }

    /// Ends the service and returns the final stats. There is nothing to
    /// drain or join: every call was answered before it returned.
    pub fn shutdown(self) -> ServiceStats {
        self.stats()
    }
}

/// Answers one pair through `session` and times it — the one place a
/// served query is traced, shared by [`QueryService`] and both query
/// opcodes of the network server. If the query ran the seeded search
/// (`s == t` and errors short-circuit before it), its phase sample is
/// re-emitted to [`QueryPhases::global`](islabel_obs::QueryPhases::global)
/// and offered to the slow-query log, tagged with the snapshot
/// `generation` that answered. Re-emission happens here, after the engine
/// returns — never inside the session's kernel loops (see the
/// counter-placement invariant in the islabel-obs crate docs).
pub fn answer_traced(
    session: &mut dyn QuerySession,
    s: VertexId,
    t: VertexId,
    generation: u64,
) -> (Result<Option<Dist>, QueryError>, Duration) {
    let traced_before = session.trace().map_or(0, |tr| tr.queries);
    let q0 = Instant::now();
    let answer = session.distance(s, t);
    let elapsed = q0.elapsed();
    if let Some(sample) = session
        .trace()
        .filter(|tr| tr.queries > traced_before)
        .map(|tr| tr.last)
    {
        islabel_obs::QueryPhases::global().record(
            sample.intersect_ns,
            sample.seed_ns,
            sample.search_ns,
            sample.settled,
            sample.relaxed,
            sample.pushed,
        );
        islabel_obs::SlowQueryLog::global().observe(islabel_obs::SlowQuery {
            seq: 0,
            src: s,
            dst: t,
            dist: answer.ok().flatten(),
            total_ns: elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
            intersect_ns: sample.intersect_ns,
            seed_ns: sample.seed_ns,
            search_ns: sample.search_ns,
            settled: sample.settled,
            snapshot_generation: generation,
        });
    }
    (answer, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_baselines::BiDijkstraOracle;
    use islabel_core::{BuildConfig, IsLabelIndex};
    use islabel_graph::generators::{erdos_renyi_gnm, WeightModel};
    use islabel_graph::{CsrGraph, GraphBuilder};

    fn test_graph() -> CsrGraph {
        erdos_renyi_gnm(120, 300, WeightModel::UniformRange(1, 7), 0x5E)
    }

    fn service_over(g: &CsrGraph, shards: usize) -> QueryService {
        let index = IsLabelIndex::try_build(g, BuildConfig::default()).unwrap();
        QueryService::start(Arc::new(index), ServeConfig::with_shards(shards))
    }

    #[test]
    fn batches_match_direct_queries() {
        let g = test_graph();
        let reference = BiDijkstraOracle::new(g.clone());
        let service = service_over(&g, 3);
        let pairs: Vec<(VertexId, VertexId)> =
            (0..200u32).map(|i| (i % 120, (i * 13 + 7) % 120)).collect();
        let expect: Vec<Option<Dist>> = pairs
            .iter()
            .map(|&(s, t)| reference.try_distance(s, t).unwrap())
            .collect();
        let got = service.submit(&pairs).wait().unwrap();
        assert_eq!(got, expect);
        let stats = service.shutdown();
        assert_eq!(stats.queries, 200);
        assert_eq!(stats.batches, 3, "200 pairs over 3 shards");
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn typed_errors_fail_the_batch_not_the_service() {
        let g = test_graph();
        let service = service_over(&g, 2);
        let err = service.submit(&[(0, 1), (0, 999)]).wait();
        assert!(matches!(
            err,
            Err(QueryError::VertexOutOfRange { vertex: 999, .. })
        ));
        // The service keeps serving after a failed batch.
        assert!(service.query(0, 1).is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let g = test_graph();
        let service = service_over(&g, 2);
        assert_eq!(service.submit(&[]).wait(), Ok(vec![]));
    }

    #[test]
    fn shutdown_reports_every_answered_query() {
        let g = test_graph();
        let service = service_over(&g, 1);
        let tickets: Vec<BatchTicket> = (0..30)
            .map(|i| service.submit(&[(i % 120, (i * 7 + 1) % 120), (0, i % 120)]))
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.queries, 60);
        assert_eq!(stats.batches, 30, "one shard: one chunk a submit");
        for ticket in tickets {
            ticket.wait().unwrap();
        }
    }

    #[test]
    fn shard_stats_carry_real_latency_percentiles() {
        let g = test_graph();
        let service = service_over(&g, 2);
        let pairs: Vec<(VertexId, VertexId)> =
            (0..100u32).map(|i| (i % 120, (i * 17 + 3) % 120)).collect();
        service.submit(&pairs).wait().unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.latency.count(), 100, "one observation per query");
        assert_eq!(stats.latency.count(), stats.queries);
        assert!(stats.latency.p50() > Duration::ZERO);
        assert!(stats.latency.p99() >= stats.latency.p50());
        assert!(stats.busy >= Duration::from_nanos(stats.latency.sum_nanos()));
    }

    #[test]
    fn hot_swap_switches_answers_for_new_requests() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 4);
        b.add_edge(1, 2, 4);
        let before = IsLabelIndex::try_build(&b.build(), BuildConfig::default()).unwrap();
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let after = IsLabelIndex::try_build(&b.build(), BuildConfig::default()).unwrap();

        let service = QueryService::start(Arc::new(before), ServeConfig::with_shards(2));
        assert_eq!(service.query(0, 2), Ok(Some(8)));
        let retired = service.swap_oracle(after);
        assert_eq!(retired.version(), 0);
        assert_eq!(service.handle().version(), 1);
        assert_eq!(service.query(0, 2), Ok(Some(2)));
        // The retired snapshot still answers for whoever pinned it.
        assert_eq!(retired.oracle().try_distance(0, 2), Ok(Some(8)));
    }
}
