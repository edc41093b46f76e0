#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # islabel-serve
//!
//! The concurrent serving layer over the IS-LABEL workspace: a sharded
//! [`QueryService`] worker pool that answers point-to-point distance
//! queries from an immutable, hot-swappable index
//! [`Snapshot`].
//!
//! The paper's index is built once and then serves a workload of
//! independent queries (Section 2); this crate supplies the process
//! architecture that turns the library into a server:
//!
//! * **Sharded workers** — each shard owns a worker thread, a bounded
//!   request queue and a per-thread [`QuerySession`], so the hot path
//!   reuses search state instead of allocating per query and scales with
//!   cores.
//! * **Batch submission** — [`QueryService::submit`] fans a batch out
//!   across the shards and returns a [`BatchTicket`]; callers overlap
//!   submission and collection however they like.
//! * **Hot swap** — the service queries through an [`OracleHandle`]:
//!   swap in a freshly built index at any time, new requests pick it up,
//!   and requests already being processed finish on the snapshot they
//!   started on.
//! * **Observability** — per-shard query/batch/busy-time counters and a
//!   fixed-bucket latency histogram with p50/p99 accessors
//!   ([`ShardStats`], [`LatencyHistogram`]) aggregated in
//!   [`ServiceStats`].
//! * **Graceful shutdown** — [`QueryService::shutdown`] (and `Drop`)
//!   closes the queues, drains every queued request and joins the
//!   workers.
//! * **Background compaction** — [`RebuildCoordinator`] ([`rebuild`])
//!   folds accumulated dynamic updates (overlay + write-ahead log) into a
//!   fresh pristine index on a worker thread, then atomically persists,
//!   swaps, and truncates the log — *new index durable → swap → WAL
//!   truncate*, so a crash at any point loses nothing.
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
//! let index = IsLabelIndex::build(&b.build(), BuildConfig::default());
//!
//! let service = QueryService::start(Arc::new(index), ServeConfig::default());
//! assert_eq!(service.query(0, 3), Ok(Some(6)));
//! let ticket = service.submit(&[(0, 1), (1, 1), (0, 3)]);
//! assert_eq!(ticket.wait(), Ok(vec![Some(2), Some(0), Some(6)]));
//! let stats = service.shutdown();
//! assert_eq!(stats.total_queries(), 4);
//! ```

pub mod rebuild;

pub use rebuild::{CompactError, CompactStats, RebuildCoordinator};

use islabel_core::snapshot::{OracleHandle, SharedOracle, Snapshot};
use islabel_core::{DistanceOracle, QueryError, QuerySession};
use islabel_graph::{Dist, VertexId};
use islabel_obs::{AtomicLatencyHistogram, LatencyHistogram};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing knobs of a [`QueryService`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker shards (threads); `0` selects
    /// [`std::thread::available_parallelism`].
    pub shards: usize,
    /// Bound of each shard's request queue, in batches. Submitters block
    /// when a shard's queue is full — backpressure instead of unbounded
    /// memory growth.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            queue_capacity: 1024,
        }
    }
}

impl ServeConfig {
    /// A config with an explicit shard count (`0` = auto).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
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

/// One queued unit of work: a contiguous chunk of a submitted batch.
struct Job {
    pairs: Vec<(VertexId, VertexId)>,
    /// Offset of this chunk inside the batch's result vector.
    base: usize,
    state: Arc<BatchState>,
}

/// Shared completion state of one submitted batch.
struct BatchState {
    results: Mutex<BatchResults>,
    done: Condvar,
}

struct BatchResults {
    out: Vec<Option<Dist>>,
    first_err: Option<QueryError>,
    /// Chunks still outstanding.
    remaining: usize,
}

/// A claim on the results of one [`QueryService::submit`] call.
///
/// Dropping the ticket without calling [`wait`](BatchTicket::wait) is
/// allowed; the queries still run and their stats are still recorded.
#[must_use = "a ticket does nothing until wait()ed on"]
pub struct BatchTicket {
    state: Arc<BatchState>,
}

impl BatchTicket {
    /// Blocks until every chunk of the batch has been answered; returns
    /// the distances in input order. Any failing query fails the whole
    /// batch (as in [`DistanceOracle::distance_batch`]), but because
    /// chunks run concurrently on different shards, *which* failing
    /// pair's error is reported is unspecified when several fail — don't
    /// rely on it for error-to-pair attribution.
    pub fn wait(self) -> Result<Vec<Option<Dist>>, QueryError> {
        let mut guard = self.state.results.lock().unwrap_or_else(|e| e.into_inner());
        while guard.remaining > 0 {
            guard = self
                .state
                .done
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
        match guard.first_err {
            Some(e) => Err(e),
            None => Ok(std::mem::take(&mut guard.out)),
        }
    }
}

impl std::fmt::Debug for BatchTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchTicket").finish_non_exhaustive()
    }
}

/// Bounded MPSC queue feeding one shard's worker.
struct ShardQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl ShardQueue {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks while the queue is full. Returns `false` if the queue was
    /// closed (job dropped) — unreachable through the public API, which
    /// closes queues only once no submitter can exist.
    fn push(&self, job: Job) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.closed {
                return false;
            }
            if state.jobs.len() < self.capacity {
                state.jobs.push_back(job);
                self.not_empty.notify_one();
                return true;
            }
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until a job is available; `None` once closed *and* drained,
    /// so shutdown never discards accepted work.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking pop; `None` when the queue is momentarily empty.
    fn try_pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let job = state.jobs.pop_front();
        if job.is_some() {
            self.not_full.notify_one();
        }
        job
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Monotonic per-shard counters, written by the worker with relaxed
/// atomics.
#[derive(Default)]
struct ShardCounters {
    queries: AtomicU64,
    batches: AtomicU64,
    busy_nanos: AtomicU64,
    errors: AtomicU64,
    swaps_observed: AtomicU64,
    latency: AtomicLatencyHistogram,
}

/// A point-in-time snapshot of one shard's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (`0..num_shards`).
    pub shard: usize,
    /// Queries answered (including ones that returned an error).
    pub queries: u64,
    /// Batch chunks processed.
    pub batches: u64,
    /// Wall-clock time the worker spent answering (excludes queue idle).
    pub busy: Duration,
    /// Queries that returned a typed error.
    pub errors: u64,
    /// Times the worker refreshed its session onto a newer snapshot.
    pub swaps_observed: u64,
    /// Per-query service-time distribution (inside the worker, excludes
    /// queueing), with [`p50`](LatencyHistogram::p50) /
    /// [`p99`](LatencyHistogram::p99) accessors.
    pub latency: LatencyHistogram,
}

impl ShardStats {
    /// Mean in-worker service time per query (`busy / queries`).
    pub fn mean_query_latency(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.busy / self.queries.min(u64::from(u32::MAX)) as u32
        }
    }
}

/// Aggregated [`ShardStats`] for a whole service.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

impl ServiceStats {
    /// Queries answered across all shards.
    pub fn total_queries(&self) -> u64 {
        self.shards.iter().map(|s| s.queries).sum()
    }

    /// Batch chunks processed across all shards.
    pub fn total_batches(&self) -> u64 {
        self.shards.iter().map(|s| s.batches).sum()
    }

    /// Errors across all shards.
    pub fn total_errors(&self) -> u64 {
        self.shards.iter().map(|s| s.errors).sum()
    }

    /// Busy time summed over shards (CPU-seconds of query work).
    pub fn total_busy(&self) -> Duration {
        self.shards.iter().map(|s| s.busy).sum()
    }

    /// Service-wide per-query latency distribution: every shard's
    /// histogram merged.
    pub fn latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for s in &self.shards {
            merged.merge(&s.latency);
        }
        merged
    }
}

struct Shard {
    queue: Arc<ShardQueue>,
    counters: Arc<ShardCounters>,
    worker: Option<JoinHandle<()>>,
}

/// A sharded worker pool answering distance queries from a hot-swappable
/// index snapshot.
///
/// See the [crate docs](crate) for the serving model. Construction spawns
/// the workers immediately; the service accepts queries until
/// [`shutdown`](QueryService::shutdown) (or drop), which drains accepted
/// work before joining.
pub struct QueryService {
    handle: Arc<OracleHandle>,
    shards: Vec<Shard>,
    /// Round-robin cursor so small batches spread across shards.
    next_shard: AtomicUsize,
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
        let num_shards = config.effective_shards();
        let shards = (0..num_shards)
            .map(|i| {
                let queue = Arc::new(ShardQueue::new(config.queue_capacity));
                let counters = Arc::new(ShardCounters::default());
                let worker = {
                    let queue = Arc::clone(&queue);
                    let counters = Arc::clone(&counters);
                    let handle = Arc::clone(&handle);
                    std::thread::Builder::new()
                        .name(format!("islabel-serve-{i}"))
                        .spawn(move || worker_loop(&queue, &handle, &counters))
                        .expect("spawn shard worker")
                };
                Shard {
                    queue,
                    counters,
                    worker: Some(worker),
                }
            })
            .collect();
        Self {
            handle,
            shards,
            next_shard: AtomicUsize::new(0),
        }
    }

    /// The shared handle the workers load snapshots from.
    pub fn handle(&self) -> &Arc<OracleHandle> {
        &self.handle
    }

    /// Hot-swaps the served index (see [`OracleHandle::swap`]): new
    /// requests are answered by `oracle`, requests already being processed
    /// finish on the snapshot they started on. Returns the retired
    /// snapshot.
    pub fn swap(&self, oracle: SharedOracle) -> Snapshot {
        self.handle.swap(oracle)
    }

    /// Convenience: [`swap`](QueryService::swap) for an unshared engine.
    pub fn swap_oracle(&self, oracle: impl DistanceOracle + 'static) -> Snapshot {
        self.handle.swap_oracle(oracle)
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Submits a batch of independent queries and returns a ticket for the
    /// results. The batch is split into contiguous chunks and fanned out
    /// over the shards (small batches round-robin so independent callers
    /// spread); blocks only if the target queues are full (backpressure).
    pub fn submit(&self, pairs: &[(VertexId, VertexId)]) -> BatchTicket {
        let n = pairs.len();
        let num_shards = self.shards.len();
        let num_chunks = num_shards.min(n).max(1);
        let chunk = n.div_ceil(num_chunks).max(1);
        let state = Arc::new(BatchState {
            results: Mutex::new(BatchResults {
                out: vec![None; n],
                first_err: None,
                remaining: if n == 0 { 0 } else { n.div_ceil(chunk) },
            }),
            done: Condvar::new(),
        });
        if n == 0 {
            return BatchTicket { state };
        }
        // ordering: Relaxed — round-robin ticket for shard spreading;
        // only uniqueness matters, no memory is published through it.
        let start = self.next_shard.fetch_add(1, Ordering::Relaxed);
        for (i, slice) in pairs.chunks(chunk).enumerate() {
            let job = Job {
                pairs: slice.to_vec(),
                base: i * chunk,
                state: Arc::clone(&state),
            };
            let accepted = self.shards[(start + i) % num_shards].queue.push(job);
            debug_assert!(accepted, "queues stay open while the service exists");
        }
        BatchTicket { state }
    }

    /// Blocking single query through the pool; equivalent to a one-element
    /// [`submit`](QueryService::submit) + [`BatchTicket::wait`].
    pub fn query(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError> {
        self.submit(&[(s, t)])
            .wait()
            .map(|mut v| v.pop().expect("one result for one query"))
    }

    /// A point-in-time snapshot of every shard's counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardStats {
                    shard: i,
                    // ordering: Relaxed — independent monotonic counters;
                    // a stats snapshot tolerates tearing by design.
                    queries: s.counters.queries.load(Ordering::Relaxed),
                    batches: s.counters.batches.load(Ordering::Relaxed),
                    busy: Duration::from_nanos(s.counters.busy_nanos.load(Ordering::Relaxed)),
                    errors: s.counters.errors.load(Ordering::Relaxed),
                    swaps_observed: s.counters.swaps_observed.load(Ordering::Relaxed),
                    latency: s.counters.latency.snapshot(),
                })
                .collect(),
        }
    }

    /// Registers this service's shard counters and merged latency
    /// histogram on `registry` as collector closures (sampled at
    /// exposition time, so recording stays a plain relaxed atomic in the
    /// worker). Re-registering — e.g. after a service restart — replaces
    /// the previous instance's collectors.
    pub fn register_metrics(&self, registry: &islabel_obs::Registry) {
        use islabel_obs::names::*;
        let all: Vec<Arc<ShardCounters>> = self
            .shards
            .iter()
            .map(|s| Arc::clone(&s.counters))
            .collect();
        for (i, c) in all.iter().enumerate() {
            let shard = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", &shard)];
            let h = Arc::clone(c);
            registry.counter_fn(
                METRIC_SERVE_QUERIES_TOTAL,
                "Queries answered by the shard worker.",
                labels,
                // ordering: Relaxed — independent monotonic counter; the
                // exposition snapshot tolerates tearing by design.
                move || h.queries.load(Ordering::Relaxed),
            );
            let h = Arc::clone(c);
            registry.counter_fn(
                METRIC_SERVE_BATCHES_TOTAL,
                "Batch chunks processed by the shard worker.",
                labels,
                // ordering: Relaxed — same counter discipline.
                move || h.batches.load(Ordering::Relaxed),
            );
            let h = Arc::clone(c);
            registry.counter_fn(
                METRIC_SERVE_ERRORS_TOTAL,
                "Queries that returned a typed error.",
                labels,
                // ordering: Relaxed — same counter discipline.
                move || h.errors.load(Ordering::Relaxed),
            );
            let h = Arc::clone(c);
            registry.counter_fn(
                METRIC_SERVE_SWAPS_OBSERVED_TOTAL,
                "Hot-swap refreshes observed by the shard worker.",
                labels,
                // ordering: Relaxed — same counter discipline.
                move || h.swaps_observed.load(Ordering::Relaxed),
            );
            let h = Arc::clone(c);
            registry.counter_fn(
                METRIC_SERVE_BUSY_NANOSECONDS_TOTAL,
                "Wall-clock nanoseconds the shard worker spent answering.",
                labels,
                // ordering: Relaxed — same counter discipline.
                move || h.busy_nanos.load(Ordering::Relaxed),
            );
        }
        registry.histogram_fn(
            METRIC_SERVE_QUERY_LATENCY_SECONDS,
            "In-worker service time per query, all shards merged.",
            &[],
            move || {
                let mut merged = LatencyHistogram::new();
                for c in &all {
                    merged.merge(&c.latency.snapshot());
                }
                merged
            },
        );
    }

    /// Graceful shutdown: stops accepting work, drains every queued
    /// request, joins the workers and returns the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        for shard in &self.shards {
            shard.queue.close();
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                worker.join().expect("shard worker panicked");
            }
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("shards", &self.shards.len())
            .field("handle", &self.handle)
            .finish()
    }
}

/// One shard's life: pin the current snapshot, open a session, answer
/// jobs, refresh the session when a hot swap is observed, exit when the
/// queue closes and drains. A job popped before a swap is always finished
/// on the snapshot it started on.
fn worker_loop(queue: &ShardQueue, handle: &OracleHandle, counters: &ShardCounters) {
    'serve: loop {
        // Block for work *before* pinning a snapshot, so an idle shard
        // holds no reference to a retired index.
        let Some(first) = queue.pop() else {
            return; // closed and drained
        };
        let snapshot = handle.load();
        let version = snapshot.version();
        let mut session = snapshot.session();
        let mut job = first;
        loop {
            process(job, session.as_mut(), counters, version);
            if handle.version() != version {
                // ordering: Relaxed — independent monotonic counter.
                counters.swaps_observed.fetch_add(1, Ordering::Relaxed);
                continue 'serve; // reload the snapshot for the next job
            }
            match queue.try_pop() {
                Some(next) => job = next,
                // Idle: drop the session (and its snapshot pin) while
                // blocking for more work.
                None => continue 'serve,
            }
        }
    }
}

fn process(job: Job, session: &mut dyn QuerySession, counters: &ShardCounters, version: u64) {
    let t0 = Instant::now();
    let mut local: Vec<Option<Dist>> = Vec::with_capacity(job.pairs.len());
    let mut err = None;
    // Registry re-emission happens here, per query, after the engine
    // returns — never inside the session's kernel loops (see the
    // counter-placement invariant in the islabel-obs crate docs).
    let phases = islabel_obs::QueryPhases::global();
    let slowlog = islabel_obs::SlowQueryLog::global();
    for &(s, t) in &job.pairs {
        let q0 = Instant::now();
        let traced_before = session.trace().map_or(0, |tr| tr.queries);
        let answer = session.distance(s, t);
        let elapsed = q0.elapsed();
        counters.latency.record(elapsed);
        // A fresh trace sample exists only if the query actually ran the
        // seeded search (s == t and errors short-circuit before it).
        if let Some(sample) = session
            .trace()
            .filter(|tr| tr.queries > traced_before)
            .map(|tr| tr.last)
        {
            phases.record(
                sample.intersect_ns,
                sample.seed_ns,
                sample.search_ns,
                sample.settled,
                sample.relaxed,
                sample.pushed,
            );
            slowlog.observe(islabel_obs::SlowQuery {
                seq: 0,
                src: s,
                dst: t,
                dist: answer.as_ref().ok().and_then(|d| d.map(u64::from)),
                total_ns: elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
                intersect_ns: sample.intersect_ns,
                seed_ns: sample.seed_ns,
                search_ns: sample.search_ns,
                settled: sample.settled,
                snapshot_generation: version,
            });
        }
        match answer {
            Ok(d) => local.push(d),
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    let answered = local.len() as u64 + u64::from(err.is_some());
    // ordering: Relaxed — independent monotonic counters; stats reads
    // tolerate tearing across counters by design.
    counters.queries.fetch_add(answered, Ordering::Relaxed);
    counters.batches.fetch_add(1, Ordering::Relaxed);
    counters
        .busy_nanos
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    if err.is_some() {
        // ordering: Relaxed — same counter discipline.
        counters.errors.fetch_add(1, Ordering::Relaxed);
    }

    let mut results = job.state.results.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(e) = err {
        results.first_err.get_or_insert(e);
    }
    for (i, d) in local.into_iter().enumerate() {
        results.out[job.base + i] = d;
    }
    results.remaining -= 1;
    if results.remaining == 0 {
        job.state.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islabel_baselines::BiDijkstraOracle;
    use islabel_core::{BuildConfig, IsLabelIndex};
    use islabel_graph::generators::{erdos_renyi_gnm, WeightModel};
    use islabel_graph::{CsrGraph, GraphBuilder};
    use islabel_obs::LATENCY_BUCKETS;

    fn test_graph() -> CsrGraph {
        erdos_renyi_gnm(120, 300, WeightModel::UniformRange(1, 7), 0x5E)
    }

    fn service_over(g: &CsrGraph, shards: usize) -> QueryService {
        let index = IsLabelIndex::build(g, BuildConfig::default());
        QueryService::start(
            Arc::new(index),
            ServeConfig {
                shards,
                queue_capacity: 8,
            },
        )
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
        assert_eq!(stats.total_queries(), 200);
        assert!(stats.total_batches() >= 1);
        assert_eq!(stats.total_errors(), 0);
    }

    #[test]
    fn single_queries_round_robin_over_shards() {
        let g = test_graph();
        let service = service_over(&g, 2);
        for i in 0..20u32 {
            let (s, t) = (i % 120, (i * 31 + 3) % 120);
            assert!(service.query(s, t).is_ok());
        }
        let stats = service.stats();
        assert_eq!(stats.total_queries(), 20);
        // Round-robin: both shards served some of the 20 singles.
        assert!(stats.shards.iter().all(|s| s.queries > 0), "{stats:?}");
        drop(service);
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
        assert_eq!(stats.total_errors(), 1);
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let g = test_graph();
        let service = service_over(&g, 2);
        assert_eq!(service.submit(&[]).wait(), Ok(vec![]));
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let g = test_graph();
        let service = service_over(&g, 1);
        let tickets: Vec<BatchTicket> = (0..30)
            .map(|i| service.submit(&[(i % 120, (i * 7 + 1) % 120), (0, i % 120)]))
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.total_queries(), 60, "shutdown dropped queued work");
        for ticket in tickets {
            ticket.wait().unwrap();
        }
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

    #[test]
    fn shard_stats_carry_real_latency_percentiles() {
        let g = test_graph();
        let service = service_over(&g, 2);
        let pairs: Vec<(VertexId, VertexId)> =
            (0..100u32).map(|i| (i % 120, (i * 17 + 3) % 120)).collect();
        service.submit(&pairs).wait().unwrap();
        let stats = service.shutdown();
        let total = stats.latency();
        assert_eq!(total.count(), 100, "one observation per query");
        assert!(total.p50() > Duration::ZERO);
        assert!(total.p99() >= total.p50());
        for s in &stats.shards {
            assert_eq!(s.latency.count(), s.queries);
        }
    }

    #[test]
    fn hot_swap_switches_answers_for_new_requests() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 4);
        b.add_edge(1, 2, 4);
        let before = IsLabelIndex::build(&b.build(), BuildConfig::default());
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let after = IsLabelIndex::build(&b.build(), BuildConfig::default());

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
