//! The unified query surface: [`DistanceOracle`] and the typed error
//! hierarchy ([`Error`], [`QueryError`]).
//!
//! The workspace builds several exact distance engines — the IS-LABEL index
//! itself, its directed variant, and the evaluation baselines (PLL,
//! VC-Index, bidirectional Dijkstra). They answer the same question, so
//! they share one contract: `&self` + [`Sync`] queries with *typed*
//! failures instead of panics. Serving layers, benches and the CLI program
//! against `dyn DistanceOracle` and pick the engine at runtime.
//!
//! Conventions:
//!
//! * `Ok(None)` means **unreachable** — the paper's `∞`. It is never an
//!   error: disconnected pairs are a normal answer.
//! * `Err(QueryError::...)` means the query itself was malformed or the
//!   index cannot answer it exactly (out-of-range vertex, stale index).
//! * Every operation that can fail has exactly one public form, and that
//!   form returns `Result` (`docs/adr/0009-one-form-per-operation.md`).
//!   A caller that wants a panic writes `.unwrap()` itself.

use islabel_graph::{Dist, VertexId};
use std::num::NonZeroUsize;

/// A typed failure of a single distance query.
///
/// `Ok(None)` (unreachable) is *not* an error; these variants are reserved
/// for queries the engine cannot answer at all.
///
/// The enum is `#[non_exhaustive]`: downstream matches need a wildcard arm
/// so future engines can introduce new failure modes without a breaking
/// release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// A queried vertex id is not a vertex of the index.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices the index answers for.
        universe: usize,
    },
    /// The index has pending lazy updates (or deletions) that invalidate
    /// the requested operation; rebuild first.
    StaleIndex,
    /// The operation needs path metadata the index was built without
    /// (`keep_path_info: false`), or that dynamic patching discarded.
    NoPathInfo,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::VertexOutOfRange { vertex, universe } => {
                write!(f, "vertex {vertex} out of range (universe {universe})")
            }
            QueryError::StaleIndex => {
                write!(f, "index has pending dynamic updates; rebuild() first")
            }
            QueryError::NoPathInfo => {
                write!(f, "index carries no path info for this query")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Any fallible islabel-core operation: building, querying, persisting.
///
/// `#[non_exhaustive]` like [`QueryError`]: match with a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A query-time failure.
    Query(QueryError),
    /// A build configuration that makes no sense (bad σ, k < 2, ...).
    InvalidConfig(String),
    /// A dynamic update the index cannot apply (an out-of-range or deleted
    /// vertex, a zero weight, a self-loop, a second delete); refused before
    /// it reaches the log or the overlay.
    InvalidUpdate(String),
    /// An I/O failure while saving or loading an index.
    Persist(std::io::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Query(e) => write!(f, "{e}"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::InvalidUpdate(msg) => write!(f, "invalid update: {msg}"),
            Error::Persist(e) => write!(f, "persistence error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Query(e) => Some(e),
            Error::InvalidConfig(_) | Error::InvalidUpdate(_) => None,
            Error::Persist(e) => Some(e),
        }
    }
}

impl From<QueryError> for Error {
    fn from(e: QueryError) -> Self {
        Error::Query(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Persist(e)
    }
}

/// Options for [`DistanceOracle::distance_batch`].
///
/// The default (`threads: None`) sizes the worker pool from
/// [`std::thread::available_parallelism`] — the old `threads == 0` assert
/// is gone; zero is simply unrepresentable.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Worker threads; `None` selects `available_parallelism()`.
    pub threads: Option<NonZeroUsize>,
}

impl BatchOptions {
    /// Runs the batch on `threads` workers; `0` falls back to the default
    /// (`available_parallelism()`), it no longer panics.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: NonZeroUsize::new(threads),
        }
    }

    /// Forces a single-threaded batch.
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// The worker count actually used for a batch of `jobs` queries.
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let chosen = self
            .threads
            .or_else(|| std::thread::available_parallelism().ok())
            .map_or(1, NonZeroUsize::get);
        chosen.min(jobs).max(1)
    }
}

/// A per-thread query handle holding an engine's reusable scratch state.
///
/// Every engine answers queries through temporary working memory —
/// bidirectional-Dijkstra heaps and visited maps, label-merge seed buffers,
/// distance arrays. Allocating that per query is pure hot-path overhead; a
/// session owns it once and reuses it, so a serving thread creates one
/// session and answers queries allocation-free (after warm-up).
///
/// Sessions borrow the engine (`&self` queries stay the source of truth)
/// and are deliberately `&mut self`: one session belongs to one thread.
/// Concurrency comes from creating one session per thread via
/// [`DistanceOracle::session`], never from sharing a session.
///
/// The answer contract is identical to
/// [`try_distance`](DistanceOracle::try_distance): `Ok(None)` is
/// unreachable, errors are typed, and the distances are exact.
pub trait QuerySession {
    /// The engine identifier of the oracle this session queries (equals
    /// [`DistanceOracle::engine_name`] of the creating oracle).
    fn engine_name(&self) -> &'static str;

    /// Exact distance `dist(s, t)` using this session's scratch buffers;
    /// `Ok(None)` when `t` is unreachable.
    fn distance(&mut self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError>;

    /// The session's query-phase trace, for engines that record one (the
    /// IS-LABEL family — heap, patched, directed, mmap). Baseline engines
    /// without a phased search return `None` (the default).
    fn trace(&self) -> Option<&crate::trace::QueryTrace> {
        None
    }

    /// Mutable access to the trace, e.g. to flip
    /// [`QueryTrace::enabled`](crate::trace::QueryTrace::enabled) off.
    fn trace_mut(&mut self) -> Option<&mut crate::trace::QueryTrace> {
        None
    }
}

/// A point-to-point exact distance engine.
///
/// Queries are read-only (`&self`) and the engine is shareable across
/// threads ([`Sync`]), so one index serves arbitrarily many concurrent
/// queries — the serving mode the paper's workload of independent
/// point-to-point queries implies. Hot loops should prefer a per-thread
/// [`QuerySession`] from [`session`](DistanceOracle::session), which
/// reuses search state instead of allocating per query.
///
/// `Ok(None)` encodes *unreachable*; errors are reserved for malformed or
/// unanswerable queries (see [`QueryError`]).
///
/// # Examples
///
/// ```
/// use islabel_core::oracle::{BatchOptions, DistanceOracle, QueryError};
/// use islabel_core::{BuildConfig, IsLabelIndex};
/// use islabel_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 2);
/// let g = b.build();
/// let oracle: Box<dyn DistanceOracle> =
///     Box::new(IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap());
/// assert_eq!(oracle.try_distance(0, 1), Ok(Some(2)));
/// assert_eq!(oracle.try_distance(0, 2), Ok(None)); // unreachable, not an error
/// assert_eq!(
///     oracle.try_distance(0, 9),
///     Err(QueryError::VertexOutOfRange { vertex: 9, universe: 3 })
/// );
/// let batch = oracle
///     .distance_batch(&[(0, 1), (1, 1)], BatchOptions::default())
///     .unwrap();
/// assert_eq!(batch, vec![Some(2), Some(0)]);
/// ```
pub trait DistanceOracle: Send + Sync {
    /// Short engine identifier (`"islabel"`, `"pll"`, ...), stable across
    /// runs — what the CLI's `--engine` flag parses to.
    fn engine_name(&self) -> &'static str;

    /// Number of vertices the engine answers for; any id `< num_vertices()`
    /// is a valid query endpoint.
    fn num_vertices(&self) -> usize;

    /// Resident size of the data structure queries read (labels, reduced
    /// graphs, or the graph itself for search baselines).
    fn index_bytes(&self) -> usize;

    /// Exact distance `dist(s, t)`; `Ok(None)` when `t` is unreachable.
    fn try_distance(&self, s: VertexId, t: VertexId) -> Result<Option<Dist>, QueryError>;

    /// Opens a per-thread [`QuerySession`] with this engine's reusable
    /// scratch state. The session borrows the oracle; create one per
    /// serving thread.
    fn session(&self) -> Box<dyn QuerySession + '_>;

    /// Answers a batch of independent queries, in input order, on a worker
    /// pool sized by `options`. The default implementation bounds-checks
    /// every pair up front — a malformed batch fails fast with the first
    /// offending pair in input order, before any query runs — then chunks
    /// the batch over scoped threads, each answering through its own
    /// [`session`](DistanceOracle::session); a residual engine error from a
    /// worker also fails the whole batch.
    fn distance_batch(
        &self,
        pairs: &[(VertexId, VertexId)],
        options: BatchOptions,
    ) -> Result<Vec<Option<Dist>>, QueryError> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let universe = self.num_vertices();
        for &(s, t) in pairs {
            check_vertex(s, universe)?;
            check_vertex(t, universe)?;
        }
        let threads = options.effective_threads(pairs.len());
        let mut out = vec![None; pairs.len()];
        if threads == 1 {
            let mut session = self.session();
            for (o, &(s, t)) in out.iter_mut().zip(pairs) {
                *o = session.distance(s, t)?;
            }
            return Ok(out);
        }
        let chunk = pairs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let workers: Vec<_> = out
                .chunks_mut(chunk)
                .zip(pairs.chunks(chunk))
                .map(|(slot, work)| {
                    scope.spawn(move || -> Result<(), QueryError> {
                        let mut session = self.session();
                        for (o, &(s, t)) in slot.iter_mut().zip(work) {
                            *o = session.distance(s, t)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            let mut first_err = None;
            for w in workers {
                if let Err(e) = w.join().expect("batch worker panicked") {
                    first_err.get_or_insert(e);
                }
            }
            match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })?;
        Ok(out)
    }
}

/// Bounds-check helper for [`DistanceOracle`] implementors: `Ok(())` when
/// `v` is a valid id in a `universe`-vertex index, the matching
/// [`QueryError::VertexOutOfRange`] otherwise.
#[inline]
pub fn check_vertex(v: VertexId, universe: usize) -> Result<(), QueryError> {
    if (v as usize) < universe {
        Ok(())
    } else {
        Err(QueryError::VertexOutOfRange {
            vertex: v,
            universe,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_actionable() {
        let e = QueryError::VertexOutOfRange {
            vertex: 7,
            universe: 5,
        };
        assert!(e.to_string().contains("out of range"));
        assert!(QueryError::StaleIndex.to_string().contains("rebuild"));
        assert!(QueryError::NoPathInfo.to_string().contains("path info"));
        assert!(Error::InvalidConfig("σ must be in (0, 1]".into())
            .to_string()
            .contains("invalid configuration"));
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(Error::from(io).to_string().contains("persistence"));
    }

    #[test]
    fn every_variant_displays_nonempty_and_distinct() {
        // One sample per variant of both (non_exhaustive) enums: a silent
        // or duplicated message would make typed errors indistinguishable
        // at the CLI / log boundary.
        let query_variants = [
            QueryError::VertexOutOfRange {
                vertex: 3,
                universe: 2,
            },
            QueryError::StaleIndex,
            QueryError::NoPathInfo,
        ];
        let error_variants = [
            Error::Query(QueryError::StaleIndex),
            Error::InvalidConfig("k < 2".into()),
            Error::InvalidUpdate("vertex 9 out of range".into()),
            Error::Persist(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
        ];
        let mut messages: Vec<String> = query_variants
            .iter()
            .map(|e| e.to_string())
            .chain(error_variants.iter().map(|e| e.to_string()))
            .collect();
        // `Error::Query` forwards its inner Display — that one duplicate is
        // by design; drop it before the pairwise check.
        messages.remove(3);
        for m in &messages {
            assert!(!m.is_empty(), "empty Display message");
        }
        for i in 0..messages.len() {
            for j in (i + 1)..messages.len() {
                assert_ne!(messages[i], messages[j], "duplicate Display message");
            }
        }
    }

    #[test]
    fn error_conversions_and_sources() {
        use std::error::Error as _;
        let e: Error = QueryError::StaleIndex.into();
        assert!(matches!(e, Error::Query(QueryError::StaleIndex)));
        assert!(e.source().is_some());
        assert!(Error::InvalidConfig("x".into()).source().is_none());
    }

    #[test]
    fn batch_options_thread_selection() {
        // Explicit counts are respected, capped by the job count.
        assert_eq!(BatchOptions::with_threads(4).effective_threads(100), 4);
        assert_eq!(BatchOptions::with_threads(4).effective_threads(2), 2);
        assert_eq!(BatchOptions::sequential().effective_threads(100), 1);
        // Zero is the default, not a panic.
        let auto = BatchOptions::with_threads(0);
        assert!(auto.threads.is_none());
        assert!(auto.effective_threads(1000) >= 1);
        assert_eq!(BatchOptions::default().effective_threads(1), 1);
    }

    #[test]
    fn check_vertex_bounds() {
        assert_eq!(check_vertex(0, 1), Ok(()));
        assert_eq!(
            check_vertex(1, 1),
            Err(QueryError::VertexOutOfRange {
                vertex: 1,
                universe: 1
            })
        );
    }
}
