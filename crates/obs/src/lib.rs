#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # islabel-obs
//!
//! The observability core of the IS-LABEL workspace: a zero-dependency
//! metrics library every other crate can sit on top of — counters,
//! gauges, the power-of-two latency histogram shared by the serving
//! layers, a process-wide [`Registry`] with Prometheus-text exposition,
//! and a threshold-gated [`SlowQueryLog`].
//!
//! The paper's experimental story (IS-LABEL, VLDB 2013 §6) is a story
//! about *per-phase* cost: label sizes, `G_k` search settle counts,
//! I/O vs in-memory time. This crate gives the repo the machinery to
//! report those phases from a running server without perturbing them.
//!
//! ## Counter-placement invariant
//!
//! Instrumentation must never sit inside the query hot loops it
//! measures. Concretely:
//!
//! * **No atomics inside the kernel inner loops.** The Equation-1
//!   intersection kernel (`islabel-core::kernel`) and the dense
//!   bidirectional Dijkstra touch no shared cache line per element —
//!   a single atomic `fetch_add` in those loops would serialize every
//!   worker on one cache line and swamp the nanosecond-scale work being
//!   counted. All shared counters ([`Counter`], [`Gauge`],
//!   [`AtomicLatencyHistogram`]) are updated **once per query** (or per
//!   batch) at the serving layer, after the kernel returns.
//! * **Phase timing reads `Instant` only at phase boundaries.** The
//!   per-session `QueryTrace` in `islabel-core` records the seed-fetch /
//!   Equation-1 intersect / dense-search split with at most four
//!   `Instant::now()` reads per query — one at each phase edge, none
//!   inside a loop — and accumulates into plain (non-atomic, pre-sized)
//!   session-local fields, so the counting-allocator audit
//!   (`tests/alloc_free.rs`) and the `lint.toml` alloc zones hold with
//!   tracing active.
//! * **Exposition never blocks recording.** Owned handles are plain
//!   relaxed atomics; [`Registry::render`] takes the registry mutex only
//!   to walk the family list, reading each series with relaxed loads.
//!   Recording a metric never takes a lock.
//!
//! Every metric family name is a `METRIC_*` constant in [`names`] and is
//! mirrored in `docs/wire_registry.toml` (`[metric_names]`); renaming a
//! metric without updating the registry is a CI failure
//! (`islabel-lint`, rule `wire-registry`) — scrape dashboards are a
//! compatibility surface just like the wire protocol.

pub mod hist;
pub mod metric;
pub mod names;
pub mod phases;
pub mod registry;
pub mod slowlog;

pub use hist::{AtomicLatencyHistogram, LatencyHistogram, LATENCY_BUCKETS};
pub use metric::{Counter, Gauge};
pub use phases::QueryPhases;
pub use registry::Registry;
pub use slowlog::{SlowQuery, SlowQueryLog};
