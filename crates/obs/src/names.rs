//! Every metric family name exported by the workspace, as `METRIC_*`
//! constants. This file is a compatibility surface: `islabel-lint`
//! (rule `wire-registry`) extracts these constants and diffs them
//! against the `[metric_names]` section of `docs/wire_registry.toml`,
//! so renaming a metric silently — breaking every dashboard scraping it
//! — is a CI failure, exactly like renumbering a wire opcode.

/// Queries answered by a `QueryService`.
pub const METRIC_SERVE_QUERIES_TOTAL: &str = "islabel_serve_queries_total";
/// Batch chunks answered by a `QueryService` (a single query is one).
pub const METRIC_SERVE_BATCHES_TOTAL: &str = "islabel_serve_batches_total";
/// Chunks a `QueryService` cut short on a typed query error.
pub const METRIC_SERVE_ERRORS_TOTAL: &str = "islabel_serve_errors_total";
/// Wall-clock nanoseconds a `QueryService`'s callers spent answering.
pub const METRIC_SERVE_BUSY_NANOSECONDS_TOTAL: &str = "islabel_serve_busy_nanoseconds_total";
/// Per-query service-time distribution of a `QueryService`.
pub const METRIC_SERVE_QUERY_LATENCY_SECONDS: &str = "islabel_serve_query_latency_seconds";

/// Cumulative query-phase time (label `phase`: intersect/seed/search).
pub const METRIC_QUERY_PHASE_NANOSECONDS_TOTAL: &str = "islabel_query_phase_nanoseconds_total";
/// Dense-search settled vertices, summed over traced queries.
pub const METRIC_QUERY_SETTLED_TOTAL: &str = "islabel_query_settled_total";
/// Dense-search scanned edges (pruned ones included), summed over traced
/// queries.
pub const METRIC_QUERY_RELAXED_TOTAL: &str = "islabel_query_relaxed_total";
/// Dense-search heap pushes or decrease-keys, summed over traced queries.
pub const METRIC_QUERY_PUSHED_TOTAL: &str = "islabel_query_pushed_total";
/// Queries whose phase trace was recorded.
pub const METRIC_QUERY_TRACED_TOTAL: &str = "islabel_query_traced_total";
/// Queries that crossed the slow-query threshold.
pub const METRIC_SLOW_QUERIES_TOTAL: &str = "islabel_slow_queries_total";

/// Connections accepted by the network server since start.
pub const METRIC_NET_CONNECTIONS_TOTAL: &str = "islabel_net_connections_total";
/// Currently open network connections.
pub const METRIC_NET_CONNECTIONS_ACTIVE: &str = "islabel_net_connections_active";
/// Frames decoded by the network server.
pub const METRIC_NET_FRAMES_TOTAL: &str = "islabel_net_frames_total";
/// Single queries answered over the wire.
pub const METRIC_NET_QUERIES_TOTAL: &str = "islabel_net_queries_total";
/// Batch requests answered over the wire.
pub const METRIC_NET_BATCHES_TOTAL: &str = "islabel_net_batches_total";
/// Error responses sent over the wire.
pub const METRIC_NET_ERRORS_TOTAL: &str = "islabel_net_errors_total";
/// Socket writes issued by connection threads; frames / flushes is the
/// coalescing factor (1.0 when every request is sent alone).
pub const METRIC_NET_FLUSHES_TOTAL: &str = "islabel_net_flushes_total";
/// Per-query service-time distribution inside the network server.
pub const METRIC_NET_QUERY_LATENCY_SECONDS: &str = "islabel_net_query_latency_seconds";
/// Snapshot generation (hot-swap version) the server currently serves.
pub const METRIC_NET_SNAPSHOT_GENERATION: &str = "islabel_net_snapshot_generation";

/// WAL records appended.
pub const METRIC_WAL_APPENDS_TOTAL: &str = "islabel_wal_appends_total";
/// WAL fsync batches (group commits) issued.
pub const METRIC_WAL_FSYNC_BATCHES_TOTAL: &str = "islabel_wal_fsync_batches_total";
/// WAL recoveries by outcome (label `outcome`: clean/created/truncated/
/// discarded_stale).
pub const METRIC_WAL_RECOVERIES_TOTAL: &str = "islabel_wal_recoveries_total";
/// Operations seen during WAL recovery (label `kind`: replayed/
/// discarded_stale).
pub const METRIC_WAL_RECOVERED_OPS_TOTAL: &str = "islabel_wal_recovered_ops_total";

/// Store artifacts opened (label `backing`: mmap/heap).
pub const METRIC_STORE_OPENS_TOTAL: &str = "islabel_store_opens_total";
/// Validate-on-open outcomes (label `outcome`: ok/error).
pub const METRIC_STORE_VALIDATE_TOTAL: &str = "islabel_store_validate_total";

/// Background compactions by outcome (label `outcome`: ok/busy/failed).
pub const METRIC_COMPACTIONS_TOTAL: &str = "islabel_compactions_total";
/// Overlay operations folded into rebuilt indexes.
pub const METRIC_COMPACT_FOLDED_OPS_TOTAL: &str = "islabel_compact_folded_ops_total";
/// WAL operations replayed on top of rebuilt indexes.
pub const METRIC_COMPACT_REPLAYED_OPS_TOTAL: &str = "islabel_compact_replayed_ops_total";
