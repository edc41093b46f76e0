//! What the benchmark runs and what it reports: the five workloads, their
//! sizes, and the catalogue of metric names and units. `BENCHMARK.json`
//! repeats the names; the smoke test holds the two together.

use islabel_core::BuildConfig;
use islabel_graph::generators::{grid2d, WeightModel};
use islabel_graph::{CsrGraph, Dataset, Scale};

/// The five workloads. Names are stable: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Index construction.
    Build,
    /// Queries answered by Equation 1 alone (`G_k` empty).
    QueryLabels,
    /// Queries dominated by the dense `G_k` search.
    QuerySearch,
    /// Short queries over loopback TCP against a mapped artifact.
    RemoteRpc,
    /// Durable updates beside reads on a WAL-attached index.
    UpdateMix,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 5] = [
        Kind::Build,
        Kind::QueryLabels,
        Kind::QuerySearch,
        Kind::RemoteRpc,
        Kind::UpdateMix,
    ];

    /// The stable name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Build => "build",
            Kind::QueryLabels => "query-labels",
            Kind::QuerySearch => "query-search",
            Kind::RemoteRpc => "remote-rpc",
            Kind::UpdateMix => "update-mix",
        }
    }

    /// Parses a stable name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists (one line; repeated in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::Build => "Construction is the paper's scalability claim: hierarchy and label build split try_build about evenly and the query layers do nothing.",
            Kind::QueryLabels => "Full hierarchy, empty G_k: the one regime where the Equation-1 label intersect is the query and the dense search is bypassed.",
            Kind::QuerySearch => "Grid with a large G_k: the dense bidirectional search is ~all of the query and the intersect is noise; layout, heap and prefetch changes show here only.",
            Kind::RemoteRpc => "Short queries over 2 loopback connections on a mapped artifact, so the frame codec, thread handoff and syscalls are a large share of the round trip.",
            Kind::UpdateMix => "Durable writes beside reads: overlay apply, WAL append, session re-snapshot and the patched dense path, so a read gain paid for by slower writes shows.",
        }
    }

    /// What one timed operation is, for the result file.
    pub fn op(self) -> &'static str {
        match self {
            Kind::Build => "one IsLabelIndex::try_build",
            Kind::QueryLabels | Kind::QuerySearch => "one IsLabelSession::distance",
            Kind::RemoteRpc => "one DistanceClient::distance round trip (depth 1)",
            Kind::UpdateMix => {
                "one query on the patched session (throughput also counts the updates)"
            }
        }
    }
}

/// Which graph a workload runs on. The graphs are fixed — the datasets'
/// own generator seeds — so index shape and the exact byte counts repeat
/// from run to run; `--seed` drives the query pairs and update ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphSpec {
    /// `Dataset::WebLike` at a scale (×16: n = 128 000, m = 1 008 669).
    Web(Scale),
    /// `grid2d(side, side)` with weights 1..=10.
    Grid(usize),
}

impl GraphSpec {
    /// Generates the graph.
    pub fn generate(self) -> CsrGraph {
        match self {
            GraphSpec::Web(scale) => Dataset::WebLike.generate(scale),
            GraphSpec::Grid(side) => grid2d(side, side, WeightModel::UniformRange(1, 10), 0x6121D),
        }
    }

    /// Human-readable form for the result file.
    pub fn describe(self) -> String {
        match self {
            GraphSpec::Web(scale) => format!("Dataset::WebLike at {scale:?}"),
            GraphSpec::Grid(side) => format!("grid2d({side}, {side}), weights 1..=10"),
        }
    }
}

/// Sizes of one workload run.
///
/// The timed phase is a **fixed op list replayed a fixed number of
/// times**; `--seconds` scales the length of the list (so that the phase
/// takes about that long at the speed this was written at), never the
/// number of replays.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// Its graph.
    pub graph: GraphSpec,
    /// Its build configuration.
    pub config: BuildConfig,
    /// Length of the seeded query-pair list one replay answers (split
    /// evenly over the connections on `remote-rpc`, over the cycles on
    /// `update-mix`). `build` times no queries but answers this many on
    /// its last index for the correctness gate.
    pub pairs: usize,
    /// How many times the op list is replayed (`build`: how many builds).
    pub replays: usize,
    /// Client connections / generator threads (`remote-rpc` only: 2).
    pub connections: usize,
    /// `update-mix`: cycles per replay; each cycle is `updates_per_cycle`
    /// durable ops, a session reopen, then `pairs / cycles` queries.
    pub cycles: usize,
    /// `update-mix`: durable ops per cycle (one WAL fsync batch).
    pub updates_per_cycle: usize,
    /// Warm-up queries (per connection) run during set-up.
    pub warmup_ops: usize,
    /// Durable ops of the update probe that measures `update_p50_us` on
    /// the workloads that do not update in their timed phase.
    pub update_probe_ops: usize,
    /// How many times set-up runs (the median is `setup_s`).
    pub setup_reps: usize,
    /// Bare pings behind `net.ping_rtt_us` in the traced run.
    pub probe_pings: usize,
    /// Wall time one probe pass over the shared pair slice should take.
    pub probe_pass_s: f64,
}

/// Replays of the op list in an end-to-end run.
pub const REPLAYS: usize = 5;

impl Plan {
    /// The plan of `kind` for a timed phase of about `seconds`; `smoke`
    /// shrinks graphs and op rates by one to two orders of magnitude and
    /// keeps every code path.
    pub fn new(kind: Kind, smoke: bool, seconds: f64) -> Plan {
        let pick = |full: usize, small: usize| if smoke { small } else { full };
        let web = |factor: u32| {
            GraphSpec::Web(if smoke {
                Scale::Tiny
            } else {
                Scale::Custom(factor)
            })
        };
        // Pairs per second of timed phase, so that REPLAYS replays of the
        // list take about `seconds`.
        let pairs = |per_second: usize| ((per_second as f64 * seconds) as usize).max(64);
        let base = Plan {
            kind,
            graph: web(16),
            config: BuildConfig::default(),
            pairs: pick(2_000, 200),
            replays: REPLAYS,
            connections: 1,
            cycles: 0,
            updates_per_cycle: 0,
            warmup_ops: pick(2_000, 50),
            update_probe_ops: pick(640, 64),
            setup_reps: pick(3, 1),
            probe_pings: pick(2_000, 200),
            probe_pass_s: if smoke { 0.02 } else { 0.5 },
        };
        match kind {
            // One build is about a second: as many builds as seconds.
            Kind::Build => Plan {
                replays: if smoke {
                    3
                } else {
                    (seconds.round() as usize).max(3)
                },
                ..base
            },
            Kind::QueryLabels => Plan {
                graph: web(4),
                config: BuildConfig::full(),
                pairs: pairs(pick(80_000, 8_000)),
                warmup_ops: pick(50_000, 500),
                ..base
            },
            Kind::QuerySearch => Plan {
                graph: GraphSpec::Grid(pick(224, 24)),
                pairs: pairs(pick(130, 600)),
                warmup_ops: pick(200, 20),
                // Updates on the grid cost ~2 µs: ten times the ops for the
                // same probe time, and a median that repeats.
                update_probe_ops: pick(6_400, 64),
                ..base
            },
            Kind::RemoteRpc => Plan {
                pairs: pairs(pick(3_000, 2_000)),
                connections: 2,
                warmup_ops: pick(1_000, 50),
                ..base
            },
            Kind::UpdateMix => {
                let cycles = ((if smoke { 7.0 } else { 1.4 } * seconds) as usize).max(2);
                Plan {
                    pairs: cycles * pick(1_000, 20),
                    cycles,
                    updates_per_cycle: islabel_core::DEFAULT_WAL_SYNC_EVERY as usize,
                    ..base
                }
            }
        }
    }

    /// Operations one replay completes (the throughput numerator).
    pub fn ops_in_replay(&self) -> usize {
        match self.kind {
            Kind::Build => 1,
            Kind::UpdateMix => self.pairs + self.updates_per_cycle * self.cycles,
            _ => self.pairs,
        }
    }

    /// The plan of the traced run's timed phase: a quarter of the op list,
    /// replayed twice untraced and twice traced in alternation.
    pub fn traced(self) -> Plan {
        let cycles = (self.cycles / 4).max(usize::from(self.cycles > 0));
        Plan {
            pairs: match self.kind {
                Kind::Build => self.pairs,
                Kind::UpdateMix => cycles * (self.pairs / self.cycles),
                _ => (self.pairs / 4).max(64),
            },
            cycles,
            replays: 4,
            ..self
        }
    }
}

/// End-to-end metrics `(name, unit)`: printed by the untraced run, on
/// every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("update_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("index_bytes_per_vertex", "B"),
    ("artifact_bytes_per_vertex", "B"),
];

/// Per-layer metrics `(name, unit)`: printed by the traced run, on every
/// workload. Prefix = module.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("core.index.build_s", "s"),
    ("core.hierarchy.build_s", "s"),
    ("core.hierarchy.k", "count"),
    ("core.hierarchy.gk_vertices", "count"),
    ("core.hierarchy.gk_edges", "count"),
    ("core.label.build_s", "s"),
    ("core.label.entries", "count"),
    ("core.label.avg_len", "count"),
    ("core.label.max_len", "count"),
    ("core.dense.build_s", "s"),
    ("core.kernel.intersect_ns", "ns"),
    ("core.kernel.entries_per_call", "count"),
    ("core.dense.seed_ns", "ns"),
    ("core.dense.search_us", "us"),
    ("core.dense.settled_per_query", "count"),
    ("core.index.session_query_us", "us"),
    ("core.index.session_self_us", "us"),
    ("core.index.session_open_us", "us"),
    ("core.index.patched_session_open_us", "us"),
    ("core.index.unattributed_share", "ratio"),
    ("core.mmapindex.open_ms", "ms"),
    ("core.mmapindex.open_verified_ms", "ms"),
    ("core.mmapindex.query_us", "us"),
    ("core.mmapindex.vs_heap_ratio", "ratio"),
    ("core.persist.save_s", "s"),
    ("core.persist.heap_load_ms", "ms"),
    ("store.verify_ms", "ms"),
    ("store.artifact_bytes", "B"),
    ("core.updates.apply_us", "us"),
    ("core.updates.pending_ops", "count"),
    ("core.updates.patched_vs_pristine_ratio", "ratio"),
    ("core.persist.wal.append_us", "us"),
    ("core.persist.wal.sync_ms", "ms"),
    ("core.persist.wal.bytes_per_op", "B"),
    ("core.persist.wal.syncs_per_op", "ratio"),
    ("core.persist.wal.recover_ms", "ms"),
    ("core.persist.wal.replayed_ops", "count"),
    ("core.persist.wal.ingest_ops_s", "ops/s"),
    ("serve.rebuild.compact_s", "s"),
    ("serve.rebuild.folded_ops", "count"),
    ("serve.query_us", "us"),
    ("serve.batch_ops_s", "ops/s"),
    ("serve.queue_overhead_us", "us"),
    ("net.protocol.encode_request_ns", "ns"),
    ("net.protocol.decode_request_ns", "ns"),
    ("net.protocol.encode_response_ns", "ns"),
    ("net.protocol.decode_response_ns", "ns"),
    ("net.ping_rtt_us", "us"),
    ("net.rtt_2c_d1_us", "us"),
    ("net.rtt_overhead_us", "us"),
    ("net.server.service_us", "us"),
    ("net.server.frames", "count"),
    ("net.server.errors", "count"),
    ("net.rtt_1c_d1_us", "us"),
    ("net.pipelined_2c_d8_ops_s", "ops/s"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.render_us", "us"),
    ("baselines.bidijkstra.query_us", "us"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_catalogue_is_well_formed() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
            assert!(kind.why().len() <= 200 && !kind.why().contains('\n'));
        }
        assert_eq!(Kind::parse("nope"), None);
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn seconds_scale_the_op_list_and_never_the_replays() {
        for kind in Kind::ALL {
            let (short, long) = (Plan::new(kind, false, 5.0), Plan::new(kind, false, 10.0));
            if kind == Kind::Build {
                assert_eq!((short.replays, long.replays), (5, 10));
            } else {
                assert_eq!((short.replays, long.replays), (REPLAYS, REPLAYS));
                assert!(long.pairs > short.pairs && long.pairs <= 2 * short.pairs + 2_000);
            }
            let smoke = Plan::new(kind, true, 0.3);
            assert!(smoke.pairs * 10 <= long.pairs.max(2_000), "{kind:?}");
            assert!(smoke.pairs >= 40, "{kind:?} still needs a sample");
            assert_eq!(smoke.connections, long.connections);
            assert_eq!(smoke.updates_per_cycle, long.updates_per_cycle);
            let traced = long.traced();
            assert_eq!(traced.replays, 4);
            assert!(traced.pairs <= long.pairs && traced.pairs >= 1);
        }
        assert_eq!(Plan::new(Kind::RemoteRpc, false, 10.0).pairs, 30_000);
        let mix = Plan::new(Kind::UpdateMix, false, 10.0);
        assert_eq!(
            (mix.cycles, mix.pairs, mix.ops_in_replay()),
            (14, 14_000, 14_448)
        );
        assert_eq!((mix.traced().cycles, mix.traced().pairs), (3, 3_000));
    }
}
