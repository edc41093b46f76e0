//! The traced run's layer probes: every layer of the stack measured from
//! outside, by timing calls into its public functions on the workload's
//! own graph, index, artifact and query pairs.
//!
//! Calls that take well under a microsecond (label intersect, seed
//! translation, the frame codec) are timed as batch loops, one span per
//! batch; everything else gets a span per call. Counts come from public
//! accessors (`QuerySession::trace`, hierarchy / label accessors,
//! `DistanceServer::stats`). The probes run on every workload, so every
//! per-layer metric exists everywhere — a layer a workload does not
//! exercise (the dense search on `query-labels`, the intersect on
//! `query-search`) reads ≈0 there, which is the point of having both.
//!
//! Wherever two numbers are subtracted or divided (session vs its layers,
//! mmap vs heap, patched vs pristine, remote vs in-process) the two sides
//! answer the same pairs and **alternate batch by batch**: the sandbox
//! changes speed by tens of percent for tens of seconds at a time, and two
//! passes run one after the other would measure that instead.

use crate::passes::{plain_pass, remote_pass, session_pass, Pair, Pass};
use crate::plan::{Kind, Plan};
use crate::run::{durable_update_probe, err, Built, Remote};
use crate::stats::median_u64;
use crate::tempdir::TempDir;
use crate::trace::Tracer;
use crate::verify;
use islabel_baselines::BiDijkstraOracle;
use islabel_core::dense::{dense_bi_dijkstra, DenseGk, DenseScratch};
use islabel_core::hierarchy::VertexHierarchy;
use islabel_core::kernel;
use islabel_core::label::LabelSet;
use islabel_core::persist::{
    compact_index_with_wal, load_index_with_wal, try_load_index_from_path, try_save_index_to_path,
};
use islabel_core::reference::dijkstra_p2p;
use islabel_core::{DistanceOracle, IsLabelIndex, MmapIndex, QuerySession};
use islabel_graph::{Dist, VertexId, INF};
use islabel_net::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use islabel_obs::Registry;
use islabel_serve::{QueryService, ServeConfig};
use islabel_store::StoreReader;
use std::hint::black_box;
use std::time::Instant;

/// Pairs per batch: the span granularity of sub-microsecond calls and the
/// alternation granularity of compared in-process passes. Small enough
/// that a batch's labels (two ~2 KiB labels per pair on `query-labels`)
/// stay cache-resident between the replay's intersect and seed loops, as
/// they do between the two phases of one session query.
const BATCH: usize = 32;
/// Pairs per batch where every batch spawns the client threads.
const REMOTE_BATCH: usize = 256;
/// Per-op allowance for the passes that add a thread handoff or a round
/// trip to every query, so they stay near the pass target too.
const HANDOFF_US: f64 = 20.0;

/// What the probes measured.
#[derive(Debug, Default)]
pub struct ProbeReport {
    /// `(metric name, value)`, catalogue names.
    pub values: Vec<(&'static str, f64)>,
    /// Answers cross-checked along the way.
    pub checked: u64,
    /// How many of them disagreed (plus probe ops that errored).
    pub failed: u64,
}

impl ProbeReport {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Holds `got` to `want`, answer by answer.
    fn agree(&mut self, want: &[Option<Dist>], got: &[Option<Dist>]) {
        self.checked += want.len() as u64;
        self.failed += want.iter().zip(got).filter(|(w, g)| w != g).count() as u64;
        self.failed += want.len().abs_diff(got.len()) as u64;
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// One contestant of [`alternate`]: answers batch number `b`.
type Lane<'a> = &'a mut dyn FnMut(&mut Tracer, usize, &[Pair]) -> Pass;

/// Runs every lane over all of `pairs`, alternating batch by batch so the
/// lanes share whatever speed the machine has at the moment. Lane `j`
/// works `j` strides ahead of lane 0, so no lane inherits a cache another
/// lane just warmed with the same labels. Returns one whole-slice pass
/// per lane, answers in pair order.
fn alternate(pairs: &[Pair], batch: usize, tr: &mut Tracer, lanes: &mut [Lane<'_>]) -> Vec<Pass> {
    let batches: Vec<&[Pair]> = pairs.chunks(batch).collect();
    let stride = (batches.len() / lanes.len().max(1)).max(1);
    let mut parts: Vec<Vec<Option<Pass>>> = lanes
        .iter()
        .map(|_| batches.iter().map(|_| None).collect())
        .collect();
    for step in 0..batches.len() {
        for (j, lane) in lanes.iter_mut().enumerate() {
            let b = (step + j * stride) % batches.len();
            parts[j][b] = Some(lane(tr, b, batches[b]));
        }
    }
    parts
        .into_iter()
        .map(|lane| Pass::concat(lane.into_iter().flatten()))
        .collect()
}

/// A lane that answers its batch one query at a time through `answer`:
/// one span per batch, and per-op timing exactly as in an untraced timed
/// phase (one clock read per op, nothing else in the loop).
fn per_op_lane<'s, E>(
    span: &'static str,
    mut answer: impl FnMut(VertexId, VertexId) -> Result<Option<Dist>, E> + 's,
) -> impl FnMut(&mut Tracer, usize, &[Pair]) -> Pass + 's {
    move |tr, b, batch| {
        let t0 = Instant::now();
        let pass = plain_pass(batch, &mut answer);
        tr.record(span, b as u64, t0, Instant::now());
        pass
    }
}

/// Runs every probe.
pub fn run_all(
    plan: &Plan,
    built: &Built,
    dir: &TempDir,
    seed: u64,
    tr: &mut Tracer,
) -> Result<ProbeReport, String> {
    let mut out = ProbeReport::default();

    // Size the shared pair slice so one pass takes about
    // `plan.probe_pass_s`.
    let pilot = &built.pool[..200.min(built.pool.len())];
    let mut session = built.index.session();
    let pilot_pass = plain_pass(pilot, |s, t| session.distance(s, t));
    drop(session);
    let count = ((plan.probe_pass_s * 1e6 / (pilot_pass.mean_us() + HANDOFF_US)) as usize)
        .max(pilot.len())
        .min(built.pool.len());
    let pairs = &built.pool[..count];

    build_stages(plan, built, tr, &mut out);
    let mapped = artifact(built, dir, tr, &mut out)?;
    let heap = query_budget(&built.index, &mapped, pairs, tr, &mut out);
    drop(mapped);
    updates(plan, built, dir, seed, pairs, tr, &mut out)?;
    serve(built, pairs, &heap.answers, tr, &mut out);
    let net = net(plan, built, pairs, &heap.answers, tr, &mut out)?;
    codec(pairs, &heap.answers, tr, &mut out);

    for i in 0..20 {
        tr.span("obs.render", i, |_| black_box(Registry::global().render()));
    }
    out.put("obs.render_us", us(tr.mean_ns("obs.render")));

    // The comparator row of the paper's Table 8, on a small sample: one
    // plain bidirectional Dijkstra costs milliseconds on these graphs.
    let oracle = BiDijkstraOracle::new(built.graph.clone());
    let mut bidij = oracle.session();
    let sample = &pairs[..50.min(pairs.len())];
    let pass = session_pass(sample, tr, "baselines.bidijkstra.query", 0, |s, t| {
        bidij.distance(s, t)
    });
    out.agree(&heap.answers[..sample.len()], &pass.answers);
    out.put("baselines.bidijkstra.query_us", pass.p50_us());

    out.put("graph.generate_s", tr.mean_ns("graph.generate") / 1e9);
    out.put("core.index.build_s", tr.mean_ns("core.index.build") / 1e9);

    // The workload's own budget: the share of its end-to-end operation
    // that no measured layer accounts for.
    let share = |attributed: f64, total: f64| 1.0 - attributed / total.max(1e-12);
    let unattributed = match plan.kind {
        Kind::Build => share(
            tr.mean_ns("core.hierarchy.build")
                + tr.mean_ns("core.label.build")
                + tr.mean_ns("core.dense.build"),
            tr.mean_ns("core.index.build"),
        ),
        Kind::QueryLabels | Kind::QuerySearch => share(heap.layers_us, heap.query_us),
        // Round trip = service on the server + the wire and thread
        // handoffs a bare ping also pays (means of the same probe pass).
        Kind::RemoteRpc => share(net.service_us + net.ping_us, net.rtt_us),
        Kind::UpdateMix => {
            let cycle = tr.totals("update-mix.cycle");
            cycle.self_ns as f64 / (cycle.total_ns as f64).max(1.0)
        }
    };
    out.put("core.index.unattributed_share", unattributed);
    Ok(out)
}

/// `try_build` taken apart: the three stage constructors it calls, timed
/// one by one on the workload's graph.
fn build_stages(plan: &Plan, built: &Built, tr: &mut Tracer, out: &mut ProbeReport) {
    let h = tr.span("core.hierarchy.build", 0, |_| {
        VertexHierarchy::build(&built.graph, &plan.config)
    });
    let labels = tr.span("core.label.build", 0, |_| {
        LabelSet::build(&h, plan.config.keep_path_info)
    });
    let dense = tr.span("core.dense.build", 0, |_| {
        DenseGk::undirected(h.universe(), h.gk_members(), h.gk())
    });
    black_box(&dense);
    out.put(
        "core.hierarchy.build_s",
        tr.mean_ns("core.hierarchy.build") / 1e9,
    );
    out.put("core.hierarchy.k", h.k() as f64);
    out.put("core.hierarchy.gk_vertices", h.num_gk_vertices() as f64);
    out.put("core.hierarchy.gk_edges", h.num_gk_edges() as f64);
    out.put("core.label.build_s", tr.mean_ns("core.label.build") / 1e9);
    out.put("core.label.entries", labels.num_entries() as f64);
    out.put("core.label.avg_len", labels.avg_label_len());
    out.put("core.label.max_len", labels.max_label_len() as f64);
    out.put("core.dense.build_s", tr.mean_ns("core.dense.build") / 1e9);
}

/// The artifact path: save, checksum verification, map (plain and
/// verified). Returns the mapped engine for the query probes.
fn artifact(
    built: &Built,
    dir: &TempDir,
    tr: &mut Tracer,
    out: &mut ProbeReport,
) -> Result<MmapIndex, String> {
    let path = dir.join("probe.islx");
    tr.span("core.persist.save", 100, |_| {
        try_save_index_to_path(&built.index, &path)
    })
    .map_err(err("save"))?;
    out.put("core.persist.save_s", tr.mean_ns("core.persist.save") / 1e9);
    out.put(
        "store.artifact_bytes",
        std::fs::metadata(&path).map_or(0, |m| m.len()) as f64,
    );
    tr.span("store.verify", 0, |_| {
        StoreReader::open_unverified(&path).and_then(|r| r.verify())
    })
    .map_err(err("verify artifact"))?;
    out.put("store.verify_ms", ms(tr.mean_ns("store.verify")));
    for i in 0..5 {
        tr.span("core.mmapindex.open", i, |_| {
            MmapIndex::open(&path).map(black_box)
        })
        .map_err(err("map artifact"))?;
        tr.span("core.mmapindex.open_verified", i, |_| {
            MmapIndex::open_verified(&path).map(black_box)
        })
        .map_err(err("map artifact"))?;
    }
    out.put(
        "core.mmapindex.open_ms",
        ms(tr.mean_ns("core.mmapindex.open")),
    );
    out.put(
        "core.mmapindex.open_verified_ms",
        ms(tr.mean_ns("core.mmapindex.open_verified")),
    );
    MmapIndex::open(&path).map_err(err("map artifact"))
}

/// What the query probes hand on.
struct HeapBudget {
    /// The heap session's answers on the probe pairs.
    answers: Vec<Option<Dist>>,
    /// Mean `IsLabelSession::distance`, µs.
    query_us: f64,
    /// intersect + seed + search per query, µs (means, so they add up).
    layers_us: f64,
}

/// One query taken apart, in four alternating lanes over the same pairs:
/// `IsLabelSession::distance`; the same pairs replayed through the public
/// pieces the session is made of — Equation-1 intersect, seed
/// translation, dense search, each in its own span; the session with its
/// phase trace off (what watching costs); the mapped engine.
fn query_budget(
    index: &IsLabelIndex,
    mapped: &MmapIndex,
    pairs: &[Pair],
    tr: &mut Tracer,
    out: &mut ProbeReport,
) -> HeapBudget {
    for i in 0..10 {
        tr.span("core.index.session_open", i, |_| black_box(index.session()));
    }
    out.put(
        "core.index.session_open_us",
        us(tr.mean_ns("core.index.session_open")),
    );

    let mut watched = index.session();
    let mut unwatched = index.session();
    if let Some(trace) = QuerySession::trace_mut(&mut unwatched) {
        trace.enabled = false;
    }
    let mut mmap_session = DistanceOracle::session(mapped);
    let (labels, dense) = (index.labels(), index.dense_gk());
    let ids = dense.ids();
    let mut scratch = DenseScratch::new(ids.len());
    let mut mu = Vec::with_capacity(BATCH);
    let mut seeds: Vec<(u32, Dist)> = Vec::new();
    let mut bounds: Vec<(usize, usize, usize)> = Vec::with_capacity(BATCH);
    let mut entries = 0usize;
    let mut replay = |tr: &mut Tracer, b: usize, batch: &[Pair]| {
        let id = b as u64;
        let mut answers = Vec::with_capacity(batch.len());
        tr.enter("probe.replay", id);
        tr.enter("core.kernel.intersect", id);
        mu.clear();
        for &(s, t) in batch {
            mu.push(kernel::intersect_min_auto(labels.label(s), labels.label(t)));
        }
        tr.exit();
        tr.enter("core.dense.seed", id);
        seeds.clear();
        bounds.clear();
        for &(s, t) in batch {
            let start = seeds.len();
            seeds.extend(
                labels
                    .label(s)
                    .iter()
                    .filter_map(|(a, d)| ids.dense(a).map(|da| (da, d))),
            );
            let mid = seeds.len();
            seeds.extend(
                labels
                    .label(t)
                    .iter()
                    .filter_map(|(a, d)| ids.dense(a).map(|da| (da, d))),
            );
            bounds.push((start, mid, seeds.len()));
        }
        tr.exit();
        tr.enter("core.dense.search", id);
        for (&(mu0, witness), &(start, mid, end)) in mu.iter().zip(&bounds) {
            let found = dense_bi_dijkstra(
                dense.fwd(),
                dense.rev(),
                &seeds[start..mid],
                &seeds[mid..end],
                mu0,
                witness,
                &mut scratch,
            );
            answers.push((found.dist < INF).then_some(found.dist));
        }
        tr.exit();
        tr.exit();
        entries += batch
            .iter()
            .map(|&(s, t)| labels.label(s).len() + labels.label(t).len())
            .sum::<usize>();
        Pass {
            answers,
            ..Pass::default()
        }
    };
    let mut on = per_op_lane("probe.session_query", |s, t| watched.distance(s, t));
    let mut off = per_op_lane("probe.session_query_untraced", |s, t| {
        unwatched.distance(s, t)
    });
    let mut mmap = per_op_lane("core.mmapindex.query", |s, t| mmap_session.distance(s, t));
    let lanes = alternate(
        pairs,
        BATCH,
        tr,
        &mut [&mut on, &mut replay, &mut off, &mut mmap],
    );
    drop((on, off, mmap));
    let [on, replayed, off, mmap] =
        <[Pass; 4]>::try_from(lanes).expect("four lanes in, four passes out");
    let settled = QuerySession::trace(&watched).map_or(0, |t| t.settled);
    // The replay only measures the session's layers if it computes the
    // session's answers; the other engines must agree too.
    out.agree(&on.answers, &replayed.answers);
    out.agree(&on.answers, &off.answers);
    out.agree(&on.answers, &mmap.answers);
    out.failed += on.errors;

    let n = pairs.len().max(1) as f64;
    let per_query = |name: &str| tr.totals(name).total_ns as f64 / n;
    let (intersect, seed, search) = (
        per_query("core.kernel.intersect"),
        per_query("core.dense.seed"),
        per_query("core.dense.search"),
    );
    out.put("core.kernel.intersect_ns", intersect);
    out.put("core.kernel.entries_per_call", entries as f64 / n);
    out.put("core.dense.seed_ns", seed);
    out.put("core.dense.search_us", us(search));
    out.put("core.dense.settled_per_query", settled as f64 / n);
    let layers_us = us(intersect + seed + search);
    out.put("core.index.session_query_us", on.mean_us());
    out.put("core.index.session_self_us", on.mean_us() - layers_us);
    out.put(
        "obs.trace_overhead_pct",
        (on.p50_us() - off.p50_us()) / off.p50_us().max(1e-9) * 100.0,
    );
    out.put("core.mmapindex.query_us", mmap.p50_us());
    out.put(
        "core.mmapindex.vs_heap_ratio",
        mmap.p50_us() / on.p50_us().max(1e-9),
    );
    HeapBudget {
        query_us: on.mean_us(),
        answers: on.answers,
        layers_us,
    }
}

/// The write side: the same seeded op list applied to an index without a
/// log (overlay cost alone) and to one with the WAL attached (what an
/// acknowledged op costs), the patched read path, recovery, compaction.
fn updates(
    plan: &Plan,
    built: &Built,
    dir: &TempDir,
    seed: u64,
    pairs: &[Pair],
    tr: &mut Tracer,
    out: &mut ProbeReport,
) -> Result<(), String> {
    let wal = dir.join("probe.wal");
    let probe = durable_update_probe(&built.artifact, &wal, plan.update_probe_ops, seed, tr)?;
    out.failed += probe.errors;
    out.put(
        "core.persist.heap_load_ms",
        ms(tr.mean_ns("core.persist.heap_load")),
    );

    // Same ops, no log: the overlay's own cost.
    let mut bare = try_load_index_from_path(&built.artifact).map_err(err("load"))?;
    let mut apply_ns = Vec::with_capacity(probe.ops.len());
    let mut prev = Instant::now();
    for (i, op) in probe.ops.iter().enumerate() {
        if crate::opgen::apply(&mut bare, op).is_err() {
            out.failed += 1;
        }
        let now = Instant::now();
        apply_ns.push(now.duration_since(prev).as_nanos() as u64);
        tr.record("core.updates.apply", i as u64, prev, now);
        prev = now;
    }
    let apply_p50 = median_u64(&apply_ns);
    out.put("core.updates.apply_us", us(apply_p50));
    out.put("core.updates.pending_ops", bare.pending_ops() as f64);

    // Patched against pristine, batch by batch. The updates changed the
    // graph, so the two answer lists legitimately differ: these passes
    // are timed, not compared.
    for i in 0..5 {
        tr.span("core.index.patched_session_open", i, |_| {
            black_box(bare.session())
        });
    }
    out.put(
        "core.index.patched_session_open_us",
        us(tr.mean_ns("core.index.patched_session_open")),
    );
    let mut pristine_session = built.index.session();
    let mut patched_session = bare.session();
    let mut pristine = per_op_lane("probe.pristine_query", |s, t| {
        pristine_session.distance(s, t)
    });
    let mut patched = per_op_lane("probe.patched_query", |s, t| patched_session.distance(s, t));
    let lanes = alternate(pairs, BATCH, tr, &mut [&mut pristine, &mut patched]);
    drop((pristine, patched));
    out.failed += lanes[1].errors;
    out.put(
        "core.updates.patched_vs_pristine_ratio",
        lanes[1].p50_us() / lanes[0].p50_us().max(1e-9),
    );
    drop(patched_session);

    // The log's share: an op's acknowledgement with the WAL minus without,
    // split by whether the op closed a flush batch (every 32nd does).
    let every = islabel_core::DEFAULT_WAL_SYNC_EVERY as usize;
    let (synced, plain): (Vec<_>, Vec<_>) = probe
        .lat_ns
        .iter()
        .enumerate()
        .partition(|(i, _)| (i + 1) % every == 0);
    let strip = |v: Vec<(usize, &u64)>| v.into_iter().map(|(_, &ns)| ns).collect::<Vec<u64>>();
    let (synced, plain) = (strip(synced), strip(plain));
    let ops = probe.lat_ns.len().max(1) as f64;
    out.put(
        "core.persist.wal.append_us",
        us(median_u64(&plain) - apply_p50),
    );
    out.put(
        "core.persist.wal.sync_ms",
        ms(median_u64(&synced) - median_u64(&plain)),
    );
    out.put(
        "core.persist.wal.bytes_per_op",
        probe.wal_bytes.saturating_sub(16) as f64 / ops,
    );
    out.put("core.persist.wal.syncs_per_op", synced.len() as f64 / ops);
    out.put(
        "core.persist.wal.ingest_ops_s",
        ops / (probe.wall_ns as f64 / 1e9).max(1e-12),
    );

    // Recovery: artifact + log → the exact overlay back.
    let pending = probe.index.pending_ops();
    drop(probe);
    let (recovered, recovery) = tr
        .span("core.persist.wal.recover", 0, |_| {
            load_index_with_wal(&built.artifact, &wal)
        })
        .map_err(err("recover"))?;
    out.checked += 1;
    if recovered.pending_ops() != pending {
        out.failed += 1;
    }
    drop(recovered);
    out.put(
        "core.persist.wal.recover_ms",
        ms(tr.mean_ns("core.persist.wal.recover")),
    );
    out.put("core.persist.wal.replayed_ops", recovery.replayed as f64);

    // Compaction folds the log into a rebuilt artifact — on a copy, so
    // the workload's artifact stays pristine. Afterwards answers must be
    // exact again.
    let compacted = dir.join("compact.islx");
    std::fs::copy(&built.artifact, &compacted).map_err(err("copy artifact"))?;
    let info = tr
        .span("serve.rebuild.compact", 0, |_| {
            compact_index_with_wal(&compacted, &wal)
        })
        .map_err(err("compact"))?;
    out.put(
        "serve.rebuild.compact_s",
        tr.mean_ns("serve.rebuild.compact") / 1e9,
    );
    out.put("serve.rebuild.folded_ops", info.folded_ops as f64);
    let rebuilt = try_load_index_from_path(&compacted).map_err(err("load compacted"))?;
    let mut session = rebuilt.session();
    for i in verify::sample_positions(pairs.len(), 50, seed ^ 0xC0) {
        let (s, t) = pairs[i];
        out.checked += 1;
        if session.distance(s, t).ok() != Some(dijkstra_p2p(rebuilt.base_graph(), s, t)) {
            out.failed += 1;
        }
    }
    Ok(())
}

/// The in-process worker pool over the mapped engine: one query at a
/// time against the direct session (batch by batch), then 256-pair
/// batches.
fn serve(
    built: &Built,
    pairs: &[Pair],
    want: &[Option<Dist>],
    tr: &mut Tracer,
    out: &mut ProbeReport,
) {
    let service = QueryService::start(built.oracle.clone(), ServeConfig::with_shards(2));
    let mut direct_session = built.oracle.session();
    let mut direct = per_op_lane("probe.direct_query", |s, t| direct_session.distance(s, t));
    let mut pooled = per_op_lane("serve.query", |s, t| service.query(s, t));
    let lanes = alternate(pairs, BATCH, tr, &mut [&mut direct, &mut pooled]);
    drop((direct, pooled));
    let [direct, pooled] = <[Pass; 2]>::try_from(lanes).expect("two lanes in, two passes out");
    out.agree(want, &pooled.answers);
    out.put("serve.query_us", pooled.p50_us());
    out.put("serve.queue_overhead_us", pooled.p50_us() - direct.p50_us());

    let t0 = Instant::now();
    let mut batched = Vec::with_capacity(pairs.len());
    for (b, batch) in pairs.chunks(REMOTE_BATCH).enumerate() {
        match tr.span("serve.batch", b as u64, |_| service.submit(batch).wait()) {
            Ok(answers) => batched.extend(answers),
            Err(_) => out.failed += batch.len() as u64,
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    out.agree(want, &batched);
    out.put("serve.batch_ops_s", pairs.len() as f64 / secs.max(1e-12));
    service.shutdown();
}

/// Means over the probe's two-connection pass, so they add up.
struct NetBudget {
    service_us: f64,
    ping_us: f64,
    rtt_us: f64,
}

/// The wire: bare pings (frame codec, reader → session → writer handoff,
/// syscalls — no query), the benchmark's own shape (two connections at
/// depth one) alternating with the direct session, and two diagnostic
/// shapes. One connection at depth one is known to be bimodal on two
/// cores (it measures the scheduler's wake-up latency); it is reported
/// for context, never gated.
fn net(
    plan: &Plan,
    built: &Built,
    pairs: &[Pair],
    want: &[Option<Dist>],
    tr: &mut Tracer,
    out: &mut ProbeReport,
) -> Result<NetBudget, String> {
    let mut remote = Remote::start(built.oracle.clone(), 2)?;
    // Both connections ping at once: a lone pinger on an otherwise idle
    // machine measures how long the cores take to wake up, which the
    // two-connection query traffic never pays.
    let pings: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = remote
            .clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut errors = 0;
                    let ns = (0..plan.probe_pings)
                        .map(|_| {
                            let t0 = Instant::now();
                            errors += u64::from(client.ping().is_err());
                            t0.elapsed().as_nanos() as u64
                        })
                        .collect();
                    (ns, errors)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("ping thread panicked"))
            .collect()
    });
    out.failed += pings.iter().map(|(_, errors)| errors).sum::<u64>();
    let ping_ns: Vec<u64> = pings.into_iter().flat_map(|(ns, _)| ns).collect();
    let ping_mean_us = us(ping_ns.iter().sum::<u64>() as f64 / ping_ns.len().max(1) as f64);
    out.put("net.ping_rtt_us", us(median_u64(&ping_ns)));

    // The benchmark's own shape against the direct session, and the
    // server's service time over exactly those requests.
    let before = remote.server.stats();
    let Remote { clients, server } = &mut remote;
    let mut direct_session = built.oracle.session();
    let mut direct = per_op_lane("probe.direct_query", |s, t| direct_session.distance(s, t));
    let mut two = |tr: &mut Tracer, b: usize, batch: &[Pair]| {
        let t0 = Instant::now();
        let pass = remote_pass(clients, batch, 1);
        tr.record("net.pass_2c_d1", b as u64, t0, Instant::now());
        pass
    };
    let lanes = alternate(pairs, REMOTE_BATCH, tr, &mut [&mut direct, &mut two]);
    drop(direct);
    let [direct, two] = <[Pass; 2]>::try_from(lanes).expect("two lanes in, two passes out");
    let after = server.stats();
    let served = after
        .latency
        .count()
        .saturating_sub(before.latency.count())
        .max(1);
    let service_us = us(after
        .latency
        .sum_nanos()
        .saturating_sub(before.latency.sum_nanos()) as f64
        / served as f64);

    let mut shape = |conns: usize, depth: usize, name: &'static str| {
        let t0 = Instant::now();
        let pass = remote_pass(&mut remote.clients[..conns], pairs, depth);
        tr.record(name, 0, t0, Instant::now());
        pass
    };
    let one = shape(1, 1, "net.pass_1c_d1");
    let piped = shape(2, 8, "net.pass_2c_d8");
    for pass in [&two, &one, &piped] {
        out.agree(want, &pass.answers);
    }
    out.put("net.rtt_2c_d1_us", two.p50_us());
    out.put("net.rtt_overhead_us", two.p50_us() - direct.p50_us());
    out.put("net.rtt_1c_d1_us", one.p50_us());
    out.put("net.pipelined_2c_d8_ops_s", piped.ops_per_s());
    out.put("net.server.service_us", service_us);
    let stats = remote.server.stats();
    out.put("net.server.frames", stats.frames as f64);
    out.put("net.server.errors", stats.errors as f64);
    Ok(NetBudget {
        service_us,
        ping_us: ping_mean_us,
        rtt_us: two.mean_us(),
    })
}

/// The frame codec's four public functions as batch loops over the
/// workload's own pairs and answers. Bodies are encoded back to back into
/// one reused buffer, so the loops time the codec and not the allocator.
fn codec(pairs: &[Pair], answers: &[Option<Dist>], tr: &mut Tracer, out: &mut ProbeReport) {
    let (mut requests, mut responses) = (Vec::new(), Vec::new());
    let (mut request_ends, mut response_ends) = (Vec::new(), Vec::new());
    let body_of = |ends: &[usize], i: usize| (if i == 0 { 0 } else { ends[i - 1] })..ends[i];
    let mut bad = 0u64;
    for (b, batch) in pairs.chunks(BATCH).enumerate() {
        let first = (b * BATCH) as u64;
        let id = b as u64;
        let answers = &answers[b * BATCH..b * BATCH + batch.len()];
        requests.clear();
        request_ends.clear();
        responses.clear();
        response_ends.clear();
        tr.enter("net.protocol.encode_request", id);
        for (i, &(s, t)) in batch.iter().enumerate() {
            encode_request(first + i as u64, &Request::Query { s, t }, &mut requests);
            request_ends.push(requests.len());
        }
        tr.exit();
        tr.enter("net.protocol.decode_request", id);
        for (i, &(s, t)) in batch.iter().enumerate() {
            let body = &requests[body_of(&request_ends, i)];
            let want = (first + i as u64, Request::Query { s, t });
            bad += u64::from(decode_request(body).ok() != Some(want));
        }
        tr.exit();
        tr.enter("net.protocol.encode_response", id);
        for (i, &d) in answers.iter().enumerate() {
            encode_response(first + i as u64, &Response::Distance(d), &mut responses);
            response_ends.push(responses.len());
        }
        tr.exit();
        tr.enter("net.protocol.decode_response", id);
        for (i, &d) in answers.iter().enumerate() {
            let body = &responses[body_of(&response_ends, i)];
            let want = (first + i as u64, Response::Distance(d));
            bad += u64::from(decode_response(body).ok() != Some(want));
        }
        tr.exit();
    }
    out.checked += 2 * pairs.len() as u64;
    out.failed += bad;
    let n = pairs.len().max(1) as f64;
    for (name, span) in [
        (
            "net.protocol.encode_request_ns",
            "net.protocol.encode_request",
        ),
        (
            "net.protocol.decode_request_ns",
            "net.protocol.decode_request",
        ),
        (
            "net.protocol.encode_response_ns",
            "net.protocol.encode_response",
        ),
        (
            "net.protocol.decode_response_ns",
            "net.protocol.decode_response",
        ),
    ] {
        out.put(name, tr.totals(span).total_ns as f64 / n);
    }
}
