//! One workload run: set-up (repeated, median reported), the timed phase,
//! the correctness gate, the epilogue that measures the once-per-run
//! end-to-end numbers and — in a traced run — the layer probes.
//!
//! **Run shape.** Everything before the timed phase (graph generation,
//! build, save/open, server start, warm-up) is `setup_s` and is excluded
//! from the timed phase. The timed phase is a fixed, seeded op list —
//! `--seconds` scales its length — replayed a fixed number of times. Every
//! op keeps the latency of its **fastest replay** ([`Best`]); the reported
//! percentiles are taken over those per-op bests and the throughput is the
//! op count over their sum. The plain per-replay statistics are written
//! next to each value as `<metric>.median` (median across replays) and
//! `<metric>.spread` (their inter-quartile spread) — the run's own noise
//! floor, and the reason the per-op best is what is reported.

use crate::env;
use crate::json::Value;
use crate::opgen::{self, UpdateOpGen};
use crate::passes::{plain_pass, remote_pass, session_pass, Best, Pair, Pass, Percentiles};
use crate::plan::{Kind, Plan, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{highest_supported_percentile, median, summarize, Summary};
use crate::tempdir::TempDir;
use crate::trace::Tracer;
use crate::verify;
use islabel_bench::QueryWorkload;
use islabel_core::persist::{
    try_load_index_from_path, try_load_oracle_from_path, try_save_index_to_path,
};
use islabel_core::{DistanceOracle, IsLabelIndex, SharedOracle, UpdateOp};
use islabel_graph::{CsrGraph, Dist};
use islabel_net::{DistanceClient, DistanceServer, NetConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Raw spans a traced run retains (totals keep accumulating beyond it).
const SPAN_CAPACITY: usize = 100_000;
/// Replays of the durable-update probe's op list (fresh index each).
const UPDATE_PROBE_REPLAYS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed of the query pairs and update ops.
    pub seed: u64,
    /// Scales the op list so the timed phase takes about this long.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Sizes ÷100, same code paths.
    pub smoke: bool,
    /// Test hook: corrupt one answer before the correctness gate.
    pub inject_fault: bool,
    /// Where result files, traces and scratch directories go.
    pub out_dir: PathBuf,
    /// Result file path (default: `<out_dir>/result-<workload>[-trace].json`).
    pub out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Inter-quartile spread of the per-replay statistic, where replays
    /// apply.
    pub spread: Option<f64>,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    /// No operation failed and every checked answer was right.
    pub correct: bool,
    /// Operations attempted (timed ops plus checked answers).
    pub attempted: u64,
    /// Errors plus wrong answers.
    pub failed: u64,
    /// The declared metrics of this run mode, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Wrapping sum of the first replay's answers: identical seeds must
    /// give identical checksums.
    pub answers_checksum: u64,
    /// Where the result file was written.
    pub result_path: PathBuf,
}

impl Outcome {
    /// The final stdout line the driver parses.
    pub fn result_line(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::int(self.attempted)),
            ("failed", Value::int(self.failed)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Loopback server plus its connected clients. Field order is drop
/// order: connections close before the server joins its threads.
#[derive(Debug)]
pub struct Remote {
    /// One client per generator thread.
    pub clients: Vec<DistanceClient>,
    /// The server under test.
    pub server: DistanceServer,
}

impl Remote {
    /// Serves `oracle` on an OS-assigned loopback port with the default
    /// configuration and connects `connections` clients.
    pub fn start(oracle: SharedOracle, connections: usize) -> Result<Remote, String> {
        let server = DistanceServer::start(oracle, "127.0.0.1:0", NetConfig::default())
            .map_err(|e| format!("bind loopback server: {e}"))?;
        let clients = (0..connections)
            .map(|_| DistanceClient::connect(server.local_addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect benchmark client: {e}"))?;
        Ok(Remote { clients, server })
    }
}

/// Everything set-up produces.
pub struct Built {
    /// The workload's graph.
    pub graph: CsrGraph,
    /// The pristine heap index.
    pub index: IsLabelIndex,
    /// The saved v3 artifact.
    pub artifact: PathBuf,
    /// The artifact reopened the way a server does (mmap engine).
    pub oracle: SharedOracle,
    /// The seeded query-pair pool.
    pub pool: Vec<Pair>,
    /// `remote-rpc`: the server and its clients.
    pub remote: Option<Remote>,
}

impl std::fmt::Debug for Built {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Built")
            .field("artifact", &self.artifact)
            .field("engine", &self.oracle.engine_name())
            .field("pool", &self.pool.len())
            .finish_non_exhaustive()
    }
}

/// `map_err` adapter: prefixes an error with what was being attempted.
pub(crate) fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// One full set-up. Spans are named after the layer they call into.
fn setup(
    plan: &Plan,
    seed: u64,
    dir: &TempDir,
    tr: &mut Tracer,
    rep: u64,
) -> Result<Built, String> {
    let graph = tr.span("graph.generate", rep, |_| plan.graph.generate());
    let index = tr
        .span("core.index.build", rep, |_| {
            IsLabelIndex::try_build(&graph, plan.config)
        })
        .map_err(err("build"))?;
    let artifact = dir.join("index.islx");
    tr.span("core.persist.save", rep, |_| {
        try_save_index_to_path(&index, &artifact)
    })
    .map_err(err("save artifact"))?;
    let oracle = open_artifact(&artifact)?;
    let pool = QueryWorkload::random(graph.num_vertices(), plan.pairs, seed).pairs;
    let warm = &pool[..plan.warmup_ops.min(pool.len())];

    // Warm-up: the same paths the timed phase takes, so caches fill and
    // lazy set-up (kernel tier resolution, WAL creation, TCP slow start)
    // finishes before anything is timed.
    let mut remote = None;
    match plan.kind {
        Kind::Build => {}
        Kind::QueryLabels | Kind::QuerySearch => {
            let mut session = index.session();
            plain_pass(warm, |s, t| session.distance(s, t));
        }
        Kind::RemoteRpc => {
            let mut r = Remote::start(oracle.clone(), plan.connections)?;
            for client in &mut r.clients {
                remote_pass(std::slice::from_mut(client), warm, 1);
            }
            remote = Some(r);
        }
        Kind::UpdateMix => {
            let mut scratch = try_load_index_from_path(&artifact).map_err(err("load"))?;
            scratch
                .attach_wal(dir.join("warmup.wal"))
                .map_err(err("attach WAL"))?;
            let ops = UpdateOpGen::for_index(&scratch, seed).take(plan.updates_per_cycle);
            for op in &ops {
                opgen::apply(&mut scratch, op).map_err(err("warm-up update"))?;
            }
            let mut session = scratch.session();
            plain_pass(warm, |s, t| session.distance(s, t));
        }
    }
    Ok(Built {
        graph,
        index,
        artifact,
        oracle,
        pool,
        remote,
    })
}

/// Artifact path → first answered query, the way a server comes up.
fn open_artifact(artifact: &Path) -> Result<SharedOracle, String> {
    let oracle = try_load_oracle_from_path(artifact).map_err(err("open artifact"))?;
    oracle.try_distance(0, 1).map_err(err("first query"))?;
    Ok(oracle)
}

/// Per-replay statistics of a timed phase: what the result file shows as
/// the run's own noise floor.
#[derive(Debug, Clone, Copy, Default)]
struct ReplayStats {
    ops: u64,
    wall_ns: u64,
    latency: Percentiles,
    /// Whether the replay recorded spans (a traced run alternates).
    spanned: bool,
}

impl ReplayStats {
    fn throughput(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9).max(1e-12)
    }
}

/// Per-op bests of one kind of replay (untraced or traced).
#[derive(Debug, Default)]
struct Bests {
    /// One sequential lane of queries (or builds) per connection.
    lanes: Vec<Best>,
    /// `update-mix`: the durable ops.
    updates: Best,
    /// `update-mix`: the per-cycle session reopens.
    reopens: Best,
}

impl Bests {
    fn fold_lanes(&mut self, lat_ns: &[u64], lanes: usize) {
        let per_lane = lat_ns.len().div_ceil(lanes.max(1)).max(1);
        self.lanes.resize_with(lanes, Best::default);
        for (best, part) in self.lanes.iter_mut().zip(lat_ns.chunks(per_lane)) {
            best.fold(part);
        }
    }

    /// Percentiles over the per-op bests of every query lane.
    fn latency(&self) -> Percentiles {
        let all: Vec<u64> = self
            .lanes
            .iter()
            .flat_map(|b| b.ns.iter().copied())
            .collect();
        Percentiles::of(&all)
    }

    /// Ops per second of an undisturbed replay. Every lane is a closed
    /// loop, so a lane's rate is its op count over the sum of its bests;
    /// lanes (connections) run side by side and their rates add up. The
    /// `update-mix` lane also pays for its updates and session reopens.
    fn throughput(&self) -> f64 {
        let extra_ns = self.updates.total_ns() + self.reopens.total_ns();
        let extra_ops = self.updates.ns.len();
        self.lanes
            .iter()
            .map(|b| {
                (b.ns.len() + extra_ops) as f64
                    / ((b.total_ns() + extra_ns) as f64 / 1e9).max(1e-12)
            })
            .sum()
    }
}

/// What a timed phase hands to the gate and the report.
#[derive(Debug, Default)]
struct Phase {
    replays: Vec<ReplayStats>,
    /// Per-op bests, `[untraced replays, traced replays]`.
    bests: [Bests; 2],
    attempted: u64,
    failed: u64,
    checksum: u64,
}

impl Phase {
    fn summary(&self, f: impl Fn(&ReplayStats) -> f64) -> Summary {
        summarize(&self.replays.iter().map(f).collect::<Vec<_>>())
    }

    /// Books one replay: its own statistics and its per-op latencies.
    fn book(&mut self, pass: &Pass, lanes: usize, spanned: bool) {
        self.replays.push(ReplayStats {
            ops: pass.lat_ns.len() as u64,
            wall_ns: pass.wall_ns,
            latency: pass.percentiles(),
            spanned,
        });
        self.bests[usize::from(spanned)].fold_lanes(&pass.lat_ns, lanes);
        self.attempted += pass.lat_ns.len() as u64;
        self.failed += pass.errors;
    }
}

/// Every replay of the op list must give the first replay's answers.
fn same_as_first(first: &mut Option<u64>, answers: &[Option<Dist>]) -> u64 {
    let sum = verify::checksum(answers);
    u64::from(*first.get_or_insert(sum) != sum)
}

/// The correctness gate on one answer list: a seeded sample of
/// [`verify::SAMPLE`] positions against reference Dijkstra. Returns
/// `(checked, wrong)`.
fn gate(
    graph: &CsrGraph,
    pairs: &[Pair],
    answers: &mut [Option<Dist>],
    exact: bool,
    opts: &Options,
) -> (u64, u64) {
    let positions = verify::sample_positions(answers.len(), verify::SAMPLE, opts.seed ^ 0x5A17);
    if opts.inject_fault {
        if let Some(&victim) = positions.first() {
            // Below the true distance breaks the exact and the lazy-update
            // contract alike (s != t, weights positive).
            answers[victim] = Some(0);
        }
    }
    let wrong = verify::wrong_answers(graph, pairs, answers, &positions, exact);
    (positions.len() as u64, wrong as u64)
}

/// The timed phase: `plan.replays` replays of the op list. An end-to-end
/// run records no spans; a traced run alternates — even replays untraced,
/// odd replays traced — so `harness.trace_overhead_pct` compares replays
/// that ran side by side.
fn timed_phase(
    plan: &Plan,
    built: &mut Built,
    dir: &TempDir,
    opts: &Options,
    tr: &mut Tracer,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let alternate = tr.enabled();
    let spanned = |replay: usize| alternate && replay % 2 == 1;
    let mut untraced = Tracer::disabled();
    let mut first_sum = None;
    let mut first_answers: Vec<Option<Dist>> = Vec::new();
    let pairs = &built.pool[..plan.pairs];

    match plan.kind {
        Kind::Build => {
            let mut last = None;
            for replay in 0..plan.replays {
                let t0 = Instant::now();
                let index = IsLabelIndex::try_build(&built.graph, plan.config);
                let t1 = Instant::now();
                if spanned(replay) {
                    tr.record("core.index.build", replay as u64, t0, t1);
                }
                let ns = t1.duration_since(t0).as_nanos() as u64;
                let pass = Pass {
                    lat_ns: vec![ns],
                    wall_ns: ns,
                    errors: u64::from(index.is_err()),
                    ..Pass::default()
                };
                phase.book(&pass, 1, spanned(replay));
                if let Ok(index) = index {
                    last = Some(index);
                }
            }
            // The last index built under the clock answers the pool.
            let index = last.ok_or("every timed build failed")?;
            let mut session = index.session();
            let pass = plain_pass(pairs, |s, t| session.distance(s, t));
            phase.failed += pass.errors;
            first_answers = pass.answers;
        }
        Kind::QueryLabels | Kind::QuerySearch => {
            for replay in 0..plan.replays {
                // A fresh session per replay: where its scratch arrays
                // land in physical memory moves a cache-resident search by
                // ±10 % for the session's lifetime, and one session per
                // run would make that the run's luck.
                let mut session = built.index.session();
                let pass = session_pass(
                    pairs,
                    if spanned(replay) {
                        &mut *tr
                    } else {
                        &mut untraced
                    },
                    "core.index.session_query",
                    0,
                    |s, t| session.distance(s, t),
                );
                phase.book(&pass, 1, spanned(replay));
                phase.failed += same_as_first(&mut first_sum, &pass.answers);
                if replay == 0 {
                    first_answers = pass.answers;
                }
            }
        }
        Kind::RemoteRpc => {
            let remote = built.remote.as_mut().ok_or("remote-rpc needs a server")?;
            for replay in 0..plan.replays {
                let t0 = Instant::now();
                let pass = remote_pass(&mut remote.clients, pairs, 1);
                if spanned(replay) {
                    tr.record("net.replay", replay as u64, t0, Instant::now());
                }
                phase.book(&pass, plan.connections, spanned(replay));
                phase.failed += same_as_first(&mut first_sum, &pass.answers);
                if replay == 0 {
                    first_answers = pass.answers;
                }
            }
            // Every remote answer against the in-process heap session on
            // the same pair (later replays were held to these by checksum).
            let mut session = built.index.session();
            for (&(s, t), got) in pairs.iter().zip(&first_answers) {
                phase.attempted += 1;
                phase.failed += u64::from(session.distance(s, t).ok() != Some(*got));
            }
        }
        Kind::UpdateMix => return update_mix_phase(plan, built, dir, opts, tr),
    }

    phase.checksum = verify::checksum(&first_answers);
    let (checked, wrong) = gate(&built.graph, pairs, &mut first_answers, true, opts);
    phase.attempted += checked;
    phase.failed += wrong;
    Ok(phase)
}

/// `update-mix`: every replay starts from the pristine artifact with a
/// fresh WAL (untimed), then runs `plan.cycles` cycles of [durable ops →
/// reopen the session → queries] — the same seeded ops and pairs every
/// replay, so op `i` of one replay is op `i` of the next, at the same
/// number of pending updates. Within a replay the patch grows, so query
/// latency drifts up by design.
fn update_mix_phase(
    plan: &Plan,
    built: &mut Built,
    dir: &TempDir,
    opts: &Options,
    tr: &mut Tracer,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let alternate = tr.enabled();
    let mut untraced = Tracer::disabled();
    let mut first_sum = None;
    let wal = dir.join("index.wal");
    let pairs = &built.pool[..plan.pairs];
    let per_cycle = plan.pairs / plan.cycles;
    let mut last_index = None;
    for replay in 0..plan.replays {
        let spanned = alternate && replay % 2 == 1;
        let tr = if spanned { &mut *tr } else { &mut untraced };
        // Reset (untimed): pristine heap index, fresh log, the op list.
        drop(last_index.take());
        let _ = std::fs::remove_file(&wal);
        let mut index = try_load_index_from_path(&built.artifact).map_err(err("load"))?;
        index.attach_wal(&wal).map_err(err("attach WAL"))?;
        let ops =
            UpdateOpGen::for_index(&index, opts.seed).take(plan.updates_per_cycle * plan.cycles);

        let (mut update_ns, mut reopen_ns) = (Vec::with_capacity(ops.len()), Vec::new());
        let mut queries = Vec::with_capacity(plan.cycles);
        let mut wall_ns = 0u64;
        for cycle in 0..plan.cycles {
            let id = (replay * plan.cycles + cycle) as u64;
            let t_cycle = Instant::now();
            tr.enter("update-mix.cycle", id);
            let mut prev = Instant::now();
            for op in &ops[cycle * plan.updates_per_cycle..(cycle + 1) * plan.updates_per_cycle] {
                phase.failed += u64::from(opgen::apply(&mut index, op).is_err());
                let now = Instant::now();
                update_ns.push(now.duration_since(prev).as_nanos() as u64);
                tr.record("core.updates.durable_op", id, prev, now);
                prev = now;
            }
            let mut session = index.session();
            let opened = Instant::now();
            reopen_ns.push(opened.duration_since(prev).as_nanos() as u64);
            tr.record("core.index.patched_session_open", id, prev, opened);
            let slice = &pairs[cycle * per_cycle..(cycle + 1) * per_cycle];
            queries.push(session_pass(
                slice,
                tr,
                "core.index.session_query",
                id << 20,
                |s, t| session.distance(s, t),
            ));
            tr.exit();
            wall_ns += t_cycle.elapsed().as_nanos() as u64;
        }
        let pass = Pass {
            wall_ns,
            ..Pass::concat(queries)
        };
        phase.book(&pass, 1, spanned);
        // The replay's ops are the queries *and* the updates.
        let round = phase.replays.last_mut().expect("just booked");
        round.ops += update_ns.len() as u64;
        phase.attempted += update_ns.len() as u64;
        let bests = &mut phase.bests[usize::from(spanned)];
        bests.updates.fold(&update_ns);
        bests.reopens.fold(&reopen_ns);
        phase.failed += same_as_first(&mut first_sum, &pass.answers);
        if replay == 0 {
            phase.checksum = verify::checksum(&pass.answers);
        }
        last_index = Some(index);
    }

    // The gate, on the last replay's final state: the pairs through a
    // fresh session against Dijkstra on the *current* graph, under the
    // lazy-update contract (real paths: never below the reference). It
    // holds because the op generator never deletes a peeled vertex; a
    // stale index would promise nothing.
    let index = last_index.ok_or("update-mix ran no replay")?;
    if index.is_stale() {
        return Err("update-mix made the index stale: no contract to gate on".to_string());
    }
    let mut session = index.session();
    let mut pass = plain_pass(pairs, |s, t| session.distance(s, t));
    let (checked, wrong) = gate(
        &index.current_graph(),
        pairs,
        &mut pass.answers,
        false,
        opts,
    );
    phase.attempted += checked;
    phase.failed += wrong + pass.errors;
    Ok(phase)
}

/// What the durable-update probe measured.
#[derive(Debug)]
pub struct DurableProbe {
    /// Acknowledged latency of each op, in op order.
    pub lat_ns: Vec<u64>,
    /// Wall time of the whole burst.
    pub wall_ns: u64,
    /// Log size after the burst.
    pub wal_bytes: u64,
    /// The index, now carrying the ops.
    pub index: IsLabelIndex,
    /// The ops that were applied.
    pub ops: Vec<UpdateOp>,
    /// Ops that returned an error.
    pub errors: u64,
}

/// Loads a pristine heap index from `artifact`, attaches a fresh WAL at
/// `wal` with the default flush policy and applies `count` seeded ops,
/// timing each acknowledgement. This is what `update_p50_us` means on the
/// workloads whose timed phase does not update, and the write side of the
/// traced run's WAL probe.
pub fn durable_update_probe(
    artifact: &Path,
    wal: &Path,
    count: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Result<DurableProbe, String> {
    let mut index = tr
        .span("core.persist.heap_load", 0, |_| {
            try_load_index_from_path(artifact)
        })
        .map_err(err("load"))?;
    let _ = std::fs::remove_file(wal);
    index.attach_wal(wal).map_err(err("attach WAL"))?;
    let ops = UpdateOpGen::for_index(&index, seed).take(count);
    let mut lat_ns = Vec::with_capacity(count);
    let mut errors = 0;
    let start = Instant::now();
    let mut prev = start;
    for (i, op) in ops.iter().enumerate() {
        if opgen::apply(&mut index, op).is_err() {
            errors += 1;
        }
        let now = Instant::now();
        lat_ns.push(now.duration_since(prev).as_nanos() as u64);
        tr.record("core.updates.durable_op", i as u64, prev, now);
        prev = now;
    }
    Ok(DurableProbe {
        lat_ns,
        wall_ns: prev.duration_since(start).as_nanos() as u64,
        wal_bytes: std::fs::metadata(wal).map_or(0, |m| m.len()),
        index,
        ops,
        errors,
    })
}

/// Runs one workload and writes its result file.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let full_plan = Plan::new(opts.kind, opts.smoke, opts.seconds);
    let plan = if opts.trace {
        full_plan.traced()
    } else {
        full_plan
    };
    let name = opts.kind.name();
    let scratch_base = opts.out_dir.join("tmp");
    let dir = TempDir::new_in(&scratch_base).map_err(err("create scratch directory"))?;
    let mut tr = if opts.trace {
        Tracer::new(SPAN_CAPACITY)
    } else {
        Tracer::disabled()
    };
    let run_started = Instant::now();
    let note = |msg: &str| {
        eprintln!(
            "[benchmark:{name} +{:.1}s rss {:.0} MiB] {msg}",
            run_started.elapsed().as_secs_f64(),
            env::peak_rss_mib()
        )
    };

    // Set-up, `setup_reps` times; the last one is kept.
    let mut setup_secs = Vec::new();
    let mut built = None;
    for rep in 0..plan.setup_reps {
        drop(built.take());
        note(&format!("set-up {}/{} ...", rep + 1, plan.setup_reps));
        let t0 = Instant::now();
        built = Some(setup(&plan, opts.seed, &dir, &mut tr, rep as u64)?);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let mut built = built.ok_or("no set-up ran")?;
    let n = built.graph.num_vertices() as f64;
    let index_bytes = built.index.index_bytes() as f64;
    let artifact_bytes = std::fs::metadata(&built.artifact).map_or(0, |m| m.len()) as f64;

    note(&format!(
        "timed phase ({} replays of {} ops) ...",
        plan.replays,
        plan.ops_in_replay()
    ));
    let phase = timed_phase(&plan, &mut built, &dir, opts, &mut tr)?;
    let (mut attempted, mut failed) = (phase.attempted, phase.failed);

    // A metric with replays behind it carries, next to its value, what
    // the plain median across replays and its spread would have been.
    let mut values: BTreeMap<&'static str, (f64, Option<Summary>)> = BTreeMap::new();
    let mut extra: Vec<(&'static str, Value)> = Vec::new();

    if opts.trace {
        note("layer probes ...");
        let report = probes::run_all(&plan, &built, &dir, opts.seed, &mut tr)?;
        attempted += report.checked;
        failed += report.failed;
        for (name, value) in report.values {
            values.insert(name, (value, None));
        }
        let [base, traced] = [&phase.bests[0], &phase.bests[1]].map(|b| b.latency().p50_us);
        values.insert(
            "harness.trace_overhead_pct",
            ((traced - base) / base.max(1e-12) * 100.0, None),
        );
        let spans: u64 = tr.names().iter().map(|n| tr.totals(n).count).sum();
        values.insert("harness.spans", (spans as f64, None));
        extra.push(("traced_latency_p50_us", Value::Num(traced)));
        extra.push(("untraced_latency_p50_us", Value::Num(base)));
    } else {
        // Before the update probe: its overlay is the probe's memory, not
        // the workload's (on `query-labels` it would be most of the peak).
        values.insert("peak_rss_mib", (env::peak_rss_mib(), None));
        note("epilogue (update probe) ...");
        let bests = &phase.bests[0];
        let update_p50 = if plan.kind == Kind::UpdateMix {
            Percentiles::of(&bests.updates.ns).p50_us
        } else {
            // The same best-of-replays treatment as the timed phase.
            let mut best = Best::default();
            for _ in 0..UPDATE_PROBE_REPLAYS {
                let probe = durable_update_probe(
                    &built.artifact,
                    &dir.join("probe.wal"),
                    plan.update_probe_ops,
                    opts.seed,
                    &mut tr,
                )?;
                attempted += probe.lat_ns.len() as u64;
                failed += probe.errors;
                best.fold(&probe.lat_ns);
            }
            Percentiles::of(&best.ns).p50_us
        };
        let latency = bests.latency();
        values.insert(
            "setup_s",
            (median(&setup_secs), Some(summarize(&setup_secs))),
        );
        values.insert(
            "throughput_ops_s",
            (
                bests.throughput(),
                Some(phase.summary(ReplayStats::throughput)),
            ),
        );
        values.insert(
            "latency_p50_us",
            (latency.p50_us, Some(phase.summary(|r| r.latency.p50_us))),
        );
        values.insert(
            "latency_p90_us",
            (latency.p90_us, Some(phase.summary(|r| r.latency.p90_us))),
        );
        values.insert("update_p50_us", (update_p50, None));
        values.insert("index_bytes_per_vertex", (index_bytes / n, None));
        values.insert("artifact_bytes_per_vertex", (artifact_bytes / n, None));
    }

    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(catalogue.len());
    let mut metric_fields = Vec::new();
    for &(name, unit) in catalogue {
        let (value, across) = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metric_fields.push((
            name.to_string(),
            Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
        ));
        if let Some(across) = across.filter(|a| a.rounds > 1) {
            metric_fields.push((format!("{name}.median"), Value::Num(across.median)));
            metric_fields.push((format!("{name}.spread"), Value::Num(across.spread)));
        }
        metrics.push(Metric {
            name,
            unit,
            value,
            spread: across.filter(|a| a.rounds > 1).map(|a| a.spread),
        });
    }

    // Result file: the metrics with their spreads, what ran, and where.
    let mode = if opts.trace { "-trace" } else { "" };
    let result_path = opts
        .out
        .clone()
        .unwrap_or_else(|| opts.out_dir.join(format!("result-{name}{mode}.json")));
    let per_replay = |f: &dyn Fn(&ReplayStats) -> f64| {
        Value::Arr(phase.replays.iter().map(|r| Value::Num(f(r))).collect())
    };
    // `build` has one op (the build); its percentiles are that op's best.
    let sample = if plan.kind == Kind::Build {
        1
    } else {
        plan.pairs
    };
    let p90_q = highest_supported_percentile(sample).min(0.90);
    let mut doc = vec![
        ("schema", Value::str("islabel-benchmark/v1")),
        ("workload", Value::str(name)),
        ("why", Value::str(opts.kind.why())),
        (
            "mode",
            Value::str(if opts.smoke { "smoke" } else { "full" }),
        ),
        ("trace", Value::Bool(opts.trace)),
        ("seconds", Value::Num(opts.seconds)),
        ("environment", env::fingerprint(opts.seed, dir.path())),
        (
            "plan",
            Value::obj([
                ("graph", Value::str(plan.graph.describe())),
                ("vertices", Value::Num(n)),
                ("edges", Value::int(built.graph.num_edges() as u64)),
                (
                    "config",
                    Value::str(format!("{:?}", plan.config.k_selection)),
                ),
                ("index", Value::str(built.index.stats().to_string())),
                ("op", Value::str(opts.kind.op())),
                ("ops_per_replay", Value::int(plan.ops_in_replay() as u64)),
                ("replays", Value::int(plan.replays as u64)),
                ("connections", Value::int(plan.connections as u64)),
                ("p90_percentile", Value::Num(p90_q)),
                ("setup_reps", Value::int(plan.setup_reps as u64)),
            ]),
        ),
        (
            "per_replay",
            Value::obj([
                (
                    "traced",
                    Value::Arr(
                        phase
                            .replays
                            .iter()
                            .map(|r| Value::Bool(r.spanned))
                            .collect(),
                    ),
                ),
                ("throughput_ops_s", per_replay(&ReplayStats::throughput)),
                ("latency_p50_us", per_replay(&|r| r.latency.p50_us)),
                ("latency_p90_us", per_replay(&|r| r.latency.p90_us)),
                ("latency_p99_us", per_replay(&|r| r.latency.p99_us)),
            ]),
        ),
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::int(attempted)),
        ("failed", Value::int(failed)),
        ("answers_checksum", Value::str(phase.checksum.to_string())),
        ("metrics", Value::Obj(metric_fields)),
    ];
    doc.extend(extra);
    if let Some(parent) = result_path.parent() {
        std::fs::create_dir_all(parent).map_err(err("create result directory"))?;
    }
    std::fs::write(&result_path, Value::obj(doc).pretty()).map_err(err("write result file"))?;
    if opts.trace {
        let trace_path = opts.out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&trace_path, tr.to_json(name).to_string()).map_err(err("write trace"))?;
        note(&format!("trace written to {}", trace_path.display()));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        answers_checksum: phase.checksum,
        result_path,
    })
}
