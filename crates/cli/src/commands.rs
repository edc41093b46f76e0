//! Command implementations.

use crate::args::Args;
use islabel_baselines::{build_oracle, Engine};
use islabel_core::persist::v3::stored_config;
use islabel_core::persist::{
    compact_index_with_wal, load_index_with_wal, try_load_index_from_path, try_save_index_to_path,
};
use islabel_core::{
    BatchOptions, BuildConfig, DistanceOracle, IsLabelIndex, KSelection, QueryError, QuerySession,
    WalRecovery,
};
use islabel_extmem::storage::Storage as _;
use islabel_graph::algo::stats::{human_bytes, human_count};
use islabel_graph::io::{read_csr_binary, read_edge_list, write_csr_binary, write_edge_list};
use islabel_graph::{CsrGraph, Dataset, Scale, VertexId};
use islabel_net::{DistanceClient, DistanceServer, NetConfig};
use islabel_serve::{QueryService, ServeConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "\
islabel — IS-LABEL point-to-point distance index (VLDB 2013 reproduction)

USAGE:
    islabel gen <dataset> [--scale tiny|small|medium|large] [-o out.isgb]
    islabel convert <in> <out>                 (.txt <-> .isgb by extension)
    islabel build <graph> -o <index.islx> [--sigma F | --k N | --full]
                  [--no-paths] [--external [--workdir DIR]]
    islabel query <index.islx | graph> <s> <t> [--path] [--engine E]
    islabel bench <index.islx | graph> [--queries N] [--seed S]
                  [--threads N] [--engine E]
    islabel serve [index.islx | graph] [--engine E] [--shards N]
                  [--clients N] [--requests N] [--batch B] [--seed S]
                  [--smoke] [--slow-query-ms MS]
    islabel serve <index.islx | graph> --listen ADDR [--engine E]
                  [--no-reload] [--admin-token T] [--wal WAL]
                  [--slow-query-ms MS]               (TCP server; see README)
    islabel remote-query <ADDR> [s t] [--ping] [--stats] [--token T]
                  [--reload PATH] [--compact] [--shutdown]
    islabel metrics <ADDR | --addr ADDR> [--watch SECS]
                  (scrape a server's Prometheus exposition; see README)
    islabel ingest <index.islx> --wal WAL [--ops N] [--seed S]
                  [--sleep-ms MS]       (apply WAL-logged random updates)
    islabel recover <index.islx> --wal WAL [--check]
    islabel compact <index.islx> --wal WAL   (fold the WAL into a rebuild)
    islabel stats <index.islx | graph> [--file]
                  (--file: on-disk format version, section sizes, residency)

ENGINES (for graph inputs; an .islx artifact is always an IS-LABEL index):
    islabel (default), di-islabel, pll, vc, bidij

DATASETS: btc, web, skitter, wikitalk, google (synthetic stand-ins for the
paper's evaluation graphs; see README § Reproducing the paper's tables).

EXIT CODES:
    0   success
    1   any failure, printed to stderr as `error: ...` — bad arguments or
        an unknown command, unreadable/corrupt artifacts, a `recover
        --check` cross-validation mismatch, or a `remote-query` that
        cannot connect or receives a wire error from the server.";

/// Why a command failed.
#[derive(Debug)]
pub enum CliError {
    /// The command could not do its job; the message is what `main`
    /// prints after `error:`.
    Failed(String),
    /// Writing a report line to standard output failed. A closed pipe
    /// (`islabel stats x.islx --file | head -1`) is the reader's choice,
    /// not a failure, and `main` exits 0 on it.
    Stdout(io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Failed(msg) => f.write_str(msg),
            CliError::Stdout(e) => write!(f, "write to stdout: {e}"),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Failed(msg.to_string())
    }
}

/// Where every command writes its report: `writeln!(stdout, …)?` turns a
/// failed write into [`CliError::Stdout`] instead of the panic `println!`
/// raises. `main` hands in one locked standard output.
pub struct Out<'a>(&'a mut dyn Write);

impl<'a> Out<'a> {
    /// Reports go to `w`.
    pub fn new(w: &'a mut dyn Write) -> Self {
        Out(w)
    }

    /// What `write!` and `writeln!` call.
    pub fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) -> Result<(), CliError> {
        self.0.write_fmt(args).map_err(CliError::Stdout)
    }
}

/// Routes `argv` to a command.
pub fn dispatch(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        writeln!(stdout, "{USAGE}")?;
        return Ok(());
    };
    match cmd.as_str() {
        "gen" => gen(rest, stdout),
        "convert" => convert(rest, stdout),
        "build" => build(rest, stdout),
        "query" => query(rest, stdout),
        "bench" => bench(rest, stdout),
        "serve" => serve(rest, stdout),
        "remote-query" => remote_query(rest, stdout),
        "metrics" => metrics(rest, stdout),
        "ingest" => ingest(rest, stdout),
        "recover" => recover(rest, stdout),
        "compact" => compact(rest, stdout),
        "stats" => stats(rest, stdout),
        "help" | "--help" | "-h" => {
            writeln!(stdout, "{USAGE}")?;
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}").into()),
    }
}

fn parse_dataset(name: &str) -> Result<Dataset, String> {
    Ok(match name {
        "btc" => Dataset::BtcLike,
        "web" => Dataset::WebLike,
        "skitter" => Dataset::SkitterLike,
        "wikitalk" => Dataset::WikiTalkLike,
        "google" => Dataset::GoogleLike,
        other => {
            return Err(format!(
                "unknown dataset '{other}' (btc|web|skitter|wikitalk|google)"
            ))
        }
    })
}

fn load_graph(path: &str) -> Result<CsrGraph, String> {
    let p = Path::new(path);
    let file = std::fs::File::open(p).map_err(|e| format!("open {path}: {e}"))?;
    if p.extension().is_some_and(|e| e == "isgb") {
        read_csr_binary(&mut std::io::BufReader::new(file)).map_err(|e| format!("read {path}: {e}"))
    } else {
        read_edge_list(file).map_err(|e| format!("parse {path}: {e}"))
    }
}

fn save_graph(g: &CsrGraph, path: &str) -> Result<(), String> {
    let p = Path::new(path);
    let file = std::fs::File::create(p).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    if p.extension().is_some_and(|e| e == "isgb") {
        write_csr_binary(g, &mut w).map_err(|e| format!("write {path}: {e}"))
    } else {
        write_edge_list(g, &mut w).map_err(|e| format!("write {path}: {e}"))
    }
}

fn gen(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(argv, &["scale", "out"])?;
    args.reject_unknown_flags(&[])?;
    let dataset = parse_dataset(args.pos(0, "dataset name")?)?;
    let scale: Scale = args.opt("scale").unwrap_or("small").parse()?;
    let out = args
        .opt("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}.isgb", args.pos(0, "dataset").unwrap()));
    let t0 = Instant::now();
    let g = dataset.generate(scale);
    save_graph(&g, &out)?;
    writeln!(
        stdout,
        "{}: {} vertices, {} edges (avg deg {:.2}, max {}) -> {out} in {:.2?}",
        dataset.name(),
        human_count(g.num_vertices()),
        human_count(g.num_edges()),
        g.avg_degree(),
        g.max_degree(),
        t0.elapsed()
    )?;
    Ok(())
}

fn convert(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(argv, &[])?;
    args.reject_unknown_flags(&[])?;
    let input = args.pos(0, "input path")?;
    let output = args.pos(1, "output path")?;
    if input.ends_with(".islx") || output.ends_with(".islx") {
        return Err(
            "convert translates graph files (.txt <-> .isgb); an .islx index has one format \
             and is produced from its graph by `islabel build`"
                .into(),
        );
    }
    let g = load_graph(input)?;
    save_graph(&g, output)?;
    writeln!(
        stdout,
        "{input} -> {output} ({} vertices, {} edges)",
        g.num_vertices(),
        g.num_edges()
    )?;
    Ok(())
}

fn build(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(argv, &["sigma", "k", "out", "workdir"])?;
    args.reject_unknown_flags(&["full", "no-paths", "external"])?;
    let graph_path = args.pos(0, "graph path")?;
    let out = args
        .opt("out")
        .ok_or("missing -o <index.islx>")?
        .to_string();

    let mut config = BuildConfig::default();
    match (
        args.opt_parse::<f64>("sigma")?,
        args.opt_parse::<u32>("k")?,
        args.flag("full"),
    ) {
        (Some(_), Some(_), _) | (Some(_), _, true) | (_, Some(_), true) => {
            return Err("--sigma, --k and --full are mutually exclusive".into())
        }
        (Some(s), None, false) => config.k_selection = KSelection::SigmaThreshold(s),
        (None, Some(k), false) => config.k_selection = KSelection::FixedK(k),
        (None, None, true) => config.k_selection = KSelection::Full,
        (None, None, false) => {}
    }
    if args.flag("no-paths") {
        config.keep_path_info = false;
    }
    config.try_validate().map_err(|e| e.to_string())?;

    let g = load_graph(graph_path)?;
    writeln!(
        stdout,
        "building over {} vertices / {} edges ...",
        human_count(g.num_vertices()),
        human_count(g.num_edges())
    )?;
    let index = if args.flag("external") {
        let workdir = args.opt("workdir").map(str::to_string).unwrap_or_else(|| {
            std::env::temp_dir()
                .join("islabel-build")
                .to_string_lossy()
                .into_owned()
        });
        let storage = islabel_extmem::DirStorage::new(&workdir)
            .map_err(|e| format!("workdir {workdir}: {e}"))?;
        let index = islabel_core::embuild::build_external_from_csr(
            &storage,
            &g,
            config,
            islabel_core::embuild::EmConfig::default(),
        )
        .map_err(|e| format!("external build: {e}"))?;
        let io = storage.stats().snapshot();
        writeln!(
            stdout,
            "external build I/O: {} read, {} written",
            human_bytes(io.bytes_read as usize),
            human_bytes(io.bytes_written as usize)
        )?;
        index
    } else {
        IsLabelIndex::try_build(&g, config).map_err(|e| e.to_string())?
    };
    writeln!(stdout, "{}", index.stats())?;
    try_save_index_to_path(&index, &out).map_err(|e| format!("save {out}: {e}"))?;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    writeln!(
        stdout,
        "index written to {out} ({})",
        human_bytes(bytes as usize)
    )?;
    Ok(())
}

/// A queryable engine a command was pointed at. The concrete index is kept
/// when available because `--path` needs more than the trait exposes.
enum Loaded {
    Index(Box<IsLabelIndex>),
    Oracle(Box<dyn DistanceOracle>),
}

impl Loaded {
    fn as_oracle(&self) -> &dyn DistanceOracle {
        match self {
            Loaded::Index(index) => index.as_ref(),
            Loaded::Oracle(oracle) => oracle.as_ref(),
        }
    }
}

/// Loads an `.islx` artifact (always the IS-LABEL index) or builds the
/// selected `--engine` in-process from a graph file.
fn load_engine(
    engine_opt: Option<&str>,
    input: &str,
    stdout: &mut Out<'_>,
) -> Result<Loaded, CliError> {
    let engine = match engine_opt {
        Some(name) => Engine::parse(name).map_err(|e| e.to_string())?,
        None => Engine::IsLabel,
    };
    if input.ends_with(".islx") {
        if engine != Engine::IsLabel {
            return Err(format!(
                "--engine {engine} needs a graph input; {input} is a prebuilt IS-LABEL index"
            )
            .into());
        }
        let index = try_load_index_from_path(input).map_err(|e| format!("load {input}: {e}"))?;
        return Ok(Loaded::Index(Box::new(index)));
    }
    let g = load_graph(input)?;
    writeln!(
        stdout,
        "building engine '{engine}' over {} vertices / {} edges ...",
        human_count(g.num_vertices()),
        human_count(g.num_edges())
    )?;
    // Keep the concrete index for the default engine so `--path` works on
    // graph inputs too, not only on prebuilt .islx artifacts.
    if engine == Engine::IsLabel {
        let index =
            IsLabelIndex::try_build(&g, BuildConfig::default()).map_err(|e| e.to_string())?;
        return Ok(Loaded::Index(Box::new(index)));
    }
    let oracle = build_oracle(engine, &g, &BuildConfig::default()).map_err(|e| e.to_string())?;
    Ok(Loaded::Oracle(oracle))
}

fn query(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(argv, &["engine"])?;
    args.reject_unknown_flags(&["path"])?;
    let input = args.pos(0, "index or graph path")?;
    let s: VertexId = args
        .pos(1, "source vertex")?
        .parse()
        .map_err(|_| "invalid source vertex id")?;
    let t: VertexId = args
        .pos(2, "target vertex")?
        .parse()
        .map_err(|_| "invalid target vertex id")?;
    let loaded = load_engine(args.opt("engine"), input, stdout)?;
    let oracle = loaded.as_oracle();
    let t0 = Instant::now();
    let d = oracle.try_distance(s, t).map_err(|e| e.to_string())?;
    let took = t0.elapsed();
    match d {
        Some(d) => writeln!(stdout, "dist({s}, {t}) = {d}   [{took:.2?}]")?,
        None => writeln!(stdout, "dist({s}, {t}) = unreachable   [{took:.2?}]")?,
    }
    if args.flag("path") {
        match &loaded {
            Loaded::Index(index) => match index.try_shortest_path(s, t) {
                Ok(Some(p)) => {
                    let verts: Vec<String> = p.vertices.iter().map(|v| v.to_string()).collect();
                    writeln!(
                        stdout,
                        "path ({} edges): {}",
                        p.num_edges(),
                        verts.join(" -> ")
                    )?;
                }
                Ok(None) => {}
                Err(QueryError::NoPathInfo) => {
                    writeln!(stdout, "path unavailable (index built with --no-paths)")?
                }
                Err(e) => return Err(e.to_string().into()),
            },
            Loaded::Oracle(o) => writeln!(
                stdout,
                "path unavailable (--engine {} answers distances only; build an .islx index)",
                o.engine_name()
            )?,
        }
    }
    Ok(())
}

fn bench(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(argv, &["queries", "seed", "threads", "engine"])?;
    args.reject_unknown_flags(&[])?;
    let input = args.pos(0, "index or graph path")?;
    let queries: usize = args.opt_parse("queries")?.unwrap_or(1000);
    let seed: u64 = args.opt_parse("seed")?.unwrap_or(42);
    let threads: usize = args.opt_parse("threads")?.unwrap_or(1);
    let loaded = load_engine(args.opt("engine"), input, stdout)?;
    let oracle = loaded.as_oracle();
    let n = oracle.num_vertices();
    if n < 2 {
        return Err("index too small to benchmark".into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs: Vec<(VertexId, VertexId)> = (0..queries)
        .map(|_| {
            (
                rng.gen_range(0..n as VertexId),
                rng.gen_range(0..n as VertexId),
            )
        })
        .collect();
    let t0 = Instant::now();
    let answers = oracle
        .distance_batch(&pairs, BatchOptions::with_threads(threads))
        .map_err(|e| e.to_string())?;
    let took = t0.elapsed();
    let reachable = answers.iter().filter(|d| d.is_some()).count();
    let checksum = answers
        .iter()
        .flatten()
        .fold(0u64, |acc, &d| acc.wrapping_add(d));
    writeln!(
        stdout,
        "[{}] {queries} queries in {took:.2?} ({:.1} µs/query, {} threads); \
         {reachable} reachable, checksum {checksum}; index {}",
        oracle.engine_name(),
        took.as_secs_f64() * 1e6 / queries as f64,
        BatchOptions::with_threads(threads).effective_threads(queries),
        human_bytes(oracle.index_bytes())
    )?;
    Ok(())
}

/// Drives a synthetic closed-loop workload through a [`QueryService`] and
/// prints the service's counters and the client latency table. `--smoke`
/// is the one-shot CI mode: small fixed workload, in-memory generated
/// graph if no input is given, and a correctness cross-check plus a stats
/// check that fail the command on any mismatch.
fn serve(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(
        argv,
        &[
            "engine",
            "shards",
            "clients",
            "requests",
            "batch",
            "seed",
            "listen",
            "admin-token",
            "wal",
            "slow-query-ms",
        ],
    )?;
    args.reject_unknown_flags(&["smoke", "no-reload"])?;
    let smoke = args.flag("smoke");

    // Arm the process-wide slow-query log before any query runs; entries
    // surface in the `metrics` exposition (wire opcode 0x08).
    if let Some(ms) = args.opt_parse::<u64>("slow-query-ms")? {
        islabel_obs::SlowQueryLog::global().set_threshold_ns(ms.saturating_mul(1_000_000));
        writeln!(stdout, "slow-query log armed at {ms} ms")?;
    }

    // The wire server takes no workload: the closed-loop options are
    // in-process-mode only, and silently dropping them would turn a
    // mistyped smoke run into an indefinite hang. Checked before any
    // index loading so the mistake surfaces immediately.
    if args.opt("listen").is_some() {
        if smoke {
            return Err("--listen and --smoke are mutually exclusive \
                 (the network smoke drives the server via `remote-query`)"
                .into());
        }
        for opt in ["shards", "clients", "requests", "batch", "seed"] {
            if args.opt(opt).is_some() {
                return Err(format!(
                    "--{opt} applies to the in-process workload mode, not --listen"
                )
                .into());
            }
        }
    } else {
        for opt in ["admin-token", "wal"] {
            if args.opt(opt).is_some() {
                return Err(format!("--{opt} applies to the --listen wire server only").into());
            }
        }
    }
    // Wire compaction rebuilds from the on-disk artifact + WAL pair, so it
    // needs an .islx input, not an engine built in memory from a graph.
    if args.opt("wal").is_some() && !args.pos(0, "input").is_ok_and(|p| p.ends_with(".islx")) {
        return Err(
            "--wal needs an .islx index input (compaction rebuilds from the artifact)".into(),
        );
    }

    let loaded = match args.pos(0, "index or graph path") {
        Ok(path) => load_engine(args.opt("engine"), path, stdout)?,
        Err(_) if smoke => {
            // One-shot mode needs no artifacts: generate a tiny stand-in
            // graph in memory and build the selected engine over it.
            let engine = match args.opt("engine") {
                Some(name) => Engine::parse(name).map_err(|e| e.to_string())?,
                None => Engine::IsLabel,
            };
            let g = Dataset::GoogleLike.generate(Scale::Tiny);
            writeln!(
                stdout,
                "smoke: engine '{engine}' over generated graph ({} vertices, {} edges)",
                human_count(g.num_vertices()),
                human_count(g.num_edges())
            )?;
            Loaded::Oracle(
                build_oracle(engine, &g, &BuildConfig::default()).map_err(|e| e.to_string())?,
            )
        }
        Err(e) => return Err(format!("{e} (or pass --smoke to generate one)").into()),
    };
    let oracle: std::sync::Arc<dyn DistanceOracle> = match loaded {
        Loaded::Index(index) => std::sync::Arc::new(*index),
        Loaded::Oracle(boxed) => std::sync::Arc::from(boxed),
    };
    let n = oracle.num_vertices();
    if n < 2 {
        return Err("index too small to serve".into());
    }

    if let Some(listen) = args.opt("listen") {
        let wal = args.opt("wal").map(|wal| {
            (
                args.pos(0, "index path").unwrap().to_string(),
                wal.to_string(),
            )
        });
        return serve_listen(
            oracle,
            listen,
            !args.flag("no-reload"),
            args.opt("admin-token"),
            wal,
            stdout,
        );
    }

    let shards: usize = args
        .opt_parse("shards")?
        .unwrap_or(if smoke { 2 } else { 0 });
    let clients: usize = args
        .opt_parse("clients")?
        .unwrap_or(if smoke { 2 } else { 4 });
    let requests: usize = args
        .opt_parse("requests")?
        .unwrap_or(if smoke { 400 } else { 20_000 });
    let batch: usize = args
        .opt_parse("batch")?
        .unwrap_or(if smoke { 16 } else { 64 });
    let seed: u64 = args.opt_parse("seed")?.unwrap_or(42);
    if clients == 0 || requests == 0 || batch == 0 {
        return Err("--clients, --requests and --batch must be positive".into());
    }

    let service = QueryService::start(
        std::sync::Arc::clone(&oracle),
        ServeConfig::with_shards(shards),
    );
    // Re-emit the service's counters through the process-wide registry so
    // the same exposition the wire server streams is available here.
    service.register_metrics(islabel_obs::Registry::global());
    writeln!(
        stdout,
        "serving [{}] on {} shard(s): {} clients x {} requests (batch {})",
        oracle.engine_name(),
        service.num_shards(),
        clients,
        requests,
        batch
    )?;

    // Cross-check one deterministic batch against the direct query path —
    // in smoke mode this is the assertion CI relies on.
    let check: Vec<(VertexId, VertexId)> = (0..64usize)
        .map(|i| (((i * 13) % n) as VertexId, ((i * 29 + 7) % n) as VertexId))
        .collect();
    let served = service.submit(&check).wait().map_err(|e| e.to_string())?;
    for (&(s, t), got) in check.iter().zip(&served) {
        let expect = oracle.try_distance(s, t).map_err(|e| e.to_string())?;
        if *got != expect {
            return Err(format!(
                "serve cross-check failed: dist({s}, {t}) served {got:?}, direct {expect:?}"
            )
            .into());
        }
    }

    // Closed-loop synthetic workload: each client thread submits a batch,
    // waits for it, repeats. Queries served before this point (the
    // cross-check) are excluded from the throughput figure.
    let pre_workload_queries = service.stats().queries;
    let t0 = Instant::now();
    let mut latencies: Vec<std::time::Duration> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let service = &service;
                let per_client = requests.div_ceil(clients);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37_79B9 * (c as u64 + 1)));
                    let mut lats = Vec::new();
                    let mut remaining = per_client;
                    while remaining > 0 {
                        let size = batch.min(remaining);
                        let pairs: Vec<(VertexId, VertexId)> = (0..size)
                            .map(|_| {
                                (
                                    rng.gen_range(0..n as VertexId),
                                    rng.gen_range(0..n as VertexId),
                                )
                            })
                            .collect();
                        let t = Instant::now();
                        service
                            .submit(&pairs)
                            .wait()
                            .expect("in-range queries cannot fail");
                        lats.push(t.elapsed());
                        remaining -= size;
                    }
                    lats
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let stats = service.shutdown();

    writeln!(stdout, "\nservice stats")?;
    writeln!(
        stdout,
        "    queries |   chunks |      busy | mean µs/query |  p50 µs |  p99 µs | errors"
    )?;
    writeln!(
        stdout,
        "  {:>9} | {:>8} | {:>9.2?} | {:>13.2} | {:>7.1} | {:>7.1} | {:>6}",
        stats.queries,
        stats.batches,
        stats.busy,
        stats.mean_query_latency().as_secs_f64() * 1e6,
        stats.latency.p50().as_secs_f64() * 1e6,
        stats.latency.p99().as_secs_f64() * 1e6,
        stats.errors
    )?;
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    writeln!(stdout, "\nclient batch latency (batch of {batch})")?;
    writeln!(
        stdout,
        "  p50 {:.2?}   p95 {:.2?}   p99 {:.2?}   max {:.2?}",
        pct(0.50),
        pct(0.95),
        pct(0.99),
        latencies[latencies.len() - 1]
    )?;
    let served_queries = stats.queries - pre_workload_queries;
    writeln!(
        stdout,
        "\n{} queries in {wall:.2?} -> {:.0} queries/sec from {clients} client(s)",
        served_queries,
        served_queries as f64 / wall.as_secs_f64(),
    )?;
    if smoke {
        // Every client asks for `ceil(requests / clients)` queries.
        let asked = (clients * requests.div_ceil(clients)) as u64;
        if served_queries != asked || stats.latency.count() != stats.queries || stats.errors != 0 {
            return Err(format!(
                "serve stats do not add up: asked {asked}, served {served_queries}: {stats:?}"
            )
            .into());
        }
        writeln!(
            stdout,
            "smoke OK: cross-check passed, every query counted once"
        )?;
    }
    Ok(())
}

/// `serve --listen ADDR`: expose the loaded engine over the wire protocol
/// and block until a remote `Shutdown` request, then drain and print the
/// final server stats.
fn serve_listen(
    oracle: std::sync::Arc<dyn DistanceOracle>,
    listen: &str,
    allow_reload: bool,
    admin_token: Option<&str>,
    wal: Option<(String, String)>,
    stdout: &mut Out<'_>,
) -> Result<(), CliError> {
    let config = NetConfig {
        allow_reload,
        admin_token: admin_token.map(str::to_string),
        ..NetConfig::default()
    };
    // Build the handle first so the compaction coordinator can be wired
    // before the server accepts its first connection — an early `Compact`
    // must never race the wiring and see "no coordinator configured".
    let handle = std::sync::Arc::new(islabel_core::OracleHandle::new(
        islabel_core::Snapshot::from_arc(oracle),
    ));
    let coordinator = wal.as_ref().map(|(index_path, wal_path)| {
        std::sync::Arc::new(islabel_serve::RebuildCoordinator::new(
            std::sync::Arc::clone(&handle),
            index_path,
            wal_path,
        ))
    });
    let server = DistanceServer::bind_with_coordinator(handle, listen, config, coordinator)
        .map_err(|e| format!("bind {listen}: {e}"))?;
    if let Some((index_path, wal_path)) = &wal {
        writeln!(
            stdout,
            "wire compaction enabled over {index_path} + {wal_path}"
        )?;
    }
    writeln!(
        stdout,
        "listening on {} (reload {}, admin token {}); stop with `islabel remote-query {} --shutdown`",
        server.local_addr(),
        if allow_reload { "enabled" } else { "disabled" },
        if admin_token.is_some() {
            "required"
        } else {
            "open"
        },
        server.local_addr()
    )?;
    server.wait_for_shutdown_request();
    writeln!(stdout, "shutdown requested; draining connections ...")?;
    let stats = server.shutdown();
    writeln!(
        stdout,
        "served {} queries ({} batches, {} errors) over {} connection(s) in {:.2?}",
        stats.queries, stats.batches, stats.errors, stats.connections_total, stats.uptime
    )?;
    writeln!(
        stdout,
        "per-query service time: p50 {:.1} µs, p99 {:.1} µs",
        stats.latency.p50().as_secs_f64() * 1e6,
        stats.latency.p99().as_secs_f64() * 1e6
    )?;
    Ok(())
}

/// Client-side operations against a running `serve --listen` server:
/// optional `s t` query plus `--ping`, `--stats`, `--reload PATH`,
/// `--compact` and `--shutdown` admin calls, executed in that order.
/// `--token` presents the server's admin secret in the hello.
fn remote_query(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(argv, &["reload", "token"])?;
    args.reject_unknown_flags(&["ping", "stats", "shutdown", "compact"])?;
    let addr = args.pos(0, "server address (host:port)")?;
    let mut client = match args.opt("token") {
        Some(token) => DistanceClient::connect_with_token(addr, token),
        None => DistanceClient::connect(addr),
    }
    .map_err(|e| format!("connect {addr}: {e}"))?;
    // A wedged or partitioned server must not hang the CLI forever; a
    // compaction rebuild legitimately takes a while, so the bound is
    // generous rather than tight.
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(
            if args.flag("compact") { 600 } else { 30 },
        )))
        .map_err(|e| e.to_string())?;

    if args.flag("ping") {
        let t0 = Instant::now();
        client.ping().map_err(|e| e.to_string())?;
        writeln!(stdout, "ping: ok   [{:.2?}]", t0.elapsed())?;
    }
    if let Ok(s) = args.pos(1, "source vertex") {
        let s: VertexId = s.parse().map_err(|_| "invalid source vertex id")?;
        let t: VertexId = args
            .pos(2, "target vertex")?
            .parse()
            .map_err(|_| "invalid target vertex id")?;
        let t0 = Instant::now();
        let d = client.distance(s, t).map_err(|e| e.to_string())?;
        let took = t0.elapsed();
        match d {
            Some(d) => writeln!(stdout, "dist({s}, {t}) = {d}   [{took:.2?}]")?,
            None => writeln!(stdout, "dist({s}, {t}) = unreachable   [{took:.2?}]")?,
        }
    }
    if let Some(path) = args.opt("reload") {
        let (version, num_vertices) = client.reload(path).map_err(|e| e.to_string())?;
        writeln!(
            stdout,
            "reloaded {path}: snapshot generation {version}, {num_vertices} vertices"
        )?;
    }
    if args.flag("compact") {
        let t0 = Instant::now();
        let (version, num_vertices) = client.compact().map_err(|e| e.to_string())?;
        writeln!(
            stdout,
            "compacted: snapshot generation {version}, {num_vertices} vertices   [{:.2?}]",
            t0.elapsed()
        )?;
    }
    if args.flag("stats") {
        let s = client.stats().map_err(|e| e.to_string())?;
        writeln!(stdout, "server stats ({addr})")?;
        writeln!(
            stdout,
            "  engine:       {} ({} vertices)",
            s.engine, s.num_vertices
        )?;
        writeln!(stdout, "  snapshot:     generation {}", s.snapshot_version)?;
        writeln!(
            stdout,
            "  connections:  {} total, {} active",
            s.connections_total, s.connections_active
        )?;
        writeln!(
            stdout,
            "  traffic:      {} frames, {} queries, {} batches, {} errors",
            s.frames, s.queries, s.batches, s.errors
        )?;
        // Prefer the full histogram tail (µs-precise percentiles derived
        // client-side); fall back to the truncated scalars a pre-histogram
        // server sends.
        match &s.latency {
            Some(h) => writeln!(
                stdout,
                "  latency:      p50 {:.1} µs, p99 {:.1} µs ({} samples)",
                h.p50().as_secs_f64() * 1e6,
                h.p99().as_secs_f64() * 1e6,
                h.count()
            )?,
            None => writeln!(
                stdout,
                "  latency:      p50 {} µs, p99 {} µs",
                s.p50_us, s.p99_us
            )?,
        }
        writeln!(stdout, "  uptime:       {:.1} s", s.uptime_ms as f64 / 1e3)?;
    }
    if args.flag("shutdown") {
        client.shutdown_server().map_err(|e| e.to_string())?;
        writeln!(stdout, "shutdown acknowledged")?;
    }
    Ok(())
}

/// `metrics ADDR [--watch SECS]`: fetch a running server's Prometheus
/// exposition text over the wire `Metrics` opcode and print it verbatim
/// (so `islabel metrics HOST:PORT > scrape.prom` is a valid scrape).
/// `--watch` re-fetches every N seconds until interrupted.
fn metrics(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(argv, &["addr", "watch"])?;
    args.reject_unknown_flags(&[])?;
    let addr = match args.opt("addr") {
        Some(addr) => addr,
        None => args.pos(0, "server address (host:port, or --addr)")?,
    };
    let watch: Option<u64> = args.opt_parse("watch")?;
    if watch == Some(0) {
        return Err("--watch needs a positive number of seconds".into());
    }
    let mut client = DistanceClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    loop {
        let text = client.metrics().map_err(|e| e.to_string())?;
        write!(stdout, "{text}")?;
        let Some(secs) = watch else {
            return Ok(());
        };
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
}

fn describe_recovery(r: &WalRecovery) -> String {
    let mut notes = Vec::new();
    if r.created {
        notes.push("log created".to_string());
    }
    if r.discarded_stale {
        notes.push("stale-epoch log discarded".to_string());
    }
    if r.truncated {
        notes.push("torn tail truncated".to_string());
    }
    if notes.is_empty() {
        format!("{} op(s) replayed from WAL", r.replayed)
    } else {
        format!(
            "{} op(s) replayed from WAL ({})",
            r.replayed,
            notes.join(", ")
        )
    }
}

/// Picks a live (not deleted) vertex, or `None` when the sampler keeps
/// hitting tombstones.
fn pick_live(rng: &mut StdRng, index: &IsLabelIndex) -> Option<VertexId> {
    let n = index.num_vertices() as VertexId;
    (0..64)
        .map(|_| rng.gen_range(0..n))
        .find(|&v| !index.is_vertex_deleted(v))
}

/// Picks a live vertex whose deletion stays exact — a searched `G_k`
/// member or an inserted vertex ([`IsLabelIndex::is_in_gk`]). Deleting a
/// peeled vertex, or a label-only index's core vertex, would mark the
/// index stale, and a stale index promises nothing `recover --check`
/// could hold it to.
fn pick_deletable(rng: &mut StdRng, index: &IsLabelIndex) -> Option<VertexId> {
    (0..64).find_map(|_| pick_live(rng, index).filter(|&v| index.is_in_gk(v)))
}

/// `ingest INDEX --wal WAL`: attach the log and stream a synthetic update
/// workload (~70% edge inserts, ~20% vertex inserts, ~10% deletions)
/// through the WAL-backed mutation path (deletions via [`pick_deletable`],
/// so the index never goes stale). The index is intentionally
/// *never* re-saved: durability of the applied ops comes from the log
/// alone, which is exactly what `recover` (and the CI crash smoke, which
/// `kill -9`s this command mid-stream) exercises.
fn ingest(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(argv, &["wal", "ops", "seed", "sleep-ms"])?;
    args.reject_unknown_flags(&[])?;
    let index_path = args.pos(0, "index path (.islx)")?;
    let wal_path = args.opt("wal").ok_or("missing --wal <path>")?;
    let ops: usize = args.opt_parse("ops")?.unwrap_or(1000);
    let seed: u64 = args.opt_parse("seed")?.unwrap_or(42);
    let sleep_ms: u64 = args.opt_parse("sleep-ms")?.unwrap_or(0);

    let (mut index, recovery) = load_index_with_wal(index_path, wal_path)
        .map_err(|e| format!("load {index_path} + {wal_path}: {e}"))?;
    writeln!(
        stdout,
        "ingesting into {index_path} ({} vertices, {})",
        human_count(index.num_vertices()),
        describe_recovery(&recovery)
    )?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = [0usize; 3]; // edges, vertices, deletions
    let t0 = Instant::now();
    for _ in 0..ops {
        let roll: u32 = rng.gen_range(0..100);
        if roll < 70 {
            let (Some(a), Some(b)) = (pick_live(&mut rng, &index), pick_live(&mut rng, &index))
            else {
                continue;
            };
            if a == b {
                continue;
            }
            let w = rng.gen_range(1..=10);
            index.try_insert_edge(a, b, w).map_err(|e| e.to_string())?;
            counts[0] += 1;
        } else if roll < 90 {
            let degree = rng.gen_range(1..=3);
            let edges: Vec<(VertexId, islabel_graph::Weight)> = (0..degree)
                .filter_map(|_| pick_live(&mut rng, &index).map(|v| (v, rng.gen_range(1..=10))))
                .collect();
            if edges.is_empty() {
                continue;
            }
            index.try_insert_vertex(&edges).map_err(|e| e.to_string())?;
            counts[1] += 1;
        } else {
            let Some(v) = pick_deletable(&mut rng, &index) else {
                continue;
            };
            index.try_delete_vertex(v).map_err(|e| e.to_string())?;
            counts[2] += 1;
        }
        if sleep_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
        }
    }
    let took = t0.elapsed();
    let applied: usize = counts.iter().sum();
    writeln!(
        stdout,
        "applied {applied} op(s) ({} edge inserts, {} vertex inserts, {} deletions) \
         in {took:.2?} ({:.0} ops/sec); stale: {}",
        counts[0],
        counts[1],
        counts[2],
        applied as f64 / took.as_secs_f64().max(1e-9),
        index.is_stale()
    )?;
    writeln!(
        stdout,
        "pending ops now {}; durable in {wal_path}",
        index.pending_ops()
    )?;
    if let Some(line) = overlay_line(&index) {
        writeln!(stdout, "overlay: {line}")?;
    }
    Ok(())
}

/// What shape the update overlay is, for `ingest`, `recover` and `stats`;
/// `None` for a pristine index, which has none.
fn overlay_line(index: &IsLabelIndex) -> Option<String> {
    let o = index.overlay_stats();
    index.has_updates().then(|| {
        format!(
            "{} ops, {} inserted, {} deleted, {} patched labels / {} entries (max {}), \
             {} extra edges, {} slow fit checks, {:.2} MiB",
            o.pending_ops,
            o.inserted_vertices,
            o.tombstones,
            o.patched_labels,
            o.patch_entries,
            o.max_patch_len,
            o.extra_edges,
            o.slow_fit_checks,
            o.bytes as f64 / (1024.0 * 1024.0)
        )
    })
}

/// `recover INDEX --wal WAL [--check]`: replay the log against the
/// artifact and report what recovery did. `--check` holds the recovered
/// overlay to the lazy-update contract (`core::updates`) against a
/// from-scratch Dijkstra on the materialized current graph: no answer
/// below the reference, none for an unreachable pair, and equality while
/// the index carries no updates at all. A stale index promises nothing, so
/// there the reference leg is skipped and the last line says so. Any
/// violation fails the command — the CI crash smoke turns that into a red
/// build, and requires that the reference leg ran.
fn recover(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(argv, &["wal"])?;
    args.reject_unknown_flags(&["check"])?;
    let index_path = args.pos(0, "index path (.islx)")?;
    let wal_path = args.opt("wal").ok_or("missing --wal <path>")?;
    let (index, recovery) = load_index_with_wal(index_path, wal_path)
        .map_err(|e| format!("load {index_path} + {wal_path}: {e}"))?;
    writeln!(
        stdout,
        "recovered {index_path}: {} vertices, {} pending op(s), {}; stale: {}",
        human_count(index.num_vertices()),
        index.pending_ops(),
        describe_recovery(&recovery),
        index.is_stale()
    )?;
    if let Some(line) = overlay_line(&index) {
        writeln!(stdout, "overlay: {line}")?;
    }
    if args.flag("check") {
        let g = index.current_graph();
        let mut session = index.session();
        let n = index.num_vertices();
        let mut checked = 0usize;
        for i in 0..400usize {
            let (s, t) = (((i * 13) % n) as VertexId, ((i * 29 + 7) % n) as VertexId);
            if index.is_vertex_deleted(s) || index.is_vertex_deleted(t) {
                continue;
            }
            let served = session.distance(s, t).map_err(|e| e.to_string())?;
            if !index.is_stale() {
                let exact = islabel_core::reference::dijkstra_p2p(&g, s, t);
                let ok = match (served, exact) {
                    _ if !index.has_updates() => served == exact,
                    (Some(d), Some(truth)) => d >= truth,
                    (Some(_), None) => false,
                    (None, _) => true,
                };
                if !ok {
                    return Err(format!(
                        "recover check failed: dist({s}, {t}) index {served:?} vs reference {exact:?}"
                    ).into());
                }
            }
            checked += 1;
        }
        if index.is_stale() {
            writeln!(
                stdout,
                "check OK: {checked} pair(s) answered (stale; reference skipped)"
            )?;
        } else {
            writeln!(
                stdout,
                "check OK: {checked} pair(s) hold against reference Dijkstra (reference leg ran)"
            )?;
        }
    }
    Ok(())
}

/// `compact INDEX --wal WAL`: offline rebuild-then-truncate — fold the
/// artifact's sealed ops plus the WAL tail into a fresh pristine index,
/// persist it atomically, then reset the log (the pipeline the live
/// `RebuildCoordinator` runs, with nothing to publish).
fn compact(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(argv, &["wal"])?;
    args.reject_unknown_flags(&[])?;
    let index_path = args.pos(0, "index path (.islx)")?;
    let wal_path = args.opt("wal").ok_or("missing --wal <path>")?;
    let t0 = Instant::now();
    let info = compact_index_with_wal(index_path, wal_path)
        .map_err(|e| format!("compact {index_path} + {wal_path}: {e}"))?;
    writeln!(
        stdout,
        "compacted {index_path}: folded {} op(s) ({} from WAL) into a pristine index of \
         {} vertices / {} edges (epoch {:#x}) in {:.2?}",
        info.folded_ops,
        info.replayed_ops,
        human_count(info.num_vertices),
        human_count(info.num_edges),
        info.epoch,
        t0.elapsed()
    )?;
    Ok(())
}

fn stats(argv: &[String], stdout: &mut Out<'_>) -> Result<(), CliError> {
    let args = Args::parse(argv, &[])?;
    args.reject_unknown_flags(&["file"])?;
    let path = args.pos(0, "artifact path")?;
    if args.flag("file") {
        if !path.ends_with(".islx") {
            return Err("--file reports on-disk index artifacts (.islx)".into());
        }
        return file_stats(path, stdout);
    }
    if path.ends_with(".islx") {
        let index = try_load_index_from_path(path).map_err(|e| format!("load {path}: {e}"))?;
        let s = index.stats();
        writeln!(stdout, "index: {path}")?;
        writeln!(stdout, "  vertices:      {}", human_count(s.num_vertices))?;
        writeln!(stdout, "  edges:         {}", human_count(s.num_edges))?;
        writeln!(stdout, "  k:             {}", s.k)?;
        writeln!(
            stdout,
            "  |V_Gk|:        {} ({:.1}%)",
            human_count(s.gk_vertices),
            100.0 * s.gk_vertex_fraction()
        )?;
        writeln!(stdout, "  |E_Gk|:        {}", human_count(s.gk_edges))?;
        writeln!(
            stdout,
            "  label entries: {} (avg {:.1}, max {})",
            human_count(s.label_entries),
            s.avg_label_len,
            s.max_label_len
        )?;
        writeln!(stdout, "  label bytes:   {}", human_bytes(s.label_bytes))?;
        writeln!(stdout, "  path info:     {}", index.config().keep_path_info)?;
        let dense = index.dense_gk();
        writeln!(
            stdout,
            "  dense kernel:  {} compact ids, {} adjacency entries, {}",
            human_count(dense.ids().len()),
            human_count(dense.fwd().num_entries()),
            human_bytes(dense.memory_bytes())
        )?;
        if let Some(line) = overlay_line(&index) {
            writeln!(stdout, "  overlay:       {line}")?;
        }
        print_search_work(&index, stdout)?;
    } else {
        let g = load_graph(path)?;
        writeln!(stdout, "graph: {path}")?;
        writeln!(stdout, "  vertices: {}", human_count(g.num_vertices()))?;
        writeln!(stdout, "  edges:    {}", human_count(g.num_edges()))?;
        writeln!(stdout, "  avg deg:  {:.2}", g.avg_degree())?;
        writeln!(stdout, "  max deg:  {}", g.max_degree())?;
        writeln!(stdout, "  CSR size: {}", human_bytes(g.memory_bytes()))?;
    }
    Ok(())
}

/// The `stats` line on what a query costs in `G_k`: the per-query means of
/// the session trace's exact work counts over a fixed random sample.
fn print_search_work(index: &IsLabelIndex, stdout: &mut Out<'_>) -> Result<(), CliError> {
    const SAMPLE: usize = 1000;
    let n = index.num_vertices() as VertexId;
    if n < 2 {
        return Ok(());
    }
    let mut rng = StdRng::seed_from_u64(42);
    let mut session = index.session();
    for _ in 0..SAMPLE {
        let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
        // Deleted endpoints answer `None`; nothing here can fail.
        let _ = session.distance(s, t);
    }
    let Some(trace) = QuerySession::trace(&session) else {
        return Ok(());
    };
    let per_query = |total: u64| total as f64 / SAMPLE as f64;
    writeln!(
        stdout,
        "  search work:   {:.1} settled, {:.1} relaxed, {:.1} pushed per query \
         ({SAMPLE} random pairs)",
        per_query(trace.settled),
        per_query(trace.relaxed),
        per_query(trace.pushed)
    )
}

/// `stats --file`: the on-disk view of an `.islx` artifact — header
/// facts, per-section byte layout and whether serving it would be
/// memory-mapped or heap-resident. Anything but a v5 container (an older
/// format version included) is refused by the reader's typed error.
fn file_stats(path: &str, stdout: &mut Out<'_>) -> Result<(), CliError> {
    let reader = islabel_store::StoreReader::open(std::path::Path::new(path))
        .map_err(|e| format!("open {path}: {e}"))?;
    let h = reader.header();
    let bytes = reader.len();
    writeln!(stdout, "artifact: {path}")?;
    writeln!(stdout, "  file size:     {}", human_bytes(bytes))?;
    writeln!(
        stdout,
        "  format:        v{} (flat sections; mmap-servable)",
        islabel_store::format::FORMAT_VERSION
    )?;
    writeln!(stdout, "  epoch:         {}", h.epoch)?;
    let config = stored_config(h).map_err(|e| format!("read {path}: {e}"))?;
    writeln!(stdout, "  build config:  {config}")?;
    writeln!(stdout, "  k:             {}", h.k)?;
    writeln!(stdout, "  vertices:      {}", human_count(h.n as usize))?;
    writeln!(
        stdout,
        "  |V_Gk|:        {}",
        human_count(h.dense_m as usize)
    )?;
    writeln!(stdout, "  sealed ops:    {}", h.op_count)?;
    writeln!(
        stdout,
        "  residency:     {}",
        if reader.is_mapped() {
            "mmap (zero-copy; served in place, sealed ops replayed into the overlay)"
        } else {
            "heap (mapping unavailable on this platform)"
        }
    )?;
    writeln!(stdout, "  sections:      {} of 16 slots", h.sections.len())?;
    let data_bytes: u64 = h.sections.iter().map(|s| s.len).sum();
    for s in &h.sections {
        writeln!(
            stdout,
            "    {:<16} {:>12}   offset {:>10}   checksum 0x{:016x}",
            islabel_store::format::section_kind_name(s.kind),
            human_bytes(s.len as usize),
            s.offset,
            s.checksum
        )?;
    }
    writeln!(
        stdout,
        "  overhead:      {} header + padding ({} data)",
        human_bytes(bytes.saturating_sub(data_bytes as usize)),
        human_bytes(data_bytes as usize)
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("islabel-cli-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn run(args: &[&str]) -> Result<(), String> {
        run_to(args, &mut io::sink())
    }

    /// [`run`] with the report written to `w`.
    fn run_to(args: &[&str], w: &mut dyn Write) -> Result<(), String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&argv, &mut Out::new(w)).map_err(|e| e.to_string())
    }

    /// Serializes the tests that bind a real TCP listener. Ports are
    /// reserved by bind-then-drop, so if two such tests overlap the kernel
    /// can hand both the same ephemeral port; the loser's server dies with
    /// AddrInUse and its client talks to the *other* test's server.
    static WIRE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn wire_lock() -> std::sync::MutexGuard<'static, ()> {
        WIRE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn end_to_end_gen_build_query_bench_stats() {
        let graph = tmp("g.isgb");
        let index = tmp("i.islx");
        run(&["gen", "google", "--scale", "tiny", "-o", &graph]).unwrap();
        run(&["stats", &graph]).unwrap();
        run(&["build", &graph, "-o", &index]).unwrap();
        run(&["stats", &index]).unwrap();
        run(&["query", &index, "0", "5", "--path"]).unwrap();
        run(&["bench", &index, "--queries", "50"]).unwrap();
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&index).ok();
    }

    #[test]
    fn external_build_via_cli() {
        let graph = tmp("ge.isgb");
        let index = tmp("ie.islx");
        let workdir = tmp("wd");
        run(&["gen", "wikitalk", "--scale", "tiny", "-o", &graph]).unwrap();
        run(&[
            "build",
            &graph,
            "-o",
            &index,
            "--external",
            "--workdir",
            &workdir,
            "--sigma",
            "0.9",
        ])
        .unwrap();
        run(&["query", &index, "1", "2"]).unwrap();
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&index).ok();
        std::fs::remove_dir_all(&workdir).ok();
    }

    #[test]
    fn convert_roundtrip() {
        let bin = tmp("c.isgb");
        let txt = tmp("c.txt");
        let back = tmp("c2.isgb");
        run(&["gen", "btc", "--scale", "tiny", "-o", &bin]).unwrap();
        run(&["convert", &bin, &txt]).unwrap();
        run(&["convert", &txt, &back]).unwrap();
        let a = load_graph(&bin).unwrap();
        let b = load_graph(&back).unwrap();
        assert_eq!(a, b);
        for f in [&bin, &txt, &back] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn convert_is_graph_only_and_file_stats_reads_the_one_format() {
        let graph = tmp("cvi.isgb");
        let index = tmp("cvi.islx");
        let old = tmp("cvi-old.islx");
        run(&["gen", "google", "--scale", "tiny", "-o", &graph]).unwrap();
        run(&["build", &graph, "-o", &index]).unwrap();
        assert_eq!(std::fs::read(&index).unwrap()[4..8], 5u32.to_le_bytes());
        let mut report = Vec::new();
        run_to(&["stats", &index, "--file"], &mut report).unwrap();
        let report = String::from_utf8(report).unwrap();
        let config = "build config:  k sigma 0.95, IS min-degree greedy, max levels 10000, \
                      path info on";
        assert!(report.contains(config), "{report}");

        // An index is not convertible, in either position.
        for (input, output) in [(&index, &old), (&graph, &old), (&index, &graph)] {
            let err = run(&["convert", input, output]).unwrap_err();
            assert!(err.contains("islabel build"), "{err}");
        }
        assert!(!Path::new(&old).exists());
        let err = run(&["stats", &graph, "--file"]).unwrap_err();
        assert!(err.contains(".islx"), "{err}");

        // An older artifact is refused by version, naming the remedy: the
        // v2 stream, a v3 container whose label distances are u64, and a
        // v4 container that stores a first hop per label entry.
        for version in [2u32, 3, 4] {
            let mut bytes = b"ISLX".to_vec();
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.resize(1024, 0);
            std::fs::write(&old, bytes).unwrap();
            for args in [
                vec!["stats", old.as_str(), "--file"],
                vec!["stats", old.as_str()],
                vec!["query", old.as_str(), "0", "5"],
            ] {
                let err = run(&args).unwrap_err();
                assert!(err.contains(&format!("version {version}")), "{err}");
                assert!(err.contains("islabel build"), "{err}");
            }
        }

        for f in [&graph, &index, &old] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn conflicting_k_selection_rejected() {
        let err = run(&[
            "build", "x.isgb", "-o", "y.islx", "--sigma", "0.9", "--full",
        ])
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn unknown_command_mentions_usage() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.contains("USAGE"), "{err}");
    }

    #[test]
    fn query_out_of_range_rejected() {
        let graph = tmp("r.isgb");
        let index = tmp("r.islx");
        run(&["gen", "google", "--scale", "tiny", "-o", &graph]).unwrap();
        run(&["build", &graph, "-o", &index]).unwrap();
        let err = run(&["query", &index, "0", "99999999"]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&index).ok();
    }

    #[test]
    fn query_and_bench_accept_every_engine_on_graph_input() {
        let graph = tmp("eng.isgb");
        run(&["gen", "google", "--scale", "tiny", "-o", &graph]).unwrap();
        for engine in ["islabel", "di-islabel", "pll", "vc", "bidij"] {
            run(&["query", &graph, "0", "5", "--engine", engine]).unwrap();
            run(&[
                "bench",
                &graph,
                "--queries",
                "30",
                "--threads",
                "2",
                "--engine",
                engine,
            ])
            .unwrap();
        }
        // `--path` works for the default engine on graph inputs ...
        run(&["query", &graph, "0", "5", "--path"]).unwrap();
        // ... and degrades gracefully for engines without path support.
        run(&["query", &graph, "0", "5", "--engine", "pll", "--path"]).unwrap();
        std::fs::remove_file(&graph).ok();
    }

    #[test]
    fn engine_flag_is_validated() {
        let graph = tmp("engbad.isgb");
        let index = tmp("engbad.islx");
        run(&["gen", "btc", "--scale", "tiny", "-o", &graph]).unwrap();
        let err = run(&["query", &graph, "0", "1", "--engine", "warp-drive"]).unwrap_err();
        assert!(err.contains("unknown engine"), "{err}");
        // A prebuilt .islx is always IS-LABEL; other engines need the graph.
        run(&["build", &graph, "-o", &index]).unwrap();
        let err = run(&["query", &index, "0", "1", "--engine", "pll"]).unwrap_err();
        assert!(err.contains("needs a graph input"), "{err}");
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&index).ok();
    }

    #[test]
    fn serve_smoke_without_input() {
        run(&["serve", "--smoke"]).unwrap();
    }

    #[test]
    fn serve_smoke_on_prebuilt_index_and_engines() {
        let graph = tmp("srv.isgb");
        let index = tmp("srv.islx");
        run(&["gen", "btc", "--scale", "tiny", "-o", &graph]).unwrap();
        run(&["build", &graph, "-o", &index]).unwrap();
        run(&[
            "serve",
            &index,
            "--smoke",
            "--shards",
            "3",
            "--clients",
            "2",
            "--requests",
            "120",
        ])
        .unwrap();
        run(&["serve", &graph, "--smoke", "--engine", "bidij"]).unwrap();
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&index).ok();
    }

    #[test]
    fn serve_requires_input_or_smoke() {
        let err = run(&["serve"]).unwrap_err();
        assert!(err.contains("--smoke"), "{err}");
        let err = run(&["serve", "--smoke", "--batch", "0"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        // The wire server takes no in-process workload options.
        let err = run(&["serve", "--smoke", "--listen", "127.0.0.1:0"]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run(&[
            "serve",
            "x.isgb",
            "--listen",
            "127.0.0.1:0",
            "--shards",
            "4",
        ])
        .unwrap_err();
        assert!(err.contains("--shards"), "{err}");
    }

    #[test]
    fn serve_listen_and_remote_query_end_to_end() {
        let _net = wire_lock();
        let graph = tmp("net.isgb");
        let index = tmp("net.islx");
        run(&["gen", "google", "--scale", "tiny", "-o", &graph]).unwrap();
        run(&["build", &graph, "-o", &index]).unwrap();

        // Reserve an ephemeral port, free it, and hand it to --listen.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);

        let server = {
            let index = index.clone();
            let addr = addr.clone();
            std::thread::spawn(move || run(&["serve", &index, "--listen", &addr]))
        };
        // The server thread needs a moment to bind; retry until it answers.
        let mut attempts = 0;
        loop {
            match run(&["remote-query", &addr, "0", "5", "--ping", "--stats"]) {
                Ok(()) => break,
                Err(e) if attempts < 50 => {
                    assert!(e.contains("connect"), "unexpected failure: {e}");
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                Err(e) => panic!("server never came up: {e}"),
            }
        }
        run(&["remote-query", &addr, "--shutdown"]).unwrap();
        server.join().unwrap().unwrap();
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&index).ok();
    }

    #[test]
    fn metrics_command_scrapes_a_listening_server() {
        let _net = wire_lock();
        let graph = tmp("met.isgb");
        let index = tmp("met.islx");
        run(&["gen", "google", "--scale", "tiny", "-o", &graph]).unwrap();
        run(&["build", &graph, "-o", &index]).unwrap();

        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let server = {
            let (index, addr) = (index.clone(), addr.clone());
            std::thread::spawn(move || {
                run(&["serve", &index, "--listen", &addr, "--slow-query-ms", "250"])
            })
        };
        let mut attempts = 0;
        loop {
            match run(&["remote-query", &addr, "0", "5"]) {
                Ok(()) => break,
                Err(e) if attempts < 50 => {
                    assert!(e.contains("connect"), "unexpected failure: {e}");
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                Err(e) => panic!("server never came up: {e}"),
            }
        }
        // Both address spellings scrape successfully.
        run(&["metrics", &addr]).unwrap();
        run(&["metrics", "--addr", &addr]).unwrap();
        // The exposition itself carries the registered families.
        let text = DistanceClient::connect(&addr).unwrap().metrics().unwrap();
        assert!(text.contains("islabel_net_queries_total"), "{text}");

        // Misuse is rejected cleanly.
        let err = run(&["metrics"]).unwrap_err();
        assert!(err.contains("address"), "{err}");
        let err = run(&["metrics", &addr, "--watch", "0"]).unwrap_err();
        assert!(err.contains("--watch"), "{err}");

        run(&["remote-query", &addr, "--shutdown"]).unwrap();
        server.join().unwrap().unwrap();
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&index).ok();
    }

    #[test]
    fn ingest_recover_compact_lifecycle() {
        let graph = tmp("wal.isgb");
        let index = tmp("wal.islx");
        let wal = tmp("wal.wal");
        run(&["gen", "google", "--scale", "tiny", "-o", &graph]).unwrap();
        run(&["build", &graph, "-o", &index]).unwrap();

        // Stream a logged workload, then prove recovery from artifact+WAL.
        run(&[
            "ingest", &index, "--wal", &wal, "--ops", "60", "--seed", "7",
        ])
        .unwrap();
        run(&["recover", &index, "--wal", &wal, "--check"]).unwrap();
        // A second ingest resumes the same log instead of restarting it.
        run(&[
            "ingest", &index, "--wal", &wal, "--ops", "40", "--seed", "8",
        ])
        .unwrap();
        run(&["recover", &index, "--wal", &wal, "--check"]).unwrap();

        // Fold everything back into a pristine pair; afterwards recovery
        // replays nothing and the check still holds.
        run(&["compact", &index, "--wal", &wal]).unwrap();
        run(&["recover", &index, "--wal", &wal, "--check"]).unwrap();

        // Missing --wal is a clean CLI error on all three commands.
        for cmd in ["ingest", "recover", "compact"] {
            let err = run(&[cmd, &index]).unwrap_err();
            assert!(err.contains("--wal"), "{cmd}: {err}");
        }
        for f in [&graph, &index, &wal] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn wire_admin_token_gates_compact_and_shutdown() {
        let _net = wire_lock();
        let graph = tmp("tok.isgb");
        let index = tmp("tok.islx");
        let wal = tmp("tok.wal");
        run(&["gen", "google", "--scale", "tiny", "-o", &graph]).unwrap();
        run(&["build", &graph, "-o", &index]).unwrap();
        run(&[
            "ingest", &index, "--wal", &wal, "--ops", "20", "--seed", "3",
        ])
        .unwrap();

        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let server = {
            let (index, wal, addr) = (index.clone(), wal.clone(), addr.clone());
            std::thread::spawn(move || {
                run(&[
                    "serve",
                    &index,
                    "--listen",
                    &addr,
                    "--admin-token",
                    "hunter2",
                    "--wal",
                    &wal,
                ])
            })
        };
        let mut attempts = 0;
        loop {
            match run(&["remote-query", &addr, "0", "5", "--ping"]) {
                Ok(()) => break,
                Err(e) if attempts < 50 => {
                    assert!(e.contains("connect"), "unexpected failure: {e}");
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                Err(e) => panic!("server never came up: {e}"),
            }
        }
        // Queries flow without the token; admin opcodes do not.
        let err = run(&["remote-query", &addr, "--compact"]).unwrap_err();
        assert!(err.contains("admin"), "{err}");
        let err = run(&["remote-query", &addr, "--shutdown"]).unwrap_err();
        assert!(err.contains("admin"), "{err}");
        // With the token, compaction folds the WAL and swaps the snapshot.
        run(&["remote-query", &addr, "--token", "hunter2", "--compact"]).unwrap();
        run(&["remote-query", &addr, "--token", "hunter2", "--shutdown"]).unwrap();
        server.join().unwrap().unwrap();

        // The on-disk pair is pristine after the wire compaction.
        run(&["recover", &index, "--wal", &wal, "--check"]).unwrap();
        for f in [&graph, &index, &wal] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn serve_listen_flags_are_validated() {
        let err = run(&["serve", "--smoke", "--admin-token", "x"]).unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        let err = run(&["serve", "g.isgb", "--listen", "127.0.0.1:0", "--wal", "w"]).unwrap_err();
        assert!(err.contains(".islx"), "{err}");
    }

    #[test]
    fn build_rejects_bad_sigma_cleanly() {
        let graph = tmp("sig.isgb");
        run(&["gen", "btc", "--scale", "tiny", "-o", &graph]).unwrap();
        // An invalid σ must surface as a clean CLI error, not a panic.
        let err = run(&["build", &graph, "-o", "x.islx", "--sigma", "1.5"]).unwrap_err();
        assert!(err.contains("invalid configuration"), "{err}");
        std::fs::remove_file(&graph).ok();
    }
}
