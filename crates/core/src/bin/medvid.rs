//! `medvid` — command-line front-end to the ClassMiner pipeline.
//!
//! ```text
//! medvid corpus     [--scale tiny|small|full] [--seed N]
//! medvid mine       [--scale ...] [--seed N] [--video I] [--report PATH] [--report-json PATH]
//! medvid index      [--scale ...] [--seed N] --out DB.json [--report PATH] [--report-json PATH]
//! medvid query      --db DB.json [--event presentation|dialog|clinical] [--limit N]
//! medvid storyboard [--scale ...] [--seed N] [--video I] --out DIR
//! medvid serve      --db DB.json [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//! medvid serve      --store DIR [--fsync always|never|N] [--wal-bytes N] [--wal-records N] [...]
//! medvid client     --addr HOST:PORT [--event ...] [--limit N] [--strategy flat|hierarchical|planned]
//! medvid client     --addr HOST:PORT --stats | --restore PATH | --shutdown
//! medvid client     --addr HOST:PORT --metrics | --prometheus | --slow [--drain]
//! medvid client     --addr HOST:PORT --trace [--trace-id ID] [...query flags]
//! medvid top        --addr HOST:PORT [--interval SECS] [--iterations N]
//! medvid jobs       submit|status|list --addr HOST:PORT [--id N]
//! medvid store      info|checkpoint|verify --store DIR
//! medvid cluster    serve --store DIR [--shards N] [--fsync ...] [--workers N] [...]
//! medvid cluster    status --cluster A:P,B:P,... [--replicas IDX=ADDR,...] [--watch]
//! medvid client     --cluster A:P,B:P,... [--replicas IDX=ADDR,...] [--max-staleness N] [...query flags]
//! ```
//!
//! `serve` loads a persisted database snapshot and answers queries over the
//! `medvid-serve/v1` TCP protocol until a client requests shutdown;
//! `client` issues one request against a running server and prints the
//! response. `top` polls the server's rolling-window metrics
//! (`medvid-obs/v2`) and redraws a live terminal dashboard; `client
//! --prometheus` emits the same snapshot in the Prometheus text format,
//! and `--slow` dumps the server's slow-query log.
//!
//! `jobs` drives the server's background job queue: `submit` enqueues a
//! compaction pass (re-running the full PCS/merge fit over the drifted
//! index), `status --id N` polls one job, and `list` dumps the queue.
//!
//! With `--store DIR`, `serve` runs durably: the database is recovered from
//! the directory's checkpoint plus write-ahead-log tail at startup, every
//! ingest is logged before it is acknowledged, and the log is folded into a
//! fresh checkpoint in the background. `medvid store` inspects such a
//! directory offline: `info` prints its vitals, `verify` dry-runs recovery
//! (exit code 1 if the data is damaged), `checkpoint` folds the WAL down.
//!
//! `--report` writes a human-readable per-stage telemetry table;
//! `--report-json` writes the same data as a `medvid-obs/v1` JSON report.
//!
//! `cluster serve` brings up N durable shards in one process (shard `i`
//! stores under `DIR/shard-i`); `cluster status` scatter-gathers every
//! shard's metrics — including a replica's replication lag and a fenced
//! node's topology epoch — and `--watch` turns it into a live redrawing
//! board. `client --cluster` runs a scatter-gather query through the
//! coordinator, reporting partial coverage when shards are down;
//! `--max-staleness N` keeps replicas more than N records behind the
//! leader out of the read path (bounded-staleness reads).
//!
//! Everything operates on the synthetic corpus (the repository's stand-in
//! for real tapes), so every subcommand is self-contained and reproducible
//! from a seed.

use medvid::cluster::{ClusterTopology, Coordinator, CoordinatorConfig, GatherStatus, LocalCluster};
use medvid::index::{Strategy, VideoDatabase};
use medvid::obs::Recorder;
use medvid::serve::{
    Client, MetricsSnapshot, QueryRequest, Response, ServerConfig, WireJobKind, WireStrategy,
};
use medvid::store::{FsyncPolicy, Store, StoreConfig};
use medvid::skim::storyboard::{export_storyboard, storyboard};
use medvid::skim::SkimLevel;
use medvid::synth::{standard_corpus, CorpusScale};
use medvid::types::EventKind;
use medvid::{ClassMiner, ClassMinerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    command: String,
    /// Sub-action for commands that take one (`store info|checkpoint|verify`).
    action: Option<String>,
    scale: CorpusScale,
    seed: u64,
    video: usize,
    out: Option<PathBuf>,
    db: Option<PathBuf>,
    event: Option<EventKind>,
    limit: usize,
    report: Option<PathBuf>,
    report_json: Option<PathBuf>,
    addr: Option<String>,
    workers: usize,
    queue: usize,
    cache: usize,
    strategy: Option<WireStrategy>,
    stats: bool,
    shutdown: bool,
    metrics: bool,
    prometheus: bool,
    slow: bool,
    drain: bool,
    trace: bool,
    trace_id: Option<String>,
    /// Poll interval for `medvid top`, seconds.
    interval: f64,
    /// Number of `medvid top` refreshes; 0 runs until interrupted.
    iterations: usize,
    restore: Option<String>,
    store: Option<PathBuf>,
    fsync: FsyncPolicy,
    wal_bytes: Option<u64>,
    wal_records: Option<u64>,
    /// Shard count for `cluster serve`.
    shards: u32,
    /// Comma-separated shard primary addresses, in shard order.
    cluster: Option<String>,
    /// Comma-separated `IDX=ADDR` read-replica registrations.
    replicas: Option<String>,
    /// Redraw `cluster status` every `--interval` seconds.
    watch: bool,
    /// Bounded-staleness read routing: replicas may answer only while
    /// their replication lag (records behind the leader) is at or under
    /// this bound.
    max_staleness: Option<u64>,
    /// Job id for `medvid jobs status`.
    id: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: args.first().cloned().ok_or_else(usage)?,
        action: None,
        scale: CorpusScale::Tiny,
        seed: 2003,
        video: 0,
        out: None,
        db: None,
        event: None,
        limit: 10,
        report: None,
        report_json: None,
        addr: None,
        workers: 4,
        queue: 64,
        cache: 256,
        strategy: None,
        stats: false,
        shutdown: false,
        metrics: false,
        prometheus: false,
        slow: false,
        drain: false,
        trace: false,
        trace_id: None,
        interval: 2.0,
        iterations: 0,
        restore: None,
        store: None,
        fsync: FsyncPolicy::Always,
        wal_bytes: None,
        wal_records: None,
        shards: 3,
        cluster: None,
        replicas: None,
        watch: false,
        max_staleness: None,
        id: None,
    };
    let mut i = 1;
    // A bare word right after the command is its sub-action
    // (`medvid store verify ...`).
    if args.get(1).is_some_and(|a| !a.starts_with("--")) {
        opts.action = Some(args[1].clone());
        i = 2;
    }
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || -> Result<&String, String> {
            args.get(i + 1).ok_or(format!("{flag} needs a value"))
        };
        match flag {
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "tiny" => CorpusScale::Tiny,
                    "small" => CorpusScale::Small,
                    "full" => CorpusScale::Full,
                    other => return Err(format!("unknown scale '{other}'")),
                };
                i += 2;
            }
            "--seed" => {
                opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--video" => {
                opts.video = value()?.parse().map_err(|e| format!("--video: {e}"))?;
                i += 2;
            }
            "--limit" => {
                opts.limit = value()?.parse().map_err(|e| format!("--limit: {e}"))?;
                i += 2;
            }
            "--out" => {
                opts.out = Some(PathBuf::from(value()?));
                i += 2;
            }
            "--db" => {
                opts.db = Some(PathBuf::from(value()?));
                i += 2;
            }
            "--report" => {
                opts.report = Some(PathBuf::from(value()?));
                i += 2;
            }
            "--report-json" => {
                opts.report_json = Some(PathBuf::from(value()?));
                i += 2;
            }
            "--addr" => {
                opts.addr = Some(value()?.clone());
                i += 2;
            }
            "--workers" => {
                opts.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?;
                i += 2;
            }
            "--queue" => {
                opts.queue = value()?.parse().map_err(|e| format!("--queue: {e}"))?;
                i += 2;
            }
            "--cache" => {
                opts.cache = value()?.parse().map_err(|e| format!("--cache: {e}"))?;
                i += 2;
            }
            "--strategy" => {
                opts.strategy = Some(match value()?.as_str() {
                    "flat" => WireStrategy::Flat,
                    "hierarchical" | "hier" => WireStrategy::Hierarchical,
                    "planned" | "plan" => WireStrategy::Planned,
                    other => return Err(format!("unknown strategy '{other}'")),
                });
                i += 2;
            }
            "--store" => {
                opts.store = Some(PathBuf::from(value()?));
                i += 2;
            }
            "--fsync" => {
                opts.fsync = match value()?.as_str() {
                    "always" => FsyncPolicy::Always,
                    "never" => FsyncPolicy::Never,
                    n => FsyncPolicy::EveryN(
                        n.parse()
                            .map_err(|_| format!("--fsync wants always|never|N, got '{n}'"))?,
                    ),
                };
                i += 2;
            }
            "--wal-bytes" => {
                opts.wal_bytes = Some(value()?.parse().map_err(|e| format!("--wal-bytes: {e}"))?);
                i += 2;
            }
            "--wal-records" => {
                opts.wal_records = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--wal-records: {e}"))?,
                );
                i += 2;
            }
            "--restore" => {
                opts.restore = Some(value()?.clone());
                i += 2;
            }
            "--shards" => {
                opts.shards = value()?.parse().map_err(|e| format!("--shards: {e}"))?;
                i += 2;
            }
            "--cluster" => {
                opts.cluster = Some(value()?.clone());
                i += 2;
            }
            "--replicas" => {
                opts.replicas = Some(value()?.clone());
                i += 2;
            }
            "--watch" => {
                opts.watch = true;
                i += 1;
            }
            "--max-staleness" => {
                opts.max_staleness = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--max-staleness: {e}"))?,
                );
                i += 2;
            }
            "--id" => {
                opts.id = Some(value()?.parse().map_err(|e| format!("--id: {e}"))?);
                i += 2;
            }
            "--stats" => {
                opts.stats = true;
                i += 1;
            }
            "--metrics" => {
                opts.metrics = true;
                i += 1;
            }
            "--prometheus" => {
                opts.prometheus = true;
                i += 1;
            }
            "--slow" => {
                opts.slow = true;
                i += 1;
            }
            "--drain" => {
                opts.drain = true;
                i += 1;
            }
            "--trace" => {
                opts.trace = true;
                i += 1;
            }
            "--trace-id" => {
                opts.trace_id = Some(value()?.clone());
                i += 2;
            }
            "--interval" => {
                opts.interval = value()?.parse().map_err(|e| format!("--interval: {e}"))?;
                i += 2;
            }
            "--iterations" => {
                opts.iterations = value()?
                    .parse()
                    .map_err(|e| format!("--iterations: {e}"))?;
                i += 2;
            }
            "--shutdown" => {
                opts.shutdown = true;
                i += 1;
            }
            "--event" => {
                opts.event = Some(match value()?.as_str() {
                    "presentation" => EventKind::Presentation,
                    "dialog" => EventKind::Dialog,
                    "clinical" => EventKind::ClinicalOperation,
                    other => return Err(format!("unknown event '{other}'")),
                });
                i += 2;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

fn usage() -> String {
    "usage: medvid <corpus|mine|index|query|storyboard|serve|client|top|jobs|store|cluster> [flags]\n\
     flags: --scale tiny|small|full  --seed N  --video I  --out PATH  \
     --db PATH  --event presentation|dialog|clinical  --limit N  \
     --report PATH  --report-json PATH  --addr HOST:PORT  --workers N  \
     --queue N  --cache N  --strategy flat|hierarchical|planned  --stats  \
     --restore PATH  --shutdown\n\
     observability: --metrics  --prometheus  --slow [--drain]  --trace  \
     --trace-id ID;  top: --addr HOST:PORT [--interval SECS] [--iterations N]\n\
     durability: --store DIR  --fsync always|never|N  --wal-bytes N  \
     --wal-records N;  store takes an action: info|checkpoint|verify\n\
     jobs: submit|status|list --addr HOST:PORT [--id N] (submit enqueues a \
     background compaction; status needs --id)\n\
     cluster: serve --store DIR [--shards N];  status --cluster A,B,...  \
     [--replicas IDX=ADDR,...] [--watch [--interval SECS] [--iterations N]];  \
     client also takes --cluster/--replicas for scatter-gather queries and \
     --max-staleness RECORDS to bound how far behind a replica may answer \
     reads"
        .to_string()
}

/// Builds the store tuning from the parsed flags.
fn store_config(opts: &Options) -> StoreConfig {
    let mut config = StoreConfig {
        fsync: opts.fsync,
        ..StoreConfig::default()
    };
    if let Some(b) = opts.wal_bytes {
        config.checkpoint_wal_bytes = b;
    }
    if let Some(r) = opts.wal_records {
        config.checkpoint_wal_records = r;
    }
    config
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        args.first().map(String::as_str),
        Some("help" | "--help" | "-h")
    ) {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> Result<(), String> {
    match opts.command.as_str() {
        "corpus" => {
            let corpus = standard_corpus(opts.scale, opts.seed);
            println!("corpus: {} videos (seed {})", corpus.len(), opts.seed);
            for v in &corpus {
                let truth = v.truth.as_ref().expect("synthetic corpus has truth");
                println!(
                    "  {} '{}': {} frames, {:.0} s, {} true shots, {} semantic units",
                    v.id,
                    v.title,
                    v.frame_count(),
                    v.duration_secs(),
                    truth.shot_count(),
                    truth.semantic_units.len()
                );
            }
            Ok(())
        }
        "mine" => {
            let (video, miner) = load_video(opts)?;
            let (mined, report) = miner.mine_report(&video);
            println!(
                "'{}': {} shots -> {} groups -> {} scenes -> {} clustered scenes",
                video.title,
                mined.structure.shots.len(),
                mined.structure.groups.len(),
                mined.structure.scenes.len(),
                mined.structure.clustered_scenes.len()
            );
            for ev in &mined.events {
                let (a, b) = mined.structure.scene_frame_span(ev.scene);
                println!("  scene {} [{a}..{b}): {}", ev.scene, ev.event);
            }
            write_report_outputs(opts, &report.render_text(), &report)
        }
        "index" => {
            let out = opts.out.as_ref().ok_or("index needs --out DB.json")?;
            let corpus = standard_corpus(opts.scale, opts.seed);
            let miner = make_miner(opts)?;
            let (db, _, report) = miner.index_corpus_report(&corpus);
            db.save_json(out).map_err(|e| e.to_string())?;
            println!("indexed {} shots into {}", db.len(), out.display());
            write_report_outputs(opts, &report.render_text(), &report)
        }
        "query" => {
            let db_path = opts.db.as_ref().ok_or("query needs --db DB.json")?;
            let db = VideoDatabase::load_json(db_path).map_err(|e| e.to_string())?;
            let rec = Recorder::new();
            let mut q = db.query().limit(opts.limit).strategy(Strategy::Flat);
            if let Some(e) = opts.event {
                q = q.event(e);
            }
            let (hits, stats) = q.run_observed(&rec);
            println!(
                "{} hits ({} records scanned, {} nodes visited, {} subtrees pruned) in {}",
                hits.len(),
                stats.comparisons,
                stats.nodes_visited,
                stats.pruned_subtrees,
                db_path.display()
            );
            for h in hits {
                let r = db.record(h.shot).expect("hit is indexed");
                println!("  video {} shot {}: {}", h.shot.video, h.shot.shot, r.event);
            }
            let report = rec.report();
            write_report_outputs(opts, &report.render_text(), &report)
        }
        "storyboard" => {
            let out = opts.out.as_ref().ok_or("storyboard needs --out DIR")?;
            let (video, miner) = load_video(opts)?;
            let mined = miner.mine(&video);
            let cards = storyboard(
                &mined.structure,
                &mined.events,
                SkimLevel::Scenes,
                video.fps,
            );
            let paths = export_storyboard(&cards, &video.frames, out).map_err(|e| e.to_string())?;
            println!(
                "exported {} storyboard cards for '{}' to {}",
                paths.len(),
                video.title,
                out.display()
            );
            Ok(())
        }
        "serve" => {
            let rec = Recorder::new();
            let config = ServerConfig {
                addr: opts
                    .addr
                    .clone()
                    .unwrap_or_else(|| "127.0.0.1:0".to_string()),
                workers: opts.workers,
                queue_capacity: opts.queue,
                cache_capacity: opts.cache,
                default_limit: opts.limit,
                ..ServerConfig::default()
            };
            let handle = if let Some(dir) = &opts.store {
                // Durable: recover from the store; --db only seeds a brand
                // new directory.
                let initial = match &opts.db {
                    Some(p) => VideoDatabase::load_json(p).map_err(|e| e.to_string())?,
                    None => VideoDatabase::medical(),
                };
                let (handle, report) =
                    medvid::serve::spawn_durable(dir, store_config(opts), initial, config, rec.clone())
                        .map_err(|e| e.to_string())?;
                println!("recovered from {}: {report}", dir.display());
                handle
            } else {
                let db_path = opts.db.as_ref().ok_or("serve needs --db DB.json or --store DIR")?;
                let db = VideoDatabase::load_json(db_path).map_err(|e| e.to_string())?;
                println!("loaded {} records (in-memory, no durability)", db.len());
                medvid::serve::spawn(db, config, rec.clone()).map_err(|e| e.to_string())?
            };
            let addr = handle.addr();
            println!("{} serving on {addr}", medvid::serve::PROTOCOL_VERSION);
            println!("stop with: medvid client --addr {addr} --shutdown");
            handle.join();
            println!("server drained");
            let report = rec.report();
            write_report_outputs(opts, &report.render_text(), &report)
        }
        "store" => {
            let dir = opts.store.as_ref().ok_or("store needs --store DIR")?;
            match opts.action.as_deref() {
                Some("info") | Some("verify") => {
                    let verify_mode = opts.action.as_deref() == Some("verify");
                    let report = medvid::store::verify(dir).map_err(|e| e.to_string())?;
                    println!("store at {}:", dir.display());
                    match report.checkpoint_seq {
                        Some(seq) => println!(
                            "  checkpoint: seq {seq}, {} records",
                            report.checkpoint_records.unwrap_or(0)
                        ),
                        None => println!(
                            "  checkpoint: unreadable ({})",
                            report.checkpoint_error.as_deref().unwrap_or("missing")
                        ),
                    }
                    println!(
                        "  wal: {} records, {}/{} bytes valid, last seq {}",
                        report.wal_records,
                        report.wal_valid_bytes,
                        report.wal_total_bytes,
                        report.last_seq
                    );
                    match &report.fault {
                        Some(fault) => println!("  tail fault: {fault}"),
                        None => println!("  tail: clean"),
                    }
                    if verify_mode && !report.healthy() {
                        return Err("store is damaged (see tail fault above)".into());
                    }
                    if verify_mode {
                        println!("verify: ok — recovery would replay cleanly");
                    }
                    Ok(())
                }
                Some("checkpoint") => {
                    let recovered = Store::open(
                        dir,
                        store_config(opts),
                        VideoDatabase::medical(),
                        Recorder::disabled(),
                    )
                    .map_err(|e| e.to_string())?;
                    println!("recovered: {}", recovered.report);
                    let mut store = recovered.store;
                    let stats = store.checkpoint(&recovered.db).map_err(|e| e.to_string())?;
                    println!(
                        "checkpointed seq {}: {} snapshot bytes, {} WAL bytes retired",
                        stats.last_seq, stats.snapshot_bytes, stats.wal_bytes_truncated
                    );
                    Ok(())
                }
                Some(other) => Err(format!("unknown store action '{other}'\n{}", usage())),
                None => Err(format!("store needs an action\n{}", usage())),
            }
        }
        "cluster" => match opts.action.as_deref() {
            Some("serve") => cluster_serve(opts),
            Some("status") => cluster_status(opts),
            Some(other) => Err(format!("unknown cluster action '{other}'\n{}", usage())),
            None => Err(format!("cluster needs an action (serve|status)\n{}", usage())),
        },
        "client" if opts.cluster.is_some() => cluster_query(opts),
        "client" => {
            let addr = opts.addr.as_ref().ok_or("client needs --addr HOST:PORT")?;
            let addr: SocketAddr = addr.parse().map_err(|e| format!("--addr: {e}"))?;
            let mut client =
                Client::connect(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
            let response = if opts.stats {
                client.stats()
            } else if opts.metrics || opts.prometheus {
                client.metrics()
            } else if opts.slow {
                client.slow_queries(opts.drain)
            } else if let Some(path) = &opts.restore {
                client.restore(path.clone())
            } else if opts.shutdown {
                client.shutdown()
            } else {
                client.query(QueryRequest {
                    event: opts.event,
                    limit: Some(opts.limit),
                    strategy: opts.strategy,
                    trace_id: opts.trace_id.clone(),
                    trace: opts.trace,
                    ..QueryRequest::default()
                })
            }
            .map_err(|e| e.to_string())?;
            if opts.prometheus {
                let Response::Metrics { snapshot } = &response else {
                    return Err(format!("expected a metrics snapshot, got {response:?}"));
                };
                print!("{}", snapshot.render_prometheus());
                return Ok(());
            }
            print_response(&response);
            Ok(())
        }
        "top" => {
            let addr = opts.addr.as_ref().ok_or("top needs --addr HOST:PORT")?;
            let addr: SocketAddr = addr.parse().map_err(|e| format!("--addr: {e}"))?;
            run_top(addr, opts)
        }
        "jobs" => jobs_command(opts),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

/// Builds the coordinator's cluster map from `--cluster` (primary
/// addresses in shard order) and `--replicas` (`IDX=ADDR` pairs).
fn parse_topology(opts: &Options) -> Result<ClusterTopology, String> {
    let list = opts
        .cluster
        .as_ref()
        .ok_or("this command needs --cluster ADDR,ADDR,...")?;
    let primaries: Vec<SocketAddr> = list
        .split(',')
        .map(|a| {
            a.trim()
                .parse()
                .map_err(|e| format!("--cluster '{}': {e}", a.trim()))
        })
        .collect::<Result<_, _>>()?;
    let mut topology = ClusterTopology::of_primaries(&primaries);
    if let Some(pairs) = &opts.replicas {
        for pair in pairs.split(',') {
            let (idx, addr) = pair
                .split_once('=')
                .ok_or_else(|| format!("--replicas wants IDX=ADDR, got '{pair}'"))?;
            let idx: u32 = idx
                .trim()
                .parse()
                .map_err(|e| format!("--replicas shard index '{idx}': {e}"))?;
            if idx as usize >= topology.len() {
                return Err(format!(
                    "--replicas: shard {idx} is not in the {}-shard --cluster list",
                    topology.len()
                ));
            }
            topology.add_replica(
                idx,
                addr.trim()
                    .parse()
                    .map_err(|e| format!("--replicas '{}': {e}", addr.trim()))?,
            );
        }
    }
    Ok(topology)
}

fn coordinator_config(opts: &Options) -> CoordinatorConfig {
    CoordinatorConfig {
        default_limit: opts.limit,
        max_staleness: opts.max_staleness,
        ..CoordinatorConfig::default()
    }
}

/// `medvid cluster serve`: N durable shards in one process, each with its
/// own WAL and checkpoints under `--store DIR/shard-i`.
fn cluster_serve(opts: &Options) -> Result<(), String> {
    let dir = opts
        .store
        .as_ref()
        .ok_or("cluster serve needs --store DIR")?;
    let rec = Recorder::new();
    let server = ServerConfig {
        workers: opts.workers,
        queue_capacity: opts.queue,
        cache_capacity: opts.cache,
        default_limit: opts.limit,
        ..ServerConfig::default()
    };
    let cluster = LocalCluster::spawn(dir, opts.shards, store_config(opts), server, rec)
        .map_err(|e| e.to_string())?;
    for (i, report) in cluster.recovery_reports().iter().enumerate() {
        println!(
            "shard {i} on {} — recovered from {}: {report}",
            cluster.addr(i as u32),
            dir.join(format!("shard-{i}")).display()
        );
    }
    let list = (0..cluster.len() as u32)
        .map(|i| cluster.addr(i).to_string())
        .collect::<Vec<_>>()
        .join(",");
    println!("cluster of {} shards is up", cluster.len());
    println!("status: medvid cluster status --cluster {list}");
    println!("query:  medvid client --cluster {list}");
    println!("stop:   medvid client --addr <shard-addr> --shutdown (per shard)");
    cluster.join();
    println!("all shards drained");
    Ok(())
}

/// `medvid cluster status`: scatter-gather every shard's metrics snapshot
/// and render one status line per shard, including replication lag and
/// the node's fence epoch. `--watch` redraws every `--interval` seconds
/// (`--iterations N` stops after N refreshes; 0 = until interrupted).
fn cluster_status(opts: &Options) -> Result<(), String> {
    let coordinator = Coordinator::new(
        parse_topology(opts)?,
        coordinator_config(opts),
        Recorder::disabled(),
    );
    let mut drawn = 0usize;
    loop {
        if opts.watch {
            // ANSI clear + home, same convention as `medvid top`.
            print!("\x1b[2J\x1b[H");
        }
        let unreachable = render_cluster_status(&coordinator);
        if !opts.watch {
            if unreachable > 0 {
                return Err(format!("{unreachable} shard(s) unreachable"));
            }
            return Ok(());
        }
        drawn += 1;
        if opts.iterations > 0 && drawn >= opts.iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs_f64(opts.interval.max(0.1)));
    }
}

/// One status frame: a line per shard (topology order), returning how
/// many shards were unreachable.
fn render_cluster_status(coordinator: &Coordinator) -> usize {
    let topo = coordinator.topology();
    println!(
        "topology epoch {}: {} shard(s)",
        topo.epoch(),
        topo.len()
    );
    let mut unreachable = 0usize;
    for m in coordinator.metrics() {
        match (&m.snapshot, &m.error) {
            (Some(s), _) => {
                let w = &s.window;
                let store = match &s.store {
                    Some(st) => format!("seq {} / {} wal records", st.last_seq, st.wal_records),
                    None => "in-memory".to_string(),
                };
                let repl = match &s.replication {
                    Some(r) => format!(
                        "  [{} applied {}/{} lag {}]",
                        r.role, r.applied_seq, r.leader_seq, r.lag
                    ),
                    None => String::new(),
                };
                let fence = match s.fence_epoch {
                    Some(e) => format!("  [fenced at epoch {e}]"),
                    None => String::new(),
                };
                println!(
                    "shard {}: epoch {}, {} records, {:.1} qps, p99 {:.2} ms, {store}{repl}{fence}",
                    m.shard, s.epoch, s.records, w.qps, w.p99_ms
                );
            }
            (None, err) => {
                unreachable += 1;
                println!(
                    "shard {}: UNREACHABLE ({})",
                    m.shard,
                    err.as_deref().unwrap_or("no detail")
                );
            }
        }
    }
    unreachable
}

/// `medvid client --cluster`: one scatter-gather query through the
/// coordinator, with typed partial-coverage reporting.
fn cluster_query(opts: &Options) -> Result<(), String> {
    let coordinator = Coordinator::new(
        parse_topology(opts)?,
        coordinator_config(opts),
        Recorder::disabled(),
    );
    let outcome = coordinator
        .query(&QueryRequest {
            event: opts.event,
            limit: Some(opts.limit),
            strategy: opts.strategy,
            trace_id: opts.trace_id.clone(),
            trace: opts.trace,
            ..QueryRequest::default()
        })
        .map_err(|e| e.to_string())?;
    match &outcome.status {
        GatherStatus::Complete => println!(
            "{} hits from {} shards (complete)",
            outcome.hits.len(),
            coordinator.topology().len()
        ),
        GatherStatus::Degraded { missing_shards } => println!(
            "{} hits — DEGRADED: shards {missing_shards:?} are unreachable, \
             results cover the remaining corpus",
            outcome.hits.len()
        ),
    }
    if !outcome.failovers.is_empty() {
        println!("answered via replica for shards {:?}", outcome.failovers);
    }
    for h in &outcome.hits {
        println!(
            "  video {} shot {}: distance {:.4}",
            h.video, h.shot, h.distance
        );
    }
    Ok(())
}

/// `medvid jobs submit|status|list`: drive the server's background job
/// queue over the wire. `submit` enqueues a compaction pass; `status
/// --id N` polls one job; `list` dumps every job in id order.
fn jobs_command(opts: &Options) -> Result<(), String> {
    let addr = opts.addr.as_ref().ok_or("jobs needs --addr HOST:PORT")?;
    let addr: SocketAddr = addr.parse().map_err(|e| format!("--addr: {e}"))?;
    let mut client = Client::connect(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    let response = match opts.action.as_deref() {
        Some("submit") => client.submit_job(WireJobKind::Compaction),
        Some("status") => {
            let id = opts.id.ok_or("jobs status needs --id N")?;
            client.job_status(Some(id))
        }
        Some("list") => client.job_status(None),
        Some(other) => return Err(format!("unknown jobs action '{other}'\n{}", usage())),
        None => return Err(format!("jobs needs an action (submit|status|list)\n{}", usage())),
    }
    .map_err(|e| e.to_string())?;
    print_response(&response);
    Ok(())
}

/// `medvid top`: poll [`Request::Metrics`] and redraw a terminal
/// dashboard every `--interval` seconds. `--iterations N` stops after N
/// refreshes (0 = run until the connection drops or ^C).
fn run_top(addr: SocketAddr, opts: &Options) -> Result<(), String> {
    let mut client = Client::connect(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    let mut drawn = 0usize;
    loop {
        let response = client.metrics().map_err(|e| e.to_string())?;
        let Response::Metrics { snapshot } = response else {
            return Err(format!("expected a metrics snapshot, got {response:?}"));
        };
        drawn += 1;
        // Repaint in place on refresh; the first frame scrolls normally so
        // one-shot runs compose with pipes and logs.
        if drawn > 1 {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_dashboard(&snapshot, addr));
        if opts.iterations > 0 && drawn >= opts.iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs_f64(opts.interval.max(0.1)));
    }
}

/// Renders the `medvid top` dashboard from one metrics snapshot.
fn render_dashboard(snapshot: &MetricsSnapshot, addr: SocketAddr) -> String {
    let w = &snapshot.window;
    let mut out = String::new();
    let shard = match snapshot.shard {
        Some(s) => format!(" — shard {s}"),
        None => String::new(),
    };
    out.push_str(&format!(
        "medvid top — {addr}{shard} — {} / {} — up {:.0}s\n",
        snapshot.protocol, snapshot.schema, snapshot.uptime_secs
    ));
    out.push_str(&format!(
        "db      epoch {}  records {}\n",
        snapshot.epoch, snapshot.records
    ));
    out.push_str(&format!(
        "window  {:.0}s: {} req ({:.1}/s)  errors {} ({:.1}%)\n",
        w.span_secs,
        w.requests,
        w.qps,
        w.errors,
        w.error_rate * 100.0
    ));
    out.push_str(&format!(
        "latency p50 {:.2} ms  p99 {:.2} ms  max {:.2} ms  queue p99 {:.2} ms\n",
        w.p50_ms, w.p99_ms, w.max_ms, w.queue_p99_ms
    ));
    out.push_str(&format!(
        "cache   {} hits / {} misses in window ({:.0}% hit)  {}/{} entries\n",
        w.cache_hits,
        w.cache_misses,
        w.cache_hit_rate * 100.0,
        snapshot.cache.entries,
        snapshot.cache.capacity
    ));
    out.push_str(&format!(
        "exec    {} workers  queue {}/{}  {} done  {} rejected  {} deadline misses\n",
        snapshot.executor.workers,
        snapshot.executor.queue_depth,
        snapshot.executor.queue_capacity,
        snapshot.executor.executed,
        snapshot.executor.rejected,
        snapshot.executor.deadline_misses
    ));
    match &snapshot.store {
        Some(s) => {
            out.push_str(&format!(
                "store   seq {}  wal {} records / {} bytes  {} unsynced{}\n",
                s.last_seq,
                s.wal_records,
                s.wal_bytes,
                s.unsynced_records,
                if s.poisoned.is_some() {
                    "  POISONED"
                } else {
                    ""
                }
            ));
        }
        None => out.push_str("store   none (in-memory)\n"),
    }
    if let Some(r) = &snapshot.replication {
        out.push_str(&format!(
            "repl    {}  applied {} of leader {}  lag {}{}\n",
            r.role,
            r.applied_seq,
            r.leader_seq,
            r.lag,
            if r.lag > 0 { "  CATCHING UP" } else { "" }
        ));
    }
    if let Some(e) = snapshot.fence_epoch {
        out.push_str(&format!(
            "fence   topology epoch {e} (older-epoch writes refused)\n"
        ));
    }
    out.push_str(&format!(
        "knn     {} quantized cmps  {} re-ranked  {} planner flat fallbacks\n",
        snapshot.knn.quantized_comparisons,
        snapshot.knn.rerank_candidates,
        snapshot.knn.planner_flat_fallbacks
    ));
    if let Some(j) = &snapshot.jobs {
        out.push_str(&format!(
            "jobs    {} queued  {} running  {} done  {} failed  {} retries  {} lease expiries\n",
            j.queued, j.leased, j.completed, j.failed, j.retries, j.lease_expiries
        ));
        out.push_str(&format!(
            "index   drift {} appends since last re-fit  {} compactions\n",
            j.drift, j.compactions
        ));
    }
    out.push_str(&format!(
        "slowlog {} entries (threshold {:.0} ms)\n",
        snapshot.slow_queries, snapshot.slow_threshold_ms
    ));
    out
}

/// Renders a serve response for the terminal.
fn print_response(response: &Response) {
    match response {
        Response::Results {
            epoch,
            cached,
            hits,
            stats,
            trace_id,
            trace,
        } => {
            let origin = if *cached { "cache" } else { "index" };
            println!(
                "{} hits from {origin} at epoch {epoch} ({} comparisons, {} nodes visited, {} subtrees pruned)",
                hits.len(),
                stats.comparisons,
                stats.nodes_visited,
                stats.pruned_subtrees
            );
            for h in hits {
                println!(
                    "  video {} shot {}: distance {:.4}",
                    h.video, h.shot, h.distance
                );
            }
            print_trace(trace_id.as_deref(), trace.as_ref());
        }
        Response::Ingested {
            accepted,
            epoch,
            trace_id,
            trace,
            last_seq,
        } => {
            match last_seq {
                Some(seq) => println!(
                    "ingested {accepted} shots; database is now at epoch {epoch} (durable through seq {seq})"
                ),
                None => println!("ingested {accepted} shots; database is now at epoch {epoch}"),
            }
            print_trace(trace_id.as_deref(), trace.as_ref());
        }
        Response::Stats {
            protocol,
            epoch,
            records,
            cache,
            executor,
            store,
        } => {
            println!("{protocol}: epoch {epoch}, {records} records");
            println!(
                "  cache: {} hits / {} misses / {} evictions / {} invalidations ({}/{} entries)",
                cache.hits,
                cache.misses,
                cache.evictions,
                cache.invalidations,
                cache.entries,
                cache.capacity
            );
            println!(
                "  executor: {} workers, queue {}/{}, {} executed, {} rejected, {} deadline misses",
                executor.workers,
                executor.queue_depth,
                executor.queue_capacity,
                executor.executed,
                executor.rejected,
                executor.deadline_misses
            );
            match store {
                Some(s) => {
                    println!(
                        "  store: seq {} (checkpoint {}), wal {} records / {} bytes, {} unsynced, fsync {}",
                        s.last_seq,
                        s.checkpoint_seq,
                        s.wal_records,
                        s.wal_bytes,
                        s.unsynced_records,
                        s.fsync
                    );
                    if let Some(why) = &s.poisoned {
                        println!("  store POISONED (writes refused until restart): {why}");
                    }
                }
                None => println!("  store: none (in-memory)"),
            }
        }
        Response::SnapshotWritten { path, epoch } => {
            println!("snapshot of epoch {epoch} written to {path}");
        }
        Response::Restored { epoch, records } => {
            println!("restored {records} records; database is now at epoch {epoch}");
        }
        Response::Bye => println!("server acknowledged shutdown and is draining"),
        Response::Metrics { snapshot } => {
            // One-shot `--metrics` reuses the dashboard body (header line
            // carries the schema, so scripts can pin the format).
            println!(
                "{} live snapshot ({}), up {:.0}s",
                snapshot.schema, snapshot.protocol, snapshot.uptime_secs
            );
            let w = &snapshot.window;
            println!(
                "  window {:.0}s: {} req ({:.1}/s), {} errors, p50 {:.2} ms, p99 {:.2} ms",
                w.span_secs, w.requests, w.qps, w.errors, w.p50_ms, w.p99_ms
            );
            println!(
                "  cache hit rate {:.0}%, queue depth {}, slow-log {} entries",
                w.cache_hit_rate * 100.0,
                snapshot.executor.queue_depth,
                snapshot.slow_queries
            );
        }
        Response::SlowQueries { records } => {
            println!("{} slow queries logged", records.len());
            for r in records {
                println!(
                    "  [{}] {:.1} ms at epoch {}: {}",
                    r.trace_id, r.total_ms, r.epoch, r.shape
                );
                for s in &r.stages {
                    println!("      {}: {:.3} ms", s.stage, s.micros as f64 / 1_000.0);
                }
            }
        }
        Response::Error {
            kind,
            message,
            trace_id,
            shard,
        } => {
            let origin = match shard {
                Some(s) => format!(" from shard {s}"),
                None => String::new(),
            };
            match trace_id {
                Some(id) => println!("server error ({kind:?}){origin} [trace {id}]: {message}"),
                None => println!("server error ({kind:?}){origin}: {message}"),
            }
        }
        Response::LogSegment {
            shard,
            checkpoint_seq,
            last_seq,
            snapshot,
            records,
        } => {
            let origin = match shard {
                Some(s) => format!("shard {s} "),
                None => String::new(),
            };
            println!(
                "{origin}log segment: {} records, leader seq {last_seq} (checkpoint covers {checkpoint_seq}){}",
                records.len(),
                if snapshot.is_some() {
                    ", full checkpoint included"
                } else {
                    ""
                }
            );
        }
        Response::Fenced { epoch } => {
            println!("node fenced at topology epoch {epoch}");
        }
        Response::JobSubmitted { id } => {
            println!("job {id} enqueued; poll with: medvid jobs status --id {id}");
        }
        Response::Jobs { jobs } => {
            println!("{} job(s)", jobs.len());
            for j in jobs {
                let error = match &j.error {
                    Some(e) => format!("  last error: {e}"),
                    None => String::new(),
                };
                println!(
                    "  job {} [{}] {}  attempts {}{error}",
                    j.id, j.kind, j.state, j.attempts
                );
            }
        }
    }
}

/// Prints the trace line of a traced response, when present.
fn print_trace(trace_id: Option<&str>, trace: Option<&medvid::serve::TraceReport>) {
    match (trace_id, trace) {
        (_, Some(t)) => {
            println!(
                "  trace {}: {:.3} ms total",
                t.trace_id,
                t.total_micros as f64 / 1_000.0
            );
            for s in &t.stages {
                println!("    {}: {:.3} ms", s.stage, s.micros as f64 / 1_000.0);
            }
        }
        (Some(id), None) => println!("  trace {id}"),
        (None, None) => {}
    }
}

/// Writes the telemetry report to the paths requested via `--report`
/// (rendered table) and `--report-json` (serialised report).
fn write_report_outputs(
    opts: &Options,
    text: &str,
    json: &impl serde::Serialize,
) -> Result<(), String> {
    if let Some(path) = &opts.report {
        std::fs::write(path, text).map_err(|e| format!("--report {}: {e}", path.display()))?;
        println!("wrote telemetry report to {}", path.display());
    }
    if let Some(path) = &opts.report_json {
        let body = serde_json::to_string_pretty(json).map_err(|e| e.to_string())?;
        std::fs::write(path, body).map_err(|e| format!("--report-json {}: {e}", path.display()))?;
        println!("wrote telemetry JSON to {}", path.display());
    }
    Ok(())
}

fn make_miner(opts: &Options) -> Result<ClassMiner, String> {
    ClassMiner::new(ClassMinerConfig::default(), opts.seed).map_err(|e| e.to_string())
}

fn load_video(opts: &Options) -> Result<(medvid::types::Video, ClassMiner), String> {
    let mut corpus = standard_corpus(opts.scale, opts.seed);
    if opts.video >= corpus.len() {
        return Err(format!(
            "--video {} out of range (corpus has {})",
            opts.video,
            corpus.len()
        ));
    }
    Ok((corpus.swap_remove(opts.video), make_miner(opts)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Options, String> {
        parse_args(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_full_flag_set() {
        let o = parse(&[
            "query", "--scale", "full", "--seed", "7", "--video", "2", "--limit", "5", "--db",
            "x.json", "--event", "dialog",
        ])
        .unwrap();
        assert_eq!(o.command, "query");
        assert_eq!(o.scale, CorpusScale::Full);
        assert_eq!(o.seed, 7);
        assert_eq!(o.video, 2);
        assert_eq!(o.limit, 5);
        assert_eq!(o.db, Some(PathBuf::from("x.json")));
        assert_eq!(o.event, Some(EventKind::Dialog));
    }

    #[test]
    fn defaults_are_sane() {
        let o = parse(&["mine"]).unwrap();
        assert_eq!(o.scale, CorpusScale::Tiny);
        assert_eq!(o.seed, 2003);
        assert_eq!(o.limit, 10);
    }

    #[test]
    fn parses_report_flags() {
        let o = parse(&[
            "mine",
            "--report",
            "report.txt",
            "--report-json",
            "report.json",
        ])
        .unwrap();
        assert_eq!(o.report, Some(PathBuf::from("report.txt")));
        assert_eq!(o.report_json, Some(PathBuf::from("report.json")));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["mine", "--scale", "gigantic"]).is_err());
        assert!(parse(&["mine", "--seed"]).is_err());
        assert!(parse(&["mine", "--frobnicate", "1"]).is_err());
        assert!(parse(&["query", "--event", "opera"]).is_err());
        assert!(parse(&["client", "--strategy", "psychic"]).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        let o = parse(&[
            "serve", "--db", "db.json", "--addr", "127.0.0.1:4100", "--workers", "8", "--queue",
            "128", "--cache", "512",
        ])
        .unwrap();
        assert_eq!(o.command, "serve");
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:4100"));
        assert_eq!(o.workers, 8);
        assert_eq!(o.queue, 128);
        assert_eq!(o.cache, 512);
    }

    #[test]
    fn parses_store_flags_and_actions() {
        let o = parse(&[
            "serve",
            "--store",
            "/tmp/db",
            "--fsync",
            "8",
            "--wal-bytes",
            "1024",
            "--wal-records",
            "32",
        ])
        .unwrap();
        assert_eq!(o.store, Some(PathBuf::from("/tmp/db")));
        assert_eq!(o.fsync, FsyncPolicy::EveryN(8));
        assert_eq!(o.wal_bytes, Some(1024));
        assert_eq!(o.wal_records, Some(32));

        let o = parse(&["serve", "--store", "d", "--fsync", "never"]).unwrap();
        assert_eq!(o.fsync, FsyncPolicy::Never);
        assert!(parse(&["serve", "--fsync", "sometimes"]).is_err());

        let o = parse(&["store", "verify", "--store", "d"]).unwrap();
        assert_eq!(o.command, "store");
        assert_eq!(o.action.as_deref(), Some("verify"));

        let o = parse(&["client", "--addr", "127.0.0.1:1", "--restore", "x.json"]).unwrap();
        assert_eq!(o.restore.as_deref(), Some("x.json"));
    }

    #[test]
    fn parses_client_flags() {
        let o = parse(&["client", "--addr", "127.0.0.1:4100", "--strategy", "flat"]).unwrap();
        assert_eq!(o.strategy, Some(WireStrategy::Flat));
        assert!(!o.stats && !o.shutdown);
        let o = parse(&["client", "--addr", "127.0.0.1:4100", "--strategy", "planned"]).unwrap();
        assert_eq!(o.strategy, Some(WireStrategy::Planned));
        let o = parse(&["client", "--addr", "127.0.0.1:4100", "--stats"]).unwrap();
        assert!(o.stats);
        let o = parse(&["client", "--addr", "127.0.0.1:4100", "--shutdown"]).unwrap();
        assert!(o.shutdown);
    }

    #[test]
    fn parses_cluster_flags() {
        let o = parse(&["cluster", "serve", "--store", "/tmp/c", "--shards", "5"]).unwrap();
        assert_eq!(o.command, "cluster");
        assert_eq!(o.action.as_deref(), Some("serve"));
        assert_eq!(o.shards, 5);

        let o = parse(&[
            "cluster",
            "status",
            "--cluster",
            "127.0.0.1:4100,127.0.0.1:4101",
            "--replicas",
            "0=127.0.0.1:4200",
        ])
        .unwrap();
        assert_eq!(o.action.as_deref(), Some("status"));
        let topo = parse_topology(&o).unwrap();
        assert_eq!(topo.len(), 2);
        assert_eq!(topo.spec(0).unwrap().replicas.len(), 1);

        let o = parse(&["client", "--cluster", "127.0.0.1:4100", "--limit", "3"]).unwrap();
        assert!(o.cluster.is_some());
        assert!(parse_topology(&o).is_ok());

        // Topology errors are typed at parse time, not panics at routing
        // time: bad addresses and out-of-range replica indices.
        let o = parse(&["cluster", "status", "--cluster", "not-an-addr"]).unwrap();
        assert!(parse_topology(&o).is_err());
        let o = parse(&[
            "cluster",
            "status",
            "--cluster",
            "127.0.0.1:4100",
            "--replicas",
            "7=127.0.0.1:4200",
        ])
        .unwrap();
        assert!(parse_topology(&o).is_err());
        let o = parse(&[
            "cluster",
            "status",
            "--cluster",
            "127.0.0.1:4100",
            "--replicas",
            "no-equals-sign",
        ])
        .unwrap();
        assert!(parse_topology(&o).is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let o = parse(&["client", "--addr", "127.0.0.1:4100", "--metrics"]).unwrap();
        assert!(o.metrics && !o.prometheus);
        let o = parse(&["client", "--addr", "127.0.0.1:4100", "--prometheus"]).unwrap();
        assert!(o.prometheus);
        let o = parse(&["client", "--addr", "127.0.0.1:4100", "--slow", "--drain"]).unwrap();
        assert!(o.slow && o.drain);
        let o = parse(&[
            "client",
            "--addr",
            "127.0.0.1:4100",
            "--trace",
            "--trace-id",
            "req-7",
        ])
        .unwrap();
        assert!(o.trace);
        assert_eq!(o.trace_id.as_deref(), Some("req-7"));
    }

    #[test]
    fn parses_jobs_flags() {
        let o = parse(&["jobs", "submit", "--addr", "127.0.0.1:4100"]).unwrap();
        assert_eq!(o.command, "jobs");
        assert_eq!(o.action.as_deref(), Some("submit"));
        let o = parse(&["jobs", "status", "--addr", "127.0.0.1:4100", "--id", "7"]).unwrap();
        assert_eq!(o.action.as_deref(), Some("status"));
        assert_eq!(o.id, Some(7));
        let o = parse(&["jobs", "list", "--addr", "127.0.0.1:4100"]).unwrap();
        assert_eq!(o.action.as_deref(), Some("list"));
        assert_eq!(o.id, None);
        assert!(parse(&["jobs", "status", "--id", "x"]).is_err());
    }

    #[test]
    fn parses_top_flags() {
        let o = parse(&[
            "top",
            "--addr",
            "127.0.0.1:4100",
            "--interval",
            "0.5",
            "--iterations",
            "3",
        ])
        .unwrap();
        assert_eq!(o.command, "top");
        assert!((o.interval - 0.5).abs() < 1e-9);
        assert_eq!(o.iterations, 3);
        // Defaults: 2 s refresh, run until interrupted.
        let o = parse(&["top", "--addr", "127.0.0.1:4100"]).unwrap();
        assert!((o.interval - 2.0).abs() < 1e-9);
        assert_eq!(o.iterations, 0);
    }
}
