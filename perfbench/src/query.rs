//! `query`: the read path a clinician's long-lived client sees. Two
//! clients, each on one persistent connection to a durable node preloaded
//! with perturbations of the corpus's real mined features, run the read
//! mix in a closed loop. After the read window the first client writes a
//! short probe of small batches on the same connection. The traced run
//! then measures the cluster layers (see [`crate::cluster`]).

use crate::cluster;
use crate::corpus::{
    self, checkable, reference_key, served_key, AnswerKey, PoolShot, QueryMix, WRITE_VIDEO_BASE,
};
use crate::layers::{emit_end_to_end, emit_layers, trace_stage_ms};
use crate::stats::{mean, median, micros_to_ms, LatencyLog, Outcome, Rng, RunReport};
use crate::{tail_percentiles, Args};
use medvid::index::VideoDatabase;
use medvid::obs::Recorder;
use medvid::serve::{
    spawn_durable, trace, Client, MetricsSnapshot, QueryRequest, Response, ServerConfig,
    ServerHandle,
};
use medvid::store::StoreConfig;
use medvid::{ClassMiner, ClassMinerConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// Untimed requests per client before the window opens.
const WARMUP_REQUESTS: usize = 10;
/// Share of exact-strategy, unfiltered answers kept for the reference
/// check, and the cap per client.
const CHECK_SHARE: f64 = 0.5;
const CHECK_CAP: usize = 100;
/// Shots per write-probe batch: the probe stays under the compaction drift
/// threshold, so it measures the write round trip, not a re-fit.
const PROBE_BATCH: usize = 10;

/// Mines the corpus once (harness work) and returns the pool of its real
/// indexed shots.
pub fn mined_pool(args: &Args, report: &mut RunReport) -> Vec<PoolShot> {
    let (videos, gen_s) = corpus::corpus(args.scale, args.seed);
    let m0 = Instant::now();
    let miner =
        ClassMiner::new(ClassMinerConfig::default(), args.seed).expect("speech classifier trains");
    let mined: Vec<_> = videos.iter().map(|v| miner.mine(v)).collect();
    let pool = corpus::feature_pool(&mined, &VideoDatabase::medical());
    report.fact("corpus_scale", format!("{:?}", args.scale.corpus));
    report.fact(
        "corpus_frames",
        videos.iter().map(|v| v.frames.len()).sum::<usize>(),
    );
    report.fact(
        "bitstream_bytes",
        "not encoded: features come from the raw corpus",
    );
    report.fact("pool_shots", pool.len());
    report.fact("harness_corpus_s", format!("{gen_s:.3}"));
    report.fact(
        "harness_mine_s",
        format!("{:.3}", m0.elapsed().as_secs_f64()),
    );
    pool
}

/// Server stage times of one traced read; a stage the read never reached
/// (a cache hit has no queue wait or index search) is `None`.
#[derive(Default, Clone)]
struct ReadTrace {
    wire_ms: f64,
    stages: [Option<f64>; 4],
}

/// Server stages a traced read reports, in [`ReadTrace::stages`] order.
const READ_STAGES: [(&str, &str); 4] = [
    (trace::STAGE_ADMISSION, "serve.admission_ms"),
    (trace::STAGE_CACHE, "serve.cache_lookup_ms"),
    (trace::STAGE_QUEUE_WAIT, "serve.queue_wait_ms"),
    (trace::STAGE_EXECUTE, "index.search_ms"),
];

#[derive(Default)]
struct ClientLog {
    reads: LatencyLog,
    traces: Vec<ReadTrace>,
    checks: Vec<(QueryRequest, AnswerKey)>,
    stage_sum_violations: Vec<String>,
}

/// One client's closed loop until `deadline`.
fn client_loop(
    addr: SocketAddr,
    mut client: Client,
    mut mix: QueryMix,
    deadline: Instant,
    trace: bool,
) -> (Client, ClientLog) {
    let mut log = ClientLog::default();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let mut req = mix.next_request();
        let traced = trace && i.is_multiple_of(2);
        i += 1;
        req.trace = traced;
        let t0 = Instant::now();
        let response = client.query(req.clone());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let outcome = match response {
            Ok(Response::Results { hits, trace: t, .. }) => {
                if checkable(&req) && log.checks.len() < CHECK_CAP && mix.rng().unit() < CHECK_SHARE
                {
                    log.checks.push((req.clone(), served_key(&hits)));
                }
                if let Some(t) = t.filter(|_| traced) {
                    let staged: u64 = t.stages.iter().map(|s| s.micros).sum();
                    if staged > t.total_micros {
                        log.stage_sum_violations
                            .push(format!("stages {staged} us > total {} us", t.total_micros));
                    }
                    log.traces.push(ReadTrace {
                        wire_ms: ms - micros_to_ms(t.total_micros),
                        stages: READ_STAGES.map(|(stage, _)| trace_stage_ms(&t, stage)),
                    });
                }
                Outcome::Ok
            }
            Ok(Response::Error { .. }) => Outcome::Refused,
            Ok(_) => Outcome::Failed,
            Err(_) => {
                if let Ok(c) = Client::connect(addr, CLIENT_TIMEOUT) {
                    client = c;
                }
                Outcome::Failed
            }
        };
        log.reads.record(outcome, ms, traced);
    }
    (client, log)
}

fn metrics(client: &mut Client) -> Option<MetricsSnapshot> {
    match client.metrics() {
        Ok(Response::Metrics { snapshot }) => Some(snapshot),
        _ => None,
    }
}

/// Growth of one `Metrics` counter, summed over nodes, between two sets of
/// snapshots.
pub fn counter_delta(
    before: &[MetricsSnapshot],
    after: &[MetricsSnapshot],
    counter: impl Fn(&MetricsSnapshot) -> u64,
) -> f64 {
    let sum = |v: &[MetricsSnapshot]| v.iter().map(&counter).sum::<u64>() as f64;
    sum(after) - sum(before)
}

struct Node {
    handle: ServerHandle,
    clients: Vec<Client>,
}

fn setup(args: &Args, rep: usize, records: &[medvid::serve::IngestShot]) -> Node {
    let db = corpus::built_db(records);
    let (handle, _recovery) = spawn_durable(
        args.work.join(format!("node-{rep}")),
        StoreConfig::default(),
        db,
        ServerConfig::default(),
        Recorder::disabled(),
    )
    .expect("durable node spawns");
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(handle.addr(), CLIENT_TIMEOUT).expect("client connects"))
        .collect();
    Node { handle, clients }
}

pub fn run(args: &Args) -> RunReport {
    let mut report = RunReport::default();
    let pool = mined_pool(args, &mut report);
    let records = corpus::preload_records(&pool, args.scale.preload, args.seed);
    let reference = corpus::unbuilt_db(&records);
    report.fact("records_preloaded", records.len());
    report.fact(
        "write_rate",
        format!(
            "probe of {} batches x {PROBE_BATCH} shots after the window",
            args.scale.query_write_probe
        ),
    );

    let mut setups = Vec::new();
    let mut node: Option<Node> = None;
    for rep in 0..args.scale.setup_reps {
        let s0 = Instant::now();
        let fresh = setup(args, rep, &records);
        setups.push(s0.elapsed().as_secs_f64());
        if let Some(old) = node.replace(fresh) {
            drop(old.clients);
            old.handle.shutdown();
            old.handle.join();
        }
    }
    let Node {
        handle,
        mut clients,
    } = node.expect("at least one set-up");
    let addr = handle.addr();

    for (c, client) in clients.iter_mut().enumerate() {
        let mut mix = QueryMix::new(&pool, args.seed, 50 + c as u64);
        for _ in 0..WARMUP_REQUESTS {
            let _ = client.query(mix.next_request());
        }
    }
    let before = metrics(&mut clients[0]);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let results: Vec<(Client, ClientLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let mix = QueryMix::new(&pool, args.seed, c as u64);
                let trace = args.trace;
                scope.spawn(move || client_loop(addr, client, mix, deadline, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let (mut clients, logs): (Vec<Client>, Vec<ClientLog>) = results.into_iter().unzip();
    let after = metrics(&mut clients[0]);

    let mut reads = LatencyLog::default();
    let (mut traces, mut checks, mut violations) = (Vec::new(), Vec::new(), Vec::new());
    for log in logs {
        reads.merge(log.reads);
        traces.extend(log.traces);
        checks.extend(log.checks);
        violations.extend(log.stage_sum_violations);
    }
    let mismatched: Vec<_> = checks
        .iter()
        .filter(|(req, served)| reference_key(&reference, req) != *served)
        .collect();
    report.gate(
        "query.answers_match_flat_reference",
        !checks.is_empty() && mismatched.is_empty(),
        format!(
            "{} of {} sampled exact answers differ from the scalar flat scan",
            mismatched.len(),
            checks.len()
        ),
    );
    report.gate(
        "query.server_stage_sum",
        violations.is_empty(),
        violations
            .first()
            .cloned()
            .unwrap_or_else(|| "every traced stage sum within its total".into()),
    );

    // Write probe on the first client's persistent connection.
    let mut writes = LatencyLog::default();
    let mut acked = 0usize;
    let mut rng = Rng::new(args.seed, 3);
    for k in 0..args.scale.query_write_probe {
        let batch = corpus::video_batch(&pool, WRITE_VIDEO_BASE + k, PROBE_BATCH, &mut rng);
        let t0 = Instant::now();
        let outcome = match clients[0].ingest(batch) {
            Ok(Response::Ingested { accepted, .. }) if accepted == PROBE_BATCH => {
                acked += accepted;
                Outcome::Ok
            }
            Ok(Response::Error { .. }) => Outcome::Refused,
            _ => Outcome::Failed,
        };
        writes.record(outcome, t0.elapsed().as_secs_f64() * 1e3, false);
    }
    match clients[0].stats() {
        Ok(Response::Stats { records: held, .. }) => report.gate(
            "query.records_match_acks",
            held == records.len() + acked,
            format!(
                "node holds {held}, preloaded {} + acknowledged {acked}",
                records.len()
            ),
        ),
        other => report.gate(
            "query.records_match_acks",
            false,
            format!("stats failed: {other:?}"),
        ),
    }
    drop(clients);
    handle.shutdown();
    handle.join();

    report.tally("read", &reads.tally);
    report.tally("write", &writes.tally);
    report.fact("samples", reads.latencies.len());
    let (tail, write_tail) = tail_percentiles("query");
    if args.trace {
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        m.insert("serve.wire_ms", mean(traces.iter().map(|t| t.wire_ms)));
        for (i, (_, metric)) in READ_STAGES.into_iter().enumerate() {
            m.insert(metric, mean(traces.iter().filter_map(|t| t.stages[i])));
        }
        if let (Some(b), Some(a)) = (before, after) {
            let (b, a) = (&[b][..], &[a][..]);
            let hits = counter_delta(b, a, |s| s.cache.hits);
            let misses = counter_delta(b, a, |s| s.cache.misses);
            let executed = counter_delta(b, a, |s| s.executor.executed).max(1.0);
            let comparisons = counter_delta(b, a, |s| s.knn.quantized_comparisons);
            let rerank = counter_delta(b, a, |s| s.knn.rerank_candidates);
            m.insert("cache.hit_rate", hits / (hits + misses).max(1.0));
            m.insert("knn.comparisons_per_query", comparisons / executed);
            m.insert("knn.rerank_per_query", rerank / executed);
            m.insert("knn.ranked_per_comparison", rerank / comparisons.max(1.0));
        }
        if let Some(pct) = reads.overhead_pct() {
            m.insert("trace.overhead_pct", pct);
        }
        cluster::measure(args, &pool, &records, &mut report, &mut m);
        emit_layers(&mut report, &m);
    } else {
        emit_end_to_end(
            &mut report,
            [
                ("ops_per_s", reads.tally.succeeded as f64 / window_s),
                ("p50_ms", reads.percentile(50.0)),
                ("tail_ms", reads.percentile(tail)),
                ("write_p50_ms", writes.percentile(50.0)),
                ("write_tail_ms", writes.percentile(write_tail)),
                ("setup_s", median(&setups)),
            ],
        );
    }
    report
}
