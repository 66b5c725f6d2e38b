//! E-BENCH: end-to-end mining throughput as a function of the `medvid-par`
//! thread budget.
//!
//! Mines the same synthesised corpus at thread counts 1, 2, 4 and the host's
//! available parallelism, reporting wall clock, frames/second, per-stage
//! milliseconds (from the telemetry spans) and speedup over the sequential
//! run — and asserting that every run produced bit-identical structures.
//!
//! Also measures ingest durability: single-shot WAL appends per second
//! under each fsync policy (`always`, `every 8`, `never`), quantifying
//! what the crash-safety guarantee costs at the storage layer — and the
//! scatter-gather serving tier: query throughput at shard counts 1, 2
//! and 4 with the corpus hash-partitioned, plus the coordinator's
//! overhead over a direct single-node client (fan-out, merge and the
//! extra hop, isolated by comparing a one-shard cluster to the same
//! records behind a plain `Client`).
//!
//! Writes two artefacts: the standard experiment envelope under
//! `target/experiments/bench_pipeline.json`, and the benchmark-trajectory
//! snapshot `BENCH_pipeline.json` at the repository root. `--smoke` shrinks
//! the corpus so the tier-1 gate can run it in seconds, and writes only the
//! envelope: a Tiny-corpus run is no point on the trajectory.

use medvid::{ClassMiner, ClassMinerConfig, MinedVideo};
use medvid_cluster::{shard_of, ClusterTopology, Coordinator, CoordinatorConfig};
use medvid_eval::report::{f3, print_table, write_report};
use medvid_index::persist::DatabaseSnapshot;
use medvid_index::{ShotRecord, VideoDatabase};
use medvid_obs::{CorpusReport, Recorder, Stage};
use medvid_store::{FsyncPolicy, Store, StoreConfig, StoredShot, WalOp};
use medvid_synth::{standard_corpus, CorpusScale};
use medvid_types::{EventKind, ShotId, VideoId};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct StageMs {
    stage: String,
    total_ms: f64,
}

#[derive(Serialize)]
struct ThreadRun {
    threads: usize,
    wall_secs: f64,
    frames_per_sec: f64,
    speedup_vs_1: f64,
    stage_ms: Vec<StageMs>,
}

#[derive(Serialize)]
struct DurabilityRun {
    fsync: String,
    appends: usize,
    wall_secs: f64,
    appends_per_sec: f64,
    wal_bytes: u64,
}

/// One corpus size of the incremental-ingest ladder: the same shot
/// stream landed either by appending into the live index (what
/// `DbService::ingest` does past the first build) or by the
/// copy-rebuild-swap discipline it replaced (clone every record held so
/// far, insert the batch, re-run the full PCS/merge fit, swap).
#[derive(Serialize)]
struct IngestIncrementalRun {
    shots: usize,
    batches: usize,
    incremental_wall_secs: f64,
    incremental_shots_per_sec: f64,
    rebuild_wall_secs: f64,
    rebuild_shots_per_sec: f64,
    /// Rebuild wall over incremental wall (higher favours incremental).
    speedup: f64,
    /// One compaction pass folding the accumulated drift back into the
    /// fitted hierarchy — the deferred cost incremental ingest leaves to
    /// the background job.
    compaction_ms: f64,
}

/// The serving layer observed through its own live metrics: a query burst
/// against a spawned server, summarised by the `medvid-obs/v2` snapshot the
/// Metrics verb returns (so the benchmark tracks what operators will see,
/// not just client-side stopwatch numbers).
#[derive(Serialize)]
struct ServeLiveRun {
    queries: usize,
    window_qps: f64,
    window_p50_ms: f64,
    window_p99_ms: f64,
    window_cache_hit_rate: f64,
    /// Round-trip latency of the Metrics verb itself, milliseconds — the
    /// observability tax a dashboard poll puts on a serving node.
    metrics_roundtrip_ms: f64,
}

/// One `k` of the Eq. 24–25 planner ladder: the verdict, its predicted
/// comparison count, and the comparisons the planned execution actually
/// charged.
#[derive(Serialize)]
struct PlannerProbe {
    top_k: usize,
    choice: String,
    estimated_comparisons: usize,
    actual_comparisons: usize,
}

/// The retrieval kernel head to head: quantized integer squared-L2 versus
/// the scalar f32 scan over the identical corpus, plus the planner's
/// estimate-vs-actual ledger against the mined database.
#[derive(Serialize)]
struct KernelBench {
    vectors: usize,
    dims: usize,
    f32_ns_per_distance: f64,
    quantized_ns_per_distance: f64,
    /// f32 scalar time over quantized kernel time (higher is better).
    speedup: f64,
    /// Quantized-kernel distance evaluations charged by one flat query on
    /// the mined database — zero would mean the scan fell back to scalar.
    quantized_comparisons: u64,
    planner: Vec<PlannerProbe>,
}

/// One shard count of the scatter-gather ladder.
#[derive(Serialize)]
struct ClusterGatherRun {
    shards: u32,
    queries: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// The serving tier scattered across shards, against a direct
/// single-node baseline over the identical records and query stream.
#[derive(Serialize)]
struct ClusterBench {
    direct_qps: f64,
    direct_p50_ms: f64,
    /// Coordinator p50 over ONE shard minus the direct p50 — the price of
    /// the fan-out/merge hop itself, with sharding's parallelism factored
    /// out.
    coordinator_overhead_p50_ms: f64,
    runs: Vec<ClusterGatherRun>,
}

/// The control plane's two headline costs: how long a shard is
/// leaderless during an automatic failover, and how fast a hash-range
/// split moves records onto a new node.
#[derive(Serialize)]
struct ControlPlaneBench {
    /// Records durably ingested (and replicated) before the fault.
    records: usize,
    /// Wall clock from severing the primary's link to the health loop
    /// publishing the promoted replica — detection strikes included.
    promotion_ms: f64,
    /// Health-loop ticks the detector spent before promoting.
    promotion_ticks: usize,
    /// Wall clock for the full hash-range split: clone, catch up, fence,
    /// drain stragglers, publish.
    split_ms: f64,
    /// Records the new node held once the split published.
    split_records_moved: usize,
    /// Handoff throughput: records landed on the new node per second.
    split_records_per_sec: f64,
}

#[derive(Serialize)]
struct BenchReport {
    /// `available_parallelism` of the machine that produced these numbers —
    /// speedups are meaningless without it.
    host_cpus: usize,
    corpus_videos: usize,
    corpus_frames: usize,
    deterministic_across_threads: bool,
    runs: Vec<ThreadRun>,
    durability: Vec<DurabilityRun>,
    ingest_incremental: Vec<IngestIncrementalRun>,
    serve_live: ServeLiveRun,
    cluster: ClusterBench,
    control_plane: ControlPlaneBench,
    kernel: KernelBench,
}

/// Sorted-latency quantile, milliseconds.
fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Restores a database holding exactly `records` under the mined
/// corpus's hierarchy, config and policy.
fn db_of(template: &DatabaseSnapshot, records: Vec<ShotRecord>) -> VideoDatabase {
    VideoDatabase::from_snapshot(DatabaseSnapshot {
        version: template.version,
        hierarchy: template.hierarchy.clone(),
        config: template.config,
        policy: template.policy.clone(),
        records,
    })
    .expect("records come from a valid database")
}

/// Measures the scatter-gather tier: the same flat query stream against
/// (a) one node behind a plain client and (b) coordinators over 1, 2 and
/// 4 hash-partitioned shards.
fn cluster_gather_bench(template: &DatabaseSnapshot, queries: usize) -> ClusterBench {
    use medvid_serve::{Client, QueryRequest, Response, ServerConfig, WireStrategy};
    let probes: Vec<Vec<f32>> = template
        .records
        .iter()
        .step_by(5)
        .take(8)
        .map(|r| r.features.clone())
        .collect();
    let request_at = |i: usize| QueryRequest {
        vector: Some(probes[i % probes.len()].clone()),
        limit: Some(5),
        strategy: Some(WireStrategy::Flat),
        ..QueryRequest::default()
    };

    // Direct baseline: every record on one node, one connection per
    // request — the same connection discipline the coordinator applies
    // per shard, so the difference isolates fan-out and merge rather
    // than connection reuse.
    let handle = medvid_serve::spawn(
        db_of(template, template.records.clone()),
        ServerConfig::default(),
        Recorder::disabled(),
    )
    .expect("bind baseline server");
    let mut direct: Vec<f64> = Vec::with_capacity(queries);
    let started = Instant::now();
    for i in 0..queries {
        let t0 = Instant::now();
        let mut client =
            Client::connect(handle.addr(), std::time::Duration::from_secs(30)).expect("connect");
        let response = client.query(request_at(i)).expect("baseline query");
        assert!(matches!(response, Response::Results { .. }));
        direct.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let direct_wall = started.elapsed().as_secs_f64();
    handle.shutdown();
    handle.join();
    direct.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let direct_p50 = quantile_ms(&direct, 0.50);

    let mut runs = Vec::new();
    let mut one_shard_p50 = 0.0;
    for shards in [1u32, 2, 4] {
        let mut parts: Vec<Vec<ShotRecord>> = vec![Vec::new(); shards as usize];
        for r in &template.records {
            parts[shard_of(r.shot.video, shards) as usize].push(r.clone());
        }
        let handles: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| {
                medvid_serve::spawn(
                    db_of(template, part),
                    ServerConfig {
                        shard: Some(i as u32),
                        ..ServerConfig::default()
                    },
                    Recorder::disabled(),
                )
                .expect("bind shard server")
            })
            .collect();
        let topology =
            ClusterTopology::of_primaries(&handles.iter().map(|h| h.addr()).collect::<Vec<_>>());
        let coordinator =
            Coordinator::new(topology, CoordinatorConfig::default(), Recorder::disabled());
        let mut latencies: Vec<f64> = Vec::with_capacity(queries);
        let started = Instant::now();
        for i in 0..queries {
            let t0 = Instant::now();
            let outcome = coordinator.query(&request_at(i)).expect("gathered query");
            assert!(outcome.status.is_complete(), "no shard ever went away");
            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let wall = started.elapsed().as_secs_f64();
        for h in handles {
            h.shutdown();
            h.join();
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let p50 = quantile_ms(&latencies, 0.50);
        if shards == 1 {
            one_shard_p50 = p50;
        }
        runs.push(ClusterGatherRun {
            shards,
            queries,
            qps: queries as f64 / wall.max(1e-9),
            p50_ms: p50,
            p99_ms: quantile_ms(&latencies, 0.99),
        });
    }
    ClusterBench {
        direct_qps: queries as f64 / direct_wall.max(1e-9),
        direct_p50_ms: direct_p50,
        coordinator_overhead_p50_ms: one_shard_p50 - direct_p50,
        runs,
    }
}

/// Times the cluster control plane on a live durable cluster: an
/// automatic failover (primary link severed through a `FaultProxy`,
/// health loop detects, promotes the shipped-WAL replica) and a
/// hash-range shard split (checkpoint + suffix handoff onto a new
/// node), both over a freshly ingested corpus of one-hot batches.
fn control_plane_bench(smoke: bool) -> ControlPlaneBench {
    use medvid_cluster::{
        ControlPlane, ControlPlaneConfig, GatherStatus, LocalCluster, Replica, ReplicaConfig,
        SharedTopology,
    };
    use medvid_serve::protocol::{IngestShot, QueryRequest, WireStrategy};
    use medvid_serve::{RetryPolicy, ServerConfig};
    use medvid_store::StoreConfig;
    use medvid_testkit::{Fault, FaultPlan, FaultProxy};
    use std::time::Duration;

    let videos = if smoke { 30 } else { 150 };
    const SHOTS_PER_VIDEO: usize = 3;
    let taxonomy = VideoDatabase::medical();
    let scenes = taxonomy.hierarchy().scene_nodes();
    let batch = |video: usize| -> Vec<IngestShot> {
        (0..SHOTS_PER_VIDEO)
            .map(|i| {
                let shot_id = video * SHOTS_PER_VIDEO + i;
                let mut features = vec![0.0f32; 8];
                features[shot_id % 8] = 1.0;
                IngestShot {
                    video: VideoId(video),
                    shot: ShotId(shot_id),
                    features,
                    event: EventKind::Dialog,
                    scene_node: scenes[shot_id % scenes.len()],
                }
            })
            .collect()
    };
    let all = QueryRequest {
        limit: Some(1_000_000),
        strategy: Some(WireStrategy::Flat),
        ..QueryRequest::default()
    };
    let dir = std::env::temp_dir().join(format!("medvid-exp-bench-control-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let records = videos * SHOTS_PER_VIDEO;

    // -- failover: kill the primary, clock the health loop ------------
    let recorder = Recorder::disabled();
    let cluster = LocalCluster::spawn(
        &dir.join("promote"),
        1,
        StoreConfig::default(),
        ServerConfig::default(),
        recorder.clone(),
    )
    .expect("promotion cluster spawns");
    let plan = FaultPlan::clean();
    let proxy = FaultProxy::spawn(cluster.addr(0), plan.clone()).expect("proxy spawns");
    let mut topo = ClusterTopology::of_primaries(&[proxy.addr()]);
    let replica = Replica::spawn(
        proxy.addr(),
        VideoDatabase::medical(),
        ReplicaConfig {
            shard: 0,
            poll_interval: Duration::from_millis(5),
            fetch_timeout: Duration::from_millis(1000),
            store_dir: Some(dir.join("promote-replica")),
            ..ReplicaConfig::default()
        },
        recorder.clone(),
    )
    .expect("replica spawns");
    topo.add_replica(0, replica.addr());
    let shared = SharedTopology::new(topo);
    let coordinator = Coordinator::with_shared(
        shared.clone(),
        CoordinatorConfig {
            shard_deadline: Duration::from_millis(1500),
            retry: RetryPolicy::no_delay(2),
            replicated_ack: Some(Duration::from_secs(5)),
            ..CoordinatorConfig::default()
        },
        recorder.clone(),
    );
    let mut control = ControlPlane::new(
        shared,
        ControlPlaneConfig {
            probe_timeout: Duration::from_millis(200),
            down_after: 2,
            ..ControlPlaneConfig::default()
        },
        recorder.clone(),
    );
    control.register_replica(replica);
    for v in 0..videos {
        coordinator.ingest(batch(v)).expect("healthy ingest acks");
    }
    // Every ack above waited for the replica, so the mirror is current;
    // the clock starts the instant the link dies.
    plan.load(vec![Some(Fault::Drop); 1 << 16]);
    let t0 = Instant::now();
    let mut promotion_ticks = 0usize;
    loop {
        promotion_ticks += 1;
        let report = control.tick();
        if !report.promoted.is_empty() {
            break;
        }
        assert!(
            promotion_ticks < 500,
            "health loop never promoted the replica"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let promotion_ms = t0.elapsed().as_secs_f64() * 1e3;
    let outcome = coordinator.query(&all).expect("promoted leader serves");
    assert_eq!(outcome.status, GatherStatus::Complete);
    assert_eq!(
        outcome.hits.len(),
        records,
        "promoted leader serves the full acked corpus"
    );
    drop(control);
    drop(coordinator);
    let mut proxy = proxy;
    proxy.stop();
    cluster.shutdown();

    // -- resharding: split the only shard, clock the handoff ----------
    let cluster = LocalCluster::spawn(
        &dir.join("split"),
        1,
        StoreConfig::default(),
        ServerConfig::default(),
        recorder.clone(),
    )
    .expect("split cluster spawns");
    let shared = SharedTopology::new(ClusterTopology::of_primaries(&[cluster.addr(0)]));
    let coordinator =
        Coordinator::with_shared(shared.clone(), CoordinatorConfig::default(), recorder.clone());
    let mut control = ControlPlane::new(shared, ControlPlaneConfig::default(), recorder);
    for v in 0..videos {
        coordinator.ingest(batch(v)).expect("healthy ingest acks");
    }
    let t0 = Instant::now();
    let report = control
        .split_shard(
            0,
            ReplicaConfig {
                poll_interval: Duration::from_millis(5),
                fetch_timeout: Duration::from_millis(1000),
                store_dir: Some(dir.join("split-node")),
                ..ReplicaConfig::default()
            },
            Duration::from_secs(30),
        )
        .expect("split completes");
    let split_secs = t0.elapsed().as_secs_f64();
    let outcome = coordinator.query(&all).expect("split topology serves");
    assert_eq!(outcome.status, GatherStatus::Complete);
    assert_eq!(
        outcome.hits.len(),
        records,
        "split topology serves the full corpus exactly once"
    );
    drop(control);
    drop(coordinator);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    ControlPlaneBench {
        records,
        promotion_ms,
        promotion_ticks,
        split_ms: split_secs * 1e3,
        split_records_moved: report.new_node_records,
        split_records_per_sec: report.new_node_records as f64 / split_secs.max(1e-9),
    }
}

/// The full feature space, matching the 266-dim colour+texture vectors
/// the database indexes.
const KERNEL_DIMS: usize = 266;

fn sq_dist_f32(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum()
}

/// Times both distance kernels over a synthetic corpus (`n` vectors of
/// 266 dims), then charges one flat and three planned queries against the
/// mined database so the kernel counters and planner verdicts in the
/// artefact come from real executions, not the microbenchmark.
fn kernel_bench(db: &VideoDatabase, smoke: bool) -> KernelBench {
    use medvid_knn::QuantizedBlock;
    let n = if smoke { 512 } else { 4096 };
    let reps = if smoke { 20 } else { 50 };
    // Deterministic xorshift corpus: no run-to-run drift in the artefact
    // beyond the timings themselves.
    let mut state = 0x2003_1cde_u64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..KERNEL_DIMS).map(|_| unit()).collect())
        .collect();
    let query: Vec<f32> = (0..KERNEL_DIMS).map(|_| unit()).collect();
    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
    let block = QuantizedBlock::build(&refs).expect("finite corpus quantizes");

    // Scalar f32 baseline: the pre-kernel flat scan's inner loop.
    let start = Instant::now();
    let mut sink = 0f32;
    for _ in 0..reps {
        for row in &rows {
            sink += sq_dist_f32(std::hint::black_box(&query), row);
        }
    }
    let f32_secs = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);

    // Quantized integer kernel over the same vectors. Encoding the query
    // is inside the loop — the flat path pays it once per query too.
    let mut dists = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        let enc = block.encode_query(std::hint::black_box(&query));
        block.scan_into(&enc.codes, &mut dists);
        std::hint::black_box(&dists);
    }
    let quant_secs = start.elapsed().as_secs_f64();

    let per = |secs: f64| secs * 1e9 / (reps * n) as f64;

    // Real executions against the mined database: the flat path must have
    // gone through the kernel (a zero counter means it silently fell back
    // to the scalar scan), and each planner verdict is recorded with the
    // comparisons the chosen path then actually charged.
    let probe: Vec<f32> = db
        .records_iter()
        .next()
        .map(|r| r.features.clone())
        .unwrap_or_else(|| vec![0.0; KERNEL_DIMS]);
    let (_, flat_stats) = db.flat_search(&probe, 10, None);
    assert!(
        flat_stats.quantized_comparisons > 0,
        "flat search on the mined database bypassed the quantized kernel"
    );
    let planner = [1usize, 10, 100]
        .into_iter()
        .map(|top_k| {
            let (_, stats) = db.planned_search(&probe, top_k, None);
            PlannerProbe {
                top_k,
                choice: format!("{:?}", stats.planner_path),
                estimated_comparisons: stats.planner_estimated_comparisons,
                actual_comparisons: stats.comparisons,
            }
        })
        .collect();
    KernelBench {
        vectors: n,
        dims: KERNEL_DIMS,
        f32_ns_per_distance: per(f32_secs),
        quantized_ns_per_distance: per(quant_secs),
        speedup: f32_secs / quant_secs.max(1e-12),
        quantized_comparisons: flat_stats.quantized_comparisons as u64,
        planner,
    }
}

/// Spawns a server over `db`, drives `queries` cache-mixed lookups through
/// one client, and reads the rolling-window snapshot back via the Metrics
/// verb.
fn serve_live_metrics(db: VideoDatabase, queries: usize) -> ServeLiveRun {
    use medvid_serve::{Client, QueryRequest, Response, ServerConfig};
    let probes: Vec<Vec<f32>> = db
        .records_iter()
        .step_by(5)
        .take(8)
        .map(|r| r.features.clone())
        .collect();
    let handle = medvid_serve::spawn(db, ServerConfig::default(), Recorder::disabled())
        .expect("bind loopback server");
    let mut client =
        Client::connect(handle.addr(), std::time::Duration::from_secs(30)).expect("connect");
    for i in 0..queries {
        // Cycling a small probe pool repeats queries, so the window sees
        // both index executions and cache hits.
        let response = client
            .query(QueryRequest {
                vector: Some(probes[i % probes.len()].clone()),
                limit: Some(5),
                ..QueryRequest::default()
            })
            .expect("query");
        assert!(matches!(response, Response::Results { .. }));
    }
    let poll_start = Instant::now();
    let snapshot = match client.metrics().expect("metrics round-trip") {
        Response::Metrics { snapshot } => snapshot,
        other => panic!("expected a metrics snapshot, got {other:?}"),
    };
    let roundtrip = poll_start.elapsed().as_secs_f64() * 1e3;
    handle.shutdown();
    handle.join();
    ServeLiveRun {
        queries,
        window_qps: snapshot.window.qps,
        window_p50_ms: snapshot.window.p50_ms,
        window_p99_ms: snapshot.window.p99_ms,
        window_cache_hit_rate: snapshot.window.cache_hit_rate,
        metrics_roundtrip_ms: roundtrip,
    }
}

/// Races the two ingest disciplines over identical shot streams, at
/// corpus sizes 1k/10k/100k (just 1k under `--smoke`), split into the
/// same batch sequence:
///
/// * **incremental** — `DbService::ingest`: first batch builds, every
///   later batch appends into the live hierarchy and bumps drift; one
///   timed `compact()` at the end folds the drift back in (the work the
///   background compaction job performs).
/// * **copy-rebuild-swap** — the pre-jobs discipline: every batch clones
///   all records held so far into a fresh database, inserts the batch,
///   and re-runs the full PCS/merge fit before swapping.
fn ingest_incremental_bench(smoke: bool) -> Vec<IngestIncrementalRun> {
    use medvid_index::ShotRef;
    use medvid_serve::{DbService, IngestShot};
    const BATCHES: usize = 20;
    let sizes: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let taxonomy = VideoDatabase::medical();
    let scenes = taxonomy.hierarchy().scene_nodes();
    sizes
        .iter()
        .map(|&n| {
            // Compact features keep the measurement about index
            // maintenance (fit vs append), not feature memcpy.
            let shots: Vec<IngestShot> = (0..n)
                .map(|i| {
                    let mut features = vec![0.0f32; 8];
                    features[i % 8] = 1.0;
                    features[(i / 8) % 8] += 0.25;
                    IngestShot {
                        video: VideoId(i / 50),
                        shot: ShotId(i),
                        features,
                        event: EventKind::DETERMINATE[i % 3],
                        scene_node: scenes[i % scenes.len()],
                    }
                })
                .collect();
            let batch = n.div_ceil(BATCHES);

            let svc = DbService::new(VideoDatabase::medical(), Recorder::disabled());
            let start = Instant::now();
            for chunk in shots.chunks(batch) {
                svc.ingest(chunk).expect("incremental ingest");
            }
            let incremental_wall = start.elapsed().as_secs_f64();
            assert_eq!(svc.snapshot().db.len(), n);
            let start = Instant::now();
            let folded = svc.compact().expect("compaction");
            let compaction_ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(
                folded.is_some() && svc.drift() == 0,
                "compaction folded the appended drift"
            );

            let start = Instant::now();
            let mut current = VideoDatabase::medical();
            current.build();
            for chunk in shots.chunks(batch) {
                let mut next = VideoDatabase::medical();
                for r in current.records_iter() {
                    next.try_insert_shot(r.shot, r.features.clone(), r.event, r.scene_node)
                        .expect("copied record re-inserts");
                }
                for s in chunk {
                    next.try_insert_shot(
                        ShotRef {
                            video: s.video,
                            shot: s.shot,
                        },
                        s.features.clone(),
                        s.event,
                        s.scene_node,
                    )
                    .expect("fresh record inserts");
                }
                next.build();
                current = next;
            }
            let rebuild_wall = start.elapsed().as_secs_f64();
            assert_eq!(current.len(), n);

            IngestIncrementalRun {
                shots: n,
                batches: shots.chunks(batch).len(),
                incremental_wall_secs: incremental_wall,
                incremental_shots_per_sec: n as f64 / incremental_wall.max(1e-9),
                rebuild_wall_secs: rebuild_wall,
                rebuild_shots_per_sec: n as f64 / rebuild_wall.max(1e-9),
                speedup: rebuild_wall / incremental_wall.max(1e-12),
                compaction_ms,
            }
        })
        .collect()
}

/// Times `appends` single-shot group commits under one fsync policy,
/// against a scratch store that is removed afterwards.
fn ingest_durability_at(policy: FsyncPolicy, appends: usize) -> DurabilityRun {
    let dir = std::env::temp_dir().join(format!(
        "medvid-bench-durab-{}-{policy}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let recovered = Store::open(
        &dir,
        StoreConfig {
            fsync: policy,
            // Keep checkpoints out of the measurement window.
            checkpoint_wal_bytes: u64::MAX,
            checkpoint_wal_records: u64::MAX,
        },
        VideoDatabase::medical(),
        Recorder::disabled(),
    )
    .expect("open scratch store");
    let mut store = recovered.store;
    let scene = recovered.db.hierarchy().scene_nodes()[0];
    let features = vec![0.25f32; 266];
    let start = Instant::now();
    for i in 0..appends {
        let op = WalOp::IngestShot {
            shot: StoredShot {
                video: VideoId(i / 64),
                shot: ShotId(i),
                features: features.clone(),
                event: EventKind::ClinicalOperation,
                scene_node: scene,
            },
        };
        store.append(&[op]).expect("append");
    }
    store.sync().expect("final sync");
    let wall = start.elapsed().as_secs_f64();
    let wal_bytes = store.status().wal_bytes;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    DurabilityRun {
        fsync: policy.to_string(),
        appends,
        wall_secs: wall,
        appends_per_sec: appends as f64 / wall.max(1e-9),
        wal_bytes,
    }
}

/// Mines the whole corpus under one thread budget, returning the mined
/// results, the wall-clock seconds and the per-stage totals.
fn mine_at(
    miner: &ClassMiner,
    corpus: &[medvid_types::Video],
    threads: usize,
) -> (Vec<MinedVideo>, f64, Vec<StageMs>) {
    medvid_par::with_threads(threads, || {
        let rec = Recorder::new();
        let start = Instant::now();
        let mined: Vec<MinedVideo> = corpus
            .iter()
            .map(|v| miner.mine_observed(v, &rec))
            .collect();
        let wall = start.elapsed().as_secs_f64();
        let report = rec.report();
        let stage_ms = Stage::ALL
            .iter()
            .map(|&s| StageMs {
                stage: s.name().to_string(),
                total_ms: report.stage_total_secs(s) * 1e3,
            })
            .filter(|s| s.total_ms > 0.0)
            .collect();
        (mined, wall, stage_ms)
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The full thread ladder runs either way (extra budgets cost nothing on
    // a small corpus); --smoke only shrinks the corpus.
    let mut thread_counts = vec![1, 2, 4, host_cpus];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let scale = if smoke {
        CorpusScale::Tiny
    } else {
        CorpusScale::Small
    };
    let corpus = standard_corpus(scale, 2003);
    let corpus_frames: usize = corpus.iter().map(|v| v.frame_count()).sum();
    let miner = ClassMiner::new(ClassMinerConfig::default(), 2003).expect("default miner config");
    println!(
        "benchmarking {} videos / {corpus_frames} frames on a {host_cpus}-cpu host; threads {thread_counts:?}",
        corpus.len()
    );

    let mut runs: Vec<ThreadRun> = Vec::new();
    let mut reference: Option<Vec<MinedVideo>> = None;
    let mut deterministic = true;
    let mut wall_1 = None;
    for &threads in &thread_counts {
        let (mined, wall, stage_ms) = mine_at(&miner, &corpus, threads);
        match &reference {
            None => reference = Some(mined),
            Some(r) => {
                let same = r.len() == mined.len()
                    && r.iter()
                        .zip(&mined)
                        .all(|(a, b)| a.structure == b.structure && a.events == b.events);
                if !same {
                    deterministic = false;
                    eprintln!("warning: output at {threads} threads differs from sequential run");
                }
            }
        }
        if threads == 1 {
            wall_1 = Some(wall);
        }
        runs.push(ThreadRun {
            threads,
            wall_secs: wall,
            frames_per_sec: corpus_frames as f64 / wall.max(1e-9),
            speedup_vs_1: 0.0, // filled below once the sequential wall is known
            stage_ms,
        });
    }
    let base = wall_1.unwrap_or_else(|| runs[0].wall_secs);
    for r in &mut runs {
        r.speedup_vs_1 = base / r.wall_secs.max(1e-9);
    }
    assert!(
        deterministic,
        "parallel mining must be bit-identical across thread budgets \
         (corpus scale {scale:?}, seed 2003, threads {thread_counts:?}).\n\
         Reproduce with: cargo run --release -p medvid-eval --bin exp_bench{}",
        if smoke { " -- --smoke" } else { "" }
    );

    let table: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                f3(r.wall_secs),
                f3(r.frames_per_sec),
                f3(r.speedup_vs_1),
            ]
        })
        .collect();
    print_table(
        "E-BENCH — mining throughput vs thread budget",
        &["threads", "wall s", "frames/s", "speedup"],
        &table,
    );

    // Ingest durability: the cost of the WAL's crash-safety guarantee at
    // each fsync policy, single-shot appends (the serve ingest hot path).
    let append_count = if smoke { 200 } else { 2_000 };
    let durability: Vec<DurabilityRun> = [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(8),
        FsyncPolicy::Never,
    ]
    .into_iter()
    .map(|p| ingest_durability_at(p, append_count))
    .collect();
    let durab_table: Vec<Vec<String>> = durability
        .iter()
        .map(|r| {
            vec![
                r.fsync.clone(),
                r.appends.to_string(),
                f3(r.wall_secs),
                f3(r.appends_per_sec),
                r.wal_bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        "E-BENCH — ingest durability vs fsync policy",
        &["fsync", "appends", "wall s", "appends/s", "wal bytes"],
        &durab_table,
    );

    // Incremental ingest vs the copy-rebuild-swap discipline it replaced,
    // plus the deferred compaction cost, at each corpus size.
    let ingest_incremental = ingest_incremental_bench(smoke);
    let inc_table: Vec<Vec<String>> = ingest_incremental
        .iter()
        .map(|r| {
            vec![
                r.shots.to_string(),
                f3(r.incremental_shots_per_sec),
                f3(r.rebuild_shots_per_sec),
                f3(r.speedup),
                f3(r.compaction_ms),
            ]
        })
        .collect();
    print_table(
        "E-BENCH — incremental ingest vs copy-rebuild-swap",
        &["shots", "incr shots/s", "rebuild shots/s", "speedup", "compact ms"],
        &inc_table,
    );
    let largest = ingest_incremental
        .last()
        .expect("at least one ingest size ran");
    assert!(
        largest.speedup > 1.0,
        "incremental ingest must beat copy-rebuild-swap at {} shots \
         (incremental {:.3}s vs rebuild {:.3}s)",
        largest.shots,
        largest.incremental_wall_secs,
        largest.rebuild_wall_secs
    );

    // Serving-layer observability: index the corpus once, burst queries at
    // a spawned server, and snapshot its rolling window over the wire.
    let (db, _) = miner.index_corpus(&corpus);
    let template = db.snapshot();

    // The distance kernels head to head, plus planner verdicts against the
    // mined database (before the server takes ownership of it).
    let kernel = kernel_bench(&db, smoke);
    print_table(
        "E-BENCH — distance kernel: quantized integer vs scalar f32",
        &["vectors", "dims", "f32 ns/dist", "quant ns/dist", "speedup"],
        &[vec![
            kernel.vectors.to_string(),
            kernel.dims.to_string(),
            f3(kernel.f32_ns_per_distance),
            f3(kernel.quantized_ns_per_distance),
            f3(kernel.speedup),
        ]],
    );
    let planner_table: Vec<Vec<String>> = kernel
        .planner
        .iter()
        .map(|p| {
            vec![
                p.top_k.to_string(),
                p.choice.clone(),
                p.estimated_comparisons.to_string(),
                p.actual_comparisons.to_string(),
            ]
        })
        .collect();
    print_table(
        "E-BENCH — Eq. 24–25 planner: estimate vs actual comparisons",
        &["top-k", "choice", "estimated", "actual"],
        &planner_table,
    );

    let serve_live = serve_live_metrics(db, if smoke { 40 } else { 400 });
    print_table(
        "E-BENCH — serve live metrics (medvid-obs/v2 window)",
        &["queries", "qps", "p50 ms", "p99 ms", "cache hit", "poll ms"],
        &[vec![
            serve_live.queries.to_string(),
            f3(serve_live.window_qps),
            f3(serve_live.window_p50_ms),
            f3(serve_live.window_p99_ms),
            f3(serve_live.window_cache_hit_rate),
            f3(serve_live.metrics_roundtrip_ms),
        ]],
    );

    // The scatter-gather tier: direct single-node baseline, then the
    // same query stream through coordinators at shard counts 1, 2, 4.
    let cluster = cluster_gather_bench(&template, if smoke { 60 } else { 300 });
    let mut cluster_table: Vec<Vec<String>> = vec![vec![
        "direct".to_string(),
        f3(cluster.direct_qps),
        f3(cluster.direct_p50_ms),
        String::from("-"),
    ]];
    cluster_table.extend(cluster.runs.iter().map(|r| {
        vec![
            format!("{} shard(s)", r.shards),
            f3(r.qps),
            f3(r.p50_ms),
            f3(r.p99_ms),
        ]
    }));
    print_table(
        "E-BENCH — scatter-gather qps vs shard count",
        &["tier", "qps", "p50 ms", "p99 ms"],
        &cluster_table,
    );
    println!(
        "coordinator overhead (1-shard cluster p50 minus direct p50): {} ms",
        f3(cluster.coordinator_overhead_p50_ms)
    );

    // The control plane on a live durable cluster: how long a shard is
    // leaderless during auto-failover, and handoff throughput of a
    // hash-range split.
    let control_plane = control_plane_bench(smoke);
    print_table(
        "E-BENCH — cluster control plane: failover and resharding",
        &["operation", "records", "wall ms", "throughput"],
        &[
            vec![
                "auto-failover".to_string(),
                control_plane.records.to_string(),
                f3(control_plane.promotion_ms),
                format!("{} health tick(s)", control_plane.promotion_ticks),
            ],
            vec![
                "range split".to_string(),
                control_plane.split_records_moved.to_string(),
                f3(control_plane.split_ms),
                format!("{} rec/s", f3(control_plane.split_records_per_sec)),
            ],
        ],
    );

    let bench = BenchReport {
        host_cpus,
        corpus_videos: corpus.len(),
        corpus_frames,
        deterministic_across_threads: deterministic,
        runs,
        durability,
        ingest_incremental,
        serve_live,
        cluster,
        control_plane,
        kernel,
    };
    // The benchmark trajectory lives at the repository root so successive
    // PRs can diff it; the manifest dir anchors the path regardless of cwd.
    // A smoke run must not overwrite it with Tiny-corpus numbers.
    let root_artifact = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    match serde_json::to_string_pretty(&bench) {
        Ok(_) if smoke => {}
        Ok(json) => {
            if let Err(e) = std::fs::write(root_artifact, json + "\n") {
                eprintln!("warning: cannot write {root_artifact}: {e}");
            } else {
                println!("[artefact] {root_artifact}");
            }
        }
        Err(e) => eprintln!("warning: cannot serialise bench report: {e}"),
    }
    write_report("bench_pipeline", &CorpusReport::empty(), &bench);
}
