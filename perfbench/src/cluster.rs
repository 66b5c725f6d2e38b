//! The cluster layers, measured in the `query` workload's traced run.
//!
//! A closed-loop reader sends the read mix through `Coordinator::query`
//! to a 2-shard durable `LocalCluster` while an open-loop writer sends
//! one-video batches through `Coordinator::ingest` on a fixed schedule.
//! Writes bump epochs (invalidating caches), grow drift until compaction
//! re-fits the index, and trigger checkpoints; reads go through the
//! coordinator's fan-out and merge.
//!
//! This phase is not a timed workload. Over repeated sets of ten 25 s runs
//! on a shared 2-CPU host, its read p50 and tail and its write p50 and
//! tail spread 0.2-0.4 of their medians (fresh connections and threads per
//! shard per read, fsync- and compaction-bound writes), more than any
//! bound the benchmark may set, so it reports per-layer numbers only.

use crate::corpus::{
    self, checkable, reference_key, served_key, PoolShot, QueryMix, SHOTS_PER_VIDEO,
    WRITE_VIDEO_BASE,
};
use crate::query::counter_delta;
use crate::stats::{mean, LatencyLog, Outcome, Rng, RunReport};
use crate::Args;
use medvid::cluster::{ClusterError, Coordinator, CoordinatorConfig, LocalCluster};
use medvid::obs::{counters, Recorder};
use medvid::serve::{IngestShot, MetricsSnapshot, QueryRequest, ServerConfig, WireStrategy};
use medvid::store::StoreConfig;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SHARDS: u32 = 2;
/// Open-loop writes per second, one 50-shot video each: the rate at which
/// compaction stalls the writes behind it while the default configuration
/// still sustains the schedule with no failures and no growing backlog.
pub const WRITE_RATE: f64 = 4.0;
const WARMUP_READS: usize = 20;
/// Exact-strategy reads re-asked after the phase and compared with a
/// single-node reference.
const ANSWER_CHECKS: usize = 40;
/// How often the writer samples shard metrics between writes.
const SAMPLE_EVERY: Duration = Duration::from_secs(1);

/// Spawns the durable shards, installs each shard's share of the preload
/// (index build plus checkpoint) and stands up the coordinator.
fn setup(args: &Args, records: &[IngestShot], recorder: &Recorder) -> (LocalCluster, Coordinator) {
    let cluster = LocalCluster::spawn(
        &args.work.join("cluster"),
        SHARDS,
        StoreConfig::default(),
        ServerConfig::default(),
        recorder.clone(),
    )
    .expect("cluster spawns");
    for shard in 0..SHARDS {
        let part: Vec<IngestShot> = records
            .iter()
            .filter(|r| cluster.topology().shard_of(r.video) == shard)
            .cloned()
            .collect();
        cluster
            .handle(shard)
            .install_db(corpus::built_db(&part))
            .expect("shard installs its preload");
    }
    let coordinator = Coordinator::new(
        cluster.topology().clone(),
        CoordinatorConfig::default(),
        recorder.clone(),
    );
    (cluster, coordinator)
}

fn snapshots(coordinator: &Coordinator) -> Vec<MetricsSnapshot> {
    coordinator
        .metrics()
        .into_iter()
        .filter_map(|m| m.snapshot)
        .collect()
}

fn reader(coordinator: &Coordinator, mut mix: QueryMix, deadline: Instant) -> LatencyLog {
    let mut log = LatencyLog::default();
    while Instant::now() < deadline {
        let req = mix.next_request();
        let t0 = Instant::now();
        let outcome = match coordinator.query(&req) {
            Ok(o) if o.status.is_complete() => Outcome::Ok,
            Ok(_) => Outcome::Failed,
            Err(ClusterError::Rejected { .. }) => Outcome::Refused,
            Err(_) => Outcome::Failed,
        };
        log.record(outcome, t0.elapsed().as_secs_f64() * 1e3, false);
    }
    log
}

/// One scheduled write and how it ended.
struct Write {
    batch: Vec<IngestShot>,
    outcome: Outcome,
}

#[derive(Default)]
struct WriterLog {
    latencies: LatencyLog,
    late_ms: Vec<f64>,
    writes: Vec<Write>,
    drift_max: f64,
    wal_bytes_per_shot: f64,
}

/// Sends one batch every `1 / rate` seconds from `start`, each write timed
/// from its scheduled send time, and samples shard metrics in the gaps.
fn writer(
    coordinator: &Coordinator,
    pool: &[PoolShot],
    seed: u64,
    start: Instant,
    deadline: Instant,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut rng = Rng::new(seed, 4);
    let mut next_sample = start;
    for i in 0.. {
        let due = start + Duration::from_secs_f64(i as f64 / WRITE_RATE);
        if due >= deadline {
            break;
        }
        if Instant::now() >= next_sample && Instant::now() < due {
            next_sample += SAMPLE_EVERY;
            for s in snapshots(coordinator) {
                if let Some(j) = &s.jobs {
                    log.drift_max = log.drift_max.max(j.drift as f64);
                }
                if let Some(st) = s.store.as_ref().filter(|st| st.wal_records > 0) {
                    let per_shot =
                        st.wal_bytes as f64 / (st.wal_records as f64 * SHOTS_PER_VIDEO as f64);
                    log.wal_bytes_per_shot = log.wal_bytes_per_shot.max(per_shot);
                }
            }
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        log.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let batch = corpus::video_batch(pool, WRITE_VIDEO_BASE + i, SHOTS_PER_VIDEO, &mut rng);
        let outcome = match coordinator.ingest(batch.clone()) {
            Ok(r) if r.accepted == SHOTS_PER_VIDEO => Outcome::Ok,
            Ok(_) => Outcome::Failed,
            Err(ClusterError::Rejected { .. }) => Outcome::Refused,
            Err(_) => Outcome::Failed,
        };
        log.latencies
            .record(outcome, due.elapsed().as_secs_f64() * 1e3, false);
        log.writes.push(Write { batch, outcome });
    }
    log
}

/// Whether the cluster serves `probe` as its own nearest neighbour at
/// distance 0: the batch it opened landed (ingest is all-or-nothing per
/// shard, and a one-video batch goes to one shard).
fn served(coordinator: &Coordinator, probe: &IngestShot) -> bool {
    let req = QueryRequest {
        vector: Some(probe.features.clone()),
        limit: Some(1),
        strategy: Some(WireStrategy::Flat),
        ..QueryRequest::default()
    };
    match coordinator.query(&req) {
        Ok(o) => o
            .hits
            .first()
            .is_some_and(|h| h.video == probe.video && h.shot == probe.shot && h.distance == 0.0),
        Err(_) => false,
    }
}

/// Runs reads beside writes for `args.seconds`, checks the cluster's
/// answers and records, and adds the cluster layers to `m`. Operations are
/// tallied as `cluster_read` and `cluster_write`.
pub fn measure(
    args: &Args,
    pool: &[PoolShot],
    records: &[IngestShot],
    report: &mut RunReport,
    m: &mut BTreeMap<&'static str, f64>,
) {
    report.fact("cluster_shards", SHARDS);
    report.fact(
        "cluster_write_rate",
        format!("{WRITE_RATE} batches/s x {SHOTS_PER_VIDEO} shots, open loop"),
    );
    let recorder = Recorder::new();
    let (cluster, coordinator) = setup(args, records, &recorder);
    let mut warm = QueryMix::new(pool, args.seed, 60);
    for _ in 0..WARMUP_READS {
        let _ = coordinator.query(&warm.next_request());
    }
    let before = snapshots(&coordinator);
    let counters_before = recorder.report();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let (reads, writes) = std::thread::scope(|scope| {
        let mix = QueryMix::new(pool, args.seed, 10);
        let r = scope.spawn(|| reader(&coordinator, mix, deadline));
        let w = scope.spawn(|| writer(&coordinator, pool, args.seed, start, deadline));
        (
            r.join().expect("reader panicked"),
            w.join().expect("writer panicked"),
        )
    });
    let after = snapshots(&coordinator);
    let counters_after = recorder.report();

    // Every acknowledged write is served; each ambiguous failure is
    // resolved once, by asking whether its batch landed.
    let mut all = records.to_vec();
    let (mut acked_shots, mut ambiguous_landed, mut missing_acked) = (0, 0, 0);
    for w in &writes.writes {
        let present = served(&coordinator, &w.batch[0]);
        match (w.outcome, present) {
            (Outcome::Ok, false) => missing_acked += 1,
            (Outcome::Ok, true) => acked_shots += w.batch.len(),
            (_, true) => ambiguous_landed += w.batch.len(),
            (_, false) => {}
        }
        if present {
            all.extend(w.batch.iter().cloned());
        }
    }
    report.gate(
        "cluster.acked_writes_served",
        missing_acked == 0,
        format!("{missing_acked} acknowledged writes not served"),
    );
    let final_snaps = snapshots(&coordinator);
    let held: usize = final_snaps.iter().map(|s| s.records).sum();
    let expected = records.len() + acked_shots + ambiguous_landed;
    report.gate(
        "cluster.record_total",
        final_snaps.len() == SHARDS as usize && held == expected,
        format!(
            "cluster holds {held}; preload {} + acknowledged {acked_shots} + ambiguous that landed {ambiguous_landed}",
            records.len()
        ),
    );

    // Scatter-gather answers equal a single-node reference over the same
    // final records.
    let reference = corpus::unbuilt_db(&all);
    let mut mix = QueryMix::new(pool, args.seed, 7);
    let (mut checked, mut mismatched) = (0, 0);
    while checked < ANSWER_CHECKS {
        let req = mix.next_request();
        if !checkable(&req) {
            continue;
        }
        checked += 1;
        match coordinator.query(&req) {
            Ok(o)
                if o.status.is_complete()
                    && served_key(&o.hits) == reference_key(&reference, &req) => {}
            _ => mismatched += 1,
        }
    }
    report.gate(
        "cluster.gather_matches_single_node",
        mismatched == 0,
        format!("{mismatched} of {checked} scatter-gather answers differ from the single-node reference"),
    );
    cluster.shutdown();

    report.tally("cluster_read", &reads.tally);
    report.tally("cluster_write", &writes.latencies.tally);
    let read_p50 = reads.percentile(50.0);
    report.fact("cluster_read_p50_ms", format!("{read_p50:.3}"));
    report.fact(
        "cluster_write_p50_ms",
        format!("{:.3}", writes.latencies.percentile(50.0)),
    );
    report.fact(
        "cluster_write_max_ms",
        format!("{:.3}", writes.latencies.percentile(100.0)),
    );
    let count = |name: &str| {
        counters_after
            .counter(name)
            .saturating_sub(counters_before.counter(name)) as f64
    };
    m.insert("store.fsyncs", count(counters::STORE_FSYNCS));
    m.insert("store.checkpoints", count(counters::STORE_CHECKPOINTS));
    m.insert("store.wal_bytes_per_shot", writes.wal_bytes_per_shot);
    m.insert(
        "jobs.compactions",
        counter_delta(&before, &after, |s| {
            s.jobs.as_ref().map_or(0, |j| j.compactions)
        }),
    );
    m.insert("jobs.drift_max", writes.drift_max);
    m.insert(
        "cluster.writer_late_ms",
        mean(writes.late_ms.iter().copied()),
    );
    m.insert(
        "cache.invalidations",
        counter_delta(&before, &after, |s| s.cache.invalidations),
    );
    let slowest_shard = after.iter().map(|s| s.window.p50_ms).fold(0.0, f64::max);
    m.insert("cluster.read_overhead_ms", read_p50 - slowest_shard);
}
