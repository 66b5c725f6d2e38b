//! TCP front-end: accept loop, per-connection request loop, dispatch.
//!
//! Each connection gets its own thread (the executor bounds *query*
//! concurrency, not connection count — cheap requests like `Stats` never
//! queue behind expensive ones). Queries flow through the admission queue;
//! the connection thread waits on a one-shot channel for the worker's
//! response so replies stay ordered per connection. Shutdown is a graceful
//! drain: the flag flips, a self-connection wakes the accept loop, no new
//! connections or requests are admitted, in-flight work completes, and the
//! executor joins its workers.

use crate::cache::{CachedResult, QueryKey, ResultCache};
use crate::executor::Executor;
use crate::jobs::{self, JobsConfig, JobsRuntime};
use crate::live::{LiveMetrics, DEFAULT_SLOW_CAPACITY, DEFAULT_SLOW_THRESHOLD};
use crate::protocol::{
    self, ErrorKind, Hit, KnnKernelStats, MetricsSnapshot, QueryRequest, ReplicationStatus,
    Request, Response, WireJobKind, WireStrategy, PROTOCOL_VERSION,
};
use crate::service::{DbService, IngestError};
use medvid_jobs::{JobKind, JobQueue, QueueConfig};
use crate::trace::{TraceCtx, STAGE_ADMISSION, STAGE_CACHE, STAGE_EXECUTE, STAGE_QUEUE_WAIT};
use medvid_index::{non_finite_index, Clearance, PlannedPath, Strategy, UserContext, VideoDatabase};
use medvid_obs::{counters, Recorder, Stage};
use medvid_store::{RecoveryReport, Store, StoreConfig};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the background checkpointer re-examines the WAL thresholds.
const CHECKPOINT_POLL: Duration = Duration::from_millis(250);

/// Record cap on one shipped `LogSegment` when the follower does not name
/// its own budget — bounds segment size well under `MAX_FRAME_BYTES`.
const FETCH_LOG_MAX_RECORDS: usize = 4096;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Query worker threads.
    pub workers: usize,
    /// Admission-queue capacity (pending queries beyond the workers).
    pub queue_capacity: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Default per-query result limit when the request leaves it unset.
    pub default_limit: usize,
    /// Queries abandoned if still queued after this long.
    pub deadline: Duration,
    /// Per-connection socket read timeout (an idle connection wakes this
    /// often to observe the shutdown flag).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Number of rolling-metric windows kept for [`Request::Metrics`].
    pub window_count: usize,
    /// Width of one rolling-metric window.
    pub window_width: Duration,
    /// Requests slower than this land in the slow-query log.
    pub slow_query_threshold: Duration,
    /// Bound on the in-memory slow-query log (oldest entries evicted).
    pub slow_log_capacity: usize,
    /// Cluster shard id this server owns, when part of a sharded
    /// deployment. Stamped onto every outgoing error and `LogSegment`
    /// so coordinator-level degradation reports can name the culprit.
    pub shard: Option<u32>,
    /// Retrieval strategy applied when a request leaves `strategy` unset.
    /// Participates in the cache key, so flipping it between restarts can
    /// never serve one path's cached cost profile as another's.
    pub default_strategy: WireStrategy,
    /// Background job-queue tuning (lease TTL, retry backoff, compaction
    /// drift threshold).
    pub jobs: JobsConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            // Scale the worker pool with the same thread budget the mining
            // engine uses (MEDVID_THREADS respected), but never below the
            // seed's fixed pool of 4.
            workers: medvid_par::max_threads().max(4),
            queue_capacity: 64,
            cache_capacity: 256,
            default_limit: 10,
            deadline: Duration::from_secs(2),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
            window_count: medvid_obs::rolling::DEFAULT_WINDOWS,
            window_width: Duration::from_nanos(medvid_obs::rolling::DEFAULT_WIDTH_NANOS),
            slow_query_threshold: DEFAULT_SLOW_THRESHOLD,
            slow_log_capacity: DEFAULT_SLOW_CAPACITY,
            shard: None,
            default_strategy: WireStrategy::Hierarchical,
            jobs: JobsConfig::default(),
        }
    }
}

/// Cumulative retrieval-kernel counters, accumulated by query workers and
/// surfaced through [`MetricsSnapshot`].
#[derive(Default)]
struct KnnCounters {
    quantized_comparisons: AtomicU64,
    rerank_candidates: AtomicU64,
    planner_flat_fallbacks: AtomicU64,
}

impl KnnCounters {
    fn absorb(&self, stats: &medvid_index::RetrievalStats) {
        self.quantized_comparisons
            .fetch_add(stats.quantized_comparisons as u64, Ordering::Relaxed);
        self.rerank_candidates
            .fetch_add(stats.rerank_candidates as u64, Ordering::Relaxed);
        if stats.planner_path == PlannedPath::QuantizedFlat {
            self.planner_flat_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> KnnKernelStats {
        KnnKernelStats {
            quantized_comparisons: self.quantized_comparisons.load(Ordering::Relaxed),
            rerank_candidates: self.rerank_candidates.load(Ordering::Relaxed),
            planner_flat_fallbacks: self.planner_flat_fallbacks.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    service: DbService,
    cache: ResultCache,
    executor: Executor,
    live: LiveMetrics,
    config: ServerConfig,
    recorder: Recorder,
    shutdown: AtomicBool,
    /// Published by the replication tailer (follower role) or the cluster
    /// layer (leader role); surfaced verbatim in [`MetricsSnapshot`].
    replication: parking_lot::Mutex<Option<ReplicationStatus>>,
    /// Retrieval-kernel activity, accumulated per executed (uncached) query.
    knn: KnnCounters,
    /// Cluster-topology fence: ingests carrying an older topology epoch are
    /// refused with [`ErrorKind::Fenced`]. 0 (the default) fences nothing;
    /// the value only ever rises — via [`Request::Fence`]/
    /// [`Request::Promote`] or an ingest carrying a newer epoch.
    fence: AtomicU64,
    /// The background job queue plus its worker-side counters. On durable
    /// servers the queue's log lives next to the store's WAL, so queued
    /// work survives a restart.
    jobs: JobsRuntime,
}

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    checkpoint_thread: Option<std::thread::JoinHandle<()>>,
    jobs_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain, without waiting for it to finish.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared, self.addr);
    }

    /// Replaces the serving database wholesale (the replication catch-up
    /// path: a follower installs the leader's replayed state). The epoch
    /// bump invalidates every cached result of the superseded database.
    ///
    /// # Errors
    /// Propagates storage failures from the checkpoint a durable service
    /// takes before swapping.
    pub fn install_db(&self, db: VideoDatabase) -> Result<u64, medvid_store::StoreError> {
        self.shared.service.replace(db)
    }

    /// Publishes (or clears) the replication status reported by
    /// [`Request::Metrics`]. Called by the cluster layer's tailer after
    /// each applied `LogSegment`.
    pub fn set_replication(&self, status: Option<ReplicationStatus>) {
        *self.shared.replication.lock() = status;
    }

    /// The shard id this server was configured with, if any.
    pub fn shard(&self) -> Option<u32> {
        self.shared.config.shard
    }

    /// Raises the topology fence to at least `epoch` (fences only rise)
    /// and returns the fence now in force. Ingests carrying an older
    /// topology epoch are refused with [`ErrorKind::Fenced`] from then on.
    pub fn set_fence(&self, epoch: u64) -> u64 {
        self.shared.fence.fetch_max(epoch, Ordering::SeqCst).max(epoch)
    }

    /// The fence epoch currently in force (0 = never fenced).
    pub fn fence_epoch(&self) -> u64 {
        self.shared.fence.load(Ordering::SeqCst)
    }

    /// Installs `store` as this server's durability backend — the
    /// replica-promotion path (see [`DbService::adopt_store`]). The
    /// background checkpointer picks the store up on its next poll.
    ///
    /// # Errors
    /// Hands `store` back when the server is already durable.
    #[allow(clippy::result_large_err)]
    pub fn adopt_store(&self, store: Store) -> Result<(), Store> {
        self.shared.service.adopt_store(store)
    }

    /// Whether ingests are currently write-ahead logged.
    pub fn is_durable(&self) -> bool {
        self.shared.service.is_durable()
    }

    /// Waits for the accept loop (and every connection it spawned) to
    /// finish draining, then for the background checkpointer and the job
    /// worker.
    pub fn join(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.checkpoint_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.jobs_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some()
            || self.checkpoint_thread.is_some()
            || self.jobs_thread.is_some()
        {
            begin_shutdown(&self.shared, self.addr);
        }
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.checkpoint_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.jobs_thread.take() {
            let _ = h.join();
        }
    }
}

fn begin_shutdown(shared: &Shared, addr: SocketAddr) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }
}

/// Binds and spawns an in-memory server over `db`. Returns once the
/// listener is live, so a client may connect immediately.
///
/// # Errors
/// Propagates bind failures.
pub fn spawn(
    db: VideoDatabase,
    config: ServerConfig,
    recorder: Recorder,
) -> io::Result<ServerHandle> {
    let service = DbService::new(db, recorder.clone());
    spawn_service(service, None, config, recorder)
}

/// Binds and spawns a durable server backed by the store at `dir`.
///
/// Opens (or initialises) the store, recovers the database from its latest
/// checkpoint plus the WAL tail, and serves the recovered state as epoch 1.
/// `initial` seeds a store directory that does not exist yet (pass
/// [`VideoDatabase::medical`] for the standard taxonomy) and is ignored
/// when a checkpoint already exists. The returned [`RecoveryReport`] says
/// exactly what was replayed and whether a torn tail was discarded.
///
/// A background thread checkpoints the serving database whenever the WAL
/// outgrows the thresholds in `store_config`; on graceful drain the WAL is
/// fsynced before the handle's `join` returns.
///
/// # Errors
/// Propagates bind failures; storage failures (unreadable checkpoint,
/// unopenable WAL) surface as [`io::ErrorKind::Other`].
pub fn spawn_durable(
    dir: impl AsRef<Path>,
    store_config: StoreConfig,
    initial: VideoDatabase,
    config: ServerConfig,
    recorder: Recorder,
) -> io::Result<(ServerHandle, RecoveryReport)> {
    let recovered = Store::open(dir.as_ref(), store_config, initial, recorder.clone())
        .map_err(|e| io::Error::other(e.to_string()))?;
    let service = DbService::durable(recovered.db, recovered.store, recorder.clone());
    let handle = spawn_service(service, Some(dir.as_ref()), config, recorder)?;
    Ok((handle, recovered.report))
}

fn spawn_service(
    service: DbService,
    jobs_dir: Option<&Path>,
    config: ServerConfig,
    recorder: Recorder,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let queue_config = QueueConfig {
        lease_ttl_ms: config.jobs.lease_ttl.as_millis() as u64,
        backoff: config.jobs.backoff,
        fsync: medvid_store::FsyncPolicy::Always,
    };
    // Durable servers put the jobs log next to the store's WAL so queued
    // work survives a restart; in-memory servers get a volatile queue.
    let queue = match jobs_dir {
        Some(dir) => JobQueue::open(dir, queue_config)
            .map_err(|e| io::Error::other(format!("jobs log: {e}")))?
            .0,
        None => JobQueue::in_memory(queue_config),
    };
    let shared = Arc::new(Shared {
        service,
        cache: ResultCache::new(config.cache_capacity, recorder.clone()),
        executor: Executor::new(config.workers, config.queue_capacity, recorder.clone()),
        live: LiveMetrics::new(
            config.window_count,
            config.window_width,
            config.slow_query_threshold,
            config.slow_log_capacity,
            recorder.clone(),
        ),
        config,
        recorder,
        shutdown: AtomicBool::new(false),
        replication: parking_lot::Mutex::new(None),
        knn: KnnCounters::default(),
        fence: AtomicU64::new(0),
        jobs: JobsRuntime::new(queue),
    });
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared))?;
    // Spawned even for in-memory services: `wants_checkpoint` is false
    // without a store, so the loop idles — but a replica promoted to
    // durable leadership mid-life (`ServerHandle::adopt_store`) gets its
    // background checkpointer without a restart.
    let ckpt_shared = Arc::clone(&shared);
    let checkpoint_thread = Some(
        std::thread::Builder::new()
            .name("serve-checkpoint".to_string())
            .spawn(move || checkpoint_loop(&ckpt_shared))?,
    );
    let jobs_shared = Arc::clone(&shared);
    let jobs_thread = Some(
        std::thread::Builder::new()
            .name("serve-jobs".to_string())
            .spawn(move || jobs_loop(&jobs_shared))?,
    );
    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        checkpoint_thread,
        jobs_thread,
    })
}

/// Wall-clock milliseconds since the Unix epoch — the job queue's time
/// base. Consistent across restarts (unlike a monotonic clock), which is
/// what lease expiries written to a durable log need; recovery releases
/// crashed holders' leases anyway, so a backwards step can only delay a
/// handover, never lose a job.
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The background job worker: claims and executes queued jobs one at a
/// time, auto-submits a compaction whenever the serving index's drift
/// passes the configured threshold, and samples queue depth + drift into
/// the live metrics each tick.
fn jobs_loop(shared: &Arc<Shared>) {
    let worker = format!("serve-jobs@{}", std::process::id());
    let ctx = jobs::JobWorkerCtx {
        service: &shared.service,
        queue: &shared.jobs.queue,
        worker: &worker,
        clock: &unix_ms,
        recorder: &shared.recorder,
        compactions: &shared.jobs.compactions,
    };
    while !shared.shutdown.load(Ordering::SeqCst) {
        jobs::maybe_submit_compaction(
            &shared.service,
            &shared.jobs.queue,
            shared.config.jobs.drift_threshold,
            unix_ms(),
            &shared.recorder,
        );
        let ran = jobs::run_one(&ctx).is_some();
        jobs::sample_gauges(&shared.service, &shared.jobs.queue, &shared.recorder);
        if !ran {
            std::thread::sleep(shared.config.jobs.poll);
        }
    }
    // Graceful drain: force any buffered jobs-log bytes down before the
    // process exits (a no-op under FsyncPolicy::Always).
    let _ = shared.jobs.queue.lock().sync();
}

/// Background checkpointer: folds the WAL into a fresh checkpoint whenever
/// it outgrows the configured thresholds, so recovery time stays bounded
/// no matter how long the server runs.
fn checkpoint_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        if shared.service.wants_checkpoint() {
            // A failed checkpoint is not fatal to serving: the WAL still
            // holds every acknowledged record, so durability is intact and
            // the next poll retries.
            let _ = shared.service.checkpoint();
        }
        std::thread::sleep(CHECKPOINT_POLL);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut connections = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        if let Ok(h) = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_connection(stream, conn_shared))
        {
            connections.push(h);
        }
        // Reap finished connection threads so long-lived servers do not
        // accumulate handles.
        connections.retain(|h| !h.is_finished());
    }
    for h in connections {
        let _ = h.join();
    }
    // Graceful drain: with every connection retired, force any WAL records
    // buffered under a lazy fsync policy onto stable storage before the
    // process is allowed to exit.
    let _ = shared.service.sync_store();
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    loop {
        let request: Request = match protocol::recv_message(&mut stream) {
            Ok(r) => r,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle tick: drop the connection once draining, else keep
                // waiting.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let mut resp = Response::error(ErrorKind::BadRequest, e.to_string());
                resp.stamp_shard(shared.config.shard);
                let _ = protocol::send_message(&mut stream, &resp);
                return;
            }
            // EOF or hard I/O failure: the peer is gone.
            Err(_) => return,
        };
        shared.recorder.incr(counters::SERVE_REQUESTS, 1);
        let span = shared.recorder.span(Stage::ServeRequest);
        if shared.shutdown.load(Ordering::SeqCst) && !matches!(request, Request::Shutdown) {
            let mut resp = Response::error(ErrorKind::ShuttingDown, "server is draining");
            resp.stamp_shard(shared.config.shard);
            let _ = protocol::send_message(&mut stream, &resp);
            drop(span);
            return;
        }
        let shutting_down = matches!(request, Request::Shutdown);
        let mut outcome = dispatch(request, &shared);
        outcome.response.stamp_shard(shared.config.shard);
        drop(span);
        observe_outcome(&outcome, &shared);
        if protocol::send_message(&mut stream, &outcome.response).is_err() {
            return;
        }
        if shutting_down {
            if let Ok(addr) = stream.local_addr() {
                begin_shutdown(&shared, addr);
            }
            return;
        }
    }
}

/// One dispatched request: the wire response plus the observability
/// facts the connection loop feeds into the live metrics hub.
struct Outcome {
    response: Response,
    trace: TraceCtx,
    shape: String,
    /// `Some(hit?)` for queries that consulted the result cache.
    cache_hit: Option<bool>,
}

/// Compact request description for the slow-query log — structure and
/// sizes only, never payload bytes.
fn shape_of(request: &Request) -> String {
    match request {
        Request::Query(q) => {
            let mut s = String::from("query");
            if let Some(v) = &q.vector {
                s.push_str(&format!(" vector[{}]", v.len()));
            }
            if let Some(e) = q.event {
                s.push_str(&format!(" event={e:?}"));
            }
            if let Some(n) = q.under {
                s.push_str(&format!(" under={}", n.0));
            }
            if let Some(c) = q.clearance {
                s.push_str(&format!(" clearance={c}"));
            }
            if let Some(l) = q.limit {
                s.push_str(&format!(" limit={l}"));
            }
            if let Some(st) = q.strategy {
                s.push_str(&format!(" strategy={st:?}"));
            }
            if let Some(d) = q.delay_ms {
                s.push_str(&format!(" delay_ms={d}"));
            }
            s
        }
        Request::Ingest { shots, .. } => format!("ingest shots={}", shots.len()),
        Request::Stats => "stats".to_string(),
        Request::Metrics => "metrics".to_string(),
        Request::SlowQueries { .. } => "slow_queries".to_string(),
        Request::Snapshot { .. } => "snapshot".to_string(),
        Request::Restore { .. } => "restore".to_string(),
        Request::Shutdown => "shutdown".to_string(),
        Request::FetchLog { from_seq, .. } => format!("fetch_log from_seq={from_seq}"),
        Request::Fence { epoch } => format!("fence epoch={epoch}"),
        Request::Promote { topology_epoch } => format!("promote epoch={topology_epoch}"),
        Request::SubmitJob {
            kind: WireJobKind::Compaction,
        } => "submit_job kind=compaction".to_string(),
        Request::JobStatus { id: Some(id) } => format!("job_status id={id}"),
        Request::JobStatus { id: None } => "job_status".to_string(),
    }
}

/// Stamps the request's trace id (and, when asked for, the stage
/// breakdown) onto response variants that carry trace fields.
fn attach_trace(mut response: Response, ctx: &TraceCtx, detail: bool) -> Response {
    match &mut response {
        Response::Results { trace_id, trace, .. } | Response::Ingested { trace_id, trace, .. } => {
            *trace_id = Some(ctx.id().to_string());
            if detail {
                *trace = Some(ctx.report());
            }
        }
        Response::Error { trace_id, .. } => {
            *trace_id = Some(ctx.id().to_string());
        }
        _ => {}
    }
    response
}

/// Feeds one finished request into the rolling windows, the cumulative
/// error counter, and (past the threshold) the slow-query log.
fn observe_outcome(outcome: &Outcome, shared: &Arc<Shared>) {
    let latency = outcome.trace.elapsed_nanos();
    let error = matches!(outcome.response, Response::Error { .. });
    if error {
        shared.recorder.incr(counters::SERVE_ERRORS, 1);
    }
    shared.live.observe_request(latency, error, outcome.cache_hit);
    shared.live.maybe_log_slow(
        latency,
        outcome.trace.id(),
        outcome.trace.stages(),
        outcome.shape.clone(),
        shared.service.epoch(),
    );
}

fn metrics_snapshot(shared: &Arc<Shared>) -> MetricsSnapshot {
    let snap = shared.service.snapshot();
    MetricsSnapshot {
        schema: medvid_obs::report::LIVE_SCHEMA_VERSION.to_string(),
        protocol: PROTOCOL_VERSION.to_string(),
        uptime_secs: shared.live.uptime_secs(),
        epoch: snap.epoch,
        records: snap.db.len(),
        window: shared.live.window_summary(),
        cache: shared.cache.stats(),
        executor: shared.executor.stats(),
        store: shared.service.store_status(),
        slow_queries: shared.live.slow_len(),
        slow_threshold_ms: shared.live.threshold().as_secs_f64() * 1_000.0,
        shard: shared.config.shard,
        replication: shared.replication.lock().clone(),
        knn: shared.knn.snapshot(),
        fence_epoch: match shared.fence.load(Ordering::SeqCst) {
            0 => None,
            e => Some(e),
        },
        jobs: Some(shared.jobs.status(snap.db.drift())),
    }
}

fn dispatch(request: Request, shared: &Arc<Shared>) -> Outcome {
    let shape = shape_of(&request);
    match request {
        Request::Query(q) => {
            // Detail is always recorded server-side so the slow-query log
            // has a breakdown even for untraced requests; the client only
            // sees it when the request asked.
            let mut ctx = TraceCtx::begin(q.trace_id.clone(), true);
            let wants_detail = q.trace;
            let (response, cache_hit) = dispatch_query(q, shared, &mut ctx);
            Outcome {
                response: attach_trace(response, &ctx, wants_detail),
                trace: ctx,
                shape,
                cache_hit,
            }
        }
        Request::Ingest {
            shots,
            trace_id,
            trace,
            topology_epoch,
        } => {
            let mut ctx = TraceCtx::begin(trace_id, true);
            // Fencing: a write routed under a topology older than this
            // node's fence must not be acknowledged — the shard has a new
            // leader (or split) and acking here would lose the write. A
            // *newer* carried epoch raises the fence, so once any write of
            // the new topology lands, stragglers from the old one are
            // refused even if the control plane's explicit Fence never
            // arrived. Standalone clients carry no epoch and pass freely.
            if let Some(carried) = topology_epoch {
                let fence = shared.fence.fetch_max(carried, Ordering::SeqCst);
                if carried < fence {
                    shared
                        .recorder
                        .incr(counters::CLUSTER_FENCED_WRITES, 1);
                    let response = Response::error(
                        ErrorKind::Fenced,
                        format!("write carries topology epoch {carried}, node is fenced at {fence}"),
                    );
                    return Outcome {
                        response: attach_trace(response, &ctx, trace),
                        trace: ctx,
                        shape,
                        cache_hit: None,
                    };
                }
            }
            let response = match shared.service.ingest_traced(&shots, &mut ctx) {
                Ok((accepted, epoch, last_seq)) => Response::Ingested {
                    accepted,
                    epoch,
                    trace_id: None,
                    trace: None,
                    last_seq,
                },
                Err(e @ IngestError::Record { .. }) => {
                    Response::error(ErrorKind::BadRequest, e.to_string())
                }
                // The batch validated but never reached stable storage: the
                // epoch is unchanged and nothing was acknowledged. The failed
                // append poisons the store, so a retry is refused (Poisoned)
                // rather than appending past a possibly-torn WAL region —
                // queries keep serving; writes need a restart to recover.
                Err(e @ IngestError::Store(_)) => Response::error(ErrorKind::Store, e.to_string()),
            };
            Outcome {
                response: attach_trace(response, &ctx, trace),
                trace: ctx,
                shape,
                cache_hit: None,
            }
        }
        other => Outcome {
            response: dispatch_plain(other, shared),
            trace: TraceCtx::begin(None, false),
            shape,
            cache_hit: None,
        },
    }
}

/// Verbs with no tracing surface: stats, metrics, snapshot management,
/// shutdown.
fn dispatch_plain(request: Request, shared: &Arc<Shared>) -> Response {
    match request {
        Request::Query(_) | Request::Ingest { .. } => {
            unreachable!("traced verbs handled by dispatch")
        }
        Request::Metrics => Response::Metrics {
            snapshot: metrics_snapshot(shared),
        },
        Request::SlowQueries { drain } => Response::SlowQueries {
            records: shared.live.slow_queries(drain),
        },
        Request::Stats => {
            let snap = shared.service.snapshot();
            Response::Stats {
                protocol: PROTOCOL_VERSION.to_string(),
                epoch: snap.epoch,
                records: snap.db.len(),
                cache: shared.cache.stats(),
                executor: shared.executor.stats(),
                store: shared.service.store_status(),
            }
        }
        Request::Snapshot { path } => {
            let snap = shared.service.snapshot();
            match snap.db.save_json(Path::new(&path)) {
                Ok(()) => Response::SnapshotWritten {
                    path,
                    epoch: snap.epoch,
                },
                Err(e) => Response::error(ErrorKind::Internal, e.to_string()),
            }
        }
        Request::Restore { path } => match VideoDatabase::load_json(Path::new(&path)) {
            Err(e) => Response::error(ErrorKind::BadRequest, format!("restore {path}: {e}")),
            Ok(db) => {
                let records = db.len();
                match shared.service.replace(db) {
                    // The epoch bump invalidates every cached result mined
                    // from the superseded database.
                    Ok(epoch) => Response::Restored { epoch, records },
                    Err(e) => Response::error(ErrorKind::Store, e.to_string()),
                }
            }
        },
        Request::Shutdown => Response::Bye,
        Request::FetchLog {
            from_seq,
            max_records,
        } => {
            let budget = max_records.unwrap_or(FETCH_LOG_MAX_RECORDS);
            match shared.service.log_suffix(from_seq, budget) {
                Ok(Some(suffix)) => Response::LogSegment {
                    shard: None, // stamped by the connection loop
                    checkpoint_seq: suffix.checkpoint_seq,
                    last_seq: suffix.last_seq,
                    snapshot: suffix.checkpoint,
                    records: suffix.records,
                },
                Ok(None) => Response::error(
                    ErrorKind::BadRequest,
                    "server is in-memory: there is no durable log to ship",
                ),
                Err(e) => Response::error(ErrorKind::Store, e.to_string()),
            }
        }
        Request::Fence { epoch } => Response::Fenced {
            epoch: shared.fence.fetch_max(epoch, Ordering::SeqCst).max(epoch),
        },
        Request::Promote { topology_epoch } => {
            let epoch = shared
                .fence
                .fetch_max(topology_epoch, Ordering::SeqCst)
                .max(topology_epoch);
            // A promoted node is (or just became) its shard's write side:
            // publish the leader role so `Metrics` consumers — the health
            // checker, `medvid top` — see the flip without a restart.
            if let Some(status) = shared.service.store_status() {
                *shared.replication.lock() = Some(ReplicationStatus {
                    role: "leader".to_string(),
                    leader_seq: status.last_seq,
                    applied_seq: status.last_seq,
                    lag: 0,
                });
            }
            Response::Fenced { epoch }
        }
        Request::SubmitJob {
            kind: WireJobKind::Compaction,
        } => {
            let mut queue = shared.jobs.queue.lock();
            match queue.submit(JobKind::Compaction, unix_ms()) {
                Ok(id) => {
                    shared.recorder.incr(counters::JOBS_SUBMITTED, 1);
                    Response::JobSubmitted { id }
                }
                Err(e) => Response::error(ErrorKind::Store, format!("jobs log: {e}")),
            }
        }
        Request::JobStatus { id } => {
            let queue = shared.jobs.queue.lock();
            match id {
                Some(id) => match queue.status(id) {
                    Some(view) => Response::Jobs {
                        jobs: vec![jobs::view_to_wire(&view)],
                    },
                    None => Response::error(ErrorKind::BadRequest, format!("unknown job {id}")),
                },
                None => Response::Jobs {
                    jobs: queue.list().iter().map(jobs::view_to_wire).collect(),
                },
            }
        }
    }
}

/// Runs a query through validation → cache → admission queue → worker,
/// marking stages into `ctx` as each boundary is crossed. Returns the
/// response plus whether the cache was consulted and answered.
fn dispatch_query(
    req: QueryRequest,
    shared: &Arc<Shared>,
    ctx: &mut TraceCtx,
) -> (Response, Option<bool>) {
    let snap = shared.service.snapshot();
    // Reject vectors the index cannot measure distances over (a mismatched
    // length would panic deep inside the subspace projections).
    if let (Some(v), Some(expected)) = (req.vector.as_ref(), snap.db.feature_len()) {
        if v.len() != expected {
            return (
                Response::error(
                    ErrorKind::BadRequest,
                    format!("query vector has {} dims, database has {expected}", v.len()),
                ),
                None,
            );
        }
    }
    if let Some(node) = req.under {
        if node.0 >= snap.db.hierarchy().len() {
            return (
                Response::error(
                    ErrorKind::BadRequest,
                    format!("unknown concept node {node:?}"),
                ),
                None,
            );
        }
    }
    // Reject non-finite vectors at the protocol boundary, before they can
    // reach a distance kernel or poison a cache entry.
    if let Some(index) = req.vector.as_deref().and_then(non_finite_index) {
        return (
            Response::error(
                ErrorKind::BadRequest,
                format!("query vector component {index} is not finite"),
            ),
            None,
        );
    }
    let key = QueryKey::canonicalize(
        &req,
        shared.config.default_limit,
        shared.config.default_strategy,
    );
    ctx.mark(STAGE_ADMISSION);
    let uses_cache = req.delay_ms.is_none();
    if uses_cache {
        let hit = shared.cache.get(snap.epoch, &key);
        ctx.mark(STAGE_CACHE);
        if let Some(cached) = hit {
            return (results_response(snap.epoch, true, &cached), Some(true));
        }
    }
    // Miss: run on the worker pool under admission control. The worker
    // reports its own (queue wait, execution) split back alongside the
    // response; both intervals nest inside this thread's blocking wait,
    // so folding them into `ctx` preserves the stage-sum ≤ total bound.
    let (done_tx, done_rx) = std::sync::mpsc::sync_channel::<(Response, u64, u64)>(1);
    let job_shared = Arc::clone(shared);
    let job_snap = Arc::clone(&snap);
    let submitted_at = Instant::now();
    let deadline = submitted_at + shared.config.deadline;
    let expired_tx = done_tx.clone();
    let submitted = shared.executor.submit(
        Some(deadline),
        Box::new(move || {
            let queue_wait = submitted_at.elapsed().as_nanos() as u64;
            let exec_start = Instant::now();
            let _span = job_shared.recorder.span(Stage::ServeExec);
            if let Some(ms) = req.delay_ms {
                std::thread::sleep(Duration::from_millis(ms));
            }
            let response = match execute_query(
                &req,
                &job_snap.db,
                job_shared.config.default_limit,
                job_shared.config.default_strategy,
            ) {
                Ok(result) => {
                    job_shared.knn.absorb(&result.stats);
                    let result = Arc::new(result);
                    if req.delay_ms.is_none() {
                        job_shared
                            .cache
                            .put(job_snap.epoch, key, Arc::clone(&result));
                    }
                    results_response(job_snap.epoch, false, &result)
                }
                // Validation failures are never cached: the rejection is
                // cheap to recompute and must not occupy result capacity.
                Err(e) => Response::error(ErrorKind::BadRequest, e.to_string()),
            };
            let exec = exec_start.elapsed().as_nanos() as u64;
            let _ = done_tx.send((response, queue_wait, exec));
        }),
        Box::new(move || {
            let queue_wait = submitted_at.elapsed().as_nanos() as u64;
            let _ = expired_tx.send((
                Response::error(
                    ErrorKind::DeadlineExceeded,
                    "request waited in queue past its deadline",
                ),
                queue_wait,
                0,
            ));
        }),
    );
    if submitted.is_err() {
        return (
            Response::error(ErrorKind::Overloaded, "admission queue is full"),
            None,
        );
    }
    // Workers always send exactly one message per admitted job; the margin
    // covers execution time after a just-in-time dequeue.
    let wait = shared.config.deadline + shared.config.write_timeout + Duration::from_secs(30);
    match done_rx.recv_timeout(wait) {
        Ok((resp, queue_wait, exec)) => {
            ctx.add_stage(STAGE_QUEUE_WAIT, queue_wait);
            if exec > 0 {
                ctx.add_stage(STAGE_EXECUTE, exec);
            }
            shared.live.observe_queue_wait(queue_wait);
            (resp, if uses_cache { Some(false) } else { None })
        }
        Err(_) => (
            Response::error(ErrorKind::Internal, "worker did not produce a response"),
            None,
        ),
    }
}

fn execute_query(
    req: &QueryRequest,
    db: &VideoDatabase,
    default_limit: usize,
    default_strategy: WireStrategy,
) -> Result<CachedResult, medvid_index::QueryError> {
    let user = req.clearance.map(|c| UserContext::new(Clearance(c)));
    let mut q = db.query();
    if let Some(v) = &req.vector {
        q = q.similar_to(v.clone());
    }
    if let Some(e) = req.event {
        q = q.event(e);
    }
    if let Some(n) = req.under {
        q = q.under(n);
    }
    if let Some(u) = user.as_ref() {
        q = q.as_user(u);
    }
    q = q.limit(req.limit.unwrap_or(default_limit));
    q = q.strategy(Strategy::from(req.strategy.unwrap_or(default_strategy)));
    // Validated even though the protocol boundary already screens vectors:
    // this is the last line of defence in front of the distance kernels.
    let (hits, stats) = q.try_run()?;
    Ok(CachedResult { hits, stats })
}

fn results_response(epoch: u64, cached: bool, result: &CachedResult) -> Response {
    Response::Results {
        epoch,
        cached,
        trace_id: None,
        trace: None,
        hits: result
            .hits
            .iter()
            .map(|h| Hit {
                video: h.shot.video,
                shot: h.shot.shot,
                distance: h.distance,
            })
            .collect(),
        stats: result.stats.into(),
    }
}
