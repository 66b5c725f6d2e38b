//! The server-side job worker: executes queued background work against
//! the [`DbService`] under the durable job queue's TTL leases, so a
//! crashed worker's job is handed to a successor.
//!
//! One job kind exists: **compaction** — [`DbService::compact`] re-runs
//! the full PCS/merge fit over the drifted index off-lock and publishes
//! the rebuilt hierarchy as one epoch bump. The worker auto-submits one
//! whenever the serving index's drift passes
//! [`JobsConfig::drift_threshold`] and no compaction is already queued or
//! running. A successor re-runs a dead worker's compaction from the
//! start; that is safe because a compaction re-fits the same records and
//! changes none of them.
//!
//! The worker core ([`run_one`]) is a plain function over an injectable
//! clock, so the chaos suite can expire leases without sleeping.

use crate::protocol::{JobsStatus, WireJobStatus};
use crate::service::DbService;
use medvid_jobs::{BackoffPolicy, JobId, JobKind, JobQueue, JobStatusView};
use medvid_obs::{counters, values, Recorder};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Job-worker tuning.
#[derive(Debug, Clone)]
pub struct JobsConfig {
    /// How long a claim holds a job without a heartbeat.
    pub lease_ttl: Duration,
    /// Idle poll interval of the worker thread.
    pub poll: Duration,
    /// Auto-submit a compaction job once the serving index has this many
    /// appends since its last full re-fit.
    pub drift_threshold: usize,
    /// Retry budget and backoff schedule for failed jobs.
    pub backoff: BackoffPolicy,
}

impl Default for JobsConfig {
    fn default() -> Self {
        JobsConfig {
            lease_ttl: Duration::from_secs(5),
            poll: Duration::from_millis(50),
            drift_threshold: 1024,
            backoff: BackoffPolicy::default(),
        }
    }
}

/// The queue plus the worker-side counters that outlive any one job.
pub struct JobsRuntime {
    /// The shared queue; the worker thread and the dispatch path both
    /// lock it briefly (claims, submissions, status reads — never while
    /// executing a job's actual work).
    pub queue: Mutex<JobQueue>,
    /// Compaction passes published since startup.
    pub compactions: AtomicU64,
}

impl JobsRuntime {
    /// Wraps an opened queue.
    pub fn new(queue: JobQueue) -> Self {
        JobsRuntime {
            queue: Mutex::new(queue),
            compactions: AtomicU64::new(0),
        }
    }

    /// The metrics-snapshot projection: queue stats plus compaction count
    /// and the serving index's current drift.
    pub fn status(&self, drift: usize) -> JobsStatus {
        let s = self.queue.lock().stats();
        JobsStatus {
            queued: s.queued,
            leased: s.leased,
            completed: s.completed,
            failed: s.failed,
            retries: s.retries,
            lease_expiries: s.lease_expiries,
            compactions: self.compactions.load(Ordering::Relaxed),
            drift: drift as u64,
        }
    }
}

/// Projects a queue-side status view onto the wire schema.
pub fn view_to_wire(view: &JobStatusView) -> WireJobStatus {
    WireJobStatus {
        id: view.id,
        kind: view.kind.clone(),
        state: view.state.clone(),
        attempts: view.attempts,
        error: view.error.clone(),
    }
}

/// Everything one worker pass needs. Borrowed so tests can drive several
/// workers over one service/queue pair with different clocks.
pub struct JobWorkerCtx<'a> {
    /// The service jobs execute against.
    pub service: &'a DbService,
    /// The shared job queue.
    pub queue: &'a Mutex<JobQueue>,
    /// This worker's lease identity.
    pub worker: &'a str,
    /// Millisecond clock (injectable: chaos tests advance it past lease
    /// TTLs without sleeping).
    pub clock: &'a (dyn Fn() -> u64 + Sync),
    /// Counter sink.
    pub recorder: &'a Recorder,
    /// Compaction-pass counter, shared with the metrics snapshot.
    pub compactions: &'a AtomicU64,
}

/// Claims and runs at most one job. Returns the claimed job's id, or
/// `None` when nothing was runnable.
pub fn run_one(ctx: &JobWorkerCtx) -> Option<JobId> {
    let lease = match ctx.queue.lock().claim(ctx.worker, (ctx.clock)()) {
        Ok(l) => l?,
        Err(_) => return None,
    };
    match lease.kind {
        JobKind::Compaction => run_compaction(ctx, lease.id),
    }
    Some(lease.id)
}

fn run_compaction(ctx: &JobWorkerCtx, id: JobId) {
    match ctx.service.compact() {
        Ok(outcome) => {
            if outcome.is_some() {
                ctx.compactions.fetch_add(1, Ordering::Relaxed);
                ctx.recorder.incr(counters::JOBS_COMPACTIONS, 1);
            }
            // `None` (no drift, or a racing restore) completes too: the
            // job's goal — no un-folded drift from before its submission —
            // holds either way.
            finish(ctx, id, Ok(()));
        }
        Err(e) => finish(ctx, id, Err(format!("compaction checkpoint: {e}"))),
    }
}

fn finish(ctx: &JobWorkerCtx, id: JobId, result: Result<(), String>) {
    let mut queue = ctx.queue.lock();
    let now = (ctx.clock)();
    match result {
        Ok(()) => {
            if queue.complete(id, ctx.worker).is_ok() {
                ctx.recorder.incr(counters::JOBS_COMPLETED, 1);
            }
        }
        Err(e) => {
            if queue.fail(id, ctx.worker, &e, now).is_ok() {
                let view = queue.status(id);
                if view.is_some_and(|v| v.state == "failed") {
                    ctx.recorder.incr(counters::JOBS_FAILED, 1);
                } else {
                    ctx.recorder.incr(counters::JOBS_RETRIES, 1);
                }
            }
        }
    }
}

/// Auto-submits a compaction job when the serving index's drift passed
/// `threshold` and none is already queued or running. Returns the
/// submitted id, if any.
pub fn maybe_submit_compaction(
    service: &DbService,
    queue: &Mutex<JobQueue>,
    threshold: usize,
    now_ms: u64,
    recorder: &Recorder,
) -> Option<JobId> {
    if threshold == 0 || service.drift() < threshold {
        return None;
    }
    let mut queue = queue.lock();
    // Compaction is the only job kind: any unfinished job is one.
    let stats = queue.stats();
    if stats.queued + stats.leased > 0 {
        return None;
    }
    match queue.submit(JobKind::Compaction, now_ms) {
        Ok(id) => {
            recorder.incr(counters::JOBS_SUBMITTED, 1);
            Some(id)
        }
        Err(_) => None,
    }
}

/// Samples queue depth and index drift into the value histograms (one
/// worker-poll tick's observability).
pub fn sample_gauges(service: &DbService, queue: &Mutex<JobQueue>, recorder: &Recorder) {
    let stats = queue.lock().stats();
    recorder.record_value(values::JOBS_QUEUE_DEPTH, stats.queued + stats.leased);
    recorder.record_value(values::INDEX_DRIFT, service.drift() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::IngestShot;
    use medvid_index::VideoDatabase;
    use medvid_jobs::QueueConfig;
    use medvid_types::{EventKind, ShotId, VideoId};

    fn shot(i: usize, db: &VideoDatabase) -> IngestShot {
        let scenes = db.hierarchy().scene_nodes();
        let mut f = vec![0.0f32; 266];
        f[i % 266] = 1.0;
        IngestShot {
            video: VideoId(7),
            shot: ShotId(i),
            features: f,
            event: EventKind::Dialog,
            scene_node: scenes[i % scenes.len()],
        }
    }

    /// A service with `n` shots ingested: the first two build the index,
    /// the rest are appended as drift.
    fn drifted(n: usize) -> DbService {
        let service = DbService::new(VideoDatabase::medical(), Recorder::disabled());
        let shots: Vec<_> = (0..n).map(|i| shot(i, &service.snapshot().db)).collect();
        service.ingest(&shots[..2]).unwrap();
        service.ingest(&shots[2..]).unwrap();
        service
    }

    fn ctx<'a>(
        service: &'a DbService,
        queue: &'a Mutex<JobQueue>,
        worker: &'a str,
        clock: &'a (dyn Fn() -> u64 + Sync),
        recorder: &'a Recorder,
        compactions: &'a AtomicU64,
    ) -> JobWorkerCtx<'a> {
        JobWorkerCtx {
            service,
            queue,
            worker,
            clock,
            recorder,
            compactions,
        }
    }

    #[test]
    fn killed_worker_leaves_the_lease_for_a_successor_to_resume() {
        let service = drifted(8);
        let queue = Mutex::new(JobQueue::in_memory(QueueConfig::default()));
        let id = queue.lock().submit(JobKind::Compaction, 0).unwrap();
        // Worker A claims the job and dies: its lease is never serviced.
        queue.lock().claim("a", 0).unwrap().unwrap();
        let recorder = Recorder::disabled();
        let compactions = AtomicU64::new(0);

        // Inside the TTL nobody else may run it.
        let early = || 1_000u64;
        let b = ctx(&service, &queue, "b", &early, &recorder, &compactions);
        assert_eq!(run_one(&b), None);
        assert_eq!(service.drift(), 6);

        // Past the TTL, worker B takes the lease over and finishes the job.
        let late = || 10_000u64;
        let b = ctx(&service, &queue, "b", &late, &recorder, &compactions);
        assert_eq!(run_one(&b), Some(id));
        assert_eq!(queue.lock().status(id).unwrap().state, "completed");
        assert_eq!(queue.lock().stats().lease_expiries, 1);
        assert_eq!(service.drift(), 0);
        assert_eq!(service.snapshot().db.len(), 8);
    }

    #[test]
    fn drift_threshold_auto_submits_one_compaction() {
        let service = drifted(8);
        let queue = Mutex::new(JobQueue::in_memory(QueueConfig::default()));
        let recorder = Recorder::disabled();
        assert_eq!(service.drift(), 6);

        assert!(maybe_submit_compaction(&service, &queue, 4, 0, &recorder).is_some());
        // Idempotent while one is pending.
        assert!(maybe_submit_compaction(&service, &queue, 4, 0, &recorder).is_none());

        let compactions = AtomicU64::new(0);
        let clock = || 0u64;
        let c = ctx(&service, &queue, "w", &clock, &recorder, &compactions);
        run_one(&c).unwrap();
        assert_eq!(service.drift(), 0, "compaction folded the drift");
        assert_eq!(compactions.load(Ordering::Relaxed), 1);
        // Below threshold now: nothing new submitted.
        assert!(maybe_submit_compaction(&service, &queue, 4, 0, &recorder).is_none());
    }

    #[test]
    fn failing_job_is_retried_then_parked() {
        // A job whose every attempt fails is retried with backoff, then
        // parked; each outcome is counted.
        let service = DbService::new(VideoDatabase::medical(), Recorder::disabled());
        let queue = Mutex::new(JobQueue::in_memory(QueueConfig::default()));
        let id = queue.lock().submit(JobKind::Compaction, 0).unwrap();
        let recorder = Recorder::new();
        let compactions = AtomicU64::new(0);
        let counter = |name| recorder.registry().unwrap().counter(name);
        let max = queue.lock().config().backoff.max_attempts;
        for round in 0..max {
            let now = u64::from(round) * 1_000_000;
            let clock = move || now;
            let c = ctx(&service, &queue, "w", &clock, &recorder, &compactions);
            let lease = queue.lock().claim("w", now).unwrap().unwrap();
            assert_eq!(lease.id, id, "round {round} claims the job");
            finish(&c, id, Err("disk full".to_string()));
            // Every attempt but the last is retried; the last parks it.
            assert_eq!(counter(counters::JOBS_FAILED), u64::from(round + 1 == max));
        }
        let view = queue.lock().status(id).unwrap();
        assert_eq!(view.state, "failed");
        assert_eq!(view.error.as_deref(), Some("disk full"));
        assert_eq!(counter(counters::JOBS_RETRIES), u64::from(max - 1));
        assert_eq!(counter(counters::JOBS_FAILED), 1);
        assert_eq!(counter(counters::JOBS_COMPLETED), 0);
    }
}
