//! The lease-based job queue over the durable jobs log.
//!
//! Single-writer state machine: every mutating call appends one
//! [`JobOp`] record to the log *before* mutating in-memory state, so the
//! queue recovered from the log after a crash is exactly the queue that
//! acknowledged those calls. Time never comes from the wall clock — every
//! call takes the caller's `now_ms`, which makes lease expiry, retry
//! backoff and the chaos tests deterministic under a pinned clock.
//!
//! Lease discipline:
//!
//! * [`JobQueue::claim`] hands the lowest-id runnable job to a worker for
//!   `lease_ttl_ms`; an expired lease observed during a claim is counted
//!   and the job handed over, to be run again from the start.
//! * Every holder-side call ([`JobQueue::heartbeat`],
//!   [`JobQueue::complete`], [`JobQueue::fail`]) is fenced: a worker whose
//!   lease was taken over gets [`JobError::LeaseLost`] and must abandon the
//!   job.
//! * Attempts are bounded by [`crate::BackoffPolicy::max_attempts`]; an
//!   explicit failure re-queues with seeded-jitter backoff, and
//!   exhaustion parks the job terminally failed.

use crate::log::{JobKind, JobLogRecord, JobOp, JOB_LOG_FILE};
use crate::BackoffPolicy;
use medvid_store::{scan_log, FsyncPolicy, LogWriter, TailFault};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Queue-assigned job identifier (dense, starting at 1).
pub type JobId = u64;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting to be claimed (no earlier than `not_before_ms`).
    Queued {
        /// Earliest claimable instant (backoff), wall-clock ms.
        not_before_ms: u64,
    },
    /// Held by a worker until the lease expires.
    Leased {
        /// The holder.
        worker: String,
        /// Expiry instant, wall-clock ms.
        lease_until_ms: u64,
    },
    /// Finished successfully; kept for status queries.
    Completed,
    /// Retries exhausted; kept for status queries.
    Failed {
        /// The final attempt's error.
        error: String,
    },
}

#[derive(Debug, Clone)]
struct JobEntry {
    kind: JobKind,
    phase: JobPhase,
    attempts: u32,
    last_error: Option<String>,
}

/// Tuning for one queue instance.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// How long a claim holds the job without a heartbeat, in ms.
    pub lease_ttl_ms: u64,
    /// Retry budget and backoff schedule.
    pub backoff: BackoffPolicy,
    /// Fsync policy for the jobs log.
    pub fsync: FsyncPolicy,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            lease_ttl_ms: 5_000,
            backoff: BackoffPolicy::default(),
            fsync: FsyncPolicy::Always,
        }
    }
}

/// What recovery found in the jobs log.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecovery {
    /// Records replayed from the valid prefix.
    pub records: u64,
    /// Bytes of torn/corrupt tail truncated.
    pub discarded_bytes: u64,
    /// Why the scan stopped early, if it did.
    pub fault: Option<TailFault>,
    /// Leases held at crash time that were released back to the queue
    /// (each such job becomes claimable exactly once).
    pub released: u64,
}

/// A successful claim: the job and which attempt this is.
#[derive(Debug, Clone, PartialEq)]
pub struct LeasedJob {
    /// The claimed job.
    pub id: JobId,
    /// What to do.
    pub kind: JobKind,
    /// 1-based attempt number this lease begins.
    pub attempt: u32,
}

/// Point-in-time status of one job, for listings and the wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatusView {
    /// The job.
    pub id: JobId,
    /// Kind name (`compaction`).
    pub kind: String,
    /// Phase name (`queued` / `leased` / `completed` / `failed`).
    pub state: String,
    /// Leases taken so far.
    pub attempts: u32,
    /// Most recent error, if any.
    pub error: Option<String>,
    /// Current holder, when leased.
    pub worker: Option<String>,
}

/// Aggregate queue counters (phase counts are current, the rest are
/// lifetime totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Jobs waiting to run.
    pub queued: u64,
    /// Jobs currently held by a worker.
    pub leased: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs terminally failed.
    pub failed: u64,
    /// Attempts re-queued after an explicit failure.
    pub retries: u64,
    /// Leases observed expired and handed to another worker.
    pub lease_expiries: u64,
}

/// Errors from fenced holder-side calls.
#[derive(Debug)]
pub enum JobError {
    /// No job with that id exists.
    UnknownJob(JobId),
    /// The caller no longer holds the job's lease (expired and re-claimed,
    /// or never held) — it must abandon the job.
    LeaseLost {
        /// The contested job.
        job: JobId,
        /// The rejected caller.
        worker: String,
    },
    /// The job is already completed or terminally failed.
    Terminal(JobId),
    /// Appending to the jobs log failed.
    Io(io::Error),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::UnknownJob(job) => write!(f, "unknown job {job}"),
            JobError::LeaseLost { job, worker } => {
                write!(f, "worker {worker} lost the lease on job {job}")
            }
            JobError::Terminal(job) => write!(f, "job {job} already reached a terminal state"),
            JobError::Io(e) => write!(f, "jobs log I/O failure: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<io::Error> for JobError {
    fn from(e: io::Error) -> Self {
        JobError::Io(e)
    }
}

/// The durable lease-based job queue.
#[derive(Debug)]
pub struct JobQueue {
    config: QueueConfig,
    log: Option<LogWriter<JobLogRecord>>,
    next_seq: u64,
    next_id: JobId,
    entries: BTreeMap<JobId, JobEntry>,
    retries: u64,
    lease_expiries: u64,
}

impl JobQueue {
    /// A volatile queue with no log — for tests and ephemeral servers.
    #[must_use]
    pub fn in_memory(config: QueueConfig) -> Self {
        JobQueue {
            config,
            log: None,
            next_seq: 1,
            next_id: 1,
            entries: BTreeMap::new(),
            retries: 0,
            lease_expiries: 0,
        }
    }

    /// Opens (or creates) the durable queue whose log lives in `dir` as
    /// [`JOB_LOG_FILE`]. Replays the valid prefix, truncates any torn
    /// tail (a torn header is rebuilt) and releases crashed holders' leases
    /// back to the queue exactly once.
    ///
    /// # Errors
    /// Propagates I/O failures. A file that does not start with the jobs
    /// magic is refused with `InvalidData` and left untouched, as the
    /// store refuses a foreign WAL. Other damaged log *contents* are not
    /// errors — they surface in the [`JobRecovery`].
    pub fn open(dir: &Path, config: QueueConfig) -> io::Result<(Self, JobRecovery)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOB_LOG_FILE);
        let mut queue = JobQueue::in_memory(config);
        let mut report = JobRecovery {
            records: 0,
            discarded_bytes: 0,
            fault: None,
            released: 0,
        };
        match scan_log::<JobLogRecord>(&path)? {
            None => {
                queue.log = Some(LogWriter::create(&path, queue.config.fsync)?);
            }
            Some(scan) => {
                if scan.fault == Some(TailFault::BadMagic) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{} exists but does not start with the jobs magic",
                            path.display()
                        ),
                    ));
                }
                report.records = scan.records.len() as u64;
                report.discarded_bytes = scan.discarded_bytes();
                report.fault = scan.fault.clone();
                for record in &scan.records {
                    queue.next_seq = record.seq + 1;
                    queue.apply(&record.op);
                }
                for entry in queue.entries.values_mut() {
                    if let JobPhase::Leased { .. } = entry.phase {
                        entry.phase = JobPhase::Queued { not_before_ms: 0 };
                        report.released += 1;
                    }
                }
                queue.log = Some(LogWriter::open_at(
                    &path,
                    scan.valid_bytes,
                    scan.records.len() as u64,
                    queue.config.fsync,
                )?);
            }
        }
        Ok((queue, report))
    }

    /// The queue's configuration.
    #[must_use]
    pub fn config(&self) -> &QueueConfig {
        &self.config
    }

    fn log_op(&mut self, op: JobOp) -> io::Result<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(writer) = &mut self.log {
            writer.append(&[JobLogRecord { seq, op }])?;
        }
        Ok(())
    }

    /// Replays one logged transition into in-memory state. Shared by
    /// recovery and (after the log append) the live mutators, so both
    /// paths agree byte-for-byte on what each record means.
    fn apply(&mut self, op: &JobOp) {
        match op {
            JobOp::Submitted { job, kind } => {
                self.entries.insert(
                    *job,
                    JobEntry {
                        kind: kind.clone(),
                        phase: JobPhase::Queued { not_before_ms: 0 },
                        attempts: 0,
                        last_error: None,
                    },
                );
                self.next_id = self.next_id.max(job + 1);
            }
            JobOp::Leased {
                job,
                worker,
                attempt,
                lease_until_ms,
            } => {
                if let Some(entry) = self.entries.get_mut(job) {
                    entry.attempts = *attempt;
                    entry.phase = JobPhase::Leased {
                        worker: worker.clone(),
                        lease_until_ms: *lease_until_ms,
                    };
                }
            }
            JobOp::Heartbeat {
                job,
                worker,
                lease_until_ms,
            } => {
                if let Some(entry) = self.entries.get_mut(job) {
                    if let JobPhase::Leased {
                        worker: holder,
                        lease_until_ms: until,
                    } = &mut entry.phase
                    {
                        if holder == worker {
                            *until = *lease_until_ms;
                        }
                    }
                }
            }
            JobOp::Completed { job } => {
                if let Some(entry) = self.entries.get_mut(job) {
                    entry.phase = JobPhase::Completed;
                }
            }
            JobOp::Failed {
                job,
                error,
                retry_at_ms,
            } => {
                if let Some(entry) = self.entries.get_mut(job) {
                    entry.last_error = Some(error.clone());
                    entry.phase = match retry_at_ms {
                        Some(at) => {
                            self.retries += 1;
                            JobPhase::Queued { not_before_ms: *at }
                        }
                        None => JobPhase::Failed {
                            error: error.clone(),
                        },
                    };
                }
            }
        }
    }

    /// Submits a new job, durable before it is acknowledged.
    ///
    /// # Errors
    /// Propagates jobs-log I/O failures.
    pub fn submit(&mut self, kind: JobKind, _now_ms: u64) -> io::Result<JobId> {
        let job = self.next_id;
        let op = JobOp::Submitted { job, kind };
        self.log_op(op.clone())?;
        self.apply(&op);
        Ok(job)
    }

    /// Hands the lowest-id runnable job to `worker` for `lease_ttl_ms`.
    /// An expired lease encountered on the way is counted and the job
    /// re-leased; a job whose attempts are exhausted is parked terminally
    /// failed instead of handed out.
    ///
    /// # Errors
    /// Propagates jobs-log I/O failures.
    pub fn claim(&mut self, worker: &str, now_ms: u64) -> io::Result<Option<LeasedJob>> {
        let ids: Vec<JobId> = self.entries.keys().copied().collect();
        for id in ids {
            let (runnable, expired) = match &self.entries[&id].phase {
                JobPhase::Queued { not_before_ms } => (*not_before_ms <= now_ms, false),
                JobPhase::Leased { lease_until_ms, .. } => (*lease_until_ms <= now_ms, true),
                _ => (false, false),
            };
            if !runnable {
                continue;
            }
            if expired {
                self.lease_expiries += 1;
            }
            let entry = &self.entries[&id];
            if entry.attempts >= self.config.backoff.max_attempts {
                let error = entry
                    .last_error
                    .clone()
                    .unwrap_or_else(|| "retry budget exhausted".to_string());
                let op = JobOp::Failed {
                    job: id,
                    error,
                    retry_at_ms: None,
                };
                self.log_op(op.clone())?;
                self.apply(&op);
                continue;
            }
            let attempt = entry.attempts + 1;
            let op = JobOp::Leased {
                job: id,
                worker: worker.to_string(),
                attempt,
                lease_until_ms: now_ms + self.config.lease_ttl_ms,
            };
            self.log_op(op.clone())?;
            self.apply(&op);
            return Ok(Some(LeasedJob {
                id,
                kind: self.entries[&id].kind.clone(),
                attempt,
            }));
        }
        Ok(None)
    }

    /// Checks that `worker` currently holds `job`'s lease.
    fn fence(&self, job: JobId, worker: &str) -> Result<(), JobError> {
        let entry = self
            .entries
            .get(&job)
            .ok_or(JobError::UnknownJob(job))?;
        match &entry.phase {
            JobPhase::Leased { worker: holder, .. } if holder == worker => Ok(()),
            JobPhase::Completed | JobPhase::Failed { .. } => Err(JobError::Terminal(job)),
            _ => Err(JobError::LeaseLost {
                job,
                worker: worker.to_string(),
            }),
        }
    }

    /// Extends the caller's lease to `now_ms + lease_ttl_ms`. Returns the
    /// new expiry.
    ///
    /// # Errors
    /// [`JobError::LeaseLost`] when the caller no longer holds the lease;
    /// I/O failures as [`JobError::Io`].
    pub fn heartbeat(&mut self, job: JobId, worker: &str, now_ms: u64) -> Result<u64, JobError> {
        self.fence(job, worker)?;
        let until = now_ms + self.config.lease_ttl_ms;
        let op = JobOp::Heartbeat {
            job,
            worker: worker.to_string(),
            lease_until_ms: until,
        };
        self.log_op(op.clone())?;
        self.apply(&op);
        Ok(until)
    }

    /// Marks the job finished successfully.
    ///
    /// # Errors
    /// [`JobError::LeaseLost`] when the caller no longer holds the lease;
    /// I/O failures as [`JobError::Io`].
    pub fn complete(&mut self, job: JobId, worker: &str) -> Result<(), JobError> {
        self.fence(job, worker)?;
        let op = JobOp::Completed { job };
        self.log_op(op.clone())?;
        self.apply(&op);
        Ok(())
    }

    /// Records a failed attempt. With retry budget left the job re-queues
    /// after the backoff delay for this attempt; otherwise it is parked
    /// terminally failed.
    ///
    /// # Errors
    /// [`JobError::LeaseLost`] when the caller no longer holds the lease;
    /// I/O failures as [`JobError::Io`].
    pub fn fail(
        &mut self,
        job: JobId,
        worker: &str,
        error: &str,
        now_ms: u64,
    ) -> Result<(), JobError> {
        self.fence(job, worker)?;
        let attempts = self.entries[&job].attempts;
        let retry_at_ms = if attempts < self.config.backoff.max_attempts {
            Some(now_ms + self.config.backoff.delay_ms(attempts))
        } else {
            None
        };
        let op = JobOp::Failed {
            job,
            error: error.to_string(),
            retry_at_ms,
        };
        self.log_op(op.clone())?;
        self.apply(&op);
        Ok(())
    }

    /// Forces buffered log bytes to stable storage.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn sync(&mut self) -> io::Result<()> {
        match &mut self.log {
            Some(writer) => writer.sync().map(drop),
            None => Ok(()),
        }
    }

    fn view(&self, id: JobId, entry: &JobEntry) -> JobStatusView {
        let (state, worker) = match &entry.phase {
            JobPhase::Queued { .. } => ("queued", None),
            JobPhase::Leased { worker, .. } => ("leased", Some(worker.clone())),
            JobPhase::Completed => ("completed", None),
            JobPhase::Failed { .. } => ("failed", None),
        };
        JobStatusView {
            id,
            kind: entry.kind.name().to_string(),
            state: state.to_string(),
            attempts: entry.attempts,
            error: entry.last_error.clone(),
            worker,
        }
    }

    /// Status of one job, if it exists.
    #[must_use]
    pub fn status(&self, id: JobId) -> Option<JobStatusView> {
        self.entries.get(&id).map(|e| self.view(id, e))
    }

    /// Every job in id order.
    #[must_use]
    pub fn list(&self) -> Vec<JobStatusView> {
        self.entries.iter().map(|(id, e)| self.view(*id, e)).collect()
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let mut s = QueueStats {
            retries: self.retries,
            lease_expiries: self.lease_expiries,
            ..QueueStats::default()
        };
        for entry in self.entries.values() {
            match entry.phase {
                JobPhase::Queued { .. } => s.queued += 1,
                JobPhase::Leased { .. } => s.leased += 1,
                JobPhase::Completed => s.completed += 1,
                JobPhase::Failed { .. } => s.failed += 1,
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("medvid-jobs-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> QueueConfig {
        QueueConfig {
            lease_ttl_ms: 5_000,
            ..QueueConfig::default()
        }
    }

    #[test]
    fn lifecycle_submit_claim_complete() {
        let mut q = JobQueue::in_memory(config());
        let id = q.submit(JobKind::Compaction, 0).unwrap();
        assert_eq!(q.status(id).unwrap().state, "queued");

        let lease = q.claim("w1", 10).unwrap().unwrap();
        assert_eq!(lease.id, id);
        assert_eq!(lease.attempt, 1);
        assert_eq!(q.status(id).unwrap().state, "leased");
        assert_eq!(q.status(id).unwrap().worker.as_deref(), Some("w1"));

        q.complete(id, "w1").unwrap();
        assert_eq!(q.status(id).unwrap().state, "completed");

        // A finished job never comes back.
        assert!(q.claim("w2", 20).unwrap().is_none());
        assert!(matches!(q.complete(id, "w1"), Err(JobError::Terminal(_))));
    }

    #[test]
    fn expired_lease_is_handed_over_and_fences_the_zombie() {
        let mut q = JobQueue::in_memory(config());
        let id = q.submit(JobKind::Compaction, 0).unwrap();
        q.claim("a", 0).unwrap().unwrap();

        // Lease still live: nothing to claim.
        assert!(q.claim("b", 1_000).unwrap().is_none());

        // Past the TTL the job moves to b.
        let lease = q.claim("b", 5_001).unwrap().unwrap();
        assert_eq!(lease.id, id);
        assert_eq!(lease.attempt, 2);
        assert_eq!(q.stats().lease_expiries, 1);

        // The original holder is fenced out of every holder-side call.
        assert!(matches!(
            q.heartbeat(id, "a", 5_002),
            Err(JobError::LeaseLost { .. })
        ));
        assert!(matches!(
            q.fail(id, "a", "late", 5_002),
            Err(JobError::LeaseLost { .. })
        ));
        assert!(matches!(q.complete(id, "a"), Err(JobError::Terminal(_)) | Err(JobError::LeaseLost { .. })));
        // ...while the new holder proceeds.
        q.complete(id, "b").unwrap();
    }

    #[test]
    fn heartbeat_extends_the_lease() {
        let mut q = JobQueue::in_memory(config());
        let id = q.submit(JobKind::Compaction, 0).unwrap();
        q.claim("a", 0).unwrap().unwrap();
        assert_eq!(q.heartbeat(id, "a", 4_000).unwrap(), 9_000);
        // At 5_001 the original lease would have expired; the heartbeat
        // kept it alive.
        assert!(q.claim("b", 5_001).unwrap().is_none());
        assert!(q.claim("b", 9_001).unwrap().is_some());
    }

    #[test]
    fn explicit_failure_requeues_after_the_backoff_delay() {
        let mut q = JobQueue::in_memory(config());
        let id = q.submit(JobKind::Compaction, 0).unwrap();
        q.claim("a", 0).unwrap().unwrap();
        q.fail(id, "a", "transient", 100).unwrap();

        let delay = q.config().backoff.delay_ms(1);
        assert!(delay > 0);
        // Not claimable before the backoff expires...
        assert!(q.claim("a", 100 + delay - 1).unwrap().is_none());
        // ...claimable exactly at it.
        let lease = q.claim("a", 100 + delay).unwrap().unwrap();
        assert_eq!(lease.attempt, 2);
        assert_eq!(q.stats().retries, 1);
        assert_eq!(q.status(id).unwrap().error.as_deref(), Some("transient"));
    }

    #[test]
    fn retry_budget_exhaustion_parks_the_job_failed() {
        let mut q = JobQueue::in_memory(config());
        let max = q.config().backoff.max_attempts;
        let id = q.submit(JobKind::Compaction, 0).unwrap();
        let mut now = 0u64;
        for _ in 0..max {
            let lease = q.claim("a", now).unwrap().unwrap();
            assert_eq!(lease.id, id);
            q.fail(id, "a", "still broken", now).unwrap();
            now += 1_000_000; // far past any backoff
        }
        // The final fail had no budget left → terminal; nothing to claim.
        assert!(q.claim("a", now).unwrap().is_none());
        let view = q.status(id).unwrap();
        assert_eq!(view.state, "failed");
        assert_eq!(view.attempts, max);
        assert_eq!(q.stats().failed, 1);
        assert_eq!(q.stats().retries, u64::from(max) - 1);
    }

    #[test]
    fn expired_leases_also_consume_the_retry_budget() {
        let mut q = JobQueue::in_memory(config());
        let max = q.config().backoff.max_attempts;
        let id = q.submit(JobKind::Compaction, 0).unwrap();
        let mut now = 0u64;
        for attempt in 1..=max {
            let lease = q.claim("a", now).unwrap().unwrap();
            assert_eq!(lease.attempt, attempt);
            now += q.config().lease_ttl_ms + 1; // let every lease rot
        }
        // All leases expired without progress: the next claim parks it.
        assert!(q.claim("a", now).unwrap().is_none());
        assert_eq!(q.status(id).unwrap().state, "failed");
        assert_eq!(q.stats().lease_expiries, u64::from(max) - 1 + 1);
    }

    #[test]
    fn durable_queue_survives_reopen_and_releases_leases_exactly_once() {
        let dir = scratch("reopen");
        {
            let (mut q, report) = JobQueue::open(&dir, config()).unwrap();
            assert_eq!(report.records, 0);
            let done = q.submit(JobKind::Compaction, 0).unwrap();
            q.claim("a", 0).unwrap();
            q.complete(done, "a").unwrap();
            let stuck = q.submit(JobKind::Compaction, 0).unwrap();
            let lease = q.claim("a", 10).unwrap().unwrap();
            assert_eq!(lease.id, stuck);
            // Crash: q dropped while `stuck` is leased.
        }
        let (mut q, report) = JobQueue::open(&dir, config()).unwrap();
        assert_eq!(report.released, 1);
        assert_eq!(report.fault, None);
        assert_eq!(q.stats().completed, 1);
        assert_eq!(q.stats().queued, 1);

        // The released job is handed out again...
        let lease = q.claim("b", 0).unwrap().unwrap();
        assert_eq!(lease.id, 2);
        assert_eq!(lease.attempt, 2);
        // ...and only one claimable copy exists.
        assert!(q.claim("c", 0).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claims_hand_out_lowest_id_first() {
        let mut q = JobQueue::in_memory(config());
        let a = q.submit(JobKind::Compaction, 0).unwrap();
        let b = q.submit(JobKind::Compaction, 0).unwrap();
        assert_eq!(q.claim("w", 0).unwrap().unwrap().id, a);
        assert_eq!(q.claim("w", 0).unwrap().unwrap().id, b);
    }
}
