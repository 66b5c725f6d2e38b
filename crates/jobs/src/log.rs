//! The records of the checksummed append-only jobs log.
//!
//! The log itself is the store's framed log (`medvid_store::wal`): an
//! 8-byte magic header, then `[len u32 BE][crc32 u32 BE][JSON payload]`
//! frames with strictly increasing 1-based sequence numbers, scanned by
//! [`medvid_store::scan_log`] and appended by [`medvid_store::LogWriter`].
//! [`JobLogRecord`] is a second record type on it, so a torn jobs log
//! recovers exactly like the shot WAL: the longest valid prefix survives,
//! the rest is truncated, and damage is a typed [`medvid_store::TailFault`].

use medvid_store::{Framed, StoredShot};
use serde::{Deserialize, Serialize};

/// Magic bytes opening every jobs log (distinct from `WAL_MAGIC` so a
/// mis-pointed open fails fast with `BadMagic`).
pub const JOB_MAGIC: [u8; 8] = *b"MVJOBS\x00\x01";

/// File name of the jobs log inside a store directory.
pub const JOB_LOG_FILE: &str = "jobs.log";

/// What a job does when a worker runs it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum JobKind {
    /// Re-run PCS/merge over the drifted index and publish the rebuilt
    /// hierarchy as one epoch bump.
    Compaction,
    /// Index a batch of mined shots incrementally, in checkpointed chunks.
    Ingest {
        /// The shots to index, in submission order.
        shots: Vec<StoredShot>,
    },
}

impl JobKind {
    /// Short stable name for metrics and status listings.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Compaction => "compaction",
            JobKind::Ingest { .. } => "ingest",
        }
    }
}

/// One logged job-state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum JobOp {
    /// A new job entered the queue.
    Submitted {
        /// Queue-assigned job id.
        job: u64,
        /// What the job does.
        kind: JobKind,
        /// Pipeline version the job was submitted under; checkpoints from
        /// a different version are discarded on recovery.
        pipeline_version: u32,
    },
    /// A worker acquired (or re-acquired) the job's lease.
    Leased {
        /// The leased job.
        job: u64,
        /// Claiming worker's name.
        worker: String,
        /// 1-based attempt number this lease begins.
        attempt: u32,
        /// Wall-clock milliseconds when the lease expires.
        lease_until_ms: u64,
    },
    /// The holder extended its lease.
    Heartbeat {
        /// The job being kept alive.
        job: u64,
        /// The heartbeating worker.
        worker: String,
        /// New expiry in wall-clock milliseconds.
        lease_until_ms: u64,
    },
    /// The holder finished a resumable unit of work.
    Step {
        /// The checkpointed job.
        job: u64,
        /// 0-based step index just completed.
        step: u32,
        /// Opaque progress cursor (for ingest: shots applied so far).
        cursor: u64,
    },
    /// The job finished successfully; its effects are durable elsewhere.
    Completed {
        /// The finished job.
        job: u64,
    },
    /// An attempt failed. With `retry_at_ms` the job re-queues no earlier
    /// than that instant; without it the job is terminally failed.
    Failed {
        /// The failed job.
        job: u64,
        /// Why the attempt failed.
        error: String,
        /// Earliest re-queue time, or `None` when retries are exhausted.
        retry_at_ms: Option<u64>,
    },
}

impl JobOp {
    /// The job id this transition applies to.
    #[must_use]
    pub fn job(&self) -> u64 {
        match self {
            JobOp::Submitted { job, .. }
            | JobOp::Leased { job, .. }
            | JobOp::Heartbeat { job, .. }
            | JobOp::Step { job, .. }
            | JobOp::Completed { job }
            | JobOp::Failed { job, .. } => *job,
        }
    }
}

/// One framed record: a sequence number and the transition it carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobLogRecord {
    /// 1-based, strictly increasing.
    pub seq: u64,
    /// The transition.
    pub op: JobOp,
}

impl Framed for JobLogRecord {
    const MAGIC: [u8; 8] = JOB_MAGIC;

    fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvid_store::{encode_record, scan_bytes, TailFault};

    fn rec(seq: u64) -> JobLogRecord {
        JobLogRecord {
            seq,
            op: JobOp::Completed { job: seq },
        }
    }

    #[test]
    fn roundtrips_records_through_bytes() {
        let mut bytes = JOB_MAGIC.to_vec();
        for seq in 1..=3 {
            bytes.extend_from_slice(&encode_record(&rec(seq)).unwrap());
        }
        let scan = scan_bytes::<JobLogRecord>(&bytes);
        assert!(scan.fault.is_none());
        assert_eq!(scan.records, vec![rec(1), rec(2), rec(3)]);
        assert_eq!(scan.valid_bytes, scan.total_bytes);
    }

    #[test]
    fn rejects_wal_magic_as_bad_magic() {
        let bytes = medvid_store::WAL_MAGIC.to_vec();
        let scan = scan_bytes::<JobLogRecord>(&bytes);
        assert_eq!(scan.fault, Some(TailFault::BadMagic));
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let mut bytes = JOB_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_record(&rec(1)).unwrap());
        let good = bytes.len();
        bytes.extend_from_slice(&encode_record(&rec(2)).unwrap());
        bytes.truncate(good + 5);
        let scan = scan_bytes::<JobLogRecord>(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_bytes as usize, good);
        assert!(matches!(scan.fault, Some(TailFault::TornRecord { .. })));
    }

    #[test]
    fn out_of_order_seq_stops_the_scan() {
        let mut bytes = JOB_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_record(&rec(2)).unwrap());
        bytes.extend_from_slice(&encode_record(&rec(2)).unwrap());
        let scan = scan_bytes::<JobLogRecord>(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(scan.fault, Some(TailFault::OutOfOrderSeq { .. })));
    }

    /// Queues written by earlier builds must keep opening: pins the exact
    /// bytes of one jobs-log frame.
    #[test]
    fn frame_bytes_are_pinned() {
        let record = JobLogRecord {
            seq: 3,
            op: JobOp::Submitted {
                job: 1,
                kind: JobKind::Compaction,
                pipeline_version: 2,
            },
        };
        let frame = encode_record(&record).unwrap();
        assert_eq!(frame[..8], [0x00, 0x00, 0x00, 0x5b, 0xc2, 0x61, 0xe6, 0x4f]);
        assert_eq!(
            std::str::from_utf8(&frame[8..]).unwrap(),
            r#"{"seq":3,"op":{"op":"submitted","job":1,"kind":{"type":"compaction"},"pipeline_version":2}}"#
        );
    }
}
