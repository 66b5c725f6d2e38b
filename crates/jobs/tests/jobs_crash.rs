//! Crash-consistency properties for the jobs log, mirroring the store's
//! `crash_consistency.rs`: a log torn at *every possible byte offset*
//! must recover without panicking to the replay of some valid prefix —
//! a completed job stays completed (its effects are never re-run) and an
//! incomplete job is released back to the queue **exactly once**.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_jobs::{JobKind, JobLogRecord, JobOp, JobQueue, QueueConfig, JOB_LOG_FILE, JOB_MAGIC};
use medvid_store::{crc32, encode_record, scan_bytes, TailFault};
use medvid_testkit::{forall, require, NoShrink};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("medvid-jobs-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a jobs log with a rich history: one completed job (with a
/// heartbeat), one job re-queued after a failed attempt, one mid-flight
/// leased job, one queued job. Returns the raw log bytes.
fn seeded_log(dir: &Path) -> Vec<u8> {
    let (mut q, _) = JobQueue::open(dir, QueueConfig::default()).unwrap();
    let done = q.submit(JobKind::Compaction, 0).unwrap();
    q.claim("w-done", 0).unwrap().unwrap();
    q.heartbeat(done, "w-done", 1_000).unwrap();
    q.complete(done, "w-done").unwrap();

    let retried = q.submit(JobKind::Compaction, 5).unwrap();
    q.claim("w-retry", 5).unwrap().unwrap();
    q.fail(retried, "w-retry", "transient", 6).unwrap();

    let midflight = q.submit(JobKind::Compaction, 10).unwrap();
    assert_eq!(q.claim("w-mid", 10).unwrap().unwrap().id, midflight);
    q.heartbeat(midflight, "w-mid", 2_000).unwrap();

    let _queued = q.submit(JobKind::Compaction, 20).unwrap();
    q.sync().unwrap();
    std::fs::read(dir.join(JOB_LOG_FILE)).unwrap()
}

/// Recovery from a prefix of the log must be the replay of exactly that
/// prefix: completed stays completed, the leased job is released once.
#[test]
fn torn_at_every_byte_offset_recovers_a_valid_prefix() {
    let dir = scratch("torn");
    let full = seeded_log(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    for cut in 0..=full.len() {
        let torn = &full[..cut];
        let expected = scan_bytes::<JobLogRecord>(torn);
        assert_eq!(
            expected.valid_bytes + expected.discarded_bytes(),
            cut as u64,
            "prefix accounting must cover every byte at cut {cut}"
        );
        // A cut on a frame boundary past the header is clean; anywhere
        // else must be classified as damage.
        if cut < JOB_MAGIC.len() {
            assert!(expected.fault.is_some(), "short header at cut {cut}");
        } else if expected.discarded_bytes() == 0 {
            assert!(expected.fault.is_none(), "clean cut {cut} reported a fault");
        } else {
            assert!(
                matches!(expected.fault, Some(TailFault::TornRecord { .. })),
                "mid-frame cut {cut} must be a torn record, got {:?}",
                expected.fault
            );
        }

        // Reopen a directory holding exactly the torn bytes.
        let case_dir = scratch(&format!("torn-{cut}"));
        std::fs::create_dir_all(&case_dir).unwrap();
        std::fs::write(case_dir.join(JOB_LOG_FILE), torn).unwrap();
        let opened = JobQueue::open(&case_dir, QueueConfig::default());
        if cut < JOB_MAGIC.len() {
            // Truncated/absent header: recovery starts from nothing, and
            // the rebuilt header keeps a job acknowledged afterwards.
            let (mut q, report) = opened.unwrap();
            assert_eq!(report.records, 0);
            assert!(q.list().is_empty());
            let id = q.submit(JobKind::Compaction, 0).unwrap();
            q.sync().unwrap();
            drop(q);
            let (q2, r2) = JobQueue::open(&case_dir, QueueConfig::default()).unwrap();
            assert_eq!(r2.fault, None, "cut {cut}: reopen after a torn header");
            assert!(q2.status(id).is_some(), "cut {cut}: acked job lost");
            let _ = std::fs::remove_dir_all(&case_dir);
            continue;
        }
        let (mut q, report) = opened.unwrap();
        assert_eq!(report.records, expected.records.len() as u64);
        assert_eq!(report.discarded_bytes, expected.discarded_bytes());

        // Exactly-once release: at most one lease existed in any prefix,
        // and every completed job in the prefix stays completed.
        assert!(report.released <= 1, "cut {cut}: released {}", report.released);
        let stats = q.stats();
        assert_eq!(
            stats.leased,
            0,
            "cut {cut}: no lease survives recovery"
        );

        // Drain the queue: each recovered runnable job is claimable once,
        // and a second pass finds nothing — no duplicated work.
        let mut leased = Vec::new();
        while let Some(l) = q.claim("post-crash", 1_000_000).unwrap() {
            leased.push(l);
        }
        assert_eq!(
            leased.len() as u64,
            stats.queued,
            "cut {cut}: every queued job claimable exactly once"
        );
        assert!(q.claim("post-crash-2", 1_000_000).unwrap().is_none());
        // After a clean full-log recovery the completed job is still done.
        if cut == full.len() {
            assert_eq!(stats.completed, 1);
            assert_eq!(q.status(1).unwrap().state, "completed");
        }

        // The truncated tail is gone: a fresh append then reopen is clean.
        let id = q.submit(JobKind::Compaction, 0).unwrap();
        drop(q);
        let (q2, r2) = JobQueue::open(&case_dir, QueueConfig::default()).unwrap();
        assert_eq!(r2.fault, None, "cut {cut}: reopen after truncate+append");
        assert!(q2.status(id).is_some());
        let _ = std::fs::remove_dir_all(&case_dir);
    }
}

/// Seeded corruption (bit flips, garbage splices, truncation) anywhere in
/// the log must never panic recovery, and replay must stop at the first
/// damaged frame. A damaged magic is refused and the file left untouched.
#[test]
fn corrupted_log_never_panics_recovery() {
    let dir = scratch("corrupt-base");
    let full = seeded_log(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let base = scan_bytes::<JobLogRecord>(&full).records.len();

    forall(
        "bit-flips and garbage in the jobs log recover to a valid prefix",
        |rng| {
            let flips = rng.usize_in(1, 6);
            let seed = rng.next_u64();
            NoShrink((flips, seed))
        },
        |input| {
            let (flips, seed) = input.0;
            // Seeded damage: flip bits at deterministic offsets, optionally
            // append garbage (a torn final write).
            let mut mauled = full.clone();
            let mut state = seed;
            for _ in 0..flips {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let off = (state >> 16) as usize % mauled.len();
                let bit = (state >> 8) % 8;
                mauled[off] ^= 1 << bit;
            }
            if state % 3 == 0 {
                mauled.extend((0..(state % 97) as usize).map(|i| (state >> (i % 56)) as u8));
            }
            if state % 5 == 0 {
                // One case in five damages the magic itself.
                mauled[(state >> 24) as usize % JOB_MAGIC.len()] ^= 1 << ((state >> 40) % 8);
            }

            let scan = scan_bytes::<JobLogRecord>(&mauled);
            require!(
                scan.records.len() <= base,
                "corruption invented records: {} > {base}",
                scan.records.len()
            );
            // Whatever survives must be a prefix of the original history
            // (bit flips cannot forge a CRC here, they only truncate).
            let original = scan_bytes::<JobLogRecord>(&full);
            for (got, want) in scan.records.iter().zip(original.records.iter()) {
                require!(
                    got == want,
                    "recovered record diverges from the original history"
                );
            }
            let case_dir = scratch(&format!("corrupt-{seed:x}"));
            std::fs::create_dir_all(&case_dir).unwrap();
            let path = case_dir.join(JOB_LOG_FILE);
            std::fs::write(&path, &mauled).unwrap();
            let opened = JobQueue::open(&case_dir, QueueConfig::default());
            if mauled[..JOB_MAGIC.len()] != JOB_MAGIC {
                // Not a jobs log any more: refused and left as evidence,
                // like the store's `Corrupt` on a foreign WAL.
                let left = std::fs::read(&path).unwrap();
                let _ = std::fs::remove_dir_all(&case_dir);
                require!(opened.is_err(), "a log with a bad magic was opened");
                require!(left == mauled, "a refused log was modified");
                return Ok(());
            }
            let (q, report) = opened.map_err(|e| format!("recovery I/O error: {e}"))?;
            require!(
                report.records == scan.records.len() as u64,
                "queue replayed {} records, scan saw {}",
                report.records,
                scan.records.len()
            );
            require!(report.released <= 1, "released {} leases", report.released);
            let _ = q;
            let _ = std::fs::remove_dir_all(&case_dir);
            Ok(())
        },
    );
}

/// Logs from builds that queued ingest jobs may hold an `ingest`
/// submission or a `step` checkpoint. Neither decodes any more: recovery
/// must keep the records before the first such frame, report it as a
/// typed `BadPayload` and truncate from there.
#[test]
fn retired_ingest_and_step_records_end_recovery_typed() {
    let submitted = |seq: u64| {
        let op = JobOp::Submitted {
            job: seq,
            kind: JobKind::Compaction,
        };
        encode_record(&JobLogRecord { seq, op }).unwrap()
    };
    for (i, payload) in [
        r#"{"seq":2,"op":{"op":"submitted","job":2,"kind":{"type":"ingest","shots":[]}}}"#,
        r#"{"seq":2,"op":{"op":"step","job":1,"step":0,"cursor":64}}"#,
    ]
    .iter()
    .enumerate()
    {
        let mut bytes = JOB_MAGIC.to_vec();
        bytes.extend_from_slice(&submitted(1));
        let prefix = bytes.len() as u64;
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&crc32(payload.as_bytes()).to_be_bytes());
        bytes.extend_from_slice(payload.as_bytes());
        bytes.extend_from_slice(&submitted(3));
        let dir = scratch(&format!("retired-{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOB_LOG_FILE), &bytes).unwrap();

        let (mut q, report) = JobQueue::open(&dir, QueueConfig::default()).unwrap();
        assert_eq!(report.records, 1, "{payload}");
        assert!(
            matches!(report.fault, Some(TailFault::BadPayload { offset, .. }) if offset == prefix),
            "{payload}: {:?}",
            report.fault
        );
        assert_eq!(report.discarded_bytes, bytes.len() as u64 - prefix);
        assert_eq!(q.claim("w", 0).unwrap().unwrap().id, 1);
        assert!(q.claim("w", 0).unwrap().is_none());

        // The log was cut at the retired frame and reopens clean.
        drop(q);
        let (_, report) = JobQueue::open(&dir, QueueConfig::default()).unwrap();
        assert_eq!((report.fault, report.released), (None, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
