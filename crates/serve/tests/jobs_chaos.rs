//! Chaos suite for the durable job queue + worker: workers die holding a
//! compaction job's lease, leases expire, a successor takes over — and the
//! index must end up as if one worker had run the job once.
//!
//! Each case ingests seeded batches into a [`DbService`] (the batches
//! after the first are drift), opens a **durable** queue on disk and
//! submits one compaction job. Each doomed worker claims the job straight
//! from the queue and never completes it — what a dead worker thread
//! looks like to the queue — and may first run the compaction itself
//! (published, never completed). The fake clock then jumps past the
//! lease TTL. After the survivor's [`jobs::run_one`] the suite asserts
//! zero drift, exactly the ingested records, flat answers equal to a
//! from-scratch build, one lease expiry per takeover, one completed job,
//! and that the completed state survives reopening the jobs log.
//!
//! Failures print a one-line `MEDVID_TESTKIT_SEED=…` reproduction;
//! `scripts/check.sh --jobs-chaos` drives this file under a rotating
//! seed.

use medvid_index::{ShotRef, Strategy, VideoDatabase};
use medvid_jobs::{JobKind, JobQueue, QueueConfig};
use medvid_obs::Recorder;
use medvid_serve::{jobs, DbService, IngestShot, JobWorkerCtx};
use medvid_testkit::{forall, require, NoShrink, TkRng};
use medvid_types::{EventKind, ShotId, VideoId};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const DIMS: usize = 266;
const LEASE_TTL_MS: u64 = 5_000;
const LIMIT: usize = 5;

fn scratch(tag: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("medvid-serve-chaos-{}-{tag:016x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[derive(Debug, Clone)]
struct Chaos {
    /// Unique per-case scratch-dir tag.
    tag: u64,
    /// Every shot, in ingest order.
    shots: Vec<IngestShot>,
    /// Batch sizes partitioning `shots`; at least two, so the batches
    /// after the first leave drift for the compaction to fold.
    batches: Vec<usize>,
    /// One entry per doomed worker: whether it runs the compaction before
    /// it vanishes (published, never completed).
    doomed: Vec<bool>,
    /// Probe vectors the final index must answer like a fresh build.
    probes: Vec<Vec<f32>>,
}

fn gen_chaos(rng: &mut TkRng) -> Chaos {
    let scenes = VideoDatabase::medical().hierarchy().scene_nodes();
    let n = rng.usize_in(6, 30);
    let shots = (0..n)
        .map(|i| IngestShot {
            video: VideoId(rng.usize_in(1, 3)),
            shot: ShotId(i),
            features: (0..DIMS).map(|_| rng.f32_in(0.0, 1.0)).collect(),
            event: EventKind::DETERMINATE[rng.usize_in(0, 2)],
            scene_node: *rng.pick(&scenes),
        })
        .collect();
    let mut batches = vec![rng.usize_in(1, n - 1)];
    let mut left = n - batches[0];
    while left > 0 {
        let take = rng.usize_in(1, left.min(7));
        batches.push(take);
        left -= take;
    }
    // Every takeover consumes one attempt from the retry budget
    // (max_attempts = 4 by default), so at most 3 workers may die and
    // still leave the survivor a claim.
    let doomed = (0..rng.usize_in(1, 3)).map(|_| rng.bool_p(0.5)).collect();
    let probes = (0..3)
        .map(|_| (0..DIMS).map(|_| rng.f32_in(0.0, 1.0)).collect())
        .collect();
    Chaos {
        tag: rng.next_u64(),
        shots,
        batches,
        doomed,
        probes,
    }
}

/// Flat top-[`LIMIT`] answer for `probe` as `(video, shot, distance
/// bits)` — the bit-exact comparison key.
fn flat_answer(db: &VideoDatabase, probe: &[f32]) -> Vec<(usize, usize, u32)> {
    let (hits, _) = db
        .query()
        .similar_to(probe.to_vec())
        .limit(LIMIT)
        .strategy(Strategy::Flat)
        .try_run()
        .expect("probe vectors are finite and correctly sized");
    hits.iter()
        .map(|h| (h.shot.video.0, h.shot.shot.0, h.distance.to_bits()))
        .collect()
}

fn fresh_build(shots: &[IngestShot]) -> VideoDatabase {
    let mut db = VideoDatabase::medical();
    for s in shots {
        let shot = ShotRef {
            video: s.video,
            shot: s.shot,
        };
        db.try_insert_shot(shot, s.features.clone(), s.event, s.scene_node)
            .expect("generated shots are valid");
    }
    db.build();
    db
}

#[test]
fn killed_workers_hand_over_without_losing_or_duplicating_records() {
    forall(
        "chaos: seeded worker kills, TTL handover, exactly-once compaction effects",
        |rng| NoShrink(gen_chaos(rng)),
        |NoShrink(case)| {
            let service = DbService::new(VideoDatabase::medical(), Recorder::disabled());
            let mut start = 0;
            for &size in &case.batches {
                service
                    .ingest(&case.shots[start..start + size])
                    .map_err(|e| format!("ingest: {e}"))?;
                start += size;
            }
            require!(service.drift() > 0, "the batches left no drift to fold");

            let dir = scratch(case.tag);
            let config = QueueConfig {
                lease_ttl_ms: LEASE_TTL_MS,
                ..QueueConfig::default()
            };
            let (queue, _) = JobQueue::open(&dir, config).map_err(|e| format!("open: {e}"))?;
            let queue = Mutex::new(queue);
            let id = queue
                .lock()
                .submit(JobKind::Compaction, 0)
                .map_err(|e| format!("submit: {e}"))?;

            for (k, &compacts) in case.doomed.iter().enumerate() {
                // Each claim comes one TTL after the last: the clock
                // jumping past the dead worker's lease lets it succeed.
                let at = k as u64 * (LEASE_TTL_MS + 1);
                let lease = queue
                    .lock()
                    .claim(&format!("doomed-{k}"), at)
                    .map_err(|e| format!("claim: {e}"))?;
                require!(
                    lease.map(|l| l.id) == Some(id),
                    "doomed worker {k} failed to claim the job"
                );
                if compacts {
                    service.compact().map_err(|e| format!("compact: {e}"))?;
                }
            }

            let takeovers = case.doomed.len() as u64;
            let drift_at_handover = service.drift();
            let recorder = Recorder::disabled();
            let compactions = AtomicU64::new(0);
            let now = takeovers * (LEASE_TTL_MS + 1);
            let clock = move || now;
            let survivor = JobWorkerCtx {
                service: &service,
                queue: &queue,
                worker: "survivor",
                clock: &clock,
                recorder: &recorder,
                compactions: &compactions,
            };
            require!(
                jobs::run_one(&survivor) == Some(id),
                "survivor failed to claim the expired lease"
            );

            let view = queue.lock().status(id).ok_or("job vanished")?;
            require!(
                view.state == "completed",
                "job ended {} (error {:?}) after {} takeovers",
                view.state,
                view.error,
                takeovers
            );
            require!(service.drift() == 0, "drift {} survived", service.drift());
            require!(
                compactions.load(Ordering::Relaxed) == u64::from(drift_at_handover > 0),
                "survivor published {} compactions over a drift of {drift_at_handover}",
                compactions.load(Ordering::Relaxed)
            );
            let served = service.snapshot();
            require!(
                served.db.len() == case.shots.len(),
                "index holds {} records, expected exactly {} (lost or duplicated work)",
                served.db.len(),
                case.shots.len()
            );
            let reference = fresh_build(&case.shots);
            for (p, probe) in case.probes.iter().enumerate() {
                let got = flat_answer(&served.db, probe);
                let want = flat_answer(&reference, probe);
                require!(got == want, "probe {p}: {got:?} != fresh build {want:?}");
            }
            let stats = queue.lock().stats();
            require!(
                stats.lease_expiries == takeovers,
                "{} lease expiries recorded for {} takeovers",
                stats.lease_expiries,
                takeovers
            );
            require!(stats.completed == 1, "completed count {}", stats.completed);

            // Crash-restart coverage: the finished state must survive
            // closing and reopening the on-disk log.
            queue.lock().sync().map_err(|e| format!("sync: {e}"))?;
            drop(queue);
            let (reopened, recovery) =
                JobQueue::open(&dir, QueueConfig::default()).map_err(|e| format!("reopen: {e}"))?;
            require!(
                recovery.released == 0,
                "reopen released {} leases of a finished queue",
                recovery.released
            );
            let persisted = reopened.status(id).ok_or("job lost across reopen")?;
            require!(
                persisted.state == "completed",
                "reopened job is {}",
                persisted.state
            );

            let _ = std::fs::remove_dir_all(&dir);
            Ok(())
        },
    );
}
