//! Snapshot-swapped database service, optionally backed by a durable
//! store.
//!
//! Readers never block on writers: every query clones an `Arc` to the
//! current [`DbEpoch`] under a briefly-held read lock and runs against that
//! immutable snapshot for as long as it likes. Writers rebuild a fresh
//! [`medvid_index::VideoDatabase`] off to the side (serialised by a writer
//! mutex) and atomically swap it in with a bumped epoch number. The epoch is
//! what ties the layers together — the result cache invalidates itself
//! wholesale when it observes a new epoch.
//!
//! In durable mode the writer mutex also owns a [`medvid_store::Store`].
//! Ingest order is: validate against a clone, **append to the WAL** (the
//! durability point — under `FsyncPolicy::Always` the batch has hit stable
//! storage before anything is acknowledged), then build and swap. A crash
//! after the append but before the swap is safe: recovery replays the WAL
//! and reproduces exactly the acknowledged state. Checkpoints take the
//! same writer lock so the snapshotted database always agrees with the
//! store's sequence-number watermark.

use crate::protocol::IngestShot;
use crate::trace::{
    TraceCtx, STAGE_ADMISSION, STAGE_BUILD, STAGE_PUBLISH, STAGE_STORE_APPEND, STAGE_WRITER_WAIT,
};
use medvid_index::{RecordError, VideoDatabase};
use medvid_obs::{counters, Recorder};
use medvid_store::{CheckpointStats, Store, StoreError, StoreStatus, WalOp};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;
use std::time::Instant;

/// One immutable generation of the database.
#[derive(Debug)]
pub struct DbEpoch {
    /// Monotonic generation number, starting at 1.
    pub epoch: u64,
    /// Lineage number: bumped only by [`DbService::replace`] (restore /
    /// replay), never by ingest or compaction. Background work that
    /// started against one lineage must abandon its result if the lineage
    /// moved — its input database no longer exists.
    pub lineage: u64,
    /// The built database of this generation.
    pub db: VideoDatabase,
}

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Records in the rebuilt index.
    pub records: usize,
    /// Appends folded back into the refit hierarchy (the drift counter
    /// before the pass).
    pub drift_folded: usize,
    /// Records ingested *while* the off-lock refit ran, re-appended on
    /// top of the rebuilt index before the swap.
    pub residual: usize,
    /// The epoch the rebuilt index was published as.
    pub epoch: u64,
    /// Wall-clock milliseconds of the full pass.
    pub millis: u64,
}

/// Why an ingest batch was refused.
#[derive(Debug)]
pub enum IngestError {
    /// One shot failed validation; the whole batch was rejected before
    /// anything was logged or swapped.
    Record {
        /// Index of the offending shot within the batch.
        index: usize,
        /// Why the database refused it.
        error: RecordError,
    },
    /// The batch validated but could not be made durable. Nothing was
    /// acknowledged and the serving epoch is unchanged. The failed append
    /// poisons the store: the WAL may hold a torn frame or an
    /// unacknowledged sequence number, so every later ingest fails with
    /// [`StoreError::Poisoned`] (reads keep serving) until the server is
    /// restarted and recovery truncates the damage.
    Store(StoreError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Record { index, error } => write!(f, "ingest shot {index}: {error}"),
            IngestError::Store(e) => write!(f, "durable append failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Concurrent handle over a [`VideoDatabase`]: cheap snapshot reads,
/// copy-on-write ingest, optional write-ahead durability.
pub struct DbService {
    current: RwLock<Arc<DbEpoch>>,
    /// Serialises writers so concurrent ingests cannot both clone the same
    /// base generation and silently drop each other's shots. In durable
    /// mode it also owns the store, so WAL appends and checkpoints are
    /// ordered with the swaps they describe.
    writer: Mutex<Option<Store>>,
    recorder: Recorder,
}

impl DbService {
    /// Wraps a built database as epoch 1, in-memory only.
    pub fn new(db: VideoDatabase, recorder: Recorder) -> Self {
        DbService {
            current: RwLock::new(Arc::new(DbEpoch {
                epoch: 1,
                lineage: 1,
                db,
            })),
            writer: Mutex::new(None),
            recorder,
        }
    }

    /// Wraps a recovered database as epoch 1 with `store` as its
    /// durability backend (pass [`medvid_store::Recovered`]'s pieces).
    pub fn durable(db: VideoDatabase, store: Store, recorder: Recorder) -> Self {
        DbService {
            current: RwLock::new(Arc::new(DbEpoch {
                epoch: 1,
                lineage: 1,
                db,
            })),
            writer: Mutex::new(Some(store)),
            recorder,
        }
    }

    /// Whether ingests are write-ahead logged.
    pub fn is_durable(&self) -> bool {
        self.writer.lock().is_some()
    }

    /// The current generation. The lock is held only for the `Arc` clone;
    /// the returned snapshot stays valid (and immutable) across any number
    /// of concurrent swaps.
    pub fn snapshot(&self) -> Arc<DbEpoch> {
        Arc::clone(&self.current.read())
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Ingests a batch of shots: validates every record against the current
    /// generation *before taking the writer mutex*, clones the generation
    /// structurally (the frozen record prefix is shared, not copied),
    /// appends the shots incrementally, appends the batch to the WAL (in
    /// durable mode — this is the durability point, *before* the epoch
    /// swap), and swaps the result in as the next epoch. All-or-nothing:
    /// one bad record fails the whole batch and the current epoch stays
    /// untouched.
    ///
    /// # Errors
    /// [`IngestError::Record`] carries the index of the offending shot;
    /// [`IngestError::Store`] means the WAL append failed and nothing was
    /// acknowledged — and the store is now poisoned, so retrying returns
    /// [`StoreError::Poisoned`] rather than appending past possibly-torn
    /// bytes or reusing an unacknowledged sequence number.
    pub fn ingest(&self, shots: &[IngestShot]) -> Result<(usize, u64), IngestError> {
        self.ingest_traced(shots, &mut TraceCtx::begin(None, false))
            .map(|(accepted, epoch, _)| (accepted, epoch))
    }

    /// [`DbService::ingest`], marking validation, WAL-append, and
    /// build-and-swap stages into `trace` so the server can return a
    /// per-stage breakdown and attribute slow ingests. The third element
    /// of the result is the store's highest durable sequence number after
    /// the append (`None` in in-memory mode) — coordinators running
    /// replicated acks compare it against follower `applied_seq`s.
    ///
    /// # Errors
    /// Same contract as [`DbService::ingest`].
    pub fn ingest_traced(
        &self,
        shots: &[IngestShot],
        trace: &mut TraceCtx,
    ) -> Result<(usize, u64, Option<u64>), IngestError> {
        // Admission runs against a lock-free snapshot: a malformed batch
        // is rejected without ever serialising behind other writers. The
        // authoritative per-record check re-runs during the appends below
        // (it also catches duplicates *within* the batch and races with
        // writers that slipped in between snapshot and lock).
        let admitted = self.snapshot();
        for (i, s) in shots.iter().enumerate() {
            let shot = medvid_index::ShotRef {
                video: s.video,
                shot: s.shot,
            };
            admitted
                .db
                .validate_record(shot, &s.features, s.scene_node)
                .map_err(|error| IngestError::Record { index: i, error })?;
        }
        trace.mark(STAGE_ADMISSION);

        let mut writer = self.writer.lock();
        trace.mark(STAGE_WRITER_WAIT);
        let base = self.snapshot();
        let mut db = base.db.clone();
        for (i, s) in shots.iter().enumerate() {
            let shot = medvid_index::ShotRef {
                video: s.video,
                shot: s.shot,
            };
            let res = if db.is_built() {
                db.append_shot(shot, s.features.clone(), s.event, s.scene_node)
            } else {
                db.try_insert_shot(shot, s.features.clone(), s.event, s.scene_node)
            };
            res.map_err(|error| IngestError::Record { index: i, error })?;
        }
        trace.mark(STAGE_BUILD);
        let mut last_seq = None;
        if let Some(store) = writer.as_mut() {
            let op = match shots {
                [one] => WalOp::IngestShot { shot: one.clone() },
                many => WalOp::IngestVideo {
                    shots: many.to_vec(),
                },
            };
            let stats = store.append(&[op]).map_err(IngestError::Store)?;
            last_seq = Some(stats.last_seq);
            trace.mark(STAGE_STORE_APPEND);
        }
        // First-ever ingest lands on an unbuilt database: build it once.
        // On the incremental path this is a no-op.
        db.build();
        let epoch = base.epoch + 1;
        *self.current.write() = Arc::new(DbEpoch {
            epoch,
            lineage: base.lineage,
            db,
        });
        trace.mark(STAGE_PUBLISH);
        self.recorder
            .incr(counters::SERVE_INGESTED_SHOTS, shots.len() as u64);
        self.recorder.incr(counters::SERVE_EPOCH_SWAPS, 1);
        Ok((shots.len(), epoch, last_seq))
    }

    /// Appends since the last full re-fit of the serving generation — the
    /// signal the background compaction job watches.
    pub fn drift(&self) -> usize {
        self.current.read().db.drift()
    }

    /// Re-runs the full PCS/merge fit over the drifted index and publishes
    /// the rebuilt hierarchy as one epoch bump — the compaction job's
    /// core. The expensive refit runs **off-lock** against a snapshot;
    /// the writer mutex is only taken to fold in records ingested
    /// meanwhile, checkpoint (in durable mode) and swap. Returns
    /// `Ok(None)` when there is no drift to fold, or when a
    /// [`DbService::replace`] raced the refit (the lineage moved, so the
    /// rebuilt index describes a database that no longer exists).
    ///
    /// # Errors
    /// A failed checkpoint leaves the old epoch serving and the store
    /// unchanged.
    pub fn compact(&self) -> Result<Option<CompactStats>, StoreError> {
        let before = self.snapshot();
        if before.db.drift() == 0 {
            return Ok(None);
        }
        let started = Instant::now();
        let drift_folded = before.db.drift();
        let mut rebuilt = before.db.clone();
        rebuilt.compact();

        let mut writer = self.writer.lock();
        let live = self.snapshot();
        if live.lineage != before.lineage {
            return Ok(None);
        }
        // Ingest only appends (order-stable), so everything the live
        // generation holds past our snapshot is a suffix to re-append.
        let mut residual = 0usize;
        for r in live.db.records_iter().skip(rebuilt.len()).cloned().collect::<Vec<_>>() {
            rebuilt
                .append_shot(r.shot, r.features, r.event, r.scene_node)
                .expect("residual record was already admitted by ingest");
            residual += 1;
        }
        if let Some(store) = writer.as_mut() {
            store.checkpoint(&rebuilt)?;
        }
        let epoch = live.epoch + 1;
        let stats = CompactStats {
            records: rebuilt.len(),
            drift_folded,
            residual,
            epoch,
            millis: started.elapsed().as_millis() as u64,
        };
        *self.current.write() = Arc::new(DbEpoch {
            epoch,
            lineage: live.lineage,
            db: rebuilt,
        });
        self.recorder.incr(counters::SERVE_EPOCH_SWAPS, 1);
        Ok(Some(stats))
    }

    /// Replaces the serving database wholesale (the restore/replay path).
    /// The epoch is **bumped, never reset** — a cache keyed to the old
    /// generation must observe a number it has never seen, or it would
    /// keep serving results mined from the pre-restore database. In
    /// durable mode the restored state is immediately checkpointed so the
    /// store agrees with what is being served.
    ///
    /// # Errors
    /// A failed checkpoint leaves the old epoch serving and the store
    /// unchanged.
    pub fn replace(&self, db: VideoDatabase) -> Result<u64, StoreError> {
        let mut writer = self.writer.lock();
        if let Some(store) = writer.as_mut() {
            store.checkpoint(&db)?;
        }
        let live = self.snapshot();
        *self.current.write() = Arc::new(DbEpoch {
            epoch: live.epoch + 1,
            lineage: live.lineage + 1,
            db,
        });
        self.recorder.incr(counters::SERVE_EPOCH_SWAPS, 1);
        Ok(live.epoch + 1)
    }

    /// Installs `store` as the durability backend of a previously
    /// in-memory service — the replica-promotion path. A promoted
    /// follower reopens the WAL its leader shipped to it as a leader
    /// store of its own and adopts it here; from then on ingests append
    /// to it, continuing the dead leader's sequence numbering. The
    /// serving snapshot is untouched (callers install the recovered
    /// database separately, which also writes the first checkpoint).
    ///
    /// # Errors
    /// Hands `store` back when the service is already durable — adopting
    /// over a live store would silently fork the log.
    // The Err variant deliberately returns the whole rejected store so
    // the caller keeps ownership of its open WAL.
    #[allow(clippy::result_large_err)]
    pub fn adopt_store(&self, store: Store) -> Result<(), Store> {
        let mut writer = self.writer.lock();
        if writer.is_some() {
            return Err(store);
        }
        *writer = Some(store);
        Ok(())
    }

    /// Checkpoints the current generation into the store. Returns `None`
    /// in in-memory mode.
    ///
    /// # Errors
    /// Propagates storage failures; the WAL keeps its records on failure.
    pub fn checkpoint(&self) -> Result<Option<CheckpointStats>, StoreError> {
        let mut writer = self.writer.lock();
        let Some(store) = writer.as_mut() else {
            return Ok(None);
        };
        // The writer lock is held: the current snapshot reflects every
        // operation appended so far, so the watermark is consistent.
        let snap = self.snapshot();
        store.checkpoint(&snap.db).map(Some)
    }

    /// True when the store's WAL has outgrown its thresholds (always
    /// false in in-memory mode).
    pub fn wants_checkpoint(&self) -> bool {
        self.writer
            .lock()
            .as_ref()
            .is_some_and(Store::wants_checkpoint)
    }

    /// Forces buffered WAL records to stable storage (graceful-drain
    /// flush). No-op in in-memory mode or when everything is synced.
    ///
    /// # Errors
    /// Propagates storage failures.
    pub fn sync_store(&self) -> Result<(), StoreError> {
        match self.writer.lock().as_mut() {
            Some(store) => store.sync(),
            None => Ok(()),
        }
    }

    /// Live store metrics, when durable.
    pub fn store_status(&self) -> Option<StoreStatus> {
        self.writer.lock().as_ref().map(Store::status)
    }

    /// The durable log suffix past `from_seq`, for WAL-shipping
    /// replication. Holding the writer lock serialises the scan with
    /// appends, so a shipped segment never ends in a half-written frame.
    /// Returns `Ok(None)` in in-memory mode — there is no log to ship.
    ///
    /// # Errors
    /// Propagates storage failures (unreadable WAL, missing checkpoint).
    pub fn log_suffix(
        &self,
        from_seq: u64,
        max_records: usize,
    ) -> Result<Option<medvid_store::LogSuffix>, StoreError> {
        match self.writer.lock().as_ref() {
            Some(store) => store.log_suffix(from_seq, max_records).map(Some),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CachedResult, QueryKey, ResultCache};
    use crate::protocol::QueryRequest;
    use medvid_types::{EventKind, ShotId, VideoId};

    fn shot(i: usize, db: &VideoDatabase) -> IngestShot {
        let scenes = db.hierarchy().scene_nodes();
        let mut f = vec![0.0f32; 266];
        f[i % 266] = 1.0;
        IngestShot {
            video: VideoId(100),
            shot: ShotId(i),
            features: f,
            event: EventKind::Dialog,
            scene_node: scenes[i % scenes.len()],
        }
    }

    #[test]
    fn ingest_bumps_epoch_and_preserves_old_snapshots() {
        let svc = DbService::new(VideoDatabase::medical(), Recorder::disabled());
        let before = svc.snapshot();
        assert_eq!(before.epoch, 1);
        let batch: Vec<_> = (0..4).map(|i| shot(i, &before.db)).collect();
        let (accepted, epoch) = svc.ingest(&batch).unwrap();
        assert_eq!((accepted, epoch), (4, 2));
        // The old snapshot is untouched; the new one holds the shots.
        assert_eq!(before.db.len(), 0);
        assert_eq!(svc.snapshot().db.len(), 4);
        assert_eq!(svc.epoch(), 2);
    }

    #[test]
    fn bad_record_fails_whole_batch() {
        let svc = DbService::new(VideoDatabase::medical(), Recorder::disabled());
        let base = svc.snapshot();
        let mut batch: Vec<_> = (0..3).map(|i| shot(i, &base.db)).collect();
        batch[1].scene_node = base.db.hierarchy().root();
        let err = svc.ingest(&batch).unwrap_err();
        match err {
            IngestError::Record { index, error } => {
                assert_eq!(index, 1);
                assert!(matches!(error, RecordError::NotSceneNode(_)));
            }
            IngestError::Store(e) => panic!("unexpected store error: {e}"),
        }
        assert_eq!(svc.epoch(), 1);
        assert_eq!(svc.snapshot().db.len(), 0);
    }

    #[test]
    fn concurrent_readers_see_consistent_generations() {
        let svc = Arc::new(DbService::new(
            VideoDatabase::medical(),
            Recorder::disabled(),
        ));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let snap = svc.snapshot();
                        // A generation's record count is frozen at swap time.
                        let a = snap.db.len();
                        let b = snap.db.len();
                        assert_eq!(a, b);
                    }
                })
            })
            .collect();
        for generation in 0..5 {
            let base = svc.snapshot();
            let batch = vec![shot(generation, &base.db)];
            svc.ingest(&batch).unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(svc.epoch(), 6);
        assert_eq!(svc.snapshot().db.len(), 5);
    }

    #[test]
    fn replace_bumps_epoch_so_caches_invalidate() {
        // Regression: restoring a database from disk must never leave the
        // epoch where it was (or reset it to 1) — either way a populated
        // cache would keep answering queries from the superseded database.
        let svc = DbService::new(VideoDatabase::medical(), Recorder::disabled());
        let batch: Vec<_> = {
            let base = svc.snapshot();
            (0..3).map(|i| shot(i, &base.db)).collect()
        };
        svc.ingest(&batch).unwrap();
        let epoch_before = svc.epoch();

        let cache = ResultCache::new(8, Recorder::disabled());
        let key = QueryKey::canonicalize(
            &QueryRequest::default(),
            10,
            crate::protocol::WireStrategy::default(),
        );
        cache.put(
            epoch_before,
            key.clone(),
            Arc::new(CachedResult {
                hits: Vec::new(),
                stats: Default::default(),
            }),
        );
        assert!(cache.get(epoch_before, &key).is_some(), "entry is live");

        let restored_epoch = svc.replace(VideoDatabase::medical()).unwrap();
        assert!(
            restored_epoch > epoch_before,
            "epoch must move forward on restore: {restored_epoch} vs {epoch_before}"
        );
        assert_eq!(svc.snapshot().db.len(), 0, "restored database serves");
        assert!(
            cache.get(restored_epoch, &key).is_none(),
            "stale pre-restore result must not survive the swap"
        );
    }

    #[test]
    fn durable_ingest_survives_service_restart() {
        let dir = std::env::temp_dir().join(format!("medvid-svc-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recovered = Store::open(
            &dir,
            medvid_store::StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        let svc = DbService::durable(recovered.db, recovered.store, Recorder::disabled());
        let batch: Vec<_> = {
            let base = svc.snapshot();
            (0..5).map(|i| shot(i, &base.db)).collect()
        };
        svc.ingest(&batch).unwrap();
        assert_eq!(svc.store_status().unwrap().wal_records, 2); // marker + batch
        drop(svc);

        // "Restart": recover from the same directory.
        let recovered = Store::open(
            &dir,
            medvid_store::StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(recovered.db.len(), 5);
        assert!(recovered.report.clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_retires_wal_records() {
        let dir = std::env::temp_dir().join(format!("medvid-svc-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recovered = Store::open(
            &dir,
            medvid_store::StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        let svc = DbService::durable(recovered.db, recovered.store, Recorder::disabled());
        let batch: Vec<_> = {
            let base = svc.snapshot();
            (0..4).map(|i| shot(i, &base.db)).collect()
        };
        svc.ingest(&batch).unwrap();
        let stats = svc.checkpoint().unwrap().expect("durable mode");
        assert!(stats.wal_bytes_truncated > 0);
        assert_eq!(svc.store_status().unwrap().wal_records, 1); // fresh marker
        drop(svc);
        let recovered = Store::open(
            &dir,
            medvid_store::StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(recovered.db.len(), 4);
        assert_eq!(recovered.report.checkpoint_records, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_is_incremental_and_compaction_folds_drift() {
        let svc = DbService::new(VideoDatabase::medical(), Recorder::disabled());
        let base = svc.snapshot();
        let first: Vec<_> = (0..4).map(|i| shot(i, &base.db)).collect();
        svc.ingest(&first).unwrap();
        // The first ingest built the index; later ones append into it.
        assert_eq!(svc.drift(), 0);
        let more: Vec<_> = (4..9).map(|i| shot(i, &svc.snapshot().db)).collect();
        svc.ingest(&more).unwrap();
        assert_eq!(svc.drift(), 5, "appends accumulate drift");
        assert!(svc.snapshot().db.is_built());

        let stats = svc.compact().unwrap().expect("drift to fold");
        assert_eq!(stats.drift_folded, 5);
        assert_eq!(stats.records, 9);
        assert_eq!(stats.residual, 0);
        assert_eq!(svc.drift(), 0);
        assert_eq!(svc.epoch(), stats.epoch);
        // Nothing to do on a freshly compacted index.
        assert!(svc.compact().unwrap().is_none());
    }

    #[test]
    fn compaction_aborts_when_replace_moves_the_lineage() {
        // compact() snapshots, refits off-lock, then swaps — a restore
        // landing in between must win, or the compaction would resurrect
        // the replaced database.
        let svc = DbService::new(VideoDatabase::medical(), Recorder::disabled());
        let base = svc.snapshot();
        let batch: Vec<_> = (0..3).map(|i| shot(i, &base.db)).collect();
        svc.ingest(&batch).unwrap();
        let more: Vec<_> = (3..5).map(|i| shot(i, &svc.snapshot().db)).collect();
        svc.ingest(&more).unwrap();
        assert!(svc.drift() > 0);

        let before = svc.snapshot();
        svc.replace(VideoDatabase::medical()).unwrap();
        // Simulate the race: a compaction that started from `before`
        // observes the moved lineage when it goes to publish.
        assert_ne!(svc.snapshot().lineage, before.lineage);
        assert!(svc.compact().unwrap().is_none(), "no drift post-restore");
        assert_eq!(svc.snapshot().db.len(), 0, "restored database serves");
    }

    #[test]
    fn jobs_backoff_matches_retry_policy_delays() {
        // BackoffPolicy (medvid-jobs) replicates RetryPolicy::delay_before
        // in milliseconds; pin the two implementations together so the
        // queue's retry schedule never silently diverges from the
        // client's.
        let retry = crate::retry::RetryPolicy::default();
        let backoff = medvid_jobs::BackoffPolicy {
            max_attempts: retry.max_attempts,
            base_delay_ms: retry.base_delay.as_millis() as u64,
            max_delay_ms: retry.max_delay.as_millis() as u64,
            jitter: retry.jitter,
            seed: retry.seed,
        };
        for attempt in 0..=8u32 {
            let want = retry.delay_before(attempt).as_secs_f64() * 1_000.0;
            let got = backoff.delay_ms(attempt) as f64;
            assert!(
                (want - got).abs() <= 1.0,
                "attempt {attempt}: retry {want}ms vs backoff {got}ms"
            );
        }
    }

    #[test]
    fn in_memory_mode_has_no_store_surface() {
        let svc = DbService::new(VideoDatabase::medical(), Recorder::disabled());
        assert!(!svc.is_durable());
        assert!(svc.store_status().is_none());
        assert!(!svc.wants_checkpoint());
        assert!(svc.checkpoint().unwrap().is_none());
        svc.sync_store().unwrap();
    }
}
