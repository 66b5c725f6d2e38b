//! The storage engine: one directory holding a checkpoint segment and a
//! write-ahead log, with group-committed appends, threshold-driven
//! checkpoints and crash recovery on open.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/checkpoint.json   full DatabaseSnapshot + last covered WAL seq
//! <dir>/wal.log           magic header + checksummed record frames
//! ```
//!
//! The durability contract: once [`Store::append`] returns with
//! `fsynced == true` (always, under [`FsyncPolicy::Always`]), the logged
//! operations survive an immediate power cut — [`Store::open`] restores
//! the checkpoint and replays the WAL tail back to the exact acknowledged
//! state. A torn tail is truncated and reported, never replayed partially.

use crate::checkpoint::{StoreCheckpoint, CHECKPOINT_FILE};
use crate::recovery::{replay, RecoveryReport};
use crate::wal::{scan_wal, FsyncPolicy, LogWriter, TailFault, WalOp, WalRecord, WAL_MAGIC};
use medvid_index::{PersistError, VideoDatabase};
use medvid_obs::{counters, Recorder, Stage};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// File name of the WAL inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// Tuning knobs for a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// When appends force stable storage.
    pub fsync: FsyncPolicy,
    /// WAL payload size (bytes past the header) that triggers
    /// [`Store::wants_checkpoint`].
    pub checkpoint_wal_bytes: u64,
    /// WAL record count that triggers [`Store::wants_checkpoint`].
    pub checkpoint_wal_records: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_wal_bytes: 4 * 1024 * 1024,
            checkpoint_wal_records: 4096,
        }
    }
}

/// Errors from the storage engine.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// Checkpoint (de)serialisation or validation failure.
    Persist(PersistError),
    /// The store directory's contents are not a usable store.
    Corrupt(String),
    /// A previous write failed and left the on-disk log state unknown
    /// (possibly a torn frame, possibly a frame whose sequence number was
    /// never acknowledged). Every further write is refused until the store
    /// is reopened and recovered; the carried string is the original
    /// failure.
    Poisoned(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O: {e}"),
            StoreError::Persist(e) => write!(f, "checkpoint: {e}"),
            StoreError::Corrupt(why) => write!(f, "corrupt store: {why}"),
            StoreError::Poisoned(why) => {
                write!(f, "store poisoned by an earlier write failure ({why}); reopen to recover")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<PersistError> for StoreError {
    fn from(e: PersistError) -> Self {
        StoreError::Persist(e)
    }
}

/// Live metrics of an open store (serialisable for the serving protocol).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreStatus {
    /// Highest assigned WAL sequence number.
    pub last_seq: u64,
    /// Sequence number the newest checkpoint covers.
    pub checkpoint_seq: u64,
    /// Current WAL file length in bytes.
    pub wal_bytes: u64,
    /// Records in the current WAL.
    pub wal_records: u64,
    /// Records written since the last fsync (the at-risk window).
    pub unsynced_records: u64,
    /// The fsync policy, rendered for humans.
    pub fsync: String,
    /// The write failure that poisoned the store, when one has. A poisoned
    /// store refuses every append/sync/checkpoint until reopened.
    #[serde(default)]
    pub poisoned: Option<String>,
}

/// Result of one group-committed append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendStats {
    /// Sequence number of the first appended record.
    pub first_seq: u64,
    /// Sequence number of the last appended record.
    pub last_seq: u64,
    /// Frame bytes written.
    pub bytes: u64,
    /// Whether the append ended with an fsync.
    pub fsynced: bool,
}

/// Result of one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Sequence number the checkpoint covers.
    pub last_seq: u64,
    /// Byte size of the checkpoint document.
    pub snapshot_bytes: u64,
    /// WAL payload bytes retired by the truncation.
    pub wal_bytes_truncated: u64,
}

/// A readable suffix of the durable log, produced by [`Store::log_suffix`]
/// for WAL-shipping replication. When the requested resume point predates
/// the newest checkpoint (the WAL no longer holds those records), the
/// checkpoint document rides along so a follower can bootstrap exactly the
/// way crash recovery does: restore the snapshot, replay the records.
#[derive(Debug, Clone)]
pub struct LogSuffix {
    /// Sequence number the newest checkpoint covers.
    pub checkpoint_seq: u64,
    /// Highest durable sequence number (the replication-lag watermark).
    pub last_seq: u64,
    /// Checkpoint document, present only when `from_seq < checkpoint_seq`.
    pub checkpoint: Option<StoreCheckpoint>,
    /// Durable records with `seq > max(from_seq, shipped checkpoint_seq)`,
    /// ascending, capped at the caller's record budget.
    pub records: Vec<WalRecord>,
}

/// A recovered store: the engine handle, the database it reconstructed
/// and the report of how reconstruction went.
#[derive(Debug)]
pub struct Recovered {
    /// The open engine, ready to append.
    pub store: Store,
    /// The database as of the last durable operation.
    pub db: VideoDatabase,
    /// What recovery replayed, skipped and discarded.
    pub report: RecoveryReport,
}

/// An open storage engine over one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    wal: LogWriter<WalRecord>,
    last_seq: u64,
    checkpoint_seq: u64,
    recorder: Recorder,
    /// Set after a write failure leaves the log state unknown; see
    /// [`StoreError::Poisoned`].
    poisoned: Option<String>,
}

impl Store {
    /// Opens (creating if needed) the store in `dir` and recovers the
    /// database it holds. `initial` seeds a store that has no checkpoint
    /// yet — its hierarchy, config and policy become the durable baseline,
    /// written as checkpoint zero so later recoveries are self-contained.
    ///
    /// # Errors
    /// I/O failures, and [`StoreError::Persist`] when an existing
    /// checkpoint is unreadable (a damaged checkpoint is not silently
    /// replaced — it needs operator attention, unlike a damaged WAL tail
    /// which is truncated and reported).
    pub fn open(
        dir: &Path,
        config: StoreConfig,
        initial: VideoDatabase,
        recorder: Recorder,
    ) -> Result<Recovered, StoreError> {
        std::fs::create_dir_all(dir)?;
        let _span = recorder.span(Stage::StoreRecover);
        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let wal_path = dir.join(WAL_FILE);

        let checkpoint = StoreCheckpoint::read(&ckpt_path)?;
        let had_checkpoint = checkpoint.is_some();
        let (mut db, covered_seq, checkpoint_records) = match checkpoint {
            Some(c) => {
                let records = c.snapshot.records.len() as u64;
                (VideoDatabase::from_snapshot(c.snapshot)?, c.last_seq, records)
            }
            None => (initial, 0, 0),
        };

        let mut report = RecoveryReport {
            checkpoint_seq: had_checkpoint.then_some(covered_seq),
            checkpoint_records,
            replayed_records: 0,
            skipped_records: 0,
            valid_wal_bytes: 0,
            discarded_bytes: 0,
            fault: None,
            last_seq: covered_seq,
        };

        let wal = match scan_wal(&wal_path)? {
            None => {
                if had_checkpoint {
                    // An engine-created store always has a wal.log (every
                    // checkpoint writes a fresh one), so its absence beside
                    // a checkpoint means the log was deleted — every
                    // acknowledged record past the checkpoint is lost. The
                    // log is recreated, but this open must never report
                    // itself clean.
                    report.fault = Some(TailFault::MissingWal);
                }
                LogWriter::create(&wal_path, config.fsync)?
            }
            Some(scan) => {
                if matches!(scan.fault, Some(TailFault::BadMagic)) {
                    // Eight-plus bytes that are not our magic: this file was
                    // never (or is no longer) a WAL. Truncating it would
                    // destroy evidence; refuse instead, like a damaged
                    // checkpoint.
                    return Err(StoreError::Corrupt(format!(
                        "{} exists but does not start with the WAL magic",
                        wal_path.display()
                    )));
                }
                let out = replay(
                    &mut db,
                    &scan.records,
                    &scan.offsets,
                    scan.valid_bytes,
                    covered_seq,
                );
                report.replayed_records = out.replayed;
                report.skipped_records = out.skipped;
                report.valid_wal_bytes = out.accepted_bytes;
                report.discarded_bytes = scan.total_bytes - out.accepted_bytes;
                report.fault = out.fault.or(scan.fault);
                report.last_seq = out.last_seq;
                // A torn header (accepted bytes shorter than the magic) is
                // rebuilt by `open_at`: it proves no record was durable.
                let surviving = out.replayed + out.skipped;
                LogWriter::open_at(&wal_path, out.accepted_bytes, surviving, config.fsync)?
            }
        };

        db.build();
        recorder.incr(counters::STORE_REPLAYED_RECORDS, report.replayed_records);
        recorder.incr(counters::STORE_SKIPPED_RECORDS, report.skipped_records);
        recorder.incr(counters::STORE_DISCARDED_BYTES, report.discarded_bytes);

        let mut store = Store {
            dir: dir.to_path_buf(),
            config,
            wal,
            last_seq: report.last_seq,
            checkpoint_seq: covered_seq,
            recorder,
            poisoned: None,
        };
        if !had_checkpoint {
            // Make the baseline durable so the next open does not depend on
            // the caller passing the same `initial` database again.
            store.write_checkpoint_segment(&db)?;
        }
        Ok(Recovered { store, db, report })
    }

    /// Appends `ops` as one group commit, assigning consecutive sequence
    /// numbers. With [`FsyncPolicy::Always`] the returned stats have
    /// `fsynced == true` and the operations are crash-durable.
    ///
    /// # Errors
    /// Propagates I/O failures. Any append failure **poisons** the store:
    /// the file may hold a torn frame, or a whole frame whose sequence
    /// number was never acknowledged, and appending past either would make
    /// recovery silently discard later records. Every subsequent write
    /// returns [`StoreError::Poisoned`] until the store is reopened and
    /// recovered via [`Store::open`].
    pub fn append(&mut self, ops: &[WalOp]) -> Result<AppendStats, StoreError> {
        self.check_usable()?;
        let _span = self.recorder.span(Stage::StoreAppend);
        let first_seq = self.last_seq + 1;
        let records: Vec<WalRecord> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| WalRecord {
                seq: first_seq + i as u64,
                op: op.clone(),
            })
            .collect();
        let outcome = match self.wal.append(&records) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.poisoned = Some(e.to_string());
                return Err(e.into());
            }
        };
        self.last_seq += ops.len() as u64;
        self.recorder.incr(counters::STORE_APPENDS, 1);
        self.recorder
            .incr(counters::STORE_APPENDED_RECORDS, ops.len() as u64);
        if outcome.fsynced {
            self.recorder.incr(counters::STORE_FSYNCS, 1);
        }
        Ok(AppendStats {
            first_seq,
            last_seq: self.last_seq,
            bytes: outcome.bytes,
            fsynced: outcome.fsynced,
        })
    }

    /// Appends records shipped from a replication leader, preserving their
    /// leader-assigned sequence numbers — the follower's durable log stays
    /// byte-for-byte aligned with the leader's numbering, so a promoted
    /// follower can reopen it as the new leader and keep assigning from
    /// `last_seq + 1`. Records the local log already holds
    /// (`seq <= last_seq`) are skipped; the remainder must continue the
    /// log exactly (consecutive from `last_seq + 1`) — a gap means the
    /// follower diverged and must re-sync from a shipped checkpoint.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] on a sequence gap (nothing is written);
    /// I/O failures poison the store exactly like [`Store::append`].
    pub fn append_shipped(&mut self, records: &[WalRecord]) -> Result<AppendStats, StoreError> {
        self.check_usable()?;
        let _span = self.recorder.span(Stage::StoreAppend);
        let fresh: Vec<WalRecord> = records
            .iter()
            .filter(|r| r.seq > self.last_seq)
            .cloned()
            .collect();
        let first_seq = self.last_seq + 1;
        if fresh.is_empty() {
            return Ok(AppendStats {
                first_seq,
                last_seq: self.last_seq,
                bytes: 0,
                fsynced: false,
            });
        }
        for (i, r) in fresh.iter().enumerate() {
            let expect = first_seq + i as u64;
            if r.seq != expect {
                return Err(StoreError::Corrupt(format!(
                    "shipped record seq {} does not continue the local log (expected {})",
                    r.seq, expect
                )));
            }
        }
        let outcome = match self.wal.append(&fresh) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.poisoned = Some(e.to_string());
                return Err(e.into());
            }
        };
        self.last_seq = fresh.last().expect("non-empty batch").seq;
        self.recorder.incr(counters::STORE_APPENDS, 1);
        self.recorder
            .incr(counters::STORE_APPENDED_RECORDS, fresh.len() as u64);
        if outcome.fsynced {
            self.recorder.incr(counters::STORE_FSYNCS, 1);
        }
        Ok(AppendStats {
            first_seq,
            last_seq: self.last_seq,
            bytes: outcome.bytes,
            fsynced: outcome.fsynced,
        })
    }

    /// Installs a checkpoint of `db` covering the leader-assigned
    /// `covered_seq`, replacing the local WAL wholesale. Durable
    /// replication followers call this after applying a leader-shipped
    /// checkpoint: the local log restarts at exactly the leader's
    /// numbering, so later shipped records continue it without
    /// translation. Unlike [`Store::checkpoint`] no marker record is
    /// appended — the next record in this log is whatever the leader
    /// assigned to `covered_seq + 1`.
    ///
    /// # Errors
    /// Propagates I/O and serialisation failures with the same poisoning
    /// contract as [`Store::checkpoint`].
    pub fn install_checkpoint(
        &mut self,
        db: &VideoDatabase,
        covered_seq: u64,
    ) -> Result<CheckpointStats, StoreError> {
        self.check_usable()?;
        let _span = self.recorder.span(Stage::StoreCheckpoint);
        let doc = StoreCheckpoint::of(db, covered_seq);
        let snapshot_bytes = doc.write(&self.dir.join(CHECKPOINT_FILE))?;
        self.checkpoint_seq = covered_seq;
        let retired = self.wal.bytes() - WAL_MAGIC.len() as u64;
        let wal_path = self.dir.join(WAL_FILE);
        self.wal = match LogWriter::create(&wal_path, self.config.fsync) {
            Ok(w) => w,
            Err(e) => {
                self.poisoned = Some(e.to_string());
                return Err(e.into());
            }
        };
        self.last_seq = covered_seq;
        self.sync()?;
        self.recorder.incr(counters::STORE_CHECKPOINTS, 1);
        Ok(CheckpointStats {
            last_seq: covered_seq,
            snapshot_bytes,
            wal_bytes_truncated: retired,
        })
    }

    /// Forces every appended record to stable storage (used by graceful
    /// shutdown under the relaxed fsync policies).
    ///
    /// # Errors
    /// Propagates I/O failures. A failed fsync poisons the store — the
    /// kernel may have dropped the dirty pages it could not write, so
    /// which appended records actually persist is unknowable.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.check_usable()?;
        match self.wal.sync() {
            Ok(true) => self.recorder.incr(counters::STORE_FSYNCS, 1),
            Ok(false) => {}
            Err(e) => {
                self.poisoned = Some(e.to_string());
                return Err(e.into());
            }
        }
        Ok(())
    }

    /// Checkpoints `db`, which must reflect every operation appended so
    /// far (callers serialise appends and checkpoints behind one writer
    /// lock). Writes the snapshot atomically, truncates the WAL and logs a
    /// [`WalOp::Checkpoint`] marker in the fresh log.
    ///
    /// # Errors
    /// Propagates I/O and serialisation failures; the previous checkpoint
    /// and WAL survive any failure before the truncation point. A failure
    /// once the WAL truncation has begun poisons the store (the snapshot
    /// is durable but the fresh log is not trustworthy).
    pub fn checkpoint(&mut self, db: &VideoDatabase) -> Result<CheckpointStats, StoreError> {
        let _span = self.recorder.span(Stage::StoreCheckpoint);
        let stats = self.write_checkpoint_segment(db)?;
        self.recorder.incr(counters::STORE_CHECKPOINTS, 1);
        Ok(stats)
    }

    fn write_checkpoint_segment(&mut self, db: &VideoDatabase) -> Result<CheckpointStats, StoreError> {
        self.check_usable()?;
        let covered = self.last_seq;
        let doc = StoreCheckpoint::of(db, covered);
        // Failing up to here is recoverable: the old checkpoint and WAL
        // are untouched, so nothing is poisoned.
        let snapshot_bytes = doc.write(&self.dir.join(CHECKPOINT_FILE))?;
        self.checkpoint_seq = covered;
        // The snapshot is durable: every record in the current WAL is now
        // covered, so the log restarts empty with a checkpoint marker.
        let retired = self.wal.bytes() - WAL_MAGIC.len() as u64;
        let wal_path = self.dir.join(WAL_FILE);
        self.wal = match LogWriter::create(&wal_path, self.config.fsync) {
            Ok(w) => w,
            Err(e) => {
                // `create` truncates before it writes the header, so the
                // old log may already be gone while the new one is not yet
                // usable.
                self.poisoned = Some(e.to_string());
                return Err(e.into());
            }
        };
        self.append(&[WalOp::Checkpoint { last_seq: covered }])?;
        self.sync()?;
        Ok(CheckpointStats {
            last_seq: covered,
            snapshot_bytes,
            wal_bytes_truncated: retired,
        })
    }

    /// The write failure that poisoned this store, if any. A poisoned
    /// store serves reads (the in-memory database is intact) but refuses
    /// every append, sync and checkpoint until reopened.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    fn check_usable(&self) -> Result<(), StoreError> {
        match &self.poisoned {
            Some(why) => Err(StoreError::Poisoned(why.clone())),
            None => Ok(()),
        }
    }

    /// True when the WAL has outgrown the configured thresholds and the
    /// owner should checkpoint at the next quiet moment.
    pub fn wants_checkpoint(&self) -> bool {
        let payload = self.wal.bytes().saturating_sub(WAL_MAGIC.len() as u64);
        payload >= self.config.checkpoint_wal_bytes
            || self.wal.records() >= self.config.checkpoint_wal_records
    }

    /// Live metrics.
    pub fn status(&self) -> StoreStatus {
        StoreStatus {
            last_seq: self.last_seq,
            checkpoint_seq: self.checkpoint_seq,
            wal_bytes: self.wal.bytes(),
            wal_records: self.wal.records(),
            unsynced_records: self.wal.unsynced_records(),
            fsync: self.config.fsync.to_string(),
            poisoned: self.poisoned.clone(),
        }
    }

    /// Highest assigned sequence number.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Reads the durable log suffix past `from_seq`, for shipping to a
    /// replication follower. Returns at most `max_records` records; the
    /// follower keeps fetching until its applied seq reaches `last_seq`.
    /// When `from_seq` predates the newest checkpoint, the checkpoint
    /// document is included and the records resume after it.
    ///
    /// The scan re-reads the WAL file, accepting only whole, checksummed
    /// frames — a concurrent append in progress looks like a torn tail and
    /// is simply not shipped yet. Callers who need `last_seq` to agree
    /// with the shipped records serialise this with appends (the serving
    /// layer holds its writer lock).
    ///
    /// # Errors
    /// Propagates I/O failures and an unreadable checkpoint. A poisoned
    /// store still ships its durable prefix — reads stay available.
    pub fn log_suffix(&self, from_seq: u64, max_records: usize) -> Result<LogSuffix, StoreError> {
        let mut suffix = LogSuffix {
            checkpoint_seq: self.checkpoint_seq,
            last_seq: self.last_seq,
            checkpoint: None,
            records: Vec::new(),
        };
        let mut resume = from_seq;
        if from_seq < self.checkpoint_seq {
            let doc = StoreCheckpoint::read(&self.dir.join(CHECKPOINT_FILE))?.ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "checkpoint covering seq {} is missing from {}",
                    self.checkpoint_seq,
                    self.dir.display()
                ))
            })?;
            resume = doc.last_seq;
            suffix.checkpoint = Some(doc);
        }
        if let Some(scan) = scan_wal(&self.dir.join(WAL_FILE))? {
            suffix.records = scan
                .records
                .into_iter()
                .filter(|r| r.seq > resume)
                .take(max_records)
                .collect();
        }
        Ok(suffix)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }
}

/// Read-only health report of a store directory (see [`verify`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifyReport {
    /// Sequence number the checkpoint covers, when one parses.
    pub checkpoint_seq: Option<u64>,
    /// Shot records inside the checkpoint snapshot.
    pub checkpoint_records: Option<u64>,
    /// Why the checkpoint is unusable, when it is.
    pub checkpoint_error: Option<String>,
    /// Records in the WAL's valid prefix.
    pub wal_records: u64,
    /// Byte length of the valid prefix.
    pub wal_valid_bytes: u64,
    /// Total WAL length.
    pub wal_total_bytes: u64,
    /// First structural damage in the WAL, if any.
    pub fault: Option<crate::wal::TailFault>,
    /// Highest sequence that would be live after recovery.
    pub last_seq: u64,
}

impl VerifyReport {
    /// True when recovery would lose nothing: checkpoint readable (or
    /// absent with an empty log) and no WAL damage.
    pub fn healthy(&self) -> bool {
        self.checkpoint_error.is_none() && self.fault.is_none()
    }
}

/// Inspects a store directory without mutating it: parses the checkpoint,
/// scans the WAL and — when the checkpoint is usable — dry-runs the
/// replay to surface operations the database would reject.
///
/// # Errors
/// Only genuine I/O failures error; damaged contents land in the report.
pub fn verify(dir: &Path) -> Result<VerifyReport, StoreError> {
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let wal_path = dir.join(WAL_FILE);
    let mut report = VerifyReport {
        checkpoint_seq: None,
        checkpoint_records: None,
        checkpoint_error: None,
        wal_records: 0,
        wal_valid_bytes: 0,
        wal_total_bytes: 0,
        fault: None,
        last_seq: 0,
    };
    let mut base = None;
    match StoreCheckpoint::read(&ckpt_path) {
        Ok(Some(c)) => {
            report.checkpoint_seq = Some(c.last_seq);
            report.checkpoint_records = Some(c.snapshot.records.len() as u64);
            report.last_seq = c.last_seq;
            match VideoDatabase::from_snapshot(c.snapshot) {
                Ok(db) => base = Some((db, c.last_seq)),
                Err(e) => report.checkpoint_error = Some(e.to_string()),
            }
        }
        Ok(None) => {
            if !wal_path.exists() {
                return Err(StoreError::Corrupt(format!(
                    "{} holds neither a checkpoint nor a WAL",
                    dir.display()
                )));
            }
            report.checkpoint_error = Some("checkpoint file missing".to_string());
        }
        Err(e) => report.checkpoint_error = Some(e.to_string()),
    }
    match scan_wal(&wal_path)? {
        Some(scan) => {
            report.wal_total_bytes = scan.total_bytes;
            report.wal_valid_bytes = scan.valid_bytes;
            report.wal_records = scan.records.len() as u64;
            report.fault = scan.fault.clone();
            if let Some((mut db, covered)) = base {
                let out = replay(
                    &mut db,
                    &scan.records,
                    &scan.offsets,
                    scan.valid_bytes,
                    covered,
                );
                report.last_seq = out.last_seq;
                report.wal_valid_bytes = out.accepted_bytes;
                report.wal_records = out.replayed + out.skipped;
                report.fault = out.fault.or(scan.fault);
            } else if let Some(last) = scan.records.last() {
                report.last_seq = last.seq;
            }
        }
        None => {
            // The no-checkpoint-and-no-WAL case already errored above, so
            // reaching here means a checkpoint sits beside no log — a
            // deleted WAL, which silently lost every record past the
            // checkpoint. Recovery would replay it as if freshly
            // checkpointed; surface the difference here.
            report.fault = Some(TailFault::MissingWal);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::StoredShot;
    use medvid_index::ShotRef;
    use medvid_types::{EventKind, ShotId, VideoId};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "medvid-engine-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn stored_shot(db: &VideoDatabase, video: usize, idx: usize) -> StoredShot {
        let mut features = vec![0.0f32; 16];
        features[idx % 16] = 1.0;
        StoredShot {
            video: VideoId(video),
            shot: ShotId(idx),
            features,
            event: EventKind::Dialog,
            scene_node: db.hierarchy().scene_nodes()[idx % 4],
        }
    }

    fn apply(db: &mut VideoDatabase, shot: &StoredShot) {
        db.try_insert_shot(
            ShotRef {
                video: shot.video,
                shot: shot.shot,
            },
            shot.features.clone(),
            shot.event,
            shot.scene_node,
        )
        .unwrap();
        db.build();
    }

    #[test]
    fn fresh_store_writes_a_baseline_checkpoint() {
        let dir = scratch("fresh");
        let recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(recovered.report.checkpoint_seq, None);
        assert!(recovered.report.clean());
        assert!(dir.join(CHECKPOINT_FILE).exists());
        assert!(dir.join(WAL_FILE).exists());
        drop(recovered);
        // Reopening with a *different* initial database must ignore it: the
        // baseline checkpoint wins.
        let again = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(again.report.checkpoint_seq, Some(0));
        assert_eq!(again.report.replayed_records, 1); // the checkpoint marker
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appended_ops_survive_reopen() {
        let dir = scratch("survive");
        let mut recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        let mut ops = Vec::new();
        for i in 0..6 {
            let s = stored_shot(&recovered.db, i / 3, i);
            apply(&mut recovered.db, &s);
            ops.push(WalOp::IngestShot { shot: s });
        }
        let stats = recovered.store.append(&ops).unwrap();
        assert!(stats.fsynced);
        assert_eq!(stats.last_seq - stats.first_seq + 1, 6);
        drop(recovered);

        let back = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(back.db.len(), 6);
        assert_eq!(back.report.replayed_records, 6 + 1); // + checkpoint marker
        assert!(back.report.clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shipped_records_keep_leader_numbering_and_reopen_as_leader() {
        let dir = scratch("shipped");
        let mut recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        // A fresh follower mirror starts at seq 1 (its own baseline
        // marker); leader records ship with their leader-assigned seqs.
        let base = recovered.store.last_seq();
        let records: Vec<WalRecord> = (0..4)
            .map(|i| WalRecord {
                seq: base + 1 + i as u64,
                op: WalOp::IngestShot {
                    shot: stored_shot(&recovered.db, 0, i),
                },
            })
            .collect();
        let stats = recovered.store.append_shipped(&records).unwrap();
        assert_eq!(stats.last_seq, base + 4);
        assert_eq!(recovered.store.last_seq(), base + 4);

        // Re-shipping an overlapping segment skips what the log already
        // holds and appends only the genuinely new suffix.
        let mut overlap = records[2..].to_vec();
        overlap.push(WalRecord {
            seq: base + 5,
            op: WalOp::IngestShot {
                shot: stored_shot(&recovered.db, 1, 4),
            },
        });
        let stats = recovered.store.append_shipped(&overlap).unwrap();
        assert_eq!(stats.last_seq, base + 5);

        // A gap means divergence: refused, nothing written.
        let gap = vec![WalRecord {
            seq: base + 9,
            op: WalOp::IngestShot {
                shot: stored_shot(&recovered.db, 2, 9),
            },
        }];
        assert!(matches!(
            recovered.store.append_shipped(&gap),
            Err(StoreError::Corrupt(_))
        ));
        assert_eq!(recovered.store.last_seq(), base + 5);
        drop(recovered);

        // Promotion path: reopen the mirror through ordinary recovery and
        // keep assigning from the leader's numbering.
        let mut leader = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert!(leader.report.clean());
        assert_eq!(leader.db.len(), 5);
        assert_eq!(leader.store.last_seq(), base + 5);
        let next = stored_shot(&leader.db, 3, 10);
        apply(&mut leader.db, &next);
        let stats = leader.store.append(&[WalOp::IngestShot { shot: next }]).unwrap();
        assert_eq!(stats.first_seq, base + 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn installed_checkpoint_adopts_leader_numbering_without_a_marker() {
        let dir = scratch("install-ckpt");
        let mut recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        // Leader ships a checkpoint covering seq 40: the local log restarts
        // at the leader's numbering with no marker of its own — the next
        // shipped record may legitimately be seq 41.
        let mut db = VideoDatabase::medical();
        let a = stored_shot(&db, 0, 0);
        apply(&mut db, &a);
        recovered.store.install_checkpoint(&db, 40).unwrap();
        assert_eq!(recovered.store.last_seq(), 40);
        assert_eq!(recovered.store.status().wal_records, 0);

        let suffix = vec![WalRecord {
            seq: 41,
            op: WalOp::IngestShot {
                shot: stored_shot(&db, 1, 1),
            },
        }];
        recovered.store.append_shipped(&suffix).unwrap();
        drop(recovered);

        let back = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert!(back.report.clean());
        assert_eq!(back.report.checkpoint_seq, Some(40));
        assert_eq!(back.db.len(), 2);
        assert_eq!(back.store.last_seq(), 41);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_and_reopen_skips_covered() {
        let dir = scratch("ckpt");
        let mut recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        for i in 0..4 {
            let s = stored_shot(&recovered.db, 0, i);
            apply(&mut recovered.db, &s);
            recovered
                .store
                .append(&[WalOp::IngestShot { shot: s }])
                .unwrap();
        }
        let before = recovered.store.status().wal_bytes;
        let stats = recovered.store.checkpoint(&recovered.db).unwrap();
        assert!(stats.wal_bytes_truncated > 0);
        assert!(recovered.store.status().wal_bytes < before);
        // One more op after the checkpoint.
        let s = stored_shot(&recovered.db, 1, 10);
        apply(&mut recovered.db, &s);
        recovered
            .store
            .append(&[WalOp::IngestShot { shot: s }])
            .unwrap();
        drop(recovered);

        let back = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(back.db.len(), 5);
        // Replay = checkpoint marker + the post-checkpoint ingest.
        assert_eq!(back.report.replayed_records, 2);
        assert_eq!(back.report.skipped_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = scratch("torn");
        let mut recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        let s = stored_shot(&recovered.db, 0, 0);
        apply(&mut recovered.db, &s);
        recovered
            .store
            .append(&[WalOp::IngestShot { shot: s }])
            .unwrap();
        drop(recovered);
        // A crash mid-append leaves half a frame.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(WAL_FILE))
                .unwrap();
            f.write_all(&[0, 0, 0, 99, 1, 2]).unwrap();
        }
        let back = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(back.db.len(), 1);
        assert_eq!(back.report.discarded_bytes, 6);
        assert!(matches!(
            back.report.fault,
            Some(crate::wal::TailFault::TornRecord { .. })
        ));
        // The tail was physically truncated: the next open is clean.
        drop(back);
        let clean = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert!(clean.report.clean());
        assert_eq!(clean.db.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wants_checkpoint_follows_record_threshold() {
        let dir = scratch("thresh");
        let config = StoreConfig {
            checkpoint_wal_records: 3,
            ..StoreConfig::default()
        };
        let mut recovered = Store::open(
            &dir,
            config,
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert!(!recovered.store.wants_checkpoint());
        for i in 0..3 {
            let s = stored_shot(&recovered.db, 0, i);
            apply(&mut recovered.db, &s);
            recovered
                .store
                .append(&[WalOp::IngestShot { shot: s }])
                .unwrap();
        }
        assert!(recovered.store.wants_checkpoint());
        recovered.store.checkpoint(&recovered.db).unwrap();
        assert!(!recovered.store.wants_checkpoint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_reports_health_and_damage() {
        let dir = scratch("verify");
        let mut recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        let s = stored_shot(&recovered.db, 0, 0);
        apply(&mut recovered.db, &s);
        recovered
            .store
            .append(&[WalOp::IngestShot { shot: s }])
            .unwrap();
        drop(recovered);
        let healthy = verify(&dir).unwrap();
        assert!(healthy.healthy(), "{healthy:?}");
        assert_eq!(healthy.wal_records, 2); // marker + ingest
        // Damage the tail: verify sees it, does not repair it.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(WAL_FILE))
                .unwrap();
            f.write_all(&[7; 5]).unwrap();
        }
        let damaged = verify(&dir).unwrap();
        assert!(!damaged.healthy());
        assert_eq!(damaged.wal_total_bytes - damaged.wal_valid_bytes, 5);
        let damaged_again = verify(&dir).unwrap();
        assert_eq!(damaged, damaged_again, "verify is read-only");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_rejects_a_directory_that_is_not_a_store() {
        let dir = scratch("notastore");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(verify(&dir), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Offline builds may link a type-check-only serde_json stub whose
    /// runtime errors on every call; tests that need real
    /// (de)serialisation detect that and pass trivially there.
    fn serde_runtime_available() -> bool {
        serde_json::to_vec(&0u8).is_ok()
    }

    #[test]
    fn failed_append_poisons_the_store() {
        if !serde_runtime_available() {
            return;
        }
        let dir = scratch("poison");
        let mut recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        // An oversized record fails inside LogWriter::append; the engine
        // cannot tell a pre-write failure from a torn write_all, so any
        // append error must poison the store.
        let giant = StoredShot {
            features: vec![1.0f32; 17_000_000], // > MAX_RECORD_BYTES as JSON
            ..stored_shot(&recovered.db, 0, 0)
        };
        let first = recovered
            .store
            .append(&[WalOp::IngestShot { shot: giant }])
            .unwrap_err();
        assert!(
            !matches!(first, StoreError::Poisoned(_)),
            "the triggering failure keeps its own type: {first}"
        );
        assert!(recovered.store.poisoned().is_some());
        assert!(recovered.store.status().poisoned.is_some());
        // Every further write is refused — a retry must not append past a
        // possibly-torn region or reuse an unacknowledged sequence number.
        let s = stored_shot(&recovered.db, 0, 1);
        assert!(matches!(
            recovered.store.append(&[WalOp::IngestShot { shot: s }]),
            Err(StoreError::Poisoned(_))
        ));
        assert!(matches!(recovered.store.sync(), Err(StoreError::Poisoned(_))));
        assert!(matches!(
            recovered.store.checkpoint(&recovered.db),
            Err(StoreError::Poisoned(_))
        ));
        drop(recovered);
        // Reopening recovers the acknowledged prefix and clears the poison.
        let back = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert!(back.store.poisoned().is_none());
        assert!(back.report.clean(), "{:?}", back.report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_wal_beside_a_checkpoint_is_reported() {
        if !serde_runtime_available() {
            return;
        }
        let dir = scratch("walgone");
        let mut recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        let s = stored_shot(&recovered.db, 0, 0);
        apply(&mut recovered.db, &s);
        recovered
            .store
            .append(&[WalOp::IngestShot { shot: s }])
            .unwrap();
        drop(recovered);
        std::fs::remove_file(dir.join(WAL_FILE)).unwrap();
        // Deleting the log lost the acknowledged post-checkpoint ingest;
        // that must not look like a freshly checkpointed store.
        let report = verify(&dir).unwrap();
        assert!(!report.healthy());
        assert_eq!(report.fault, Some(TailFault::MissingWal));
        let back = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert!(!back.report.clean());
        assert_eq!(back.report.fault, Some(TailFault::MissingWal));
        assert_eq!(back.db.len(), 0, "only the checkpoint survives");
        // The recreated log makes the *next* open clean again.
        drop(back);
        let healed = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert!(healed.report.clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_store_syncs_on_demand() {
        let dir = scratch("everyn");
        let config = StoreConfig {
            fsync: FsyncPolicy::EveryN(100),
            ..StoreConfig::default()
        };
        let mut recovered = Store::open(
            &dir,
            config,
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        let s = stored_shot(&recovered.db, 0, 0);
        apply(&mut recovered.db, &s);
        let stats = recovered
            .store
            .append(&[WalOp::IngestShot { shot: s }])
            .unwrap();
        assert!(!stats.fsynced);
        assert!(recovered.store.status().unsynced_records > 0);
        recovered.store.sync().unwrap();
        assert_eq!(recovered.store.status().unsynced_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_suffix_ships_exactly_the_records_past_the_resume_point() {
        let dir = scratch("suffix");
        let mut recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        for i in 0..4 {
            let s = stored_shot(&recovered.db, 0, i);
            apply(&mut recovered.db, &s);
            recovered
                .store
                .append(&[WalOp::IngestShot { shot: s }])
                .unwrap();
        }
        let all = recovered.store.log_suffix(0, usize::MAX).unwrap();
        assert!(all.checkpoint.is_none(), "nothing is checkpointed yet");
        assert_eq!(all.last_seq, recovered.store.last_seq());
        // Baseline checkpoint marker (seq 1) + the four ingests.
        assert_eq!(all.records.len(), 5);
        assert!(all.records.windows(2).all(|w| w[0].seq < w[1].seq));
        // Resuming mid-log ships only the strict suffix.
        let tail = recovered.store.log_suffix(3, usize::MAX).unwrap();
        assert_eq!(
            tail.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        // The record budget caps a segment without losing the watermark.
        let capped = recovered.store.log_suffix(0, 2).unwrap();
        assert_eq!(capped.records.len(), 2);
        assert_eq!(capped.last_seq, all.last_seq);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_suffix_falls_back_to_the_checkpoint_for_truncated_history() {
        if !serde_runtime_available() {
            return;
        }
        let dir = scratch("suffixckpt");
        let mut recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        for i in 0..3 {
            let s = stored_shot(&recovered.db, 0, i);
            apply(&mut recovered.db, &s);
            recovered
                .store
                .append(&[WalOp::IngestShot { shot: s }])
                .unwrap();
        }
        recovered.store.checkpoint(&recovered.db).unwrap();
        // One post-checkpoint append the suffix must still carry.
        let s = stored_shot(&recovered.db, 1, 9);
        apply(&mut recovered.db, &s);
        recovered
            .store
            .append(&[WalOp::IngestShot { shot: s }])
            .unwrap();
        // A brand-new follower (from_seq 0) predates the checkpoint: the
        // truncated records are gone from the WAL, so the checkpoint
        // document must ride along and the records resume after it.
        let boot = recovered.store.log_suffix(0, usize::MAX).unwrap();
        let ckpt = boot.checkpoint.as_ref().expect("checkpoint shipped");
        assert_eq!(ckpt.last_seq, boot.checkpoint_seq);
        assert_eq!(ckpt.snapshot.records.len(), 3);
        assert!(boot.records.iter().all(|r| r.seq > ckpt.last_seq));
        assert_eq!(boot.last_seq, recovered.store.last_seq());
        // A follower already past the checkpoint gets records only.
        let caught = recovered
            .store
            .log_suffix(recovered.store.status().checkpoint_seq, usize::MAX)
            .unwrap();
        assert!(caught.checkpoint.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
