//! Durable log-structured storage for the video database.
//!
//! The mining pipeline produces an in-memory [`medvid_index::VideoDatabase`];
//! this crate makes that database survive crashes. The design is the
//! classic log-structured pair:
//!
//! * a **write-ahead log** ([`wal`]) of checksummed, length-prefixed
//!   operation records — every ingest is appended (and, by policy, fsynced)
//!   *before* it is acknowledged. The log is generic over its record type
//!   ([`Framed`]), and the `medvid-jobs` queue runs on the same code;
//! * periodic **checkpoint segments** ([`checkpoint`]) — a full database
//!   snapshot written atomically (temp file + fsync + rename), after which
//!   the WAL restarts empty;
//! * **crash recovery** ([`recovery`]) on open — restore the newest
//!   checkpoint, replay the WAL tail, stop cleanly at the first torn or
//!   corrupt record, truncate the damage and say exactly what happened in
//!   a [`RecoveryReport`].
//!
//! The engine itself ([`engine::Store`]) is a small state machine over one
//! directory (`checkpoint.json` + `wal.log`). It is deliberately
//! std-only: frames are CRC-32-checksummed JSON ([`crc`]), and all
//! atomicity comes from POSIX rename semantics via
//! [`medvid_index::atomic_write`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod crc;
pub mod engine;
pub mod recovery;
pub mod wal;

pub use checkpoint::{StoreCheckpoint, CHECKPOINT_FILE};
pub use crc::crc32;
pub use engine::{
    verify, AppendStats, CheckpointStats, LogSuffix, Recovered, Store, StoreConfig, StoreError,
    StoreStatus, VerifyReport, WAL_FILE,
};
pub use recovery::{RecoveryReport, ReplayOutcome};
pub use wal::{
    encode_record, scan_bytes, scan_log, scan_wal, FsyncPolicy, Framed, LogWriter, StoredShot,
    TailFault, WalOp, WalRecord, WAL_MAGIC,
};
