//! The framed log: format, writer and scanner.
//!
//! One implementation serves every durable log in the system: the store's
//! write-ahead log ([`WalRecord`]) and the jobs queue's log
//! (`medvid_jobs::JobLogRecord`). A record type joins by implementing
//! [`Framed`], which names its file magic and its sequence number.
//!
//! A log file is an 8-byte magic header followed by checksummed,
//! length-prefixed records (shown with the WAL's magic):
//!
//! ```text
//! +----------------+    +---------+---------+------------------+
//! | "MVWAL\0\0\x01"|    | len u32 | crc u32 | payload (JSON)   |  ...
//! +----------------+    +---------+---------+------------------+
//!    file header             one record frame (repeated)
//! ```
//!
//! `len` and `crc` are big-endian; `crc` covers the payload only. The
//! payload is one serialised record; in the WAL that is a [`WalRecord`]: a
//! monotonically increasing sequence number plus one [`WalOp`]. Records
//! are append-only; the only mutation a log ever sees is truncating a
//! torn/corrupt tail discovered during recovery.
//!
//! The scanner never trusts the file: a record is accepted only if its
//! frame is complete, its checksum matches, its payload deserialises and
//! its sequence number strictly increases. The first violation stops the
//! scan with a typed [`TailFault`] and the byte offset of the damage, so
//! recovery can report exactly how much acknowledged history survived.

use crate::crc::crc32;
use medvid_index::NodeId;
use medvid_types::{EventKind, ShotId, VideoId};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::Path;

/// Magic bytes opening every WAL file (the trailing byte is the format
/// version).
pub const WAL_MAGIC: [u8; 8] = *b"MVWAL\x00\x00\x01";

/// Bytes of frame overhead per record (length prefix + checksum).
pub const FRAME_OVERHEAD: u64 = 8;

/// Upper bound on one record's payload; a larger length prefix is treated
/// as corruption so a torn length field cannot demand a huge allocation.
pub const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// A record type stored in a framed log.
pub trait Framed: Serialize + DeserializeOwned {
    /// Magic bytes opening every log of this record type. Distinct magics
    /// make a log opened as the wrong type fail with
    /// [`TailFault::BadMagic`].
    const MAGIC: [u8; 8];

    /// The record's sequence number; the scanner requires it to strictly
    /// increase.
    fn seq(&self) -> u64;
}

/// One shot as stored in the log (the durable twin of the serving layer's
/// ingest payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredShot {
    /// Owning video.
    pub video: VideoId,
    /// Shot within that video.
    pub shot: ShotId,
    /// Concatenated feature vector.
    pub features: Vec<f32>,
    /// Mined event of the owning scene.
    pub event: EventKind,
    /// Scene-level concept node the shot is indexed under.
    pub scene_node: NodeId,
}

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum WalOp {
    /// Index a single shot.
    IngestShot {
        /// The shot to index.
        shot: StoredShot,
    },
    /// Index a batch of shots belonging to one ingest (all-or-nothing at
    /// apply time: the serving layer validates the batch before logging).
    IngestVideo {
        /// The shots to index.
        shots: Vec<StoredShot>,
    },
    /// Drop every indexed shot of one video.
    RemoveVideo {
        /// The video to drop.
        video: VideoId,
    },
    /// Marker appended after a checkpoint segment was made durable: every
    /// operation with `seq <= last_seq` is covered by the snapshot. Replay
    /// treats it as a no-op; it exists so an untruncated WAL still records
    /// that the checkpoint happened.
    Checkpoint {
        /// Highest sequence number the checkpoint covers.
        last_seq: u64,
    },
}

/// One WAL record: a sequence number plus the operation it makes durable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Strictly increasing sequence number (1-based).
    pub seq: u64,
    /// The logged operation.
    pub op: WalOp,
}

impl Framed for WalRecord {
    const MAGIC: [u8; 8] = WAL_MAGIC;

    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Why a log scan (and therefore recovery) stopped before the end of the
/// file. Offsets are absolute file positions of the damaged frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TailFault {
    /// The file is shorter than the magic header.
    TornHeader,
    /// The header bytes are not the magic of the record type scanned.
    BadMagic,
    /// The WAL file is missing beside an existing checkpoint. An
    /// engine-created store always has a log (every checkpoint writes a
    /// fresh one), so this means deletion — every acknowledged record past
    /// the checkpoint is lost, which must not look like a freshly
    /// checkpointed store.
    MissingWal,
    /// A frame's length prefix or payload extends past end-of-file.
    TornRecord {
        /// Offset of the incomplete frame.
        offset: u64,
    },
    /// A length prefix beyond [`MAX_RECORD_BYTES`].
    Oversized {
        /// Offset of the offending frame.
        offset: u64,
        /// The claimed payload length.
        len: u32,
    },
    /// The stored checksum disagrees with the payload.
    BadChecksum {
        /// Offset of the offending frame.
        offset: u64,
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// The payload passed its checksum but does not deserialise — only
    /// possible when the record was written corrupt (e.g. tampering that
    /// refreshed the checksum).
    BadPayload {
        /// Offset of the offending frame.
        offset: u64,
        /// Parser detail.
        detail: String,
    },
    /// A record's sequence number does not strictly increase.
    OutOfOrderSeq {
        /// Offset of the offending frame.
        offset: u64,
        /// The regressing sequence number.
        seq: u64,
        /// The previous record's sequence number.
        prev: u64,
    },
    /// The record is well-formed but its operation was rejected during
    /// replay (unknown node, duplicate shot, dimension mismatch, ...).
    RejectedOp {
        /// Offset of the offending frame.
        offset: u64,
        /// Sequence number of the rejected record.
        seq: u64,
        /// Why the database refused it.
        detail: String,
    },
}

impl std::fmt::Display for TailFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailFault::TornHeader => write!(f, "torn file header"),
            TailFault::BadMagic => write!(f, "bad magic bytes"),
            TailFault::MissingWal => {
                write!(f, "WAL file missing beside an existing checkpoint")
            }
            TailFault::TornRecord { offset } => write!(f, "torn record at byte {offset}"),
            TailFault::Oversized { offset, len } => {
                write!(f, "oversized length {len} at byte {offset}")
            }
            TailFault::BadChecksum {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch at byte {offset} (stored {stored:#010x}, computed {computed:#010x})"
            ),
            TailFault::BadPayload { offset, detail } => {
                write!(f, "undecodable payload at byte {offset}: {detail}")
            }
            TailFault::OutOfOrderSeq { offset, seq, prev } => {
                write!(f, "sequence {seq} after {prev} at byte {offset}")
            }
            TailFault::RejectedOp { offset, seq, detail } => {
                write!(f, "record {seq} at byte {offset} rejected: {detail}")
            }
        }
    }
}

/// Encodes one record as a frame (length prefix + checksum + payload).
///
/// # Errors
/// Serialisation failures surface as `InvalidData` (they indicate a bug,
/// not bad input — every record value is serialisable); an oversized
/// payload is `InvalidInput`.
pub fn encode_record<R: Framed>(record: &R) -> io::Result<Vec<u8>> {
    let payload = serde_json::to_vec(record)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if payload.len() > MAX_RECORD_BYTES as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("record of {} bytes exceeds the frame limit", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(payload.len() + FRAME_OVERHEAD as usize);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&crc32(&payload).to_be_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// The result of scanning a log file front to back.
#[derive(Debug)]
pub struct LogScan<R> {
    /// Every record in the valid prefix, in file order.
    pub records: Vec<R>,
    /// Absolute start offset of each record in `records`.
    pub offsets: Vec<u64>,
    /// Length of the valid prefix (header plus whole good frames).
    pub valid_bytes: u64,
    /// Total file length.
    pub total_bytes: u64,
    /// Why the scan stopped early, if it did.
    pub fault: Option<TailFault>,
}

impl<R> LogScan<R> {
    /// Bytes of torn/corrupt tail after the valid prefix.
    pub fn discarded_bytes(&self) -> u64 {
        self.total_bytes - self.valid_bytes
    }
}

/// Scans the log of `R` records at `path`. Returns `Ok(None)` when the
/// file does not exist (a fresh store or queue).
///
/// # Errors
/// Propagates I/O failures reading the file; damaged *contents* are not
/// errors — they surface as [`LogScan::fault`].
pub fn scan_log<R: Framed>(path: &Path) -> io::Result<Option<LogScan<R>>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(Some(scan_bytes(&bytes)))
}

/// Scans the store WAL at `path`: [`scan_log`] over [`WalRecord`]s.
///
/// # Errors
/// As [`scan_log`].
pub fn scan_wal(path: &Path) -> io::Result<Option<LogScan<WalRecord>>> {
    scan_log(path)
}

/// Scans in-memory log bytes (the file-reading half split out for tests).
pub fn scan_bytes<R: Framed>(bytes: &[u8]) -> LogScan<R> {
    let total = bytes.len() as u64;
    let mut scan = LogScan {
        records: Vec::new(),
        offsets: Vec::new(),
        valid_bytes: 0,
        total_bytes: total,
        fault: None,
    };
    if bytes.len() < R::MAGIC.len() {
        scan.fault = Some(TailFault::TornHeader);
        return scan;
    }
    if bytes[..R::MAGIC.len()] != R::MAGIC {
        scan.fault = Some(TailFault::BadMagic);
        return scan;
    }
    let mut pos = R::MAGIC.len();
    scan.valid_bytes = pos as u64;
    let mut prev_seq = 0u64;
    while pos < bytes.len() {
        let offset = pos as u64;
        if bytes.len() - pos < FRAME_OVERHEAD as usize {
            scan.fault = Some(TailFault::TornRecord { offset });
            return scan;
        }
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let stored = u32::from_be_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            scan.fault = Some(TailFault::Oversized { offset, len });
            return scan;
        }
        let body_start = pos + FRAME_OVERHEAD as usize;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            scan.fault = Some(TailFault::TornRecord { offset });
            return scan;
        }
        let payload = &bytes[body_start..body_end];
        let computed = crc32(payload);
        if computed != stored {
            scan.fault = Some(TailFault::BadChecksum {
                offset,
                stored,
                computed,
            });
            return scan;
        }
        let record: R = match serde_json::from_slice(payload) {
            Ok(r) => r,
            Err(e) => {
                scan.fault = Some(TailFault::BadPayload {
                    offset,
                    detail: e.to_string(),
                });
                return scan;
            }
        };
        if record.seq() <= prev_seq {
            scan.fault = Some(TailFault::OutOfOrderSeq {
                offset,
                seq: record.seq(),
                prev: prev_seq,
            });
            return scan;
        }
        prev_seq = record.seq();
        scan.records.push(record);
        scan.offsets.push(offset);
        pos = body_end;
        scan.valid_bytes = pos as u64;
    }
    scan
}

/// Outcome of one group-committed append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Frame bytes written.
    pub bytes: u64,
    /// Whether this append ended with an fsync.
    pub fsynced: bool,
}

/// When a log writer forces bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FsyncPolicy {
    /// fsync after every append (group commit per batch): an acknowledged
    /// write survives an immediate power cut.
    Always,
    /// fsync once every N records: bounded loss window, much higher
    /// throughput.
    EveryN(u64),
    /// Never fsync explicitly; the OS flushes on its own schedule. Fastest,
    /// survives process crashes but not power cuts.
    Never,
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every {n} records"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Append handle over one log file of `R` records.
#[derive(Debug)]
pub struct LogWriter<R> {
    file: File,
    policy: FsyncPolicy,
    bytes: u64,
    records: u64,
    unsynced_records: u64,
    record: PhantomData<fn(&R)>,
}

impl<R: Framed> LogWriter<R> {
    /// Creates (or truncates) the log at `path`: writes the magic header
    /// and fsyncs it.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn create(path: &Path, policy: FsyncPolicy) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&R::MAGIC)?;
        file.sync_all()?;
        Ok(LogWriter {
            file,
            policy,
            bytes: R::MAGIC.len() as u64,
            records: 0,
            unsynced_records: 0,
            record: PhantomData,
        })
    }

    /// Opens an existing log whose valid prefix is `valid_bytes` long and
    /// holds `records` records, truncating any tail beyond the prefix so
    /// new appends continue from clean bytes.
    ///
    /// A prefix shorter than the magic means a crash tore the header
    /// itself. [`LogWriter::create`] fsyncs the header before any append
    /// is acknowledged, so such a log held no durable records: it is
    /// rebuilt rather than truncated to a headerless file that the next
    /// scan would reject wholesale. Callers must refuse a
    /// [`TailFault::BadMagic`] file before calling this, or it is rebuilt
    /// too.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn open_at(
        path: &Path,
        valid_bytes: u64,
        records: u64,
        policy: FsyncPolicy,
    ) -> io::Result<Self> {
        if valid_bytes < R::MAGIC.len() as u64 {
            return Self::create(path, policy);
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_bytes)?;
        file.sync_all()?;
        file.seek(SeekFrom::End(0))?;
        Ok(LogWriter {
            file,
            policy,
            bytes: valid_bytes,
            records,
            unsynced_records: 0,
            record: PhantomData,
        })
    }

    /// Appends `records` as one group commit: every frame is written and
    /// flushed to the OS, then the fsync policy decides whether to force
    /// stable storage.
    ///
    /// # Errors
    /// Propagates I/O failures; on error the in-memory accounting is left
    /// at the last known-good state (callers should treat the store as
    /// failed and recover).
    pub fn append(&mut self, records: &[R]) -> io::Result<AppendOutcome> {
        let mut frames = Vec::new();
        for r in records {
            frames.extend_from_slice(&encode_record(r)?);
        }
        self.file.write_all(&frames)?;
        self.file.flush()?;
        self.bytes += frames.len() as u64;
        self.records += records.len() as u64;
        self.unsynced_records += records.len() as u64;
        let fsynced = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced_records >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if fsynced {
            self.file.sync_all()?;
            self.unsynced_records = 0;
        }
        Ok(AppendOutcome {
            bytes: frames.len() as u64,
            fsynced,
        })
    }

    /// Forces every written byte to stable storage regardless of policy.
    /// Returns whether an fsync was actually issued.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn sync(&mut self) -> io::Result<bool> {
        if self.unsynced_records == 0 {
            return Ok(false);
        }
        self.file.sync_all()?;
        self.unsynced_records = 0;
        Ok(true)
    }

    /// Current file length (header + appended frames).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended since the header (survivors of recovery included).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records written since the last fsync.
    pub fn unsynced_records(&self) -> u64 {
        self.unsynced_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shot(i: usize) -> StoredShot {
        StoredShot {
            video: VideoId(1),
            shot: ShotId(i),
            features: vec![0.5, 0.25, i as f32],
            event: EventKind::Dialog,
            scene_node: NodeId(3),
        }
    }

    fn record(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            op: WalOp::IngestShot {
                shot: shot(seq as usize),
            },
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("medvid-wal-{}-{name}", std::process::id()))
    }

    #[test]
    fn append_then_scan_roundtrips() {
        let path = tmp("roundtrip.log");
        let mut w = LogWriter::create(&path, FsyncPolicy::Always).unwrap();
        let records: Vec<_> = (1..=5).map(record).collect();
        let out = w.append(&records).unwrap();
        assert!(out.fsynced);
        let scan = scan_wal(&path).unwrap().expect("file exists");
        assert_eq!(scan.records, records);
        assert_eq!(scan.fault, None);
        assert_eq!(scan.valid_bytes, scan.total_bytes);
        assert_eq!(scan.offsets.len(), 5);
        let _ = std::fs::remove_file(&path);
    }

    /// Logs written by earlier builds must keep opening: pins the exact
    /// bytes of one WAL frame, and that the jobs-log magic is refused.
    #[test]
    fn frame_bytes_are_pinned() {
        let record = WalRecord {
            seq: 7,
            op: WalOp::IngestShot {
                shot: StoredShot {
                    video: VideoId(2),
                    shot: ShotId(3),
                    features: vec![0.5, -1.25],
                    event: EventKind::Dialog,
                    scene_node: NodeId(4),
                },
            },
        };
        let frame = encode_record(&record).unwrap();
        assert_eq!(frame[..8], [0x00, 0x00, 0x00, 0x76, 0x98, 0x16, 0x08, 0x1f]);
        assert_eq!(
            std::str::from_utf8(&frame[8..]).unwrap(),
            r#"{"seq":7,"op":{"op":"ingest_shot","shot":{"video":2,"shot":3,"features":[0.5,-1.25],"event":"Dialog","scene_node":4}}}"#
        );
        let mut jobs_log = b"MVJOBS\x00\x01".to_vec();
        jobs_log.extend_from_slice(&frame);
        assert_eq!(
            scan_bytes::<WalRecord>(&jobs_log).fault,
            Some(TailFault::BadMagic)
        );
    }

    #[test]
    fn missing_file_scans_to_none() {
        assert!(scan_wal(Path::new("/nonexistent/medvid.wal"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn every_n_policy_batches_fsyncs() {
        let path = tmp("everyn.log");
        let mut w = LogWriter::create(&path, FsyncPolicy::EveryN(3)).unwrap();
        assert!(!w.append(&[record(1)]).unwrap().fsynced);
        assert!(!w.append(&[record(2)]).unwrap().fsynced);
        assert!(w.append(&[record(3)]).unwrap().fsynced);
        assert_eq!(w.unsynced_records(), 0);
        assert!(!w.append(&[record(4)]).unwrap().fsynced);
        assert!(w.sync().unwrap());
        assert!(!w.sync().unwrap(), "nothing left to sync");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_is_a_torn_record() {
        let path = tmp("torn.log");
        let mut w = LogWriter::create(&path, FsyncPolicy::Always).unwrap();
        w.append(&[record(1), record(2)]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in (WAL_MAGIC.len() + 1)..bytes.len() {
            let scan = scan_bytes::<WalRecord>(&bytes[..cut]);
            // The prefix survives whole frames; everything else is a
            // typed fault, never a panic.
            if scan.fault.is_some() {
                assert!(scan.valid_bytes < cut as u64 + 1);
            } else {
                assert_eq!(scan.valid_bytes, cut as u64);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let path = tmp("flip.log");
        let mut w = LogWriter::create(&path, FsyncPolicy::Always).unwrap();
        w.append(&[record(1)]).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit inside the payload: the checksum must catch it.
        let mut mauled = clean.clone();
        let idx = WAL_MAGIC.len() + FRAME_OVERHEAD as usize + 2;
        mauled[idx] ^= 0x10;
        let scan = scan_bytes::<WalRecord>(&mauled);
        assert!(
            matches!(scan.fault, Some(TailFault::BadChecksum { .. })),
            "{:?}",
            scan.fault
        );
        assert!(scan.records.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sequence_regressions_are_rejected() {
        let path = tmp("seq.log");
        let mut w = LogWriter::create(&path, FsyncPolicy::Always).unwrap();
        w.append(&[record(5), record(5)]).unwrap();
        let scan = scan_wal(&path).unwrap().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(
            scan.fault,
            Some(TailFault::OutOfOrderSeq { seq: 5, prev: 5, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_and_torn_header_are_typed() {
        let scan = scan_bytes::<WalRecord>(b"NOTAWAL!rest");
        assert_eq!(scan.fault, Some(TailFault::BadMagic));
        let scan = scan_bytes::<WalRecord>(b"MVW");
        assert_eq!(scan.fault, Some(TailFault::TornHeader));
        assert_eq!(scan.valid_bytes, 0);
    }

    #[test]
    fn oversized_length_prefix_is_typed() {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&(MAX_RECORD_BYTES + 1).to_be_bytes());
        bytes.extend_from_slice(&[0; 8]);
        let scan = scan_bytes::<WalRecord>(&bytes);
        assert!(matches!(scan.fault, Some(TailFault::Oversized { .. })));
    }

    #[test]
    fn open_at_truncates_the_damaged_tail() {
        let path = tmp("reopen.log");
        let mut w = LogWriter::create(&path, FsyncPolicy::Always).unwrap();
        w.append(&[record(1)]).unwrap();
        let good_len = w.bytes();
        // Simulate a torn in-flight record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[1, 2, 3]).unwrap();
        }
        let scan = scan_wal(&path).unwrap().unwrap();
        assert_eq!(scan.valid_bytes, good_len);
        assert!(scan.fault.is_some());
        let mut w = LogWriter::open_at(&path, scan.valid_bytes, 1, FsyncPolicy::Always).unwrap();
        w.append(&[record(2)]).unwrap();
        let rescan = scan_wal(&path).unwrap().unwrap();
        assert_eq!(rescan.records.len(), 2);
        assert_eq!(rescan.fault, None);
        let _ = std::fs::remove_file(&path);
    }
}
