//! Concurrent query serving over the medical video database.
//!
//! The paper's closing sections pitch the mined hierarchy as the backbone
//! of a *database service* — many clinicians querying one index while new
//! material streams in. This crate provides that serving layer as four
//! pieces, each independently testable:
//!
//! * [`service::DbService`] — an epoch-numbered, snapshot-swapped handle
//!   over [`medvid_index::VideoDatabase`]: readers run on immutable `Arc`
//!   snapshots, writers rebuild off to the side and atomically swap.
//! * [`cache::ResultCache`] — a bounded LRU over canonicalised queries,
//!   invalidated wholesale whenever the epoch moves.
//! * [`executor::Executor`] — a fixed worker pool behind a bounded
//!   admission queue: full queues shed load with a typed rejection, and
//!   queries that outwait their deadline are abandoned, not executed.
//! * [`server`]/[`client`] — a length-prefixed JSON TCP protocol
//!   (`medvid-serve/v1`) carrying queries, ingest batches, stats,
//!   snapshot writes and graceful shutdown.
//!
//! [`loadgen`] drives N concurrent clients against a server and reports
//! throughput and latency quantiles via the same `medvid-obs` histograms
//! the server records into. The benchmark harness (`exp_bench` in
//! `medvid-eval`) runs it once per retrieval strategy for the client-side
//! serving rows of `BENCH_pipeline.json`.
//!
//! Servers spawned with [`server::spawn_durable`] additionally write every
//! ingest batch to a `medvid-store` write-ahead log *before* the epoch
//! swap acknowledges it, checkpoint in the background when the log grows
//! past its thresholds, and recover checkpoint + WAL tail on startup — see
//! the `medvid-store` crate for the on-disk format and crash-recovery
//! semantics.
//!
//! Durable servers also serve as replication leaders: the
//! `Request::FetchLog { from_seq }` verb answers a
//! `Response::LogSegment` (a checkpoint snapshot when the follower's
//! cursor predates the oldest retained record, then pages of WAL
//! suffix), which `medvid-cluster` followers apply through the crash
//! recovery replay path. A node configured with a shard id
//! ([`ServerConfig::shard`]) stamps it into its errors and metrics, and
//! a follower's [`MetricsSnapshot`] carries its [`ReplicationStatus`]
//! (role, applied/leader sequence, lag).

pub mod cache;
pub mod client;
pub mod executor;
pub mod jobs;
pub mod live;
pub mod loadgen;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod service;
pub mod trace;

pub use cache::{CachedResult, QueryKey, ResultCache};
pub use client::Client;
pub use executor::Executor;
pub use jobs::{JobWorkerCtx, JobsConfig, JobsRuntime, PIPELINE_VERSION};
pub use live::LiveMetrics;
pub use protocol::{
    CacheStats, ErrorKind, ExecutorStats, Hit, IngestShot, JobsStatus, KnnKernelStats,
    MetricsSnapshot, QueryRequest, ReplicationStatus, Request, Response, SlowQueryRecord,
    StageTiming, TraceReport, WindowSummary, WireJobKind, WireJobStatus, WirePlannedPath,
    WireStats, WireStrategy, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use retry::{
    connect_with_retry, ClientError, RetryAction, RetryClassifier, RetryPolicy, RetryingClient,
};
pub use server::{spawn, spawn_durable, ServerConfig, ServerHandle};
pub use service::{CompactStats, DbEpoch, DbService, IngestError};
pub use trace::TraceCtx;
