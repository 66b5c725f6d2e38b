//! **medvid-obs** — structured telemetry for the ClassMiner pipeline.
//!
//! The paper's pipeline (Fig. 3) is a five-stage cascade — shot segmentation
//! → group/scene mining → PCS clustering → audio/visual cue mining → event
//! rules — followed by index construction and retrieval. This crate is the
//! measurement substrate every stage reports into:
//!
//! * [`MetricsRegistry`] — a thread-safe store of named counters and
//!   log-scale duration histograms;
//! * [`Recorder`] — a cheap, cloneable handle that is either wired to a
//!   registry or disabled (the disabled recorder performs no clock reads, no
//!   allocation and no locking, so uninstrumented callers pay nothing);
//! * [`Span`] — an RAII guard timing one pipeline [`Stage`]; nested spans
//!   attribute child wall-clock time to the child stage, so every stage also
//!   reports its *self* time;
//! * [`MiningReport`] / [`CorpusReport`] — serializable per-video and
//!   per-corpus aggregations of stage timings plus domain counters (shots
//!   detected, groups formed, BIC tests run, index comparisons, …);
//! * [`RollingHistogram`] / [`WindowedCounter`] — fixed rings of
//!   time-bucketed aggregates for *live* dashboards: recent p50/p99, qps
//!   and error rates over the last couple of minutes, with deterministic
//!   clock injection (the serving tier's `Metrics` verb and `medvid top`
//!   are built on these).
//!
//! Locking discipline: counters and histograms live behind coarse mutexes
//! that are touched once per *stage* (span drop) or once per *batch*
//! (counter increment), never per frame. Hot loops stay lock-free; parallel
//! fan-outs (`medvid-eval`'s `map_videos`) give each worker thread its own
//! registry and merge once at the end.
//!
//! The crate is dependency-light by design: `std` plus `serde`/`serde_json`
//! for the report schema. No `tracing`, no `metrics`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod hist;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod rolling;
pub mod span;

pub use hist::LogHistogram;
pub use recorder::Recorder;
pub use registry::{MetricsRegistry, StageAccum};
pub use report::{
    CorpusReport, MiningReport, ReportEnvelope, StageReport, LIVE_SCHEMA_VERSION, SCHEMA_VERSION,
};
pub use rolling::{RollingHistogram, WindowedCounter};
pub use span::{Span, Stage};

/// Names of the domain counters the pipeline records.
///
/// Centralised so producers (pipeline crates) and consumers (report
/// renderers, tests) agree on spelling.
pub mod counters {
    /// Shots found by the shot detector.
    pub const SHOTS_DETECTED: &str = "shots_detected";
    /// Groups assembled by group detection.
    pub const GROUPS_FORMED: &str = "groups_formed";
    /// Scenes surviving the merge + elimination pass.
    pub const SCENES_DETECTED: &str = "scenes_detected";
    /// Candidate scenes dropped for having too few shots.
    pub const SCENES_DROPPED: &str = "scenes_dropped";
    /// Pairwise merge steps performed by PCS clustering.
    pub const PCS_ITERATIONS: &str = "pcs_iterations";
    /// The chosen cluster count `N*` (summed over videos).
    pub const PCS_FINAL_CLUSTERS: &str = "pcs_final_clusters";
    /// BIC speaker-change hypothesis tests actually run.
    pub const BIC_TESTS_RUN: &str = "bic_tests_run";
    /// BIC tests that declared a speaker change.
    pub const BIC_CHANGES_ACCEPTED: &str = "bic_changes_accepted";
    /// Representative clips classified as clean speech.
    pub const SPEECH_CLIPS: &str = "speech_clips";
    /// Representative clips classified as non-speech.
    pub const NONSPEECH_CLIPS: &str = "nonspeech_clips";
    /// Shots whose audio was too short to carry a representative clip.
    pub const SILENT_SHOTS: &str = "silent_shots";
    /// Verified faces found across representative frames.
    pub const FACES_FOUND: &str = "faces_found";
    /// Representative frames with a notable skin region.
    pub const SKIN_FRAMES: &str = "skin_frames";
    /// Representative frames with a blood-red region.
    pub const BLOOD_FRAMES: &str = "blood_frames";
    /// Shots ingested into the hierarchical index.
    pub const INDEX_SHOTS: &str = "index_shots";
    /// Feature-distance evaluations performed by retrieval.
    pub const INDEX_COMPARISONS: &str = "index_comparisons";
    /// Index nodes visited while routing queries.
    pub const INDEX_NODES_VISITED: &str = "index_nodes_visited";
    /// Sibling subtrees pruned (not descended into) while routing queries.
    pub const INDEX_PRUNED_SUBTREES: &str = "index_pruned_subtrees";
    /// Queries executed against the database.
    pub const QUERIES_RUN: &str = "queries_run";
    /// Records scanned by the quantized integer distance kernel.
    pub const KNN_QUANTIZED_COMPARISONS: &str = "knn_quantized_comparisons";
    /// Candidates re-ranked exactly in f32 after a quantized scan.
    pub const KNN_RERANK_CANDIDATES: &str = "knn_rerank_candidates";
    /// Planned queries the Eq. 24–25 cost model sent down the quantized
    /// flat path instead of the hierarchy.
    pub const PLANNER_FLAT_FALLBACKS: &str = "planner_flat_fallbacks";
    /// Requests accepted by the serving front-end.
    pub const SERVE_REQUESTS: &str = "serve_requests";
    /// Requests shed because the executor queue was full.
    pub const SERVE_REJECTED: &str = "serve_rejected";
    /// Queued requests abandoned because their deadline passed before a
    /// worker picked them up.
    pub const SERVE_DEADLINE_MISSES: &str = "serve_deadline_misses";
    /// Requests answered with any typed error (overload, deadline, bad
    /// request, store failure, internal).
    pub const SERVE_ERRORS: &str = "serve_errors";
    /// Requests whose total latency crossed the slow-query threshold and
    /// were captured in the slow-query log.
    pub const SERVE_SLOW_QUERIES: &str = "serve_slow_queries";
    /// Result-cache lookups answered from the cache.
    pub const SERVE_CACHE_HITS: &str = "serve_cache_hits";
    /// Result-cache lookups that missed.
    pub const SERVE_CACHE_MISSES: &str = "serve_cache_misses";
    /// Result-cache entries evicted by the LRU capacity bound.
    pub const SERVE_CACHE_EVICTIONS: &str = "serve_cache_evictions";
    /// Result-cache entries dropped wholesale by an epoch bump.
    pub const SERVE_CACHE_INVALIDATIONS: &str = "serve_cache_invalidations";
    /// Shots ingested online through the serving layer.
    pub const SERVE_INGESTED_SHOTS: &str = "serve_ingested_shots";
    /// Snapshot swaps installed by the serving layer (epoch bumps).
    pub const SERVE_EPOCH_SWAPS: &str = "serve_epoch_swaps";
    /// Group-committed WAL append calls (`medvid-store`).
    pub const STORE_APPENDS: &str = "store_appends";
    /// Individual records written to the WAL.
    pub const STORE_APPENDED_RECORDS: &str = "store_appended_records";
    /// fsyncs issued by the WAL writer (policy-dependent).
    pub const STORE_FSYNCS: &str = "store_fsyncs";
    /// Checkpoint segments written (atomic snapshot + WAL truncation).
    pub const STORE_CHECKPOINTS: &str = "store_checkpoints";
    /// WAL records replayed by crash recovery.
    pub const STORE_REPLAYED_RECORDS: &str = "store_replayed_records";
    /// WAL records skipped by recovery because a checkpoint already
    /// covered them.
    pub const STORE_SKIPPED_RECORDS: &str = "store_skipped_records";
    /// Bytes of torn/corrupt WAL tail discarded by recovery.
    pub const STORE_DISCARDED_BYTES: &str = "store_discarded_bytes";
    /// Scatter-gather queries fanned out by a cluster coordinator.
    pub const CLUSTER_QUERIES: &str = "cluster_queries";
    /// Scatter-gather queries that returned a degraded (partial) result
    /// because at least one shard had no reachable primary or replica.
    pub const CLUSTER_DEGRADED: &str = "cluster_degraded";
    /// Per-shard read requests answered by a replica because the primary
    /// was unreachable.
    pub const CLUSTER_FAILOVERS: &str = "cluster_failovers";
    /// Log segments a follower fetched and applied during WAL shipping.
    pub const CLUSTER_SEGMENTS_APPLIED: &str = "cluster_segments_applied";
    /// WAL records a follower replayed from shipped segments.
    pub const CLUSTER_RECORDS_SHIPPED: &str = "cluster_records_shipped";
    /// Health probes sent by the control plane (one per node per tick).
    pub const CLUSTER_PROBES: &str = "cluster_probes";
    /// Health probes that failed or timed out (a strike against the node).
    pub const CLUSTER_PROBE_STRIKES: &str = "cluster_probe_strikes";
    /// Replica-to-leader promotions performed after a primary was declared
    /// down.
    pub const CLUSTER_PROMOTIONS: &str = "cluster_promotions";
    /// Hash-range shard splits completed by the control plane.
    pub const CLUSTER_SPLITS: &str = "cluster_splits";
    /// Ingest batches refused by a fenced (deposed) primary.
    pub const CLUSTER_FENCED_WRITES: &str = "cluster_fenced_writes";
    /// Records handed from an old shard to a new one during a split.
    pub const CLUSTER_MOVED_RECORDS: &str = "cluster_moved_records";
    /// Jobs durably enqueued on the background job queue.
    pub const JOBS_SUBMITTED: &str = "jobs_submitted";
    /// Background jobs finished successfully.
    pub const JOBS_COMPLETED: &str = "jobs_completed";
    /// Background jobs terminally failed (retry budget exhausted).
    pub const JOBS_FAILED: &str = "jobs_failed";
    /// Job attempts re-queued with backoff after an explicit failure.
    pub const JOBS_RETRIES: &str = "jobs_retries";
    /// Index compaction passes published by the background job worker.
    pub const JOBS_COMPACTIONS: &str = "jobs_compactions";
}

/// Names of the value histograms the serving layer records (dimensionless
/// samples, unlike the nanosecond stage histograms).
pub mod values {
    /// Executor queue depth sampled at each admission decision.
    pub const SERVE_QUEUE_DEPTH: &str = "serve_queue_depth";
    /// Worker-thread budget of the `medvid-par` executor, sampled once per
    /// mined video (so reports show which parallelism the timings ran at).
    pub const PAR_THREADS: &str = "par_threads";
    /// Follower replication lag (leader seq minus applied seq), sampled
    /// after each fetch cycle.
    pub const REPLICATION_LAG: &str = "replication_lag";
    /// Background-job queue depth (queued + leased), sampled by the job
    /// worker each poll.
    pub const JOBS_QUEUE_DEPTH: &str = "jobs_queue_depth";
    /// Appends since the serving index's last full re-fit, sampled by the
    /// job worker each poll.
    pub const INDEX_DRIFT: &str = "index_drift";
}
