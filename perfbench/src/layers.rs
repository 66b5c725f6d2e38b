//! The metric names a run prints, with their units. `BENCHMARK.json`
//! lists the same names; the smoke test holds the two in step.

use crate::stats::{micros_to_ms, RunReport};
use medvid::obs::MiningReport;
use medvid::serve::TraceReport;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run. A layer that does no
/// work on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("codec.decode_ms", "ms"),
    ("structure.shot_detect_ms", "ms"),
    ("structure.group_mine_ms", "ms"),
    ("structure.scene_merge_ms", "ms"),
    ("structure.pcs_cluster_ms", "ms"),
    ("audio.audio_bic_ms", "ms"),
    ("vision.visual_cues_ms", "ms"),
    ("events.event_rules_ms", "ms"),
    ("mine.unattributed_ms", "ms"),
    ("serve.ingest_wire_ms", "ms"),
    ("serve.writer_wait_ms", "ms"),
    ("index.append_ms", "ms"),
    ("store.append_ms", "ms"),
    ("store.wal_bytes_per_shot", "bytes"),
    ("store.checkpoints", "count"),
    ("store.fsyncs", "count"),
    ("jobs.compactions", "count"),
    ("jobs.drift_max", "count"),
    ("cluster.writer_late_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.admission_ms", "ms"),
    ("serve.cache_lookup_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.invalidations", "count"),
    ("index.search_ms", "ms"),
    ("knn.comparisons_per_query", "count"),
    ("knn.rerank_per_query", "count"),
    ("knn.ranked_per_comparison", "ratio"),
    ("cluster.read_overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Writes the traced run's measured layers into `report`, every name of
/// [`PER_LAYER`] present and unmeasured layers at 0.
pub fn emit_layers(report: &mut RunReport, measured: &BTreeMap<&'static str, f64>) {
    assert!(
        measured
            .keys()
            .all(|k| PER_LAYER.iter().any(|(n, _)| n == k)),
        "a measured layer metric is missing from PER_LAYER"
    );
    for (name, unit) in PER_LAYER {
        report.metric(name, measured.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Unit of an end-to-end metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("end-to-end metric is listed")
}

/// Writes the untraced run's end-to-end metrics into `report`.
pub fn emit_end_to_end(report: &mut RunReport, values: [(&str, f64); 6]) {
    for (name, value) in values {
        report.metric(name, value, unit_of(name));
    }
}

/// Time a server `TraceReport` attributes to `stage`, or `None` when the
/// request never reached that stage (a cache hit has no queue wait or
/// index search).
pub fn trace_stage_ms(report: &TraceReport, stage: &str) -> Option<f64> {
    let mut spans = report.stages.iter().filter(|s| s.stage == stage).peekable();
    spans.peek()?;
    Some(spans.map(|s| micros_to_ms(s.micros)).sum())
}

/// Self-time of one `medvid-obs` stage in a recorder's report (0 when the
/// stage never ran).
pub fn self_time_ms(report: &MiningReport, stage: &str) -> f64 {
    report.stages.get(stage).map_or(0.0, |s| s.self_secs * 1e3)
}
