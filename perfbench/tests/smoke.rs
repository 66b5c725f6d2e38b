//! Smoke test: every workload at the tiny scale with a fixed seed, traced
//! and untraced. The printed metric names and units must equal those in
//! `BENCHMARK.json`, and every correctness gate of the workload (and of
//! its traced run, which adds the cluster phase to `query`) must have run
//! and held.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

#[derive(Deserialize)]
struct Named {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

#[derive(Deserialize)]
struct Metric {
    unit: String,
}

#[derive(Deserialize)]
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

#[derive(Deserialize)]
struct Gate {
    name: String,
    passed: bool,
}

#[derive(Deserialize)]
struct FullReport {
    gates: Vec<Gate>,
}

fn benchmark() -> Benchmark {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn expected_gates(workload: &str, trace: bool) -> Vec<&'static str> {
    let mut gates = match workload {
        "mine_ingest" => vec![
            "mine_ingest.records_match_acks",
            "mine_ingest.digest_stable",
        ],
        "query" => vec![
            "query.answers_match_flat_reference",
            "query.server_stage_sum",
            "query.records_match_acks",
        ],
        other => panic!("BENCHMARK.json names a workload the smoke test does not know: {other}"),
    };
    if trace {
        gates.extend(match workload {
            "mine_ingest" => &[
                "mine_ingest.server_stage_sum",
                "mine_ingest.unattributed_nonnegative",
            ][..],
            _ => &[
                "cluster.acked_writes_served",
                "cluster.record_total",
                "cluster.gather_matches_single_node",
            ][..],
        });
    }
    gates
}

fn run(workload: &str, trace: bool) -> (FullReport, Summary) {
    let out = Command::new(env!("CARGO_BIN_EXE_medvid-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1.5",
            "--scale",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected a report and a summary line"
    );
    let full = serde_json::from_str(lines[lines.len() - 2]).expect("report line parses");
    let summary = serde_json::from_str(lines[lines.len() - 1]).expect("summary line parses");
    (full, summary)
}

fn assert_metrics_match(workload: &str, summary: &Summary, listed: &[Named]) {
    let printed: Vec<(&str, &str)> = summary
        .metrics
        .iter()
        .map(|(n, m)| (n.as_str(), m.unit.as_str()))
        .collect();
    let mut declared: Vec<(&str, &str)> = listed
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    declared.sort();
    assert_eq!(
        printed, declared,
        "{workload}: printed metrics differ from BENCHMARK.json"
    );
}

#[test]
fn every_workload_prints_the_declared_metrics_and_passes_its_gates() {
    let bench = benchmark();
    assert!(!bench.workloads.is_empty());
    for workload in &bench.workloads {
        for trace in [false, true] {
            let (full, summary) = run(&workload.name, trace);
            assert!(
                summary.correct,
                "{}: a correctness gate failed",
                workload.name
            );
            assert!(summary.attempted >= 1);
            assert_eq!(summary.failed, 0, "{}: operations failed", workload.name);
            let listed = if trace {
                &bench.per_layer
            } else {
                &bench.end_to_end
            };
            assert_metrics_match(&workload.name, &summary, listed);
            for gate in expected_gates(&workload.name, trace) {
                assert!(
                    full.gates.iter().any(|g| g.name == *gate && g.passed),
                    "{}: gate {gate} did not run or did not hold",
                    workload.name
                );
            }
        }
    }
}
