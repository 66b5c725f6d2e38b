//! medvid benchmark: one command per workload, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <mine_ingest|query> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale small|tiny] [--out <file>]
//! ```
//!
//! Every input is derived from `--seed`. The program is driven only through
//! its public API at default configuration. The last line of standard
//! output is `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it is the full report (provenance, per-kind operation counts,
//! correctness gates), which `--out` also writes to a file. Scratch state
//! (store directories) lives under `.perfbench-work/` in the working
//! directory and is removed at exit.

mod cluster;
mod corpus;
mod layers;
mod mine_ingest;
mod query;
mod stats;

use corpus::Scale;
use serde::Serialize;
use stats::{Gate, Metric, OpTally, RunReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, as `BENCHMARK.json` names them.
const WORKLOADS: [&str; 2] = ["mine_ingest", "query"];

/// Tail percentile of each workload's primary operation (`tail_ms`) and
/// of its writes (`write_tail_ms`), as recorded in `BENCHMARK.json`. Each
/// is chosen so a 35 s parent run leaves at least ten samples beyond it:
/// mine_ingest completes only 40-60 videos in that time on a 2-CPU host,
/// and query's write probe makes 40 writes.
pub fn tail_percentiles(workload: &str) -> (f64, f64) {
    match workload {
        "mine_ingest" => (70.0, 60.0),
        _ => (95.0, 75.0),
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out: Option<PathBuf>,
    /// Per-run scratch directory for store state.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::parse("small");
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--scale" => {
                let v = value()?;
                scale = Some(Scale::parse(&v).ok_or(format!("unknown scale {v}"))?);
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let work = PathBuf::from(".perfbench-work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(35.0),
        trace: trace.unwrap_or(false),
        scale: scale.expect("small is a known scale"),
        out,
        work,
    })
}

#[derive(Serialize)]
struct Provenance {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: usize,
    par_max_threads: usize,
    server_workers: usize,
    fsync_policy: String,
    target_cpu_native: bool,
    scale: String,
    tail_percentile: BTreeMap<String, f64>,
    facts: BTreeMap<String, String>,
}

#[derive(Serialize)]
struct FullReport {
    provenance: Provenance,
    ops: BTreeMap<String, OpTally>,
    gates: Vec<Gate>,
    metrics: BTreeMap<String, Metric>,
}

#[derive(Serialize)]
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

fn provenance(args: &Args, facts: BTreeMap<String, String>) -> Provenance {
    let tail_percentile = WORKLOADS
        .iter()
        .flat_map(|w| {
            let (read, write) = tail_percentiles(w);
            [
                (format!("{w}.tail_ms"), read),
                (format!("{w}.write_tail_ms"), write),
            ]
        })
        .collect();
    Provenance {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        par_max_threads: medvid_par::max_threads(),
        server_workers: medvid::serve::ServerConfig::default().workers,
        fsync_policy: format!("{:?}", medvid::store::StoreConfig::default().fsync),
        target_cpu_native: env!("PERFBENCH_TARGET_CPU_NATIVE") == "true",
        scale: args.scale.name.to_string(),
        tail_percentile,
        facts,
    }
}

fn run(args: &Args) -> RunReport {
    match args.workload.as_str() {
        "mine_ingest" => mine_ingest::run(args),
        _ => query::run(args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let report = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    let _ = std::fs::remove_dir(Path::new(".perfbench-work"));

    let (mut attempted, mut failed) = (0, 0);
    for tally in report.ops.values() {
        attempted += tally.attempted;
        failed += tally.failed + tally.refused;
    }
    let correct = attempted > 0 && report.gates.iter().all(|g| g.passed);
    let full = FullReport {
        provenance: provenance(&args, report.facts),
        ops: report.ops,
        gates: report.gates,
        metrics: report.metrics.clone(),
    };
    let full_json = serde_json::to_string(&full).expect("report serialises");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &full_json) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for gate in full.gates.iter().filter(|g| !g.passed) {
        eprintln!(
            "perfbench: correctness gate {} failed: {}",
            gate.name, gate.detail
        );
    }
    let summary = Summary {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics: report.metrics,
    };
    println!("{full_json}");
    println!(
        "{}",
        serde_json::to_string(&summary).expect("summary serialises")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
