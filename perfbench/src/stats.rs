//! Shared measurement plumbing: seeded randomness, latency percentiles,
//! per-kind operation accounting and the metric list a run reports.

use serde::Serialize;
use std::collections::BTreeMap;

/// SplitMix64: a tiny seeded generator, so every input of a run is a pure
/// function of `--seed` and independent of the program's own RNG shims.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a seeded run.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank percentile of `samples` (milliseconds). A failed operation
/// is recorded as `f64::INFINITY`, so it misses every latency limit; a
/// percentile that lands on one reports `f64::MAX`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::MAX;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let v = sorted[rank.min(sorted.len()) - 1];
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

/// Median of finite values (0 when there are none).
pub fn median(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        0.0
    } else {
        percentile(&finite, 50.0)
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Outcome tally for one operation kind (`read` or `write`).
#[derive(Debug, Clone, Default, Serialize)]
pub struct OpTally {
    pub attempted: u64,
    pub succeeded: u64,
    /// Transport failures, timeouts and unavailable shards.
    pub failed: u64,
    /// Typed rejections from the program (overload, deadline, duplicate).
    pub refused: u64,
}

impl OpTally {
    pub fn merge(&mut self, other: &OpTally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.refused += other.refused;
    }

    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.succeeded += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Refused => self.refused += 1,
        }
    }
}

/// Outcomes and client-seen latencies of one operation kind. A failed or
/// refused operation is recorded as `f64::INFINITY`, so it misses every
/// latency limit. A traced run alternates traced and untraced operations;
/// the medians of the two halves give the tracing overhead.
#[derive(Debug, Default)]
pub struct LatencyLog {
    pub tally: OpTally,
    pub latencies: Vec<f64>,
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

impl LatencyLog {
    pub fn record(&mut self, outcome: Outcome, ms: f64, traced: bool) {
        self.tally.record(outcome);
        let lat = if outcome == Outcome::Ok {
            ms
        } else {
            f64::INFINITY
        };
        self.latencies.push(lat);
        if traced {
            self.traced.push(lat)
        } else {
            self.untraced.push(lat)
        }
    }

    pub fn merge(&mut self, other: LatencyLog) {
        self.tally.merge(&other.tally);
        self.latencies.extend(other.latencies);
        self.traced.extend(other.traced);
        self.untraced.extend(other.untraced);
    }

    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.latencies, p)
    }

    /// Traced versus untraced median latency, in percent; `None` unless
    /// the log holds both kinds.
    pub fn overhead_pct(&self) -> Option<f64> {
        let untraced = median(&self.untraced);
        (!self.traced.is_empty() && untraced > 0.0)
            .then(|| (median(&self.traced) / untraced - 1.0) * 100.0)
    }
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Failed,
    Refused,
}

/// One correctness gate and whether it held.
#[derive(Debug, Clone, Serialize)]
pub struct Gate {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// One reported number.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    pub ops: BTreeMap<String, OpTally>,
    pub gates: Vec<Gate>,
    pub metrics: BTreeMap<String, Metric>,
    /// Workload-specific facts for the provenance record.
    pub facts: BTreeMap<String, String>,
}

impl RunReport {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    pub fn gate(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.insert(name.to_string(), value.to_string());
    }

    pub fn tally(&mut self, kind: &str, tally: &OpTally) {
        self.ops.entry(kind.to_string()).or_default().merge(tally);
    }
}

pub fn micros_to_ms(micros: u64) -> f64 {
    micros as f64 / 1e3
}
