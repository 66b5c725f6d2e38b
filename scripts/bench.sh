#!/usr/bin/env bash
# Benchmark trajectory: runs the E-BENCH throughput experiment and refreshes
# BENCH_pipeline.json at the repository root (exp_bench writes it to the
# working directory, and this script runs from the root).
#
# Usage: scripts/bench.sh [--smoke]
#   --smoke   tiny corpus, same thread ladder (seconds, used by check.sh);
#             writes only target/experiments/bench_pipeline.json and leaves
#             the root BENCH_pipeline.json untouched
#
# Thread budgets beyond the measured set can be probed ad hoc with e.g.
#   MEDVID_THREADS=8 cargo run --release -p medvid-eval --bin exp_bench

set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo run --release -p medvid-eval --bin exp_bench -- "$@"; then
    echo "bench failed; reproduce with:" >&2
    echo "  cargo run --release -p medvid-eval --bin exp_bench -- $*" >&2
    exit 1
fi
