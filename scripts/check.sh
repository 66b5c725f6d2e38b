#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
#
# Usage: scripts/check.sh [--chaos] [--jobs-chaos]
# Runs from the workspace root regardless of the caller's cwd.
#
# --chaos additionally runs the randomized cluster chaos schedules under a
# rotating seed (printed on entry so any failure is reproducible); the
# default gate pins every seed for determinism. --jobs-chaos does the same
# for the durable job queue: workers are killed mid-job at rotating seeded
# steps and their successors must resume from the last checkpoint.

set -euo pipefail
cd "$(dirname "$0")/.."

CHAOS=0
JOBS_CHAOS=0
for arg in "$@"; do
  case "$arg" in
    --chaos) CHAOS=1 ;;
    --jobs-chaos) JOBS_CHAOS=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
# A caller-provided seed (MEDVID_TESTKIT_SEED=... scripts/check.sh --chaos)
# replays a previous chaos run; remember it before the pinned block below
# overwrites the variable.
CALLER_SEED="${MEDVID_TESTKIT_SEED:-}"

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

# The parallel decoder and the audio kernels promise output that does not
# depend on the thread count. The run above uses the host's count; this one
# gates the sequential fallback every parallel loop takes at one thread.
echo "== MEDVID_THREADS=1 cargo test -q -p medvid-codec -p medvid-audio =="
MEDVID_THREADS=1 cargo test -q -p medvid-codec -p medvid-audio

# The vendored shims' own unit tests. serde_json frames every WAL record,
# so a shim regression must fail here by name.
echo "== cargo test -q -p rand -p serde -p serde_json -p parking_lot =="
cargo test -q -p rand -p serde -p serde_json -p parking_lot

# The serving stack binds loopback sockets and spawns real worker pools, so
# its integration suite gets an explicit, visible run of its own.
echo "== cargo test -q --test serve_integration =="
cargo test -q --test serve_integration

# Property/fault-injection suites (medvid-testkit) under a pinned seed and a
# small case budget, so the gate is deterministic and fast; nightly-style
# deep runs just raise MEDVID_TESTKIT_CASES. A failing property prints its
# one-line reproduction (seed + case index) in the panic message.
echo "== testkit property suites (seed 2003, 16 cases) =="
export MEDVID_TESTKIT_SEED=2003 MEDVID_TESTKIT_CASES=16
cargo test -q -p medvid-signal --test testkit_laws
cargo test -q -p medvid-structure --test testkit_laws
cargo test -q -p medvid-par --test testkit_laws
cargo test -q -p medvid-audio --test testkit_bic
cargo test -q -p medvid-codec --test testkit_fuzz
cargo test -q -p medvid-serve --test protocol_fuzz
cargo test -q -p medvid-serve --test observability_integration
cargo test -q -p medvid-serve --test knn_serving
cargo test -q -p medvid-index --test persist_faults
# Retrieval-kernel exactness: quantized scan / planner / best-first descent
# must stay bit-identical to the scalar flat scan.
cargo test -q -p medvid-knn
cargo test -q -p medvid-index --test knn_equivalence
# One framed log (medvid_store::wal) carries both the store WAL and the jobs
# queue: crash_consistency and medvid-jobs' jobs_crash both gate it against
# torn and corrupt logs. The jobs suites below add incremental-ingest ≡
# rebuild equivalence through the service and the seeded worker-kill sweep.
cargo test -q -p medvid-store --test crash_consistency
cargo test -q -p medvid-jobs
cargo test -q -p medvid-serve --test incremental_vs_rebuild
cargo test -q -p medvid-serve --test jobs_chaos
cargo test -q -p medvid --test serve_faults
cargo test -q -p medvid --test serve_durability
cargo test -q -p medvid --test golden_pipeline
# Cluster tier: merge-correctness/replication properties, then the 3-shard
# failover end-to-end (FaultProxy-severed shard, replica reads, catch-up).
cargo test -q -p medvid-cluster --test cluster_properties
cargo test -q -p medvid-cluster --test cluster_integration
# Control plane: kill-at-every-step promotion property, scripted + seeded
# chaos schedules over ClusterSim, and mid-ingest resharding accounting.
cargo test -q -p medvid-cluster --test cluster_promotion
cargo test -q -p medvid-cluster --test cluster_chaos
cargo test -q -p medvid-cluster --test cluster_reshard
unset MEDVID_TESTKIT_SEED MEDVID_TESTKIT_CASES

if [ "$CHAOS" = 1 ]; then
  # Rotating seed: a fresh schedule every run, reproducible because the
  # seed is printed here and again in any failing property's panic line.
  CHAOS_SEED="${CALLER_SEED:-$(date +%s)}"
  echo "== chaos mode: randomized cluster schedules (seed $CHAOS_SEED) =="
  echo "   reproduce with: MEDVID_TESTKIT_SEED=$CHAOS_SEED scripts/check.sh --chaos"
  MEDVID_TESTKIT_SEED="$CHAOS_SEED" \
    cargo test -q -p medvid-cluster --test cluster_chaos
  MEDVID_TESTKIT_SEED="$CHAOS_SEED" \
    cargo test -q -p medvid-cluster --test cluster_promotion
fi

if [ "$JOBS_CHAOS" = 1 ]; then
  # Rotating seed drives fresh kill steps (which worker dies after how many
  # checkpoints) every run; the seed printed here, and in any failing
  # property's panic line, replays the exact schedule.
  JOBS_SEED="${CALLER_SEED:-$(date +%s)}"
  echo "== jobs chaos mode: seeded worker kills mid-job (seed $JOBS_SEED) =="
  echo "   reproduce with: MEDVID_TESTKIT_SEED=$JOBS_SEED scripts/check.sh --jobs-chaos"
  MEDVID_TESTKIT_SEED="$JOBS_SEED" MEDVID_TESTKIT_CASES=64 \
    cargo test -q -p medvid-serve --test jobs_chaos
fi

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

# Smoke-size run of the one benchmark harness, exp_bench: exercises the
# parallel engine end-to-end (including its cross-thread determinism
# assertion), the codec round trip and loadgen against a live server with
# zero errors per retrieval strategy. It writes
# target/experiments/bench_pipeline.json only; the root BENCH_pipeline.json
# trajectory comes from full runs of scripts/bench.sh.
echo "== scripts/bench.sh --smoke =="
scripts/bench.sh --smoke

# Advisory only: the seed predates the toolchain's rustfmt style, so a hard
# --check would fail on files no PR touched.
echo "== cargo fmt --check (advisory) =="
cargo fmt --check || echo "warning: formatting drift (not a gate failure)"

echo "tier-1 gate: OK"
