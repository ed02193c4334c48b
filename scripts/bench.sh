#!/usr/bin/env bash
# Runs the perf-trajectory benches — every bench main CI's bench-smoke job
# runs, with the same sweep settings (bench_shard only with --shards) — and
# records their results in the repo root:
#   BENCH_micro.json     — google-benchmark microbenchmarks, only when
#                          google-benchmark is installed (BM_BuildProblem /
#                          BM_ProblemAssembly track the zero-copy assembly
#                          cost).
#   BENCH_fig5.txt       — GRECA %SA scalability sweep (paper Figure 5).
#   BENCH_batch.txt      — Engine::RecommendBatch vs sequential throughput
#                          plus the problem_assembly_seconds / solve_seconds
#                          split, the tombstone-memo cold/warm assembly
#                          comparison, the batch-planner sweep and the
#                          per-solver quality-vs-speed sweep
#                          (GRECA_BATCH_ALGO=all, as in CI).
#   BENCH_batch.json     — the same, machine-readable (planner sweep,
#                          algo_sweep, sequential qps).
#   BENCH_online.txt     — query p50/p99 with and without a concurrent writer
#                          applying live rating updates (RCU snapshot swap),
#                          plus the publish-latency-vs-accumulated-live-
#                          ratings curve (delta-log acceptance: steady p99
#                          flat within 1.5x while live ratings grow 10x).
#   BENCH_online.json    — the same, machine-readable (queries/sec under a
#                          concurrent writer, snapshot-publish latency, the
#                          per-decile publish_curve with compaction counts).
#   BENCH_formation.txt  — group formation: every formation strategy forms
#                          groups that one planned ShardedEngine batch then
#                          serves (the formation round trip); exits 1 when
#                          any formed group fails to serve.
#   BENCH_formation.json — the same, machine-readable.
#   BENCH_shard.txt / BENCH_shard.json — (with --shards) mixed read/write
#                          throughput vs shard count (1/2/4/8) x group
#                          locality over the million-user scale dataset
#                          (bench_shard; src/shard/).
#
# Usage: scripts/bench.sh [--shards] [build-dir]
#   --shards additionally runs the sharded-engine scaling bench.
# Env:   GRECA_BENCH_SMALL=1 for a smoke-scale run (its artifacts are not
#        paper-scale figures; do not commit them).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_SHARDS=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --shards)
      RUN_SHARDS=1
      shift
      ;;
    *)
      BUILD_DIR="$1"
      shift
      ;;
  esac
done
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target bench_fig5_scalability bench_batch \
  bench_online bench_formation
# bench_micro exists only when google-benchmark is installed; always rebuild
# it so the recorded numbers match the current sources.
MICRO_NOTE=""
if cmake --build "$BUILD_DIR" -j --target bench_micro 2>/dev/null; then
  "$BUILD_DIR"/bench/bench_micro \
    --benchmark_out=BENCH_micro.json --benchmark_out_format=json \
    --benchmark_repetitions=1
  MICRO_NOTE=" BENCH_micro.json,"
else
  echo "bench_micro unavailable (google-benchmark not installed);" \
       "BENCH_micro.json not refreshed" >&2
fi

"$BUILD_DIR"/bench/bench_fig5_scalability | tee BENCH_fig5.txt
GRECA_BATCH_ALGO=all \
  GRECA_BATCH_JSON=BENCH_batch.json \
  "$BUILD_DIR"/bench/bench_batch | tee BENCH_batch.txt
GRECA_BENCH_ONLINE_JSON=BENCH_online.json \
  "$BUILD_DIR"/bench/bench_online | tee BENCH_online.txt
GRECA_BENCH_FORMATION_JSON=BENCH_formation.json \
  "$BUILD_DIR"/bench/bench_formation | tee BENCH_formation.txt

SHARD_NOTE=""
if [[ "$RUN_SHARDS" == "1" ]]; then
  cmake --build "$BUILD_DIR" -j --target bench_shard
  GRECA_BENCH_SHARD_JSON=BENCH_shard.json \
    "$BUILD_DIR"/bench/bench_shard | tee BENCH_shard.txt
  SHARD_NOTE=" BENCH_shard.txt, BENCH_shard.json,"
fi

echo "Wrote${MICRO_NOTE} BENCH_batch.json,${SHARD_NOTE} BENCH_fig5.txt," \
     "BENCH_batch.txt, BENCH_online.txt, BENCH_online.json," \
     "BENCH_formation.txt, BENCH_formation.json"
