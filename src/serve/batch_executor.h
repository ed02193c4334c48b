// The single batch execution path behind Engine::RecommendBatch and
// ShardedEngine::RecommendBatch.
//
// A query is the same two steps on both engines: the engine's BuildProblem
// on its pinned view (a Snapshot or a ShardedSnapshotSet), then
// SolveGroupProblem (core/problem_assembly.h). The executor calls those
// entries directly — there is no per-engine backend — and owns everything
// else a batch needs:
//
//  * the null-pin check: a null pin fails every query with kInvalidArgument
//    and leaves the report untouched;
//  * planning — the sole BatchPlanner::Plan call site in the library,
//    validating through the engine's ValidateQuery: bucket valid queries by
//    execution signature, solve one representative per bucket, fan the
//    result to every duplicate in input order;
//  * parallelism — buckets run over the caller's thread pool, each worker on
//    its own workspace leased from a WorkspacePool; a null pool runs them
//    inline on the calling thread, which doubles as the serial reference for
//    the parallel path;
//  * BatchReport assembly — dedup ratio, the cache deltas read off the
//    engine's period_cache() and the pin's tombstone_cache(), per-query
//    attribution.
//
// Determinism: buckets are independent and the algorithms are deterministic
// functions of (pinned view, query), so parallel and serial execution
// produce bit-identical results — items, scores, access counts, statuses —
// and so does issuing each query alone through the engine's Recommend on the
// same pin (tests/planner_equivalence_test.cc). Cache hit/miss counters may
// differ between the two (racing workers can both miss the same key) but
// cached VALUES never do.
//
// Concurrency: Execute is re-entrant. Workspaces come from the pool per
// call and the pinned view is immutable, so concurrent batches on one
// engine validate, plan, fan out and run single-bucket solves side by side.
// Their multi-bucket solve phases queue, though: ThreadPool::ParallelFor
// runs one dispatch at a time, so a second batch's buckets wait until the
// first batch's buckets have all finished.
#ifndef GRECA_SERVE_BATCH_EXECUTOR_H_
#define GRECA_SERVE_BATCH_EXECUTOR_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/group_recommender.h"
#include "plan/batch_planner.h"
#include "serve/workspace_pool.h"

namespace greca {

/// Shared thread-count default: 0 picks max(2, hardware_concurrency).
std::size_t ResolveBatchThreads(std::size_t requested);

class BatchExecutor {
 public:
  /// Runs `queries` against `engine` on the pinned view `pin` and returns
  /// one result per query in input order, planned: duplicate queries share
  /// one solve. The two instantiations are (GroupRecommender, Snapshot) and
  /// (ShardedEngine, ShardedSnapshotSet). `pool` is the parallelism source:
  /// null runs every bucket inline on the calling thread (the serial
  /// reference). `report`, when non-null, receives planner stats, cache
  /// deltas, and per-query attribution.
  template <typename Engine, typename Pin>
  static std::vector<Result<Recommendation>> Execute(
      const Engine& engine, const std::shared_ptr<const Pin>& pin,
      std::span<const Query> queries, ThreadPool* pool,
      WorkspacePool& workspaces, BatchReport* report);
};

}  // namespace greca

#endif  // GRECA_SERVE_BATCH_EXECUTOR_H_
