// The engine-side contract of the unified serving runtime.
//
// Engine (monolithic) and ShardedEngine used to each own a full copy of the
// batch execution path — planner invocation, unplanned fallback, duplicate
// fan-out, per-query attribution, cache-counter deltas — ~300 lines of
// drift-prone duplication. A ServingBackend captures the only parts that
// genuinely differ between them:
//
//  * the pinned consistent view (one Snapshot vs one ShardedSnapshotSet),
//    carried by the concrete backend for its whole lifetime so every query
//    of a batch sees the same generation(s);
//  * how one query is validated and how one representative problem is
//    built + solved on a caller-provided workspace;
//  * where the tombstone counters live (the Snapshot's generation-scoped
//    memo vs the ShardedSnapshotSet's set-scoped one). Period-cache
//    counters are read the same way on both: from the engine's
//    period_cache(), which every generation shares.
//
// Everything else — planning, bucket solving, fan-out, report assembly —
// lives once in BatchExecutor (batch_executor.h) and both engines dispatch
// through it.
//
// Backends are cheap, stack-allocated, and scoped to one batch call; they
// hold a reference to their engine (which must outlive them) and share
// ownership of the pinned view.
#ifndef GRECA_SERVE_SERVING_BACKEND_H_
#define GRECA_SERVE_SERVING_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/status.h"
#include "core/group_recommender.h"
#include "plan/batch_planner.h"

namespace greca {

class ShardedEngine;
class ShardedSnapshotSet;

/// Lazy-agreement outcome of one solved problem, surfaced so the executor
/// can aggregate BatchReport::agreement_lists_{materialized,skipped}.
struct SolveOutcome {
  bool agreement_deferred = false;
  bool agreement_materialized = false;
};

/// Point-in-time snapshot of a backend's cache counters, taken before and
/// after a batch to report the batch's own deltas.
struct ServingCacheCounters {
  std::uint64_t period_hits = 0, period_misses = 0;
  std::uint64_t tomb_hits = 0, tomb_misses = 0, tomb_evictions = 0;

  void DeltaInto(const ServingCacheCounters& before,
                 BatchReport& report) const {
    report.period_cache_hits = period_hits - before.period_hits;
    report.period_cache_misses = period_misses - before.period_misses;
    report.tombstone_cache_hits = tomb_hits - before.tomb_hits;
    report.tombstone_cache_misses = tomb_misses - before.tomb_misses;
    report.tombstone_cache_evictions = tomb_evictions - before.tomb_evictions;
  }
};

/// What an engine provides to the batch executor. Implementations must be
/// safe for concurrent SolveOne calls on distinct workspaces — the executor
/// runs buckets in parallel over a thread pool.
class ServingBackend {
 public:
  virtual ~ServingBackend() = default;

  /// Validates one query against the pinned view. Must produce byte-identical
  /// Status messages to SolveOne's validation failure for the same query —
  /// the planner's rejected-query contract depends on it.
  virtual Status Validate(const Query& query) const = 0;

  /// Builds and solves one query's problem on `ws` against the pinned view.
  /// Invalid queries yield the validation Status; valid ones never fail
  /// (solving is deterministic and total post-validation). `outcome`, when
  /// non-null, receives the problem's lazy-agreement flags.
  virtual Result<Recommendation> SolveOne(const Query& query,
                                          QueryWorkspace& ws,
                                          SolveOutcome* outcome) const = 0;

  /// Current cache counter values (monotonic; the executor reports deltas).
  virtual ServingCacheCounters Counters() const = 0;

  /// Period count the planner resolves optional evaluation periods against.
  virtual std::size_t num_periods() const = 0;
};

/// Monolithic backend: one pinned Snapshot, solved via the recommender's
/// BuildProblem + SolveGroupProblem (exactly GroupRecommender::Recommend).
/// The snapshot must be non-null.
class SnapshotServingBackend final : public ServingBackend {
 public:
  SnapshotServingBackend(const GroupRecommender& recommender,
                         std::shared_ptr<const Snapshot> snap)
      : recommender_(recommender), snap_(std::move(snap)) {}

  Status Validate(const Query& query) const override;
  Result<Recommendation> SolveOne(const Query& query, QueryWorkspace& ws,
                                  SolveOutcome* outcome) const override;
  ServingCacheCounters Counters() const override;
  std::size_t num_periods() const override;

 private:
  const GroupRecommender& recommender_;
  std::shared_ptr<const Snapshot> snap_;
};

/// Sharded backend: one pinned ShardedSnapshotSet, solved via the engine's
/// scatter/gather core (ShardedEngine::RecommendOnSet). The set must be
/// non-null.
class ShardedSetServingBackend final : public ServingBackend {
 public:
  ShardedSetServingBackend(const ShardedEngine& engine,
                           std::shared_ptr<const ShardedSnapshotSet> set)
      : engine_(engine), set_(std::move(set)) {}

  Status Validate(const Query& query) const override;
  Result<Recommendation> SolveOne(const Query& query, QueryWorkspace& ws,
                                  SolveOutcome* outcome) const override;
  ServingCacheCounters Counters() const override;
  std::size_t num_periods() const override;

 private:
  const ShardedEngine& engine_;
  std::shared_ptr<const ShardedSnapshotSet> set_;
};

}  // namespace greca

#endif  // GRECA_SERVE_SERVING_BACKEND_H_
