// The public, batch-first, snapshot-centric entry point of the GRECA
// library.
//
// The paper's GRECA answers one ad-hoc group query at a time over frozen
// data; production workloads issue thousands of group queries per second
// while ratings and affinities keep changing. The Engine serves such
// workloads with an RCU-style split:
//
//  * Reads — Recommend / RecommendBatch — pin the currently published
//    immutable Snapshot (pre-sorted PreferenceIndex + CF predictions +
//    study ratings + generation id, see snapshot.h) for their whole
//    lifetime; the affinity source they also read is fixed at
//    construction. Every query is the recommender's
//    BuildProblem on the pinned snapshot, then SolveGroupProblem. A batch
//    runs those same two steps in parallel over an internal thread pool
//    through the batch executor (serve/batch_executor.h), all workers
//    sharing the one pinned snapshot, which has no mutable state and no
//    lock; each worker leases a reusable QueryWorkspace holding only
//    mutable scratch from a shared pool — the group's tombstone bitmap and
//    affinity lists are built there per query — so steady-state queries
//    sort nothing and allocate nothing on the hot path. Concurrent batches share the pool: their multi-bucket solve
//    phases take turns on it (see serve/batch_executor.h).
//  * Writes — ApplyUpdates — rebuild the affected index rows and CF state
//    OFF the serving path and publish the result as a new snapshot
//    generation with an atomic pointer swap. Readers never block on
//    writers; a publish mid-batch cannot change the batch's results (it
//    keeps its pinned generation).
//
// Failures are per-query: RecommendBatch returns one Result<Recommendation>
// per input query in input order, so one malformed query never poisons the
// rest of the batch. Build queries with QueryBuilder (query_builder.h) to
// surface validation errors before dispatch.
//
//   Engine engine(universe, study, options);
//   for (auto& result : engine.RecommendBatch(queries)) {
//     if (result.ok()) Use(result.value());
//   }
//   engine.ApplyUpdates(events);   // publishes a new generation
#ifndef GRECA_API_ENGINE_H_
#define GRECA_API_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "api/snapshot.h"
#include "api/update.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/group_recommender.h"
#include "plan/batch_planner.h"
#include "serve/workspace_pool.h"

namespace greca {

struct EngineOptions {
  /// Worker threads for RecommendBatch. 0 picks
  /// max(2, std::thread::hardware_concurrency()).
  std::size_t num_threads = 0;
};

class Engine {
 public:
  /// Builds and owns the underlying recommender. Construction precomputes CF
  /// predictions and affinity tables (the expensive, query-independent part)
  /// and publishes snapshot generation 1; both dataset references must
  /// outlive the engine and every snapshot pinned from it.
  Engine(const RatingsDataset& universe, const FacebookStudy& study,
         RecommenderOptions options = {}, EngineOptions engine_options = {});
  Engine(const SyntheticRatings& universe, const FacebookStudy& study,
         RecommenderOptions options = {}, EngineOptions engine_options = {})
      : Engine(universe.dataset, study, options, engine_options) {}

  // --- Snapshot lifecycle ---

  /// Pins the currently published serving state. Hold the pointer to keep a
  /// generation alive across calls (e.g. a paginated session that must see
  /// stable results); pass it to the snapshot-explicit overloads below.
  std::shared_ptr<const Snapshot> snapshot() const {
    return recommender_.snapshot();
  }

  /// Applies a batch of live rating events and publishes a new snapshot
  /// generation (see GroupRecommender::ApplyRatingUpdates for the exact
  /// fold semantics). The fold is O(delta) — events land in a per-user
  /// delta log, not a re-fold of the whole dataset — and calls arriving
  /// while a publish is in flight group-commit into one generation
  /// (`report->batches_coalesced`). Serving never blocks: in-flight queries
  /// finish on their pinned snapshot.
  Status ApplyUpdates(std::span<const RatingEvent> events,
                      UpdateReport* report = nullptr);

  // --- Queries ---

  /// Runs one query against the current snapshot. Invalid queries yield a
  /// non-OK status.
  Result<Recommendation> Recommend(const Query& query) const;

  /// Runs one query against an explicitly pinned snapshot.
  Result<Recommendation> Recommend(const Query& query,
                                   std::shared_ptr<const Snapshot> snap) const;

  /// Runs a batch of queries in parallel over the internal thread pool and
  /// returns one result per query, in input order. The whole batch pins ONE
  /// snapshot, so its results are mutually consistent and unaffected by
  /// concurrent publishes; they are identical to issuing the queries
  /// sequentially against that snapshot (the algorithms are deterministic
  /// and workspaces only amortize allocations). Thread-safe; concurrent
  /// batches each lease their own workspaces, but their multi-bucket solve
  /// phases take turns on the one thread pool (see serve/batch_executor.h).
  ///
  /// The batch is PLANNED first: duplicate (group, spec-signature) queries
  /// share one assembled and solved problem and the result is fanned back
  /// out — bit-identical results at a fraction of the work on
  /// duplicate-heavy traffic (see plan/batch_planner.h). `report`, when
  /// non-null, receives the planner's stats and per-query attribution.
  std::vector<Result<Recommendation>> RecommendBatch(
      std::span<const Query> queries, BatchReport* report = nullptr) const;

  /// Batch execution against an explicitly pinned snapshot — e.g. to replay
  /// a batch on a retired generation, or to split one logical workload
  /// across several RecommendBatch calls that must all see the same data.
  /// A null `snap` yields one kInvalidArgument per query (`report` is left
  /// untouched), like ShardedEngine's null set.
  std::vector<Result<Recommendation>> RecommendBatch(
      std::span<const Query> queries, std::shared_ptr<const Snapshot> snap,
      BatchReport* report = nullptr) const;

  const GroupRecommender& recommender() const { return recommender_; }
  std::size_t num_threads() const { return pool_->size(); }

 private:
  GroupRecommender recommender_;
  std::unique_ptr<ThreadPool> pool_;
  mutable WorkspacePool workspace_pool_;
};

}  // namespace greca

#endif  // GRECA_API_ENGINE_H_
