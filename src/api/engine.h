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
//    lifetime; the affinity source and the period-list cache they also read
//    are fixed at construction. A batch executes in parallel over an
//    internal thread pool through the unified serving runtime
//    (serve/batch_executor.h), all workers sharing the one pinned snapshot;
//    each worker leases a reusable QueryWorkspace holding only mutable
//    scratch from a shared pool, so steady-state queries sort nothing and
//    allocate nothing on the hot path — and concurrent batches interleave
//    instead of serializing.
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
  /// Plan batches before solving them (plan/batch_planner.h): duplicate
  /// (group, spec-signature) queries share one assembled and solved problem,
  /// with results fanned back out per query. Bit-identical to the unplanned
  /// path (the algorithms are deterministic); disable to force the
  /// one-problem-per-query reference path.
  bool plan_batches = true;
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
  /// batches interleave (each checks its workspaces out of a shared pool —
  /// see serve/batch_executor.h) rather than queueing on a whole-batch lock.
  ///
  /// With EngineOptions::plan_batches (the default) the batch is PLANNED
  /// first: duplicate (group, spec-signature) queries share one assembled
  /// and solved problem and the result is fanned back out — bit-identical
  /// results at a fraction of the work on duplicate-heavy traffic (see
  /// plan/batch_planner.h). `report`, when non-null, receives the planner's
  /// stats and per-query attribution.
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
  const bool plan_batches_;
  mutable WorkspacePool workspace_pool_;
};

}  // namespace greca

#endif  // GRECA_API_ENGINE_H_
