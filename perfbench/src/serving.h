// The two serving systems the workloads drive — the monolithic Engine over
// the paper-scale MovieLens twin, and the ShardedEngine over the scale
// population — behind one interface.
//
// Each read and write is offered in two forms: the engine call a user of the
// library makes (untraced), and the pieces the traced run needs to redo the
// same work stage by stage through the layers' public functions. Nothing in
// src/ is instrumented; the benchmark times the calls it makes.
#ifndef GRECA_PERFBENCH_SERVING_H_
#define GRECA_PERFBENCH_SERVING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/update.h"
#include "common/status.h"
#include "core/group_recommender.h"
#include "plan/batch_planner.h"
#include "trace.h"

namespace greca::perfbench {

/// A pinned, immutable view: a Snapshot (monolithic) or a
/// ShardedSnapshotSet (sharded). Holding it keeps the view alive.
using Pin = std::shared_ptr<const void>;

class ServingTarget {
 public:
  ServingTarget() = default;
  virtual ~ServingTarget() = default;
  // Engines and predictors hold the target's address.
  ServingTarget(const ServingTarget&) = delete;
  ServingTarget& operator=(const ServingTarget&) = delete;

  // --- The calls a user of the library makes ---
  virtual Result<Recommendation> Recommend(const Query& query) const = 0;
  virtual std::vector<Result<Recommendation>> RecommendBatch(
      std::span<const Query> queries, BatchReport* report) const = 0;
  virtual Status ApplyUpdates(std::span<const RatingEvent> events,
                              UpdateReport* report) = 0;

  // --- Pinned views (replays and the traced read path) ---
  virtual Pin PinView() const = 0;
  virtual Result<Recommendation> RecommendOn(const Pin& pin,
                                             const Query& query) const = 0;
  virtual std::vector<Result<Recommendation>> RecommendBatchOn(
      const Pin& pin, std::span<const Query> queries,
      BatchReport* report) const = 0;

  // --- Read-path stages, as the engines run them ---
  virtual Status Validate(const Pin& pin, const Query& query) const = 0;
  /// Problem assembly into `ws`; on the sharded engine this includes the
  /// per-member MemberSlice scatter.
  virtual Result<GroupProblem> Assemble(const Pin& pin, const Query& query,
                                        QueryWorkspace& ws) const = 0;
  /// The shared popularity pool (candidate key order) of `pin`.
  virtual std::span<const ItemId> Pool(const Pin& pin) const = 0;
  virtual std::size_t NumPeriods() const = 0;

  /// The write path stage by stage on the pre-publish view: fold
  /// (RatingsOverlay::WithEvents), predict, and clone (the index's
  /// CloneWithUpdated*Rows), each in a span under `op`, plus the real
  /// ApplyUpdates in an "api.publish" span — after the stages, or before
  /// them when `publish_first`, so alternating callers give neither side
  /// the warm caches every time — then Compact in a span when the publish
  /// compacted. `rows_match` is set to false when a shadow-built row or
  /// prediction differs from the published one. Only one writer may call
  /// this at a time.
  virtual Status TracedApplyUpdates(std::span<const RatingEvent> events,
                                    SpanLog* log, std::uint64_t op,
                                    bool publish_first, UpdateReport* report,
                                    bool* rows_match) = 0;

  // --- Shape and observability ---
  virtual std::size_t NumUsers() const = 0;
  /// Index partitions (1 on the monolithic engine) and the owner of a user.
  virtual std::size_t NumShards() const = 0;
  virtual std::size_t ShardOf(UserId user) const = 0;
  /// Resident bytes of the published preference index(es).
  virtual std::size_t IndexBytes() const = 0;
  virtual std::size_t BatchThreads() const = 0;
  /// The oracle's group satisfaction with `items`, in percent.
  virtual double SatisfactionPercent(std::span<const UserId> group,
                                     std::span<const ItemId> items) const = 0;
};

// The datasets are the generators' defaults, the same for every seed: the
// cost of a query depends on the data (a different dataset moves GRECA's
// latency by ~20%), so varying it would swamp the run-to-run comparison.
// The workload seed drives the traffic instead.

/// Paper-scale Engine: the 6 040 x 3 952 MovieLens twin, the 72-participant
/// study, default RecommenderOptions (pool 3 900), `threads` batch workers.
std::unique_ptr<ServingTarget> BuildPaperEngine(std::size_t threads);

/// ShardedEngine over GenerateScaleRatings (`num_users` users, 50 000
/// items), a 256-item pool and 4 hash shards, with the ground-truth
/// PoolPredictor standing in for CF at this scale.
std::unique_ptr<ServingTarget> BuildScaleEngine(std::size_t num_users,
                                                std::size_t threads);

}  // namespace greca::perfbench

#endif  // GRECA_PERFBENCH_SERVING_H_
