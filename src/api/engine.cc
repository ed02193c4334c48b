#include "api/engine.h"

#include <utility>

#include "serve/batch_executor.h"
#include "serve/serving_backend.h"

namespace greca {

Engine::Engine(const RatingsDataset& universe, const FacebookStudy& study,
               RecommenderOptions options, EngineOptions engine_options)
    : recommender_(universe, study, options),
      pool_(std::make_unique<ThreadPool>(
          ResolveBatchThreads(engine_options.num_threads))),
      plan_batches_(engine_options.plan_batches) {}

Status Engine::ApplyUpdates(std::span<const RatingEvent> events,
                            UpdateReport* report) {
  return recommender_.ApplyRatingUpdates(events, report);
}

Result<Recommendation> Engine::Recommend(const Query& query) const {
  return recommender_.Recommend(query.group, query.spec);
}

Result<Recommendation> Engine::Recommend(
    const Query& query, std::shared_ptr<const Snapshot> snap) const {
  return recommender_.Recommend(snap, query.group, query.spec);
}

std::vector<Result<Recommendation>> Engine::RecommendBatch(
    std::span<const Query> queries, BatchReport* report) const {
  // One snapshot pin per batch: every query in the batch sees the same
  // generation no matter how many updates publish while it runs.
  return RecommendBatch(queries, recommender_.snapshot(), report);
}

std::vector<Result<Recommendation>> Engine::RecommendBatch(
    std::span<const Query> queries, std::shared_ptr<const Snapshot> snap,
    BatchReport* report) const {
  if (snap == nullptr) {
    return std::vector<Result<Recommendation>>(
        queries.size(),
        Result<Recommendation>(
            Status::InvalidArgument("snapshot must not be null")));
  }
  const SnapshotServingBackend backend(recommender_, std::move(snap));
  return BatchExecutor::Execute(backend, queries, plan_batches_, pool_.get(),
                                workspace_pool_, report);
}

}  // namespace greca
