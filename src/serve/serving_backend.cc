#include "serve/serving_backend.h"

#include "api/snapshot.h"
#include "core/problem_assembly.h"
#include "shard/sharded_engine.h"

namespace greca {

Status SnapshotServingBackend::Validate(const Query& query) const {
  return recommender_.ValidateQuery(*snap_, query.group, query.spec);
}

Result<Recommendation> SnapshotServingBackend::SolveOne(
    const Query& query, QueryWorkspace& ws, SolveOutcome* outcome) const {
  // BuildProblem + SolveGroupProblem is exactly GroupRecommender::Recommend,
  // split so the problem's lazy-agreement flags can be read back after the
  // solve (materialization happens on first walk, i.e. during the solve).
  Result<GroupProblem> problem =
      recommender_.BuildProblem(snap_, query.group, query.spec, nullptr, &ws);
  if (!problem.ok()) return problem.status();
  Result<Recommendation> rec = SolveGroupProblem(problem.value(), query.spec,
                                                 snap_->index().pool(), ws);
  if (outcome != nullptr) {
    outcome->agreement_deferred = problem.value().agreement_deferred();
    outcome->agreement_materialized = problem.value().agreement_materialized();
  }
  return rec;
}

ServingCacheCounters SnapshotServingBackend::Counters() const {
  const PeriodListCache& periods = recommender_.period_cache();
  const TombstoneCache& tombs = snap_->tombstone_cache();
  return {periods.hits(), periods.misses(), tombs.hits(), tombs.misses(),
          tombs.evictions()};
}

std::size_t SnapshotServingBackend::num_periods() const {
  return recommender_.num_periods();
}

Status ShardedSetServingBackend::Validate(const Query& query) const {
  return engine_.ValidateQuery(query.group, query.spec);
}

Result<Recommendation> ShardedSetServingBackend::SolveOne(
    const Query& query, QueryWorkspace& ws, SolveOutcome* outcome) const {
  return engine_.RecommendOnSet(set_, query.group, query.spec, ws, outcome);
}

ServingCacheCounters ShardedSetServingBackend::Counters() const {
  const PeriodListCache& periods = engine_.period_cache();
  const TombstoneCache& tombs = set_->tombstone_cache();
  return {periods.hits(), periods.misses(), tombs.hits(), tombs.misses(),
          tombs.evictions()};
}

std::size_t ShardedSetServingBackend::num_periods() const {
  return engine_.num_periods();
}

}  // namespace greca
