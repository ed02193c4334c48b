#include "shard/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "core/problem_assembly.h"
#include "serve/batch_executor.h"

namespace greca {

ShardedEngine::ShardedEngine(const RatingsDataset& universe,
                             const FacebookStudy& study,
                             ShardedEngineOptions options)
    : options_(options),
      router_(options.num_shards, study.num_participants(), options.strategy),
      num_universe_items_(universe.num_items()),
      num_periods_(study.periods.num_periods()),
      knn_(std::make_unique<UserKnn>(universe, options.recommender.knn)),
      knn_states_(std::make_unique<UserKnnStates>(*knn_,
                                                  study.num_participants())),
      affinity_(StudyAffinitySource::FromStudy(study)) {
  // The shard-side prediction backend: CF over the merged profile, gathered
  // down to pool positions. Feeding RebuildRowFromPool the same raw values
  // Build() would read via pool[key] keeps shard rows bit-identical to a
  // monolithic index over the same study. The per-user CF state holds a
  // slot per participant from construction on, so the predictor stays safe
  // on distinct users at once (build_threads); a publish re-walks only the
  // items whose rating changed.
  UserKnnStates* states = knn_states_.get();
  predictor_ = [states](UserId user,
                        std::span<const UserRatingEntry> merged_ratings,
                        std::span<const ItemId> pool, std::span<Score> out) {
    const std::vector<Score> preds = states->Predict(user, merged_ratings);
    for (std::size_t k = 0; k < pool.size(); ++k) out[k] = preds[pool[k]];
  };
  // Generation 1 aliases the study-owned ratings, like the monolithic
  // recommender (the study outlives the engine by contract).
  auto base = std::shared_ptr<const RatingsDataset>(
      std::shared_ptr<const void>(), &study.study_ratings);
  BuildShards(
      std::move(base), /*scale_max=*/5.0,
      universe.TopPopularItems(options_.recommender.max_candidate_items),
      universe.num_items());
}

ShardedEngine::ShardedEngine(ShardedEngineInputs inputs,
                             ShardedEngineOptions options)
    : options_(options),
      router_(options.num_shards, inputs.ratings->num_users(),
              options.strategy),
      num_universe_items_(inputs.num_universe_items),
      num_periods_(inputs.num_periods),
      affinity_(std::move(inputs.affinity)),
      predictor_(std::move(inputs.predictor)) {
  assert(affinity_ != nullptr && predictor_ != nullptr);
  BuildShards(std::move(inputs.ratings), inputs.prediction_scale_max,
              std::move(inputs.pool), num_universe_items_);
}

void ShardedEngine::BuildShards(std::shared_ptr<const RatingsDataset> base,
                                double scale_max, std::vector<ItemId> pool,
                                std::size_t num_universe_items) {
  std::unique_ptr<ThreadPool> build_pool;
  if (options_.build_threads > 0) {
    build_pool = std::make_unique<ThreadPool>(options_.build_threads);
  }
  // Generation 1: one empty delta log over the shared base, and per shard
  // an index filled straight from the base ratings.
  const auto overlay = std::make_shared<const RatingsOverlay>(base);
  std::vector<std::vector<UserId>> owned = router_.PartitionUsers();
  std::vector<std::shared_ptr<const ShardSnapshot>> snaps;
  shards_.reserve(owned.size());
  snaps.reserve(owned.size());
  for (std::size_t s = 0; s < owned.size(); ++s) {
    shards_.push_back(std::make_unique<Shard>(*this, s, std::move(owned[s])));
    snaps.push_back(std::make_shared<const ShardSnapshot>(ShardSnapshot{
        /*generation=*/1, overlay,
        std::make_shared<const PreferenceIndex>(shards_[s]->BuildIndex(
            *base, predictor_, scale_max, pool /*copied per shard*/,
            num_universe_items, build_pool.get()))}));
  }
  // The pool as every shard's index keeps it, after the index drops
  // out-of-range and repeated items.
  const std::span<const ItemId> kept = snaps.front()->index->pool();
  pool_.assign(kept.begin(), kept.end());
  published_ = std::make_shared<const ShardedSnapshotSet>(std::move(snaps));
  // batch_threads == 1 keeps batches inline on the calling thread (the
  // serial reference path); anything else gets a dedicated pool.
  if (options_.batch_threads != 1) {
    batch_pool_ = std::make_unique<ThreadPool>(
        ResolveBatchThreads(options_.batch_threads));
  }
}

Status ShardedEngine::ApplyUpdates(std::span<const RatingEvent> events,
                                   ShardedUpdateReport* report) {
  // All-or-nothing validation, shared with the monolithic path: no event
  // is applied anywhere when any event is invalid.
  if (Status s = ValidateRatingEvents(events, router_.num_users(),
                                      num_universe_items_);
      !s.ok()) {
    return s;
  }
  ShardedUpdateReport local;
  ShardedUpdateReport& out = report != nullptr ? *report : local;
  out = ShardedUpdateReport{};
  if (Status s = publisher_.Apply(events, &out.total); !s.ok()) return s;

  UpdateReport per_shard;
  per_shard.published_generation = out.total.published_generation;
  per_shard.compacted = out.total.compacted;
  per_shard.delta_log_ratings = out.total.delta_log_ratings;
  per_shard.batches_coalesced = out.total.batches_coalesced;
  out.per_shard.assign(shards_.size(), per_shard);
  std::vector<bool> touched(shards_.size(), false);
  for (const RatingEvent& e : events) touched[router_.ShardOf(e.user)] = true;
  out.shards_touched = static_cast<std::size_t>(
      std::count(touched.begin(), touched.end(), true));
  return Status::Ok();
}

void ShardedEngine::PublishSet(std::shared_ptr<const RatingsOverlay> ratings,
                               std::span<const UserId> touched,
                               std::uint64_t generation) {
  const std::shared_ptr<const ShardedSnapshotSet> cur = Pin();
  // `touched` is ascending, so each shard's slice of it is too.
  std::vector<std::vector<UserId>> owned(shards_.size());
  for (const UserId u : touched) owned[router_.ShardOf(u)].push_back(u);
  std::vector<std::shared_ptr<const ShardSnapshot>> next;
  next.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::shared_ptr<const PreferenceIndex> index = cur->shard(s).index;
    if (!owned[s].empty()) {
      index = std::make_shared<const PreferenceIndex>(
          shards_[s]->RebuildRows(*index, *ratings, owned[s], predictor_));
    }
    next.push_back(std::make_shared<const ShardSnapshot>(
        ShardSnapshot{generation, ratings, std::move(index)}));
  }
  auto set = std::make_shared<const ShardedSnapshotSet>(std::move(next));
  // All building happened before this point; the swap itself is O(1).
  std::lock_guard<std::mutex> lock(published_mu_);
  published_ = std::move(set);
}

Status ShardedEngine::ValidateQuery(std::span<const UserId> group,
                                    const QuerySpec& spec) const {
  return ValidateGroupQuery(group, spec, router_.num_users(), num_periods_,
                            affinity_->num_periods());
}

std::size_t ShardedEngine::ShardsTouched(std::span<const UserId> group) const {
  // Scatter widths are tiny (|G| shards at most); a sorted scratch vector
  // beats any set for these sizes.
  std::vector<std::size_t> seen;
  seen.reserve(group.size());
  for (const UserId u : group) seen.push_back(router_.ShardOf(u));
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  return seen.size();
}

std::span<const ItemId> ShardedEngine::pool() const { return pool_; }

Result<Recommendation> ShardedEngine::Recommend(
    std::span<const UserId> group, const QuerySpec& spec,
    QueryWorkspace* workspace) const {
  return Recommend(Pin(), group, spec, workspace);
}

Result<Recommendation> ShardedEngine::Recommend(
    const std::shared_ptr<const ShardedSnapshotSet>& set,
    std::span<const UserId> group, const QuerySpec& spec,
    QueryWorkspace* workspace) const {
  QueryWorkspace local;
  QueryWorkspace& ws = workspace != nullptr ? *workspace : local;
  Result<GroupProblem> problem = BuildProblem(set, group, spec, nullptr, &ws);
  if (!problem.ok()) return problem.status();
  return SolveGroupProblem(problem.value(), spec,
                           set->shard(0).index->pool(), ws);
}

Result<GroupProblem> ShardedEngine::BuildProblem(
    const std::shared_ptr<const ShardedSnapshotSet>& set,
    std::span<const UserId> group, const QuerySpec& spec,
    std::vector<ItemId>* candidates_out, QueryWorkspace* workspace) const {
  if (set == nullptr) {
    return Status::InvalidArgument("snapshot set must not be null");
  }
  if (Status s = ValidateQuery(group, spec); !s.ok()) return s;
  const PeriodId eval_period =
      ResolveEvalPeriod(spec.eval_period, num_periods_).value();

  // Scatter: one zero-copy MemberSlice per member, pointing into the owning
  // shard's entry of the pinned set. Gather happens inside the shared
  // assembly — the same code path the monolithic recommender uses, fed
  // per-shard rows instead of one index's rows.
  std::vector<MemberSlice> local_slices;
  std::vector<MemberSlice>& slices =
      workspace != nullptr ? workspace->arena.member_slices : local_slices;
  slices.clear();
  slices.reserve(group.size());
  for (const UserId u : group) {
    const std::size_t s = router_.ShardOf(u);
    const ShardSnapshot& snap = set->shard(s);
    slices.push_back(
        {snap.index.get(), shards_[s]->LocalRowOf(u), snap.ratings.get(), u});
  }
  StampMemberWeights(*affinity_, group, spec, slices);
  AssemblyContext ctx;
  ctx.key_index = set->shard(0).index.get();
  ctx.affinity = affinity_.get();
  GroupProblem problem = AssembleGroupProblem(ctx, group, slices, spec,
                                              eval_period, candidates_out,
                                              workspace);
  // The problem's views alias rows of the pinned set: share ownership of
  // the whole set so they survive any concurrent publish.
  problem.PinLifetime(set);
  return problem;
}

std::vector<Result<Recommendation>> ShardedEngine::RecommendBatch(
    std::span<const Query> queries, BatchReport* report) const {
  return RecommendBatch(Pin(), queries, report);
}

std::vector<Result<Recommendation>> ShardedEngine::RecommendBatch(
    const std::shared_ptr<const ShardedSnapshotSet>& set,
    std::span<const Query> queries, BatchReport* report) const {
  return BatchExecutor::Execute(*this, set, queries, batch_pool_.get(),
                                workspace_pool_, report);
}

}  // namespace greca
