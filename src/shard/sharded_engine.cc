#include "shard/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "core/problem_assembly.h"
#include "dataset/social_graph.h"
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
      static_(ComputeCommonFriendCounts(study.graph)),
      periodic_(std::make_unique<PeriodicAffinity>(
          PeriodicAffinity::Compute(study.likes, study.periods))),
      dynamic_(std::make_unique<DynamicAffinityIndex>(
          DynamicAffinityIndex::Build(*periodic_))),
      period_cache_(options.recommender.period_cache_max_entries) {
  // Same influence backing as the monolithic recommender: propagation
  // centrality over the immutable study graph, so influence-weighted queries
  // score identically on both engines.
  auto influence = std::make_shared<const std::vector<double>>(
      PropagationCentrality(study.graph));
  affinity_ = std::make_shared<StudyAffinitySource>(
      static_, *periodic_, dynamic_.get(), std::move(influence));
  // The shard-side prediction backend: CF over the merged profile, gathered
  // down to pool positions. Feeding RebuildRowFromPool the same raw values
  // Build() would read via pool[key] keeps shard rows bit-identical to a
  // monolithic index over the same study.
  const UserKnn* knn = knn_.get();
  predictor_ = [knn](UserId /*user*/,
                     std::span<const UserRatingEntry> merged_ratings,
                     std::span<const ItemId> pool, std::span<Score> out) {
    const std::vector<Score> preds = knn->PredictAll(merged_ratings);
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
      period_cache_(options.recommender.period_cache_max_entries),
      predictor_(std::move(inputs.predictor)) {
  assert(affinity_ != nullptr && predictor_ != nullptr);
  BuildShards(std::move(inputs.ratings), inputs.prediction_scale_max,
              std::move(inputs.pool), num_universe_items_);
}

void ShardedEngine::BuildShards(std::shared_ptr<const RatingsDataset> base,
                                double scale_max, std::vector<ItemId> pool,
                                std::size_t num_universe_items) {
  const RecommenderOptions& ropts = options_.recommender;
  std::unique_ptr<ThreadPool> build_pool;
  if (options_.build_threads > 0) {
    build_pool = std::make_unique<ThreadPool>(options_.build_threads);
  }
  std::vector<std::vector<UserId>> owned = router_.PartitionUsers();
  shards_.reserve(owned.size());
  for (std::size_t s = 0; s < owned.size(); ++s) {
    shards_.push_back(std::make_unique<Shard>(
        s, std::move(owned[s]), base, predictor_, scale_max,
        pool /*copied per shard*/, num_universe_items, ropts,
        build_pool.get()));
  }
  // The pool as every shard's index keeps it, after the index drops
  // out-of-range and repeated items.
  const std::span<const ItemId> kept =
      shards_.front()->snapshot()->index->pool();
  pool_.assign(kept.begin(), kept.end());
  // batch_threads == 1 keeps batches inline on the calling thread (the
  // serial reference path); anything else gets a dedicated pool.
  if (options_.batch_threads != 1) {
    batch_pool_ = std::make_unique<ThreadPool>(
        ResolveBatchThreads(options_.batch_threads));
  }
}

std::shared_ptr<const ShardedSnapshotSet> ShardedEngine::Pin() const {
  // The per-shard gathers run OUTSIDE pin_mu_ on purpose: each takes its
  // shard's own publication mutex, and holding pin_mu_ across all N of them
  // would serialize pins against every concurrent publish. The race this
  // opens is benign by direction: a shard publishing between its gather
  // above and the comparison below makes `snaps` differ from whatever
  // last_pin_ holds, so the comparison FAILS and a fresh set is built from
  // the gathered (individually consistent) snapshots. Reuse only succeeds
  // when every gathered pointer equals the cached one — i.e. last_pin_ is
  // exactly the gathered state — so a stale set can never be handed out;
  // the worst case is a missed reuse. tests/serving_runtime_test.cc pins
  // this with a publish-storm stress.
  std::vector<std::shared_ptr<const ShardSnapshot>> snaps;
  snaps.reserve(shards_.size());
  for (const auto& shard : shards_) snaps.push_back(shard->snapshot());
  std::lock_guard<std::mutex> lock(pin_mu_);
  if (last_pin_ != nullptr) {
    // Same per-shard snapshot pointers ⟺ same generation vector: hand out
    // the SAME set so repeat pins share its (group, pool) tombstone memo.
    bool same = true;
    for (std::size_t s = 0; s < snaps.size(); ++s) {
      if (last_pin_->shard_ptr(s) != snaps[s]) {
        same = false;
        break;
      }
    }
    if (same) return last_pin_;
  }
  last_pin_ = std::make_shared<const ShardedSnapshotSet>(
      std::move(snaps), options_.recommender.tombstone_cache_max_entries);
  return last_pin_;
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

  // Scatter by ownership, preserving arrival order within each shard (a
  // user's events all route to one shard, so per-user fold order — the only
  // order the overlay semantics depend on — is exactly the monolithic one).
  std::vector<std::vector<RatingEvent>> per_shard_events(shards_.size());
  for (const RatingEvent& e : events) {
    per_shard_events[router_.ShardOf(e.user)].push_back(e);
  }

  ShardedUpdateReport local;
  ShardedUpdateReport& out = report != nullptr ? *report : local;
  out = ShardedUpdateReport{};
  out.per_shard.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard_events[s].empty()) {
      // Untouched: report current state with zero counters.
      const std::shared_ptr<const ShardSnapshot> snap = shards_[s]->snapshot();
      out.per_shard[s].published_generation = snap->generation;
      out.per_shard[s].delta_log_ratings = snap->ratings->delta_ratings();
      continue;
    }
    ++out.shards_touched;
    if (Status status =
            shards_[s]->Apply(per_shard_events[s], &out.per_shard[s]);
        !status.ok()) {
      return status;
    }
  }

  UpdateReport& total = out.total;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const UpdateReport& r = out.per_shard[s];
    total.events_applied += r.events_applied;
    total.events_ignored_stale += r.events_ignored_stale;
    total.users_rebuilt += r.users_rebuilt;
    total.delta_log_ratings += r.delta_log_ratings;
    total.published_generation =
        std::max(total.published_generation, r.published_generation);
    total.batches_coalesced =
        std::max(total.batches_coalesced, r.batches_coalesced);
    total.compacted = total.compacted || r.compacted;
  }
  if (total.batches_coalesced == 0) total.batches_coalesced = 1;
  return Status::Ok();
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
  return RecommendOnSet(set, group, spec, ws, nullptr);
}

Result<Recommendation> ShardedEngine::RecommendOnSet(
    const std::shared_ptr<const ShardedSnapshotSet>& set,
    std::span<const UserId> group, const QuerySpec& spec,
    QueryWorkspace& ws, SolveOutcome* outcome) const {
  if (set == nullptr) {
    return Status::InvalidArgument("snapshot set must not be null");
  }
  if (Status s = ValidateQuery(group, spec); !s.ok()) return s;
  const PeriodId eval_period =
      ResolveEvalPeriod(spec.eval_period, num_periods_).value();

  // Scatter: one zero-copy MemberSlice per member, pointing into the owning
  // shard's pinned generation. Gather happens inside the shared assembly —
  // the same code path the monolithic recommender uses, fed per-shard rows
  // instead of one index's rows.
  std::vector<MemberSlice>& slices = ws.arena.member_slices;
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
  ctx.period_cache = &period_cache_;
  // Tombstone memo scoped to the SET: members pin a mix of per-shard
  // generations, so no single generation can scope a cache — but the set
  // pins that exact generation-vector mix for its whole lifetime, so its own
  // memo is correct by construction (see ShardedSnapshotSet). Repeat pins
  // reuse one set while nothing publishes, so repeated groups across queries
  // hit too.
  ctx.tombstone_cache = &set->tombstone_cache();
  GroupProblem problem = AssembleGroupProblem(ctx, group, slices, spec,
                                              eval_period, nullptr, &ws);
  // The problem's views alias rows of every touched shard's pinned
  // generation: share ownership of the whole set so they survive any
  // shard's concurrent publish.
  problem.PinLifetime(set);
  Result<Recommendation> rec =
      SolveGroupProblem(problem, spec, ctx.key_index->pool(), ws);
  if (outcome != nullptr) {
    outcome->agreement_deferred = problem.agreement_deferred();
    outcome->agreement_materialized = problem.agreement_materialized();
  }
  return rec;
}

std::vector<Result<Recommendation>> ShardedEngine::RecommendBatch(
    std::span<const Query> queries, BatchReport* report) const {
  return RecommendBatch(Pin(), queries, report);
}

std::vector<Result<Recommendation>> ShardedEngine::RecommendBatch(
    const std::shared_ptr<const ShardedSnapshotSet>& set,
    std::span<const Query> queries, BatchReport* report) const {
  if (set == nullptr) {
    return std::vector<Result<Recommendation>>(
        queries.size(),
        Result<Recommendation>(
            Status::InvalidArgument("snapshot set must not be null")));
  }
  const ShardedSetServingBackend backend(*this, set);
  return BatchExecutor::Execute(backend, queries, batch_pool_.get(),
                                workspace_pool_, report);
}

}  // namespace greca
