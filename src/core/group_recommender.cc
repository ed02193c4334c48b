#include "core/group_recommender.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>

#include "cf/similarity.h"
#include "core/problem_assembly.h"

namespace greca {

GroupRecommender::GroupRecommender(const RatingsDataset& universe,
                                   const FacebookStudy& study,
                                   RecommenderOptions options)
    : universe_(&universe),
      study_(&study),
      knn_(universe, options.knn),
      knn_states_(knn_, study.num_participants()),
      affinity_(StudyAffinitySource::FromStudy(study)),
      publisher_(
          [this] {
            const std::shared_ptr<const Snapshot> cur = snapshot();
            return RatingPublisher::Published{cur->generation(),
                                              cur->ratings_ptr()};
          },
          std::bind_front(&GroupRecommender::RebuildRatings, this),
          options.compact_delta_fraction) {
  const std::size_t n = study.num_participants();
  std::vector<std::vector<Score>> predictions;
  predictions.reserve(n);
  for (UserId su = 0; su < n; ++su) {
    predictions.push_back(
        knn_.PredictAll(study.study_ratings.RatingsOfUser(su)));
  }
  // One shared, immutable sorted-preference index over the popular-item
  // pool; every query (and every batch worker) slices it by prefix.
  auto index = std::make_shared<const PreferenceIndex>(PreferenceIndex::Build(
      predictions, /*scale_max=*/5.0,
      universe.TopPopularItems(options.max_candidate_items),
      universe.num_items()));
  std::vector<PredictionRow> prediction_rows;
  prediction_rows.reserve(n);
  for (std::vector<Score>& row : predictions) {
    prediction_rows.push_back(
        std::make_shared<const std::vector<Score>>(std::move(row)));
  }
  // Generation 1 aliases the study-owned ratings (non-owning shared_ptr —
  // the study outlives the recommender by contract) under an empty delta
  // log; live updates accumulate in later generations' logs until a
  // compaction owns a fresh base.
  auto base = std::shared_ptr<const RatingsDataset>(
      std::shared_ptr<const void>(), &study.study_ratings);
  snapshot_ = std::make_shared<const Snapshot>(
      /*generation=*/1,
      std::make_shared<const RatingsOverlay>(std::move(base)),
      std::move(prediction_rows), std::move(index));
}

Status GroupRecommender::ApplyRatingUpdates(
    std::span<const RatingEvent> events, UpdateReport* report) {
  if (Status s = ValidateRatingEvents(events, study_->num_participants(),
                                      universe_->num_items());
      !s.ok()) {
    return s;
  }
  return publisher_.Apply(events, report);
}

void GroupRecommender::RebuildRatings(
    std::shared_ptr<const RatingsOverlay> ratings,
    std::span<const UserId> touched, std::uint64_t generation) {
  // Rebuild CF predictions + index rows for the touched users only, reading
  // through the merged view (base + delta) — identical input to a full
  // re-fold, so the rebuilt rows are bit-identical too. The per-user CF
  // state re-walks only the items whose rating changed since the user's
  // last publish. Untouched prediction rows and index pages stay shared
  // with the current generation.
  const std::shared_ptr<const Snapshot> cur = snapshot();
  std::vector<PredictionRow> preds = cur->prediction_rows();
  std::vector<UserRatingEntry> scratch;
  std::vector<std::span<const Score>> touched_preds;
  touched_preds.reserve(touched.size());
  for (const UserId su : touched) {
    preds[su] = std::make_shared<const std::vector<Score>>(
        knn_states_.Predict(su, ratings->MergedRatingsOfUser(su, scratch)));
    touched_preds.emplace_back(*preds[su]);
  }
  auto index = std::make_shared<const PreferenceIndex>(
      cur->index().CloneWithUpdatedRows(touched, touched_preds));
  auto next = std::make_shared<const Snapshot>(
      generation, std::move(ratings), std::move(preds), std::move(index));
  // All building happened before this point; the swap itself is O(1).
  std::lock_guard<std::mutex> swap_lock(snapshot_mu_);
  snapshot_ = std::move(next);
}

Result<PeriodId> GroupRecommender::ResolvePeriod(
    std::optional<PeriodId> requested) const {
  return ResolveEvalPeriod(requested, study_->periods.num_periods());
}

Status GroupRecommender::ValidateQuery(std::span<const UserId> group,
                                       const QuerySpec& spec) const {
  return ValidateGroupQuery(group, spec, study_->num_participants(),
                            study_->periods.num_periods(),
                            affinity_->num_periods());
}

Status GroupRecommender::ValidateQuery(const Snapshot& /*snap*/,
                                       std::span<const UserId> group,
                                       const QuerySpec& spec) const {
  return ValidateQuery(group, spec);
}

double GroupRecommender::RatingSimilarity(UserId a, UserId b) const {
  // Pearson over co-rated movies: plain cosine of all-positive star vectors
  // is always close to 1 and cannot separate similar from dissimilar tastes.
  return PearsonSimilarity(study_->study_ratings.RatingsOfUser(a),
                           study_->study_ratings.RatingsOfUser(b));
}

double GroupRecommender::ModelAffinity(UserId a, UserId b,
                                       std::optional<PeriodId> period,
                                       const AffinityModelSpec& spec) const {
  const Result<PeriodId> resolved = ResolvePeriod(period);
  assert(resolved.ok() && "ModelAffinity requires an in-range period");
  if (!resolved.ok()) return 0.0;
  const PeriodId p = resolved.value();
  const AffinitySource& source = *affinity_;
  std::vector<double> averages;
  std::vector<double> aff_p;
  for (PeriodId q = 0; q <= p; ++q) {
    averages.push_back(source.PeriodAverage(q));
    aff_p.push_back(source.Periodic(a, b, q));
  }
  const AffinityCombiner combiner(spec, averages);
  // Static affinity normalized by the population max (group context is not
  // available for a bare pair).
  return combiner.Combine(source.NormalizedStatic(a, b), aff_p);
}

Result<GroupProblem> GroupRecommender::BuildProblem(
    std::span<const UserId> group, const QuerySpec& spec,
    std::vector<ItemId>* candidates_out, QueryWorkspace* workspace) const {
  return BuildProblem(snapshot(), group, spec, candidates_out, workspace);
}

Result<GroupProblem> GroupRecommender::BuildProblem(
    const std::shared_ptr<const Snapshot>& snap,
    std::span<const UserId> group, const QuerySpec& spec,
    std::vector<ItemId>* candidates_out, QueryWorkspace* workspace) const {
  if (snap == nullptr) {
    return Status::InvalidArgument("snapshot must not be null");
  }
  if (Status s = ValidateQuery(group, spec); !s.ok()) return s;
  const PeriodId eval_period = ResolvePeriod(spec.eval_period).value();

  // Single-index scatter: every member's rows live in the snapshot's one
  // index/overlay. The shared assembly (core/problem_assembly.h) does the
  // rest — the sharded engine feeds it per-shard slices instead and gets
  // bit-identical problems.
  std::vector<MemberSlice> local_slices;
  std::vector<MemberSlice>& slices =
      workspace != nullptr ? workspace->arena.member_slices : local_slices;
  slices.clear();
  slices.reserve(group.size());
  for (const UserId su : group) {
    slices.push_back({&snap->index(), su, &snap->ratings(), su});
  }
  StampMemberWeights(*affinity_, group, spec, slices);
  AssemblyContext ctx;
  ctx.key_index = &snap->index();
  ctx.affinity = affinity_.get();
  GroupProblem problem = AssembleGroupProblem(ctx, group, slices, spec,
                                              eval_period, candidates_out,
                                              workspace);
  // The problem's views alias the snapshot's index rows: share ownership so
  // they survive a concurrent publish.
  problem.PinLifetime(snap);
  return problem;
}

Result<Recommendation> GroupRecommender::Recommend(
    std::span<const UserId> group, const QuerySpec& spec,
    QueryWorkspace* workspace) const {
  return Recommend(snapshot(), group, spec, workspace);
}

Result<Recommendation> GroupRecommender::Recommend(
    const std::shared_ptr<const Snapshot>& snap,
    std::span<const UserId> group, const QuerySpec& spec,
    QueryWorkspace* workspace) const {
  QueryWorkspace local;
  QueryWorkspace& ws = workspace != nullptr ? *workspace : local;
  Result<GroupProblem> problem = BuildProblem(snap, group, spec, nullptr, &ws);
  if (!problem.ok()) return problem.status();
  return SolveGroupProblem(problem.value(), spec, snap->index().pool(), ws);
}

}  // namespace greca
