#include "eval/experiments.h"

#include <algorithm>
#include <cassert>

#include "api/query_builder.h"
#include "common/distributions.h"
#include "common/stats.h"
#include "solver/solver_registry.h"

namespace greca {

RecommendationVariant RecommendationVariant::Default() {
  return {"default (affinity-aware, discrete, AP)", AffinityModelSpec::Default(),
          ConsensusSpec::AveragePreference()};
}

RecommendationVariant RecommendationVariant::AffinityAgnostic() {
  return {"affinity-agnostic", AffinityModelSpec::AffinityAgnostic(),
          ConsensusSpec::AveragePreference()};
}

RecommendationVariant RecommendationVariant::TimeAgnostic() {
  return {"time-agnostic", AffinityModelSpec::TimeAgnostic(),
          ConsensusSpec::AveragePreference()};
}

RecommendationVariant RecommendationVariant::ContinuousModel() {
  return {"continuous time model", AffinityModelSpec::Continuous(),
          ConsensusSpec::AveragePreference()};
}

RecommendationVariant RecommendationVariant::WithConsensus(
    std::string label, ConsensusSpec consensus) {
  return {std::move(label), AffinityModelSpec::Default(), consensus};
}

QualityHarness::QualityHarness(const GroupRecommender& recommender,
                               const SatisfactionOracle& oracle,
                               std::vector<StudyGroup> groups, std::size_t k)
    : recommender_(&recommender),
      oracle_(&oracle),
      groups_(std::move(groups)),
      k_(k) {}

std::vector<ItemId> QualityHarness::RecommendList(
    const StudyGroup& group, const RecommendationVariant& v) const {
  // The naive solver gives the exact, totally-ordered list; quality results
  // must not depend on GRECA's partial order.
  const Result<Query> query = QueryBuilder(*recommender_)
                                  .Members(group.members)
                                  .TopK(k_)
                                  .Model(v.model)
                                  .Consensus(v.consensus)
                                  .Using(std::string(kNaiveSolverId))
                                  .Build();
  return recommender_->Recommend(query.value().group, query.value().spec)
      .value()
      .items;
}

std::vector<double> QualityHarness::IndependentEval(
    const RecommendationVariant& v) const {
  const auto last =
      static_cast<PeriodId>(recommender_->num_periods() - 1);
  std::vector<double> per_group;
  per_group.reserve(groups_.size());
  for (const StudyGroup& g : groups_) {
    const auto list = RecommendList(g, v);
    per_group.push_back(
        oracle_->GroupSatisfactionPercent(g.members, list, last));
  }
  std::vector<double> out;
  for (const GroupCharacteristic c : AllCharacteristics()) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      if (HasCharacteristic(groups_[i].spec, c)) {
        sum += per_group[i];
        ++count;
      }
    }
    out.push_back(count == 0 ? 0.0 : sum / static_cast<double>(count));
  }
  return out;
}

std::vector<double> QualityHarness::ComparativeEval(
    const RecommendationVariant& v1, const RecommendationVariant& v2) const {
  const auto last =
      static_cast<PeriodId>(recommender_->num_periods() - 1);
  std::vector<double> per_group;
  per_group.reserve(groups_.size());
  for (const StudyGroup& g : groups_) {
    const auto l1 = RecommendList(g, v1);
    const auto l2 = RecommendList(g, v2);
    per_group.push_back(
        oracle_->PreferenceSharePercent(g.members, l1, l2, last));
  }
  std::vector<double> out;
  for (const GroupCharacteristic c : AllCharacteristics()) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      if (HasCharacteristic(groups_[i].spec, c)) {
        sum += per_group[i];
        ++count;
      }
    }
    out.push_back(count == 0 ? 0.0 : sum / static_cast<double>(count));
  }
  return out;
}

std::vector<std::vector<double>> QualityHarness::VoteShares(
    std::span<const RecommendationVariant> variants) const {
  const auto last =
      static_cast<PeriodId>(recommender_->num_periods() - 1);
  std::vector<std::vector<double>> result(
      variants.size(), std::vector<double>(kNumCharacteristics, 0.0));
  std::vector<std::size_t> bucket_counts(kNumCharacteristics, 0);

  for (const StudyGroup& g : groups_) {
    std::vector<std::vector<ItemId>> lists;
    lists.reserve(variants.size());
    for (const auto& v : variants) lists.push_back(RecommendList(g, v));
    const std::vector<double> shares =
        oracle_->VoteShares(g.members, lists, last);
    const auto characteristics = AllCharacteristics();
    for (std::size_t c = 0; c < characteristics.size(); ++c) {
      if (!HasCharacteristic(g.spec, characteristics[c])) continue;
      ++bucket_counts[c];
      for (std::size_t v = 0; v < variants.size(); ++v) {
        result[v][c] += shares[v];
      }
    }
  }
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (std::size_t c = 0; c < kNumCharacteristics; ++c) {
      if (bucket_counts[c] > 0) {
        result[v][c] /= static_cast<double>(bucket_counts[c]);
      }
    }
  }
  return result;
}

PerformanceHarness::PerformanceHarness(const GroupRecommender& recommender,
                                       std::uint64_t seed)
    : recommender_(&recommender), seed_(seed) {}

QuerySpec PerformanceHarness::DefaultSpec() {
  QuerySpec spec;
  spec.k = 10;
  spec.model = AffinityModelSpec::Default();
  spec.consensus = ConsensusSpec::AveragePreference();
  spec.solver_id = std::string(kGrecaSolverId);
  spec.num_candidate_items = 3'900;
  return spec;
}

std::vector<Group> PerformanceHarness::RandomGroups(std::size_t count,
                                                    std::size_t size) const {
  Rng rng(seed_ ^ (size * 0x9E3779B97F4A7C15ULL));
  const std::size_t n = recommender_->study().num_participants();
  assert(size <= n);
  std::vector<Group> groups;
  groups.reserve(count);
  std::vector<UserId> all(n);
  for (UserId u = 0; u < n; ++u) all[u] = u;
  for (std::size_t i = 0; i < count; ++i) {
    Shuffle(rng, all);
    Group g(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(size));
    std::sort(g.begin(), g.end());
    groups.push_back(std::move(g));
  }
  return groups;
}

PerformanceHarness::SaMeasurement PerformanceHarness::Measure(
    std::span<const Group> groups, const QuerySpec& spec) const {
  OnlineStats sa;
  OnlineStats saveup;
  OnlineStats rounds;
  for (const Group& g : groups) {
    const Recommendation rec = recommender_->Recommend(g, spec).value();
    sa.Add(rec.raw.SequentialAccessPercent());
    saveup.Add(rec.raw.SaveupPercent());
    rounds.Add(static_cast<double>(rec.raw.rounds));
  }
  return {sa.mean(), sa.standard_error(), saveup.mean(), rounds.mean()};
}

PerformanceHarness::SaMeasurement PerformanceHarness::MeasureRandomGroups(
    const QuerySpec& spec, std::size_t group_size,
    std::size_t num_groups) const {
  const auto groups = RandomGroups(num_groups, group_size);
  return Measure(groups, spec);
}

}  // namespace greca
