#include "test_util.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "affinity/static_affinity.h"

namespace greca::testing {

namespace {

SortedList RandomList(Rng& rng, std::size_t keys) {
  std::vector<ListEntry> entries;
  entries.reserve(keys);
  for (ListKey k = 0; k < keys; ++k) {
    entries.push_back({k, rng.NextDouble()});
  }
  return SortedList::FromUnsorted(std::move(entries),
                                  static_cast<ListKey>(keys));
}

/// Keeps MakeProblem's lists alive for the problem's lifetime.
struct OwnedLists {
  std::vector<SortedList> preference;
  SortedList static_list;
  std::vector<SortedList> period;
  std::vector<ListView> preference_views;
  std::vector<ListView> period_views;
  ProblemArena arena;
};

}  // namespace

GroupProblem MakeProblem(std::size_t num_items,
                         std::vector<SortedList> preference_lists,
                         SortedList static_affinity,
                         std::vector<SortedList> period_affinity,
                         AffinityCombiner combiner, ConsensusSpec consensus,
                         ConsensusWeights weights) {
  auto owned = std::make_shared<OwnedLists>();
  owned->preference = std::move(preference_lists);
  owned->static_list = std::move(static_affinity);
  owned->period = std::move(period_affinity);
  for (const SortedList& list : owned->preference) {
    owned->preference_views.emplace_back(list);
  }
  for (const SortedList& list : owned->period) {
    owned->period_views.emplace_back(list);
  }
  GroupProblem problem(num_items, num_items, owned->preference_views,
                       ListView(owned->static_list), owned->period_views,
                       std::move(combiner), std::move(consensus),
                       owned->arena, weights);
  problem.PinLifetime(std::move(owned));
  return problem;
}

GroupProblem MakeRandomProblem(Rng& rng, std::size_t g, std::size_t m,
                               std::size_t num_periods,
                               const ConsensusSpec& consensus,
                               const AffinityModelSpec& model,
                               ConsensusWeights weights) {
  std::vector<SortedList> pref_lists;
  for (std::size_t u = 0; u < g; ++u) pref_lists.push_back(RandomList(rng, m));
  const std::size_t pairs = NumUserPairs(g);
  SortedList static_list = RandomList(rng, pairs);
  std::vector<SortedList> period_lists;
  std::vector<double> averages;
  const std::size_t periods =
      (model.affinity_aware && model.time_aware) ? num_periods : 0;
  for (std::size_t t = 0; t < periods; ++t) {
    period_lists.push_back(RandomList(rng, pairs));
    averages.push_back(rng.NextDouble(0.0, 0.5));
  }
  return MakeProblem(m, std::move(pref_lists), std::move(static_list),
                     std::move(period_lists),
                     AffinityCombiner(model, std::move(averages)), consensus,
                     weights);
}

GroupProblem MakeRunningExampleProblem(const ConsensusSpec& consensus,
                                       const AffinityModelSpec& model) {
  // Table 1 absolute preferences (stars / 5). Items i1, i2, i3 -> keys 0,1,2.
  const auto list = [](std::initializer_list<double> stars) {
    std::vector<ListEntry> entries;
    ListKey key = 0;
    for (const double s : stars) entries.push_back({key++, s / 5.0});
    return SortedList::FromUnsorted(std::move(entries), 3);
  };
  std::vector<SortedList> pref_lists;
  pref_lists.push_back(list({5.0, 1.0, 1.0}));  // u1
  pref_lists.push_back(list({5.0, 1.0, 0.5}));  // u2
  pref_lists.push_back(list({2.0, 1.0, 2.0}));  // u3

  // Pairs: (u1,u2)=0, (u1,u3)=1, (u2,u3)=2 in local pair order.
  const auto pair_list = [](double p12, double p13, double p23) {
    std::vector<ListEntry> entries{{0, p12}, {1, p13}, {2, p23}};
    return SortedList::FromUnsorted(std::move(entries), 3);
  };
  SortedList static_list = pair_list(1.0, 0.2, 0.3);  // Table 2

  std::vector<SortedList> period_lists;
  std::vector<double> averages;
  if (model.affinity_aware && model.time_aware) {
    period_lists.push_back(pair_list(0.8, 0.1, 0.2));  // Table 3 (p1)
    period_lists.push_back(pair_list(0.7, 0.1, 0.1));  // Table 4 (p2)
    averages = {0.2, 0.15};  // population averages (not given in the paper)
  }
  return MakeProblem(3, std::move(pref_lists), std::move(static_list),
                     std::move(period_lists),
                     AffinityCombiner(model, std::move(averages)), consensus);
}

std::vector<double> ExactScoresSorted(const GroupProblem& problem,
                                      const std::vector<ListEntry>& items) {
  std::vector<double> scores;
  scores.reserve(items.size());
  for (const ListEntry& e : items) scores.push_back(problem.ExactScore(e.id));
  std::sort(scores.begin(), scores.end(), std::greater<>());
  return scores;
}

}  // namespace greca::testing
