// Adversarial inputs for GRECA: heavy ties, constant lists, degenerate
// affinities, anti-correlated members — cases where bound arithmetic and
// termination logic are easiest to get wrong. Every case cross-checks the
// returned score multiset against the exhaustive scan.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/greca.h"
#include "test_util.h"
#include "topk/naive.h"

namespace greca {
namespace {

GroupProblem BuildProblem(std::vector<std::vector<double>> pref_scores,
                          std::vector<double> static_aff,
                          std::vector<std::vector<double>> period_aff,
                          ConsensusSpec consensus = ConsensusSpec::AveragePreference(),
                          AffinityModelSpec model = AffinityModelSpec::Default()) {
  const auto m = static_cast<ListKey>(pref_scores[0].size());
  std::vector<SortedList> pref_lists;
  for (const auto& scores : pref_scores) {
    std::vector<ListEntry> entries;
    for (ListKey i = 0; i < scores.size(); ++i) {
      entries.push_back({i, scores[i]});
    }
    pref_lists.push_back(SortedList::FromUnsorted(std::move(entries), m));
  }
  const auto pairs = static_cast<ListKey>(static_aff.size());
  std::vector<ListEntry> static_entries;
  for (ListKey q = 0; q < pairs; ++q) {
    static_entries.push_back({q, static_aff[q]});
  }
  SortedList static_list =
      SortedList::FromUnsorted(std::move(static_entries), pairs);
  std::vector<SortedList> period_lists;
  std::vector<double> averages;
  for (const auto& values : period_aff) {
    std::vector<ListEntry> entries;
    for (ListKey q = 0; q < values.size(); ++q) {
      entries.push_back({q, values[q]});
    }
    period_lists.push_back(SortedList::FromUnsorted(std::move(entries), pairs));
    averages.push_back(0.2);
  }
  if (!model.time_aware || !model.affinity_aware) {
    period_lists.clear();
    averages.clear();
  }
  return testing::MakeProblem(m, std::move(pref_lists),
                              std::move(static_list), std::move(period_lists),
                              AffinityCombiner(model, std::move(averages)),
                              consensus);
}

void ExpectMatchesNaive(const GroupProblem& problem, std::size_t k,
                        const char* label) {
  GrecaConfig config;
  config.k = k;
  const TopKResult greca = Greca(problem, config);
  const TopKResult naive = NaiveTopK(problem, k);
  ASSERT_EQ(greca.items.size(), naive.items.size()) << label;
  const auto gs = testing::ExactScoresSorted(problem, greca.items);
  const auto ns = testing::ExactScoresSorted(problem, naive.items);
  for (std::size_t i = 0; i < gs.size(); ++i) {
    EXPECT_NEAR(gs[i], ns[i], 1e-9) << label << " rank " << i;
  }
}

TEST(GrecaAdversarialTest, AllScoresIdentical) {
  // Every item ties exactly; any k-subset is a valid answer.
  const std::vector<double> flat(40, 0.5);
  const GroupProblem problem =
      BuildProblem({flat, flat, flat}, {0.5, 0.5, 0.5},
                   {{0.5, 0.5, 0.5}});
  ExpectMatchesNaive(problem, 7, "all-ties");
}

TEST(GrecaAdversarialTest, AllZeroPreferences) {
  const std::vector<double> zero(25, 0.0);
  const GroupProblem problem =
      BuildProblem({zero, zero}, {0.0}, {{0.0}});
  ExpectMatchesNaive(problem, 5, "all-zero");
}

TEST(GrecaAdversarialTest, MassiveTiePlateaus) {
  // Two plateaus: 20 items at 0.9, 20 at 0.1; k cuts through the plateau.
  std::vector<double> plateau(40);
  for (std::size_t i = 0; i < 40; ++i) plateau[i] = i < 20 ? 0.9 : 0.1;
  const GroupProblem problem = BuildProblem(
      {plateau, plateau, plateau}, {1.0, 0.2, 0.4}, {{0.3, 0.3, 0.3}});
  ExpectMatchesNaive(problem, 10, "plateau");
  ExpectMatchesNaive(problem, 20, "plateau-boundary");
  ExpectMatchesNaive(problem, 25, "plateau-crossing");
}

TEST(GrecaAdversarialTest, PerfectlyAntiCorrelatedMembers) {
  // Member 2 ranks items in exactly the reverse order of member 1.
  std::vector<double> up(30), down(30);
  for (std::size_t i = 0; i < 30; ++i) {
    up[i] = static_cast<double>(i) / 29.0;
    down[i] = static_cast<double>(29 - i) / 29.0;
  }
  for (const auto consensus :
       {ConsensusSpec::AveragePreference(), ConsensusSpec::LeastMisery(),
        ConsensusSpec::PairwiseDisagreement(0.2),
        ConsensusSpec::VarianceDisagreement(0.2)}) {
    const GroupProblem problem =
        BuildProblem({up, down}, {0.7}, {{0.5}}, consensus);
    ExpectMatchesNaive(problem, 5, consensus.Name().c_str());
  }
}

TEST(GrecaAdversarialTest, OneDominantItem) {
  std::vector<double> spiky(50, 0.01);
  spiky[17] = 1.0;
  const GroupProblem problem =
      BuildProblem({spiky, spiky, spiky}, {0.9, 0.9, 0.9}, {{0.8, 0.8, 0.8}});
  GrecaConfig config;
  config.k = 1;
  const TopKResult result = Greca(problem, config);
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].id, 17u);
  EXPECT_TRUE(result.early_terminated);
  // The dominant item separates immediately: tiny scan depth.
  EXPECT_LT(result.SequentialAccessPercent(), 15.0);
}

TEST(GrecaAdversarialTest, ZeroAffinityGroupStillCorrect) {
  Rng rng(404);
  std::vector<std::vector<double>> prefs(4, std::vector<double>(30));
  for (auto& list : prefs) {
    for (auto& s : list) s = rng.NextDouble();
  }
  const GroupProblem problem = BuildProblem(
      prefs, {0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
      {{0.0, 0.0, 0.0, 0.0, 0.0, 0.0}});
  ExpectMatchesNaive(problem, 6, "zero-affinity");
}

TEST(GrecaAdversarialTest, SingleMemberGroup) {
  std::vector<double> scores(20);
  Rng rng(405);
  for (auto& s : scores) s = rng.NextDouble();
  const GroupProblem problem = BuildProblem({scores}, {}, {{}});
  ExpectMatchesNaive(problem, 4, "singleton");
}

TEST(GrecaAdversarialTest, ManyPeriodsSparseAffinity) {
  // 12 periods, affinity present in only one of them.
  Rng rng(406);
  std::vector<std::vector<double>> prefs(3, std::vector<double>(25));
  for (auto& list : prefs) {
    for (auto& s : list) s = rng.NextDouble();
  }
  std::vector<std::vector<double>> periods(12,
                                           std::vector<double>(3, 0.0));
  periods[7] = {0.9, 0.5, 0.1};
  const GroupProblem problem =
      BuildProblem(prefs, {0.4, 0.6, 0.2}, periods);
  ExpectMatchesNaive(problem, 5, "sparse-periods");
}

TEST(GrecaAdversarialTest, ContinuousModelExtremeDrifts) {
  Rng rng(407);
  std::vector<std::vector<double>> prefs(3, std::vector<double>(25));
  for (auto& list : prefs) {
    for (auto& s : list) s = rng.NextDouble();
  }
  // Max positive drift on one pair, max negative on another.
  const GroupProblem problem = BuildProblem(
      prefs, {0.5, 0.5, 0.5}, {{1.0, 0.0, 0.5}, {1.0, 0.0, 0.5}},
      ConsensusSpec::AveragePreference(), AffinityModelSpec::Continuous());
  ExpectMatchesNaive(problem, 5, "continuous-extreme");
}

TEST(GrecaAdversarialTest, ThresholdOnlyNeverWrongEvenOnTies) {
  const std::vector<double> flat(30, 0.7);
  const GroupProblem problem =
      BuildProblem({flat, flat}, {0.5}, {{0.5}});
  GrecaConfig config;
  config.k = 5;
  config.termination = TerminationPolicy::kThresholdOnly;
  ExpectMatchesNaive(problem, 5, "threshold-only-ties");
  const TopKResult result = Greca(problem, config);
  EXPECT_EQ(result.items.size(), 5u);
}

}  // namespace
}  // namespace greca
