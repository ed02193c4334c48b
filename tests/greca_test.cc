// Tests for GRECA: correctness against the exhaustive baseline across models,
// consensus functions, group sizes and k (the Lemma 2 property), the paper's
// running example, termination-policy ablation, and access savings.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core/greca.h"
#include "test_util.h"
#include "topk/naive.h"

namespace greca {
namespace {

struct SweepCase {
  std::string name;
  ConsensusSpec consensus;
  AffinityModelSpec model;
  std::size_t group_size;
  std::size_t num_items;
  std::size_t num_periods;
  std::size_t k;
  TerminationPolicy termination = TerminationPolicy::kBufferCondition;
};

class GrecaSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GrecaSweepTest, MatchesNaiveTopKScores) {
  const SweepCase& c = GetParam();
  Rng rng(1'000 + std::hash<std::string>{}(c.name) % 1'000);
  for (int trial = 0; trial < 8; ++trial) {
    const GroupProblem problem = testing::MakeRandomProblem(
        rng, c.group_size, c.num_items, c.num_periods, c.consensus, c.model);
    const TopKResult naive = NaiveTopK(problem, c.k);
    GrecaConfig config;
    config.k = c.k;
    config.termination = c.termination;
    const TopKResult greca = Greca(problem, config);

    ASSERT_EQ(greca.items.size(), c.k) << c.name << " trial " << trial;
    const auto naive_scores = testing::ExactScoresSorted(problem, naive.items);
    const auto greca_scores = testing::ExactScoresSorted(problem, greca.items);
    for (std::size_t i = 0; i < c.k; ++i) {
      EXPECT_NEAR(greca_scores[i], naive_scores[i], 1e-9)
          << c.name << " trial " << trial << " rank " << i;
    }
  }
}

TEST_P(GrecaSweepTest, LowerBoundsNeverExceedExactScores) {
  const SweepCase& c = GetParam();
  Rng rng(2'000 + std::hash<std::string>{}(c.name) % 1'000);
  const GroupProblem problem = testing::MakeRandomProblem(
      rng, c.group_size, c.num_items, c.num_periods, c.consensus, c.model);
  GrecaConfig config;
  config.k = c.k;
  config.termination = c.termination;
  const TopKResult result = Greca(problem, config);
  for (const ListEntry& e : result.items) {
    EXPECT_LE(e.score, problem.ExactScore(e.id) + 1e-9) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GrecaSweepTest,
    ::testing::Values(
        SweepCase{"ap_discrete_g3", ConsensusSpec::AveragePreference(),
                  AffinityModelSpec::Default(), 3, 60, 2, 5},
        SweepCase{"ap_continuous_g3", ConsensusSpec::AveragePreference(),
                  AffinityModelSpec::Continuous(), 3, 60, 2, 5},
        SweepCase{"mo_discrete_g3", ConsensusSpec::LeastMisery(),
                  AffinityModelSpec::Default(), 3, 60, 2, 5},
        SweepCase{"pd08_discrete_g4", ConsensusSpec::PairwiseDisagreement(0.8),
                  AffinityModelSpec::Default(), 4, 50, 3, 4},
        SweepCase{"pd02_discrete_g4", ConsensusSpec::PairwiseDisagreement(0.2),
                  AffinityModelSpec::Default(), 4, 50, 3, 4},
        SweepCase{"vd_discrete_g3", ConsensusSpec::VarianceDisagreement(0.8),
                  AffinityModelSpec::Default(), 3, 40, 2, 3},
        // Pure variance on a small pair group: VD is not monotone, so this
        // fails if GRECA stops on Theorem 1's "pruned => threshold met".
        SweepCase{"vd00_affinity_agnostic_g2",
                  ConsensusSpec::VarianceDisagreement(0.0),
                  AffinityModelSpec::AffinityAgnostic(), 2, 5, 0, 1},
        SweepCase{"ap_affinity_agnostic", ConsensusSpec::AveragePreference(),
                  AffinityModelSpec::AffinityAgnostic(), 3, 60, 0, 5},
        SweepCase{"ap_time_agnostic", ConsensusSpec::AveragePreference(),
                  AffinityModelSpec::TimeAgnostic(), 3, 60, 0, 5},
        SweepCase{"ap_large_group", ConsensusSpec::AveragePreference(),
                  AffinityModelSpec::Default(), 8, 40, 2, 5},
        SweepCase{"mo_continuous_many_periods", ConsensusSpec::LeastMisery(),
                  AffinityModelSpec::Continuous(), 3, 40, 6, 5},
        SweepCase{"ap_k1", ConsensusSpec::AveragePreference(),
                  AffinityModelSpec::Default(), 3, 50, 2, 1},
        SweepCase{"ap_k_equals_m", ConsensusSpec::AveragePreference(),
                  AffinityModelSpec::Default(), 3, 12, 2, 12},
        // Groups past 32 members, on both sides of the 64-member word
        // boundary of GRECA's seen-set. At 64 and 65 members the affinity-
        // agnostic model keeps the runs short: the pair lists hold
        // g(g−1)/2 entries that GRECA would otherwise scan round by round.
        SweepCase{"ap_g33", ConsensusSpec::AveragePreference(),
                  AffinityModelSpec::Default(), 33, 40, 2, 5},
        SweepCase{"mo_g33", ConsensusSpec::LeastMisery(),
                  AffinityModelSpec::Default(), 33, 40, 2, 5},
        SweepCase{"pd08_g33", ConsensusSpec::PairwiseDisagreement(0.8),
                  AffinityModelSpec::Default(), 33, 40, 2, 5},
        SweepCase{"vd08_g33", ConsensusSpec::VarianceDisagreement(0.8),
                  AffinityModelSpec::Default(), 33, 40, 2, 5},
        SweepCase{"ap_g64", ConsensusSpec::AveragePreference(),
                  AffinityModelSpec::AffinityAgnostic(), 64, 40, 0, 5},
        SweepCase{"mo_g64", ConsensusSpec::LeastMisery(),
                  AffinityModelSpec::AffinityAgnostic(), 64, 40, 0, 5},
        SweepCase{"pd08_g64", ConsensusSpec::PairwiseDisagreement(0.8),
                  AffinityModelSpec::AffinityAgnostic(), 64, 40, 0, 5},
        SweepCase{"vd08_g64", ConsensusSpec::VarianceDisagreement(0.8),
                  AffinityModelSpec::AffinityAgnostic(), 64, 40, 0, 5},
        SweepCase{"ap_g65", ConsensusSpec::AveragePreference(),
                  AffinityModelSpec::AffinityAgnostic(), 65, 40, 0, 5},
        SweepCase{"mo_g65", ConsensusSpec::LeastMisery(),
                  AffinityModelSpec::AffinityAgnostic(), 65, 40, 0, 5},
        SweepCase{"pd08_g65", ConsensusSpec::PairwiseDisagreement(0.8),
                  AffinityModelSpec::AffinityAgnostic(), 65, 40, 0, 5},
        SweepCase{"vd08_g65", ConsensusSpec::VarianceDisagreement(0.8),
                  AffinityModelSpec::AffinityAgnostic(), 65, 40, 0, 5},
        SweepCase{"ap_g33_threshold_only", ConsensusSpec::AveragePreference(),
                  AffinityModelSpec::AffinityAgnostic(), 33, 40, 0, 5,
                  TerminationPolicy::kThresholdOnly}),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      return param_info.param.name;
    });

TEST(GrecaTest, RunningExampleReturnsI1AsTop1) {
  // Paper §3.1/§3.2: for the Tables 1–4 instance, the top-1 item is i1
  // (key 0) under the default AP + discrete configuration.
  for (const auto spec :
       {AffinityModelSpec::Default(), AffinityModelSpec::Continuous(),
        AffinityModelSpec::TimeAgnostic()}) {
    const GroupProblem problem = testing::MakeRunningExampleProblem(
        ConsensusSpec::AveragePreference(), spec);
    GrecaConfig config;
    config.k = 1;
    const TopKResult result = Greca(problem, config);
    ASSERT_EQ(result.items.size(), 1u) << spec.Name();
    EXPECT_EQ(result.items[0].id, 0u) << spec.Name();
  }
}

TEST(GrecaTest, RunningExamplePreferenceConsensusAgreesOnI1) {
  for (const auto consensus :
       {ConsensusSpec::AveragePreference(), ConsensusSpec::LeastMisery()}) {
    const GroupProblem problem = testing::MakeRunningExampleProblem(
        consensus, AffinityModelSpec::Default());
    GrecaConfig config;
    config.k = 1;
    const TopKResult result = Greca(problem, config);
    ASSERT_EQ(result.items.size(), 1u);
    EXPECT_EQ(result.items[0].id, 0u) << consensus.Name();
  }
}

TEST(GrecaTest, RunningExamplePdFavorsZeroDisagreementItem) {
  // Under PD the star-scale disagreement penalty (dis(i1) averages 2 stars:
  // u3 rates i1 three stars below u1/u2) outweighs i1's popularity, so the
  // consensus-friendly i2 (all members rate it 1 star, zero disagreement)
  // wins — the intended least-conflict semantics of PD (§2.3).
  for (const double w1 : {0.8, 0.2}) {
    const GroupProblem problem = testing::MakeRunningExampleProblem(
        ConsensusSpec::PairwiseDisagreement(w1), AffinityModelSpec::Default());
    GrecaConfig config;
    config.k = 1;
    const TopKResult result = Greca(problem, config);
    ASSERT_EQ(result.items.size(), 1u);
    EXPECT_EQ(result.items[0].id, 1u) << "w1=" << w1;
    // And GRECA matches the exhaustive scan either way.
    const TopKResult naive = NaiveTopK(problem, 1);
    EXPECT_EQ(result.items[0].id, naive.items[0].id);
  }
}

TEST(GrecaTest, SavesAccessesOnSkewedInputs) {
  // Strongly skewed lists let GRECA stop early; verify a real saveup.
  std::vector<SortedList> pref_lists;
  const std::size_t m = 500;
  for (std::size_t u = 0; u < 3; ++u) {
    std::vector<ListEntry> entries;
    for (std::size_t i = 0; i < m; ++i) {
      // A handful of strong items, long flat tail. Each member ranks a
      // different key permutation so the buffer fills past k and pruning
      // kicks in.
      const double score = i < 5 ? 1.0 - 0.01 * static_cast<double>(i)
                                 : 0.3 / (1.0 + static_cast<double>(i));
      const auto key = static_cast<ListKey>((i + u * 17) % m);
      entries.push_back({key, score});
    }
    pref_lists.push_back(SortedList::FromUnsorted(std::move(entries), m));
  }
  SortedList static_list =
      SortedList::FromUnsorted({{0, 1.0}, {1, 0.5}, {2, 0.2}}, 3);
  std::vector<SortedList> period_lists{
      SortedList::FromUnsorted({{0, 0.9}, {1, 0.4}, {2, 0.1}}, 3)};
  AffinityCombiner combiner(AffinityModelSpec::Default(), {0.2});
  const GroupProblem problem = testing::MakeProblem(
      m, std::move(pref_lists), std::move(static_list),
      std::move(period_lists), std::move(combiner),
      ConsensusSpec::AveragePreference());
  GrecaConfig config;
  config.k = 3;
  GrecaStats stats;
  const TopKResult result = Greca(problem, config, &stats);
  EXPECT_TRUE(result.early_terminated);
  EXPECT_LT(result.SequentialAccessPercent(), 50.0);
  EXPECT_GT(result.SaveupPercent(), 50.0);
  EXPECT_GT(stats.pruned_items, 0u);
  EXPECT_TRUE(stats.stopped_by_buffer_condition);
  // And the result is still exact.
  const TopKResult naive = NaiveTopK(problem, 3);
  const auto ns = testing::ExactScoresSorted(problem, naive.items);
  const auto gs = testing::ExactScoresSorted(problem, result.items);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(gs[i], ns[i], 1e-9);
}

TEST(GrecaTest, ThresholdOnlyPolicyIsCorrectButSlower) {
  Rng rng(3'001);
  const GroupProblem problem = testing::MakeRandomProblem(
      rng, 3, 100, 2, ConsensusSpec::AveragePreference(),
      AffinityModelSpec::Default());
  GrecaConfig buffer_config;
  buffer_config.k = 5;
  GrecaConfig threshold_config = buffer_config;
  threshold_config.termination = TerminationPolicy::kThresholdOnly;

  const TopKResult with_buffer = Greca(problem, buffer_config);
  const TopKResult threshold_only = Greca(problem, threshold_config);

  // Same answer...
  const auto a = testing::ExactScoresSorted(problem, with_buffer.items);
  const auto b = testing::ExactScoresSorted(problem, threshold_only.items);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
  // ... but the buffer condition never needs more accesses (Theorem 1).
  EXPECT_LE(with_buffer.accesses.sequential,
            threshold_only.accesses.sequential);
}

TEST(GrecaTest, KLargerThanDistinctItemsReturnsAll) {
  Rng rng(3'005);
  const GroupProblem problem = testing::MakeRandomProblem(
      rng, 3, 8, 1, ConsensusSpec::AveragePreference(),
      AffinityModelSpec::Default());
  GrecaConfig config;
  config.k = 20;  // more than the 8 candidates
  const TopKResult result = Greca(problem, config);
  EXPECT_EQ(result.items.size(), 8u);
  EXPECT_FALSE(result.early_terminated);
}

TEST(GrecaTest, StatsArepopulated) {
  Rng rng(3'007);
  const GroupProblem problem = testing::MakeRandomProblem(
      rng, 3, 60, 2, ConsensusSpec::AveragePreference(),
      AffinityModelSpec::Default());
  GrecaConfig config;
  config.k = 5;
  GrecaStats stats;
  const TopKResult result = Greca(problem, config, &stats);
  EXPECT_GT(stats.stop_checks, 0u);
  EXPECT_GE(stats.peak_buffer_size, config.k);
  EXPECT_GT(result.rounds, 0u);
  EXPECT_LE(result.accesses.sequential, problem.TotalEntries());
  EXPECT_EQ(result.accesses.random, 0u);  // GRECA makes SAs only
}

TEST(GrecaTest, PartialOrderScoresAreDescending) {
  Rng rng(3'009);
  const GroupProblem problem = testing::MakeRandomProblem(
      rng, 3, 60, 2, ConsensusSpec::AveragePreference(),
      AffinityModelSpec::Default());
  GrecaConfig config;
  config.k = 10;
  const TopKResult result = Greca(problem, config);
  for (std::size_t i = 1; i < result.items.size(); ++i) {
    EXPECT_GE(result.items[i - 1].score, result.items[i].score);
  }
}

TEST(GrecaTest, DistinctItemsInResult) {
  Rng rng(3'011);
  const GroupProblem problem = testing::MakeRandomProblem(
      rng, 5, 70, 3, ConsensusSpec::PairwiseDisagreement(0.2),
      AffinityModelSpec::Default());
  GrecaConfig config;
  config.k = 12;
  const TopKResult result = Greca(problem, config);
  std::set<ListKey> keys;
  for (const ListEntry& e : result.items) keys.insert(e.id);
  EXPECT_EQ(keys.size(), result.items.size());
}

}  // namespace
}  // namespace greca
