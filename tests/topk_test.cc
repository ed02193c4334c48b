// Tests for the top-k framework: sorted lists, the problem encoding, the
// naive baseline, and the TA baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "test_util.h"
#include "topk/list_view.h"
#include "topk/naive.h"
#include "topk/problem.h"
#include "topk/sorted_list.h"
#include "topk/ta.h"

namespace greca {
namespace {

TEST(SortedListTest, SortsDescendingWithTiesById) {
  SortedList list = SortedList::FromUnsorted(
      {{2, 0.5}, {0, 0.9}, {3, 0.5}, {1, 0.1}}, 4);
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list.entry(0).id, 0u);
  EXPECT_EQ(list.entry(1).id, 2u);  // tie 0.5 -> lower id first
  EXPECT_EQ(list.entry(2).id, 3u);
  EXPECT_EQ(list.entry(3).id, 1u);
  EXPECT_DOUBLE_EQ(list.MaxScore(), 0.9);
}

TEST(SortedListTest, AccessCounting) {
  SortedList list = SortedList::FromUnsorted({{0, 0.9}, {1, 0.5}}, 2);
  AccessCounter counter;
  EXPECT_DOUBLE_EQ(list.ReadSequential(0, counter).score, 0.9);
  EXPECT_DOUBLE_EQ(list.RandomAccess(1, counter), 0.5);
  EXPECT_EQ(counter.sequential, 1u);
  EXPECT_EQ(counter.random, 1u);
  EXPECT_EQ(counter.total(), 2u);
}

TEST(SortedListTest, ScoreOfMissingKeyIsZero) {
  SortedList list = SortedList::FromUnsorted({{1, 0.5}}, 3);
  EXPECT_DOUBLE_EQ(list.ScoreOfKey(1), 0.5);
  EXPECT_DOUBLE_EQ(list.ScoreOfKey(0), 0.0);
  EXPECT_DOUBLE_EQ(list.ScoreOfKey(2), 0.0);
}

TEST(SortedListTest, ScoreOfKeyBeyondKeySpaceIsZeroNotUb) {
  // Regression: keys >= key_space used to index past position_of_key_.
  SortedList list = SortedList::FromUnsorted({{0, 0.9}, {1, 0.5}}, 2);
  EXPECT_DOUBLE_EQ(list.ScoreOfKey(2), 0.0);
  EXPECT_DOUBLE_EQ(list.ScoreOfKey(1'000'000), 0.0);
  AccessCounter counter;
  EXPECT_DOUBLE_EQ(list.RandomAccess(999, counter), 0.0);
  EXPECT_EQ(counter.random, 1u);
  // Empty lists are safe for any key.
  const SortedList empty;
  EXPECT_DOUBLE_EQ(empty.ScoreOfKey(0), 0.0);
}

TEST(SortedListTest, AssignUnsortedRebuildsInPlace) {
  SortedList list = SortedList::FromUnsorted({{0, 0.1}, {1, 0.2}, {2, 0.3}}, 3);
  const std::uint64_t before = SortedList::FromUnsortedCalls();
  const std::vector<ListEntry> entries{{0, 0.4}, {1, 0.9}};
  list.AssignUnsorted(entries, 4);
  EXPECT_EQ(SortedList::FromUnsortedCalls(), before);  // no FromUnsorted
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.key_space(), 4u);
  EXPECT_EQ(list.entry(0).id, 1u);
  EXPECT_EQ(list.entry(1).id, 0u);
  EXPECT_DOUBLE_EQ(list.ScoreOfKey(1), 0.9);
  EXPECT_DOUBLE_EQ(list.ScoreOfKey(2), 0.0);  // stale entry gone
  EXPECT_DOUBLE_EQ(list.ScoreOfKey(3), 0.0);  // missing in new key space
}

TEST(ListViewTest, AdapterMatchesSortedList) {
  const SortedList list =
      SortedList::FromUnsorted({{2, 0.5}, {0, 0.9}, {1, 0.1}}, 3);
  const ListView view(list);
  EXPECT_EQ(view.size(), list.size());
  EXPECT_EQ(view.key_space(), 3u);
  for (ListKey key = 0; key < 3; ++key) {
    EXPECT_FALSE(view.IsTombstoned(key));
    EXPECT_DOUBLE_EQ(view.ScoreOfKey(key), list.ScoreOfKey(key));
  }
  EXPECT_TRUE(view.IsTombstoned(3));
  EXPECT_DOUBLE_EQ(view.ScoreOfKey(7), 0.0);
  AccessCounter counter;
  std::size_t cursor = 0;
  for (std::size_t pos = 0; pos < list.size(); ++pos) {
    ASSERT_TRUE(view.SkipToLive(cursor));
    EXPECT_EQ(view.ReadSequential(cursor, counter), list.entry(pos));
  }
  EXPECT_FALSE(view.SkipToLive(cursor));
  EXPECT_EQ(counter.sequential, 3u);
}

TEST(GroupProblemTest, TotalEntriesSumsAllLists) {
  Rng rng(81);
  const GroupProblem problem = testing::MakeRandomProblem(
      rng, 3, 20, 2, ConsensusSpec::AveragePreference(),
      AffinityModelSpec::Default());
  // 3 lists × 20 items + 3 pairs static + 2 × 3 pairs periodic = 69.
  EXPECT_EQ(problem.TotalEntries(), 69u);
  EXPECT_EQ(problem.num_pairs(), 3u);
  EXPECT_EQ(problem.num_periods(), 2u);
}

TEST(GroupProblemTest, MemberPreferencesMatchFormula) {
  // Hand-checkable 2-member group: pref_u = (apref_u + aff*apref_v)/2.
  Rng rng(83);
  const GroupProblem problem = testing::MakeRandomProblem(
      rng, 2, 5, 0, ConsensusSpec::AveragePreference(),
      AffinityModelSpec::TimeAgnostic());
  const std::vector<double> apref{0.8, 0.4};
  const std::vector<double> aff{0.5};
  std::vector<double> prefs(2);
  problem.MemberPreferences(apref, aff, prefs);
  EXPECT_NEAR(prefs[0], (0.8 + 0.5 * 0.4) / 2.0, 1e-12);
  EXPECT_NEAR(prefs[1], (0.4 + 0.5 * 0.8) / 2.0, 1e-12);
}

TEST(GroupProblemTest, ExactScoreIsConsensusOfMemberPreferences) {
  Rng rng(87);
  const GroupProblem problem = testing::MakeRandomProblem(
      rng, 4, 10, 3, ConsensusSpec::PairwiseDisagreement(0.8),
      AffinityModelSpec::Default());
  ASSERT_TRUE(problem.uses_agreement_list());
  // Recompute by hand through public pieces.
  const std::vector<double> pair_aff = problem.ExactPairAffinities();
  std::vector<double> apref(4), prefs(4);
  for (ListKey item = 0; item < 10; ++item) {
    for (std::size_t u = 0; u < 4; ++u) {
      apref[u] = problem.preference_lists()[u].ScoreOfKey(item);
    }
    problem.MemberPreferences(apref, pair_aff, prefs);
    EXPECT_NEAR(problem.ExactScore(item),
                ConsensusScoreWithAgreement(
                    problem.consensus(), prefs,
                    problem.agreement_list().ScoreOfKey(item)),
                1e-12);
  }
}

TEST(GroupProblemTest, AggregatedAgreementListEqualsPairMean) {
  // The problem's one agreement list carries, per item, the mean over member
  // pairs of 1 − scale·|apref_a − apref_b| on the members' scores — pair-weighted when the
  // problem carries consensus weights.
  const std::vector<double> member_weights{0.1, 0.2, 0.3, 0.4};
  std::vector<double> pair_weights;
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      pair_weights.push_back(member_weights[a] * member_weights[b]);
    }
  }
  double pair_sum = 0.0;
  for (const double w : pair_weights) pair_sum += w;
  for (double& w : pair_weights) w /= pair_sum;

  for (const bool weighted : {false, true}) {
    Rng rng(90);
    const ConsensusWeights weights =
        weighted ? ConsensusWeights{member_weights, pair_weights}
                 : ConsensusWeights{};
    const GroupProblem problem = testing::MakeRandomProblem(
        rng, 4, 10, 1, ConsensusSpec::PairwiseDisagreement(0.5),
        AffinityModelSpec::Default(), weights);
    const ListView& list = problem.agreement_list();
    EXPECT_EQ(list.size(), problem.num_candidates());
    const double scale = problem.consensus().disagreement_scale;
    for (ListKey item = 0; item < 10; ++item) {
      double mean = 0.0;
      std::size_t q = 0;
      for (std::size_t a = 0; a < 4; ++a) {
        for (std::size_t b = a + 1; b < 4; ++b, ++q) {
          // Written out rather than through PairAgreement, which the list
          // builder itself calls.
          const double ag =
              1.0 - scale * std::abs(
                                problem.preference_lists()[a].ScoreOfKey(item) -
                                problem.preference_lists()[b].ScoreOfKey(item));
          mean += (weighted ? pair_weights[q] : 1.0 / 6.0) * ag;
        }
      }
      EXPECT_NEAR(list.ScoreOfKey(item), mean, 1e-12)
          << (weighted ? "weighted" : "uniform") << " item " << item;
    }
  }
}

TEST(NaiveTopKTest, ReadsEverythingAndRanksExactly) {
  Rng rng(91);
  const GroupProblem problem = testing::MakeRandomProblem(
      rng, 3, 30, 2, ConsensusSpec::AveragePreference(),
      AffinityModelSpec::Default());
  const TopKResult result = NaiveTopK(problem, 5);
  EXPECT_EQ(result.accesses.sequential, problem.TotalEntries());
  EXPECT_DOUBLE_EQ(result.SequentialAccessPercent(), 100.0);
  EXPECT_DOUBLE_EQ(result.SaveupPercent(), 0.0);
  EXPECT_FALSE(result.early_terminated);
  ASSERT_EQ(result.items.size(), 5u);
  // Scores descending and equal to exact scores.
  for (std::size_t i = 0; i < result.items.size(); ++i) {
    EXPECT_NEAR(result.items[i].score, problem.ExactScore(result.items[i].id),
                1e-12);
    if (i > 0) {
      EXPECT_GE(result.items[i - 1].score, result.items[i].score);
    }
  }
  // Verify against brute force over all items.
  std::vector<double> all;
  for (ListKey item = 0; item < 30; ++item) {
    all.push_back(problem.ExactScore(item));
  }
  std::sort(all.begin(), all.end(), std::greater<>());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(result.items[i].score, all[i], 1e-12);
  }
}

TEST(TaTopKTest, FindsSameItemsetAsNaive) {
  Rng rng(93);
  for (int trial = 0; trial < 20; ++trial) {
    const GroupProblem problem = testing::MakeRandomProblem(
        rng, 3, 40, 2, ConsensusSpec::AveragePreference(),
        AffinityModelSpec::Default());
    const TopKResult naive = NaiveTopK(problem, 5);
    const TopKResult ta = TaTopK(problem, 5);
    ASSERT_EQ(ta.items.size(), 5u);
    const auto naive_scores = testing::ExactScoresSorted(problem, naive.items);
    const auto ta_scores = testing::ExactScoresSorted(problem, ta.items);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_NEAR(ta_scores[i], naive_scores[i], 1e-9) << "trial " << trial;
    }
  }
}

TEST(TaTopKTest, ChargesRandomAccesses) {
  Rng rng(97);
  const GroupProblem problem = testing::MakeRandomProblem(
      rng, 3, 50, 2, ConsensusSpec::AveragePreference(),
      AffinityModelSpec::Default());
  const TopKResult ta = TaTopK(problem, 3);
  // TA must have charged affinity + preference RAs for each scored item:
  // per item 2 apref RAs + 3 users × 2 pairs × 3 lists = 18 affinity RAs.
  EXPECT_GT(ta.accesses.random, ta.accesses.sequential);
}

TEST(TaTopKTest, RunningExampleChargesPaperRaCount) {
  // Paper §3.1: scoring one item of the 3-user, 2-period example costs
  // ~21 RAs (3 apref + 18 affinity; we charge 2 apref since the item was
  // found via SA in one list, plus 18 affinity = 20 per item).
  const GroupProblem problem = testing::MakeRunningExampleProblem(
      ConsensusSpec::AveragePreference(), AffinityModelSpec::Default());
  const TopKResult ta = TaTopK(problem, 1);
  ASSERT_FALSE(ta.items.empty());
  // First round scores up to 3 distinct items -> RA count is a multiple of 20.
  EXPECT_EQ(ta.accesses.random % 20, 0u);
  EXPECT_GE(ta.accesses.random, 20u);
}

TEST(TaTopKTest, VarianceThresholdDoesNotStopBeforeTheBestItem) {
  // VD is not monotone in member preferences: item D's lower but equal
  // preferences have zero variance and beat B, whose cursor-level scores
  // are the highest TA has seen when it first checks the threshold. The
  // threshold must bound dis below by 0, not evaluate it at the cursors.
  // Affinity-agnostic prefs are apref / 2, so with w1 = 0:
  //   F(A) = 1 − var(0.5, 0) = 0.9375, F(B) = 1 − var(0.25, 0.225) =
  //   0.999844, F(D) = 1 − var(0.15, 0.15) = 1.
  const auto list = [](double a, double b, double d) {
    return SortedList::FromUnsorted({{0, a}, {1, b}, {2, d}}, 3);
  };
  std::vector<SortedList> pref_lists;
  pref_lists.push_back(list(1.0, 0.5, 0.3));
  pref_lists.push_back(list(0.0, 0.45, 0.3));
  const GroupProblem problem = testing::MakeProblem(
      3, std::move(pref_lists), SortedList::FromUnsorted({{0, 0.5}}, 1), {},
      AffinityCombiner(AffinityModelSpec::AffinityAgnostic(), {}),
      ConsensusSpec::VarianceDisagreement(0.0));
  EXPECT_NEAR(problem.ExactScore(0), 0.9375, 1e-12);
  EXPECT_NEAR(problem.ExactScore(1), 1.0 - 0.0125 * 0.0125, 1e-12);
  EXPECT_NEAR(problem.ExactScore(2), 1.0, 1e-12);

  const TopKResult ta = TaTopK(problem, 1);
  ASSERT_EQ(ta.items.size(), 1u);
  EXPECT_EQ(ta.items[0].id, 2u);
  const TopKResult naive = NaiveTopK(problem, 1);
  ASSERT_EQ(naive.items.size(), 1u);
  EXPECT_EQ(naive.items[0].id, 2u);
}

}  // namespace
}  // namespace greca
