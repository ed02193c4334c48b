// Tests for the consensus functions: hand-computed examples, monotonicity
// (Lemma 1's premise) and interval soundness sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "consensus/consensus.h"

namespace greca {
namespace {

TEST(ConsensusSpecTest, PresetsAndNames) {
  EXPECT_EQ(ConsensusSpec::AveragePreference().Name(), "AP");
  EXPECT_EQ(ConsensusSpec::LeastMisery().Name(), "MO");
  EXPECT_EQ(ConsensusSpec::PairwiseDisagreement(0.8).Name(), "PD(w1=0.8)");
  EXPECT_EQ(ConsensusSpec::VarianceDisagreement(0.2).Name(), "VD(w1=0.2)");
  const ConsensusSpec pd = ConsensusSpec::PairwiseDisagreement(0.2);
  EXPECT_DOUBLE_EQ(pd.w1 + pd.w2, 1.0);
}

TEST(GroupPreferenceTest, AverageAndLeastMisery) {
  const std::vector<double> prefs{0.2, 0.8, 0.5};
  EXPECT_NEAR(GroupPreferenceScore(GroupAggregator::kAverage, prefs), 0.5,
              1e-12);
  EXPECT_DOUBLE_EQ(GroupPreferenceScore(GroupAggregator::kLeastMisery, prefs),
                   0.2);
}

TEST(DisagreementTest, PairwiseHandExample) {
  // Pairs: |0.2-0.8|=0.6, |0.2-0.5|=0.3, |0.8-0.5|=0.3; mean = 0.4.
  const std::vector<double> prefs{0.2, 0.8, 0.5};
  EXPECT_NEAR(DisagreementScore(DisagreementKind::kPairwise, prefs), 0.4,
              1e-12);
}

TEST(DisagreementTest, VarianceHandExample) {
  const std::vector<double> prefs{0.2, 0.8, 0.5};
  // mean = 0.5; var = (0.09 + 0.09 + 0) / 3 = 0.06.
  EXPECT_NEAR(DisagreementScore(DisagreementKind::kVariance, prefs), 0.06,
              1e-12);
}

TEST(DisagreementTest, NoneAndSingletonAreZero) {
  const std::vector<double> one{0.7};
  EXPECT_DOUBLE_EQ(DisagreementScore(DisagreementKind::kPairwise, one), 0.0);
  EXPECT_DOUBLE_EQ(DisagreementScore(DisagreementKind::kNone,
                                     std::vector<double>{0.1, 0.9}),
                   0.0);
}

TEST(DisagreementTest, PairAgreementIsOneMinusScaledGap) {
  // ag = 1 − scale·|a − b|, symmetric in its members.
  EXPECT_DOUBLE_EQ(PairAgreement(0.2, 0.8, 0.0), 1.0);
  EXPECT_NEAR(PairAgreement(0.2, 0.8, 1.0), 0.4, 1e-12);
  EXPECT_NEAR(PairAgreement(0.8, 0.2, 1.0), 0.4, 1e-12);
  EXPECT_NEAR(PairAgreement(0.3, 0.4, 5.0), 0.5, 1e-12);
  EXPECT_NEAR(PairAgreement(0.0, 1.0, 5.0), -4.0, 1e-12);
  EXPECT_DOUBLE_EQ(PairAgreement(0.6, 0.6, 5.0), 1.0);
}

TEST(ConsensusScoreTest, WeightsCombineGprefAndAgreement) {
  const std::vector<double> prefs{0.2, 0.8, 0.5};
  const ConsensusSpec pd = ConsensusSpec::PairwiseDisagreement(0.8);
  // 0.8*0.5 + 0.2*(1-0.4) = 0.4 + 0.12 = 0.52.
  EXPECT_NEAR(ConsensusScore(pd, prefs), 0.52, 1e-12);
  // Disagreement-free specs: F = w1*gpref + w2.
  EXPECT_NEAR(ConsensusScore(ConsensusSpec::AveragePreference(), prefs), 0.5,
              1e-12);
  EXPECT_NEAR(ConsensusScore(ConsensusSpec::LeastMisery(), prefs), 0.2,
              1e-12);
}

TEST(ConsensusScoreTest, UnanimousAgreementScoresHigherUnderPd) {
  const ConsensusSpec pd = ConsensusSpec::PairwiseDisagreement(0.5);
  // Same average preference; one group agrees, the other does not.
  EXPECT_GT(ConsensusScore(pd, std::vector<double>{0.5, 0.5, 0.5}),
            ConsensusScore(pd, std::vector<double>{0.1, 0.9, 0.5}));
}

/// Monotonicity (Lemma 1): raising any single member preference never lowers
/// the consensus score for AP/MO; for PD it holds in the paper's transformed
/// aggregate sense — we check AP/MO strictly, PD with gpref-dominant weights.
TEST(ConsensusMonotonicityTest, ApAndMoAreMonotone) {
  Rng rng(71);
  for (const auto spec :
       {ConsensusSpec::AveragePreference(), ConsensusSpec::LeastMisery()}) {
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<double> prefs(4);
      for (auto& p : prefs) p = rng.NextDouble();
      const double base = ConsensusScore(spec, prefs);
      const std::size_t j = rng.NextBounded(prefs.size());
      prefs[j] = std::min(1.0, prefs[j] + rng.NextDouble(0.0, 0.3));
      EXPECT_GE(ConsensusScore(spec, prefs), base - 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// Interval propagation.
// ---------------------------------------------------------------------------

void ExpectIntervalNear(const Interval& actual, const Interval& expected) {
  EXPECT_NEAR(actual.lb, expected.lb, 1e-12);
  EXPECT_NEAR(actual.ub, expected.ub, 1e-12);
}

TEST(IntervalTest, BasicOps) {
  const Interval a{0.2, 0.5};
  const Interval b{0.1, 0.3};
  ExpectIntervalNear(a + b, Interval(0.3, 0.8));
  ExpectIntervalNear(Min(a, b), Interval(0.1, 0.3));
  ExpectIntervalNear(2.0 * b, Interval(0.2, 0.6));
  EXPECT_TRUE(Interval::Exact(0.4).IsExact());
  EXPECT_TRUE(b.CertainlyLeq(Interval{0.3, 0.9}));
  EXPECT_FALSE(a.CertainlyLeq(b));
}

TEST(IntervalTest, AbsDifference) {
  // Overlapping intervals can have zero difference.
  ExpectIntervalNear(AbsDifference({0.2, 0.5}, {0.4, 0.6}),
                     Interval(0.0, 0.4));
  // Disjoint intervals have the gap as the lower bound.
  ExpectIntervalNear(AbsDifference({0.0, 0.1}, {0.5, 0.7}),
                     Interval(0.4, 0.7));
  // Symmetric.
  ExpectIntervalNear(AbsDifference({0.5, 0.7}, {0.0, 0.1}),
                     Interval(0.4, 0.7));
}

struct IntervalCase {
  ConsensusSpec spec;
  const char* name;
};

class ConsensusIntervalTest : public ::testing::TestWithParam<IntervalCase> {};

/// Random normalized member weights for `g` members and their normalized
/// pair products (the influence layout AssembleGroupProblem builds).
struct RandomWeights {
  std::vector<double> member;
  std::vector<double> pair;

  RandomWeights(Rng& rng, std::size_t g) : member(g) {
    double sum = 0.0;
    for (double& w : member) sum += (w = rng.NextDouble(0.05, 1.0));
    for (double& w : member) w /= sum;
    double pair_sum = 0.0;
    for (std::size_t a = 0; a < g; ++a) {
      for (std::size_t b = a + 1; b < g; ++b) {
        pair.push_back(member[a] * member[b]);
        pair_sum += pair.back();
      }
    }
    for (double& w : pair) w /= pair_sum;
  }
  ConsensusWeights view() const { return {member, pair}; }
};

TEST_P(ConsensusIntervalTest, IntervalEnclosesEveryRealization) {
  Rng rng(73);
  const ConsensusSpec& spec = GetParam().spec;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t g = 2 + rng.NextBounded(5);
    std::vector<Interval> ivs(g);
    std::vector<double> exact(g);
    for (std::size_t u = 0; u < g; ++u) {
      ivs[u].lb = rng.NextDouble(0.0, 0.6);
      ivs[u].ub = ivs[u].lb + rng.NextDouble(0.0, 0.4);
      exact[u] = rng.NextDouble(ivs[u].lb, ivs[u].ub);
    }
    const RandomWeights weights(rng, g);
    for (const ConsensusWeights& w : {ConsensusWeights{}, weights.view()}) {
      const Interval out = ConsensusInterval(spec, ivs, w);
      const double score = ConsensusScore(spec, exact, w);
      EXPECT_LE(out.lb, score + 1e-12) << GetParam().name;
      EXPECT_GE(out.ub, score - 1e-12) << GetParam().name;
    }
  }
}

TEST_P(ConsensusIntervalTest, ExactInputsGiveTightInterval) {
  // Variance included: a fully seen item's bounds must close on its score,
  // or GRECA ranks its final buffer by loose bounds.
  const ConsensusSpec& spec = GetParam().spec;
  const std::vector<double> exact{0.3, 0.9, 0.6};
  std::vector<Interval> ivs;
  for (const double v : exact) ivs.push_back(Interval::Exact(v));
  Rng rng(79);
  const RandomWeights weights(rng, exact.size());
  for (const ConsensusWeights& w : {ConsensusWeights{}, weights.view()}) {
    const Interval out = ConsensusInterval(spec, ivs, w);
    const double score = ConsensusScore(spec, exact, w);
    EXPECT_NEAR(out.lb, score, 1e-12) << GetParam().name;
    EXPECT_NEAR(out.ub, score, 1e-12) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ConsensusIntervalTest,
    ::testing::Values(
        IntervalCase{ConsensusSpec::AveragePreference(), "AP"},
        IntervalCase{ConsensusSpec::LeastMisery(), "MO"},
        IntervalCase{ConsensusSpec::PairwiseDisagreement(0.8), "PD_V1"},
        IntervalCase{ConsensusSpec::PairwiseDisagreement(0.2), "PD_V2"},
        IntervalCase{ConsensusSpec::VarianceDisagreement(0.8), "VD"}),
    [](const ::testing::TestParamInfo<IntervalCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace greca
