// Tests for the §2.2 preference model shared by the scorer and GRECA.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"
#include "preference/preference_model.h"

namespace greca {
namespace {

TEST(PreferenceModelTest, SingletonGroupHasNoRelativeTerm) {
  const std::vector<double> apref{0.8};
  const std::vector<double> aff{};
  EXPECT_DOUBLE_EQ(RelativePreference(apref, aff, 0), 0.0);
  EXPECT_DOUBLE_EQ(MemberPreference(apref, aff, 0), 0.4);
}

TEST(PreferenceModelTest, PairHandExample) {
  const std::vector<double> apref{0.8, 0.4};
  const std::vector<double> aff{0.5};
  EXPECT_NEAR(RelativePreference(apref, aff, 0), 0.5 * 0.4, 1e-12);
  EXPECT_NEAR(RelativePreference(apref, aff, 1), 0.5 * 0.8, 1e-12);
  EXPECT_NEAR(MemberPreference(apref, aff, 0), (0.8 + 0.2) / 2.0, 1e-12);
}

TEST(PreferenceModelTest, TrioMatchesPaperFormula) {
  // pref(u) = (apref_u + Σ aff(u,v)·apref_v / 2) / 2, pairs (01)(02)(12).
  const std::vector<double> apref{1.0, 0.5, 0.0};
  const std::vector<double> aff{0.6, 0.2, 0.4};
  std::vector<double> prefs(3);
  AllMemberPreferences(apref, aff, prefs);
  EXPECT_NEAR(prefs[0], (1.0 + (0.6 * 0.5 + 0.2 * 0.0) / 2.0) / 2.0, 1e-12);
  EXPECT_NEAR(prefs[1], (0.5 + (0.6 * 1.0 + 0.4 * 0.0) / 2.0) / 2.0, 1e-12);
  EXPECT_NEAR(prefs[2], (0.0 + (0.2 * 1.0 + 0.4 * 0.5) / 2.0) / 2.0, 1e-12);
}

TEST(PreferenceModelTest, ZeroAffinityReducesToHalfApref) {
  const std::vector<double> apref{0.9, 0.3, 0.6};
  const std::vector<double> aff{0.0, 0.0, 0.0};
  std::vector<double> prefs(3);
  AllMemberPreferences(apref, aff, prefs);
  for (std::size_t u = 0; u < 3; ++u) {
    EXPECT_NEAR(prefs[u], apref[u] / 2.0, 1e-12);
  }
}

TEST(PreferenceModelTest, HigherAffinityToLikedItemRaisesPreference) {
  // Paper's core premise: if companions like i and affinity rises, the
  // member's relative preference for i rises too.
  const std::vector<double> apref{0.2, 0.9};
  const std::vector<double> low{0.1};
  const std::vector<double> high{0.9};
  EXPECT_GT(MemberPreference(apref, high, 0), MemberPreference(apref, low, 0));
}

TEST(PreferenceModelTest, OutputStaysInUnitInterval) {
  Rng rng(111);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t g = 2 + rng.NextBounded(7);
    std::vector<double> apref(g), prefs(g);
    std::vector<double> aff(NumUserPairs(g));
    for (auto& a : apref) a = rng.NextDouble();
    for (auto& a : aff) a = rng.NextDouble();
    AllMemberPreferences(apref, aff, prefs);
    for (const double p : prefs) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(PreferenceModelTest, DenseWeightsBitIdenticalToPacked) {
  // The exhaustive scorer expands the packed pair affinities once and scores
  // every candidate through the dense mat-vec; the two forms must agree
  // bit-for-bit (EXPECT_EQ, not NEAR) or the equivalence suites break.
  Rng rng(117);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t g = 1 + rng.NextBounded(8);
    std::vector<double> apref(g), packed_out(g), dense_out(g);
    std::vector<double> aff(NumUserPairs(g));
    for (auto& a : apref) a = rng.NextDouble();
    for (auto& a : aff) a = rng.NextDouble();
    // Exercise exact zeros too — the zero diagonal must stay exact.
    if (trial % 5 == 0) {
      apref[rng.NextBounded(g)] = 0.0;
      if (!aff.empty()) aff[rng.NextBounded(aff.size())] = 0.0;
    }
    std::vector<double> w(g * g);
    ExpandPairWeights(aff, g, w);
    AllMemberPreferences(apref, aff, packed_out);
    AllMemberPreferencesDense(apref, w, dense_out);
    for (std::size_t u = 0; u < g; ++u) {
      EXPECT_EQ(packed_out[u], dense_out[u]) << "g=" << g << " u=" << u;
    }
  }
}

TEST(PreferenceModelTest, IntervalEnclosesExactRealizations) {
  Rng rng(113);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t g = 2 + rng.NextBounded(5);
    std::vector<Interval> apref_iv(g), out_iv(g);
    std::vector<Interval> aff_iv(NumUserPairs(g));
    std::vector<double> apref(g), aff(aff_iv.size()), prefs(g);
    for (std::size_t u = 0; u < g; ++u) {
      apref_iv[u].lb = rng.NextDouble(0.0, 0.6);
      apref_iv[u].ub = apref_iv[u].lb + rng.NextDouble(0.0, 0.4);
      apref[u] = rng.NextDouble(apref_iv[u].lb, apref_iv[u].ub);
    }
    for (std::size_t q = 0; q < aff_iv.size(); ++q) {
      aff_iv[q].lb = rng.NextDouble(0.0, 0.6);
      aff_iv[q].ub = aff_iv[q].lb + rng.NextDouble(0.0, 0.4);
      aff[q] = rng.NextDouble(aff_iv[q].lb, aff_iv[q].ub);
    }
    AllMemberPreferences(apref, aff, prefs);
    AllMemberPreferenceIntervals(apref_iv, aff_iv, out_iv);
    for (std::size_t u = 0; u < g; ++u) {
      EXPECT_LE(out_iv[u].lb, prefs[u] + 1e-12);
      EXPECT_GE(out_iv[u].ub, prefs[u] - 1e-12);
    }
  }
}

}  // namespace
}  // namespace greca
