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
    const std::size_t g = 1 + rng.NextBounded(6);
    const std::size_t pairs = NumUserPairs(g);
    std::vector<double> apref_lb(g), apref_ub(g), apref(g);
    std::vector<double> aff_lb(pairs), aff_ub(pairs), aff(pairs);
    for (std::size_t u = 0; u < g; ++u) {
      apref_lb[u] = rng.NextDouble(0.0, 0.6);
      apref_ub[u] = apref_lb[u] + rng.NextDouble(0.0, 0.4);
      apref[u] = rng.NextDouble(apref_lb[u], apref_ub[u]);
    }
    for (std::size_t q = 0; q < pairs; ++q) {
      aff_lb[q] = rng.NextDouble(0.0, 0.6);
      aff_ub[q] = aff_lb[q] + rng.NextDouble(0.0, 0.4);
      aff[q] = rng.NextDouble(aff_lb[q], aff_ub[q]);
    }
    std::vector<double> w_lb(g * g), w_ub(g * g);
    ExpandPairWeights(aff_lb, g, w_lb);
    ExpandPairWeights(aff_ub, g, w_ub);
    const double pair_norm = g > 1 ? 1.0 / static_cast<double>(g - 1) : 0.0;
    std::vector<double> prefs(g), lb(g), ub(g);
    AllMemberPreferences(apref, aff, prefs);
    MemberPreferenceEndpoints(apref_lb, w_lb, pair_norm, lb);
    MemberPreferenceEndpoints(apref_ub, w_ub, pair_norm, ub);
    for (std::size_t u = 0; u < g; ++u) {
      EXPECT_LE(lb[u], prefs[u] + 1e-12);
      EXPECT_GE(ub[u], prefs[u] - 1e-12);
    }
    // Exact inputs give the exact preference, up to rounding.
    std::vector<double> w(g * g), exact(g);
    ExpandPairWeights(aff, g, w);
    MemberPreferenceEndpoints(apref, w, pair_norm, exact);
    for (std::size_t u = 0; u < g; ++u) {
      EXPECT_NEAR(exact[u], prefs[u], 1e-12);
    }
  }
}

}  // namespace
}  // namespace greca
