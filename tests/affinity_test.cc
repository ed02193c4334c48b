// Tests for the affinity subsystem: pair tables, periodic affinity and its
// closed-form population average, the incremental drift index, and both
// temporal models (including the Tables 2–4 running-example values).
#include <gtest/gtest.h>

#include <cmath>

#include "affinity/dynamic_affinity.h"
#include "affinity/periodic_affinity.h"
#include "affinity/static_affinity.h"
#include "affinity/temporal_model.h"
#include "common/rng.h"
#include "dataset/page_likes.h"
#include "dataset/social_graph.h"
#include "timeline/period.h"

namespace greca {
namespace {

TEST(PairTableTest, PackedIndexingIsSymmetricAndUnique) {
  PairTable table(5);
  EXPECT_EQ(table.num_pairs(), 10u);
  std::vector<bool> hit(10, false);
  for (UserId u = 0; u < 5; ++u) {
    for (UserId v = u + 1; v < 5; ++v) {
      const std::size_t idx = table.PairIndex(u, v);
      EXPECT_EQ(idx, table.PairIndex(v, u));
      ASSERT_LT(idx, 10u);
      EXPECT_FALSE(hit[idx]) << "collision at (" << u << "," << v << ")";
      hit[idx] = true;
    }
  }
}

TEST(PairTableTest, GetSetMaxMean) {
  PairTable table(3);
  table.Set(0, 1, 2.0);
  table.Set(2, 1, 4.0);
  EXPECT_DOUBLE_EQ(table.Get(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(table.Get(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(table.Get(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(table.Max(), 4.0);
  EXPECT_DOUBLE_EQ(table.MeanOverPairs(), 2.0);
}

TEST(StaticAffinityTest, CommonFriendCountsFromGraph) {
  const SocialGraph g = SocialGraph::FromEdges(
      5, {{0, 2}, {0, 3}, {1, 2}, {1, 3}, {0, 4}});
  const PairTable table = ComputeCommonFriendCounts(g);
  EXPECT_DOUBLE_EQ(table.Get(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(table.Get(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(table.Get(2, 3), 2.0);
}

TEST(StaticAffinityTest, GroupNormalizationByMaxPair) {
  PairTable table(4);
  table.Set(0, 1, 8.0);
  table.Set(0, 2, 4.0);
  table.Set(1, 2, 2.0);
  const std::vector<UserId> group{0, 1, 2};
  const auto values = NormalizeWithinGroup(table, group);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[LocalPairIndex(0, 1, 3)], 1.0);
  EXPECT_DOUBLE_EQ(values[LocalPairIndex(0, 2, 3)], 0.5);
  EXPECT_DOUBLE_EQ(values[LocalPairIndex(1, 2, 3)], 0.25);
}

TEST(StaticAffinityTest, AllZeroGroupStaysZero) {
  PairTable table(3);
  const std::vector<UserId> group{0, 1, 2};
  const auto values = NormalizeWithinGroup(table, group);
  for (const double v : values) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(LocalPairIndexTest, EnumeratesRowMajorUpperTriangle) {
  // Group of 4 -> pairs (0,1)(0,2)(0,3)(1,2)(1,3)(2,3) = 0..5.
  EXPECT_EQ(LocalPairIndex(0, 1, 4), 0u);
  EXPECT_EQ(LocalPairIndex(0, 2, 4), 1u);
  EXPECT_EQ(LocalPairIndex(0, 3, 4), 2u);
  EXPECT_EQ(LocalPairIndex(1, 2, 4), 3u);
  EXPECT_EQ(LocalPairIndex(1, 3, 4), 4u);
  EXPECT_EQ(LocalPairIndex(2, 3, 4), 5u);
}

class PeriodicAffinityTest : public ::testing::Test {
 protected:
  // 3 users, 2 periods of 100s; categories chosen so intersections are known.
  PeriodicAffinityTest() {
    std::vector<PageLikeEvent> events{
        // Period 0: u0 likes {1,2,3}, u1 likes {2,3}, u2 likes {9}.
        {0, 1, 10}, {0, 2, 20}, {0, 3, 30},
        {1, 2, 15}, {1, 3, 25},
        {2, 9, 50},
        // Period 1: u0 likes {1}, u1 likes {1}, u2 likes {1}.
        {0, 1, 110}, {1, 1, 120}, {2, 1, 130},
    };
    log_ = PageLikeLog::FromEvents(3, 10, std::move(events));
    timeline_ = Timeline::FixedWindows(0, 200, 100);
  }

  PageLikeLog log_;
  Timeline timeline_ = Timeline::FixedWindows(0, 1, 1);
};

TEST_F(PeriodicAffinityTest, RawCommonCategoryCounts) {
  const PeriodicAffinity pa = PeriodicAffinity::Compute(log_, timeline_);
  ASSERT_EQ(pa.num_periods(), 2u);
  EXPECT_DOUBLE_EQ(pa.Raw(0, 1, 0), 2.0);  // {2,3}
  EXPECT_DOUBLE_EQ(pa.Raw(0, 2, 0), 0.0);
  EXPECT_DOUBLE_EQ(pa.Raw(1, 2, 0), 0.0);
  EXPECT_DOUBLE_EQ(pa.Raw(0, 1, 1), 1.0);  // {1}
  EXPECT_DOUBLE_EQ(pa.Raw(0, 2, 1), 1.0);
}

TEST_F(PeriodicAffinityTest, PopulationAverageMatchesDefinition) {
  const PeriodicAffinity pa = PeriodicAffinity::Compute(log_, timeline_);
  // Period 0: pair sums = 2+0+0 = 2; avg = 2*2/(3*2) ... = 2/3.
  EXPECT_NEAR(pa.PopulationAverageRaw(0), 2.0 / 3.0, 1e-12);
  // Period 1: all three pairs share {1}: sum=3, avg = 1.
  EXPECT_NEAR(pa.PopulationAverageRaw(1), 1.0, 1e-12);
}

TEST_F(PeriodicAffinityTest, ClosedFormEqualsNaivePairScan) {
  for (PeriodId p = 0; p < timeline_.num_periods(); ++p) {
    const Period& period = timeline_.period(p);
    EXPECT_NEAR(SumPairwiseCommonCategories(log_, period),
                SumPairwiseCommonCategoriesNaive(log_, period), 1e-12);
  }
}

TEST_F(PeriodicAffinityTest, ClosedFormEqualsNaiveOnRandomLogs) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<PageLikeEvent> events;
    const std::size_t n = 12;
    for (UserId u = 0; u < n; ++u) {
      const auto count = static_cast<std::size_t>(rng.NextInt(0, 20));
      for (std::size_t e = 0; e < count; ++e) {
        events.push_back({u, static_cast<CategoryId>(rng.NextBounded(15)),
                          rng.NextInt(0, 999)});
      }
    }
    const PageLikeLog log = PageLikeLog::FromEvents(n, 15, std::move(events));
    const Period period{0, 1'000};
    EXPECT_NEAR(SumPairwiseCommonCategories(log, period),
                SumPairwiseCommonCategoriesNaive(log, period), 1e-9);
  }
}

TEST_F(PeriodicAffinityTest, NormalizationToUnitInterval) {
  const PeriodicAffinity pa = PeriodicAffinity::Compute(log_, timeline_);
  EXPECT_DOUBLE_EQ(pa.Normalized(0, 1, 0), 1.0);  // the max pair
  for (PeriodId p = 0; p < 2; ++p) {
    for (UserId u = 0; u < 3; ++u) {
      for (UserId v = u + 1; v < 3; ++v) {
        const double x = pa.Normalized(u, v, p);
        EXPECT_GE(x, 0.0);
        EXPECT_LE(x, 1.0);
      }
    }
  }
}

TEST_F(PeriodicAffinityTest, EmptyPeriodYieldsZeroes) {
  const Timeline t3 = Timeline::FixedWindows(0, 300, 100);
  const PeriodicAffinity pa = PeriodicAffinity::Compute(log_, t3);
  ASSERT_EQ(pa.num_periods(), 3u);
  EXPECT_DOUBLE_EQ(pa.PeriodMax(2), 0.0);
  EXPECT_DOUBLE_EQ(pa.Normalized(0, 1, 2), 0.0);
  EXPECT_DOUBLE_EQ(pa.PopulationAverageNormalized(2), 0.0);
}

TEST_F(PeriodicAffinityTest, IncrementalIndexEqualsRecompute) {
  const PeriodicAffinity pa = PeriodicAffinity::Compute(log_, timeline_);
  const DynamicAffinityIndex index = DynamicAffinityIndex::Build(pa);
  ASSERT_EQ(index.num_periods(), 2u);
  for (PeriodId p = 0; p < 2; ++p) {
    for (UserId u = 0; u < 3; ++u) {
      for (UserId v = u + 1; v < 3; ++v) {
        EXPECT_NEAR(index.CumulativeDrift(u, v, p),
                    RecomputeCumulativeDrift(pa, u, v, p), 1e-12)
            << "pair (" << u << "," << v << ") period " << p;
      }
    }
  }
}

TEST_F(PeriodicAffinityTest, MeanDriftBounded) {
  const PeriodicAffinity pa = PeriodicAffinity::Compute(log_, timeline_);
  const DynamicAffinityIndex index = DynamicAffinityIndex::Build(pa);
  for (PeriodId p = 0; p < 2; ++p) {
    for (UserId u = 0; u < 3; ++u) {
      for (UserId v = u + 1; v < 3; ++v) {
        const double d = index.MeanDrift(u, v, p);
        EXPECT_GE(d, -1.0);
        EXPECT_LE(d, 1.0);
      }
    }
  }
}

// Streaming maintenance (the paper's §6 question of maintaining the index as
// time advances): appending one closed period at a time to PeriodicAffinity
// and DynamicAffinityIndex must agree exactly with batch construction, and
// never touch what earlier periods stored.
class StreamingAffinityTest : public ::testing::Test {
 protected:
  StreamingAffinityTest() {
    PageLikeGenConfig config;
    config.num_users = 24;
    config.seed = 77;
    timeline_ = Timeline::FixedWindows(0, 6 * 61 * kSecondsPerDay,
                                       61 * kSecondsPerDay);
    likes_ = GeneratePageLikes(config, timeline_).log;
  }
  Timeline timeline_ = Timeline::FixedWindows(0, 1, 1);
  PageLikeLog likes_;
};

TEST_F(StreamingAffinityTest, StreamingEqualsBatchPeriodByPeriod) {
  const PeriodicAffinity batch = PeriodicAffinity::Compute(likes_, timeline_);
  const DynamicAffinityIndex batch_drift = DynamicAffinityIndex::Build(batch);
  PeriodicAffinity periodic(likes_.num_users());
  DynamicAffinityIndex drift(likes_.num_users());
  for (PeriodId p = 0; p < timeline_.num_periods(); ++p) {
    periodic.AppendPeriod(likes_, timeline_.period(p));
    drift.AppendPeriod(periodic, p);
    ASSERT_EQ(periodic.num_periods(), p + 1u);
    ASSERT_EQ(drift.num_periods(), p + 1u);
    for (UserId u = 0; u < likes_.num_users(); ++u) {
      for (UserId v = u + 1; v < likes_.num_users(); ++v) {
        EXPECT_DOUBLE_EQ(periodic.Raw(u, v, p), batch.Raw(u, v, p));
        EXPECT_DOUBLE_EQ(periodic.Normalized(u, v, p),
                         batch.Normalized(u, v, p));
        EXPECT_DOUBLE_EQ(drift.CumulativeDrift(u, v, p),
                         batch_drift.CumulativeDrift(u, v, p));
      }
    }
    EXPECT_DOUBLE_EQ(periodic.PopulationAverageRaw(p),
                     batch.PopulationAverageRaw(p));
  }
}

TEST_F(StreamingAffinityTest, EarlierPeriodsAreImmutable) {
  PeriodicAffinity periodic(likes_.num_users());
  DynamicAffinityIndex drift(likes_.num_users());
  periodic.AppendPeriod(likes_, timeline_.period(0));
  drift.AppendPeriod(periodic, 0);
  const double before = periodic.Raw(0, 1, 0);
  const double drift_before = drift.CumulativeDrift(0, 1, 0);
  for (PeriodId p = 1; p < 3; ++p) {
    periodic.AppendPeriod(likes_, timeline_.period(p));
    drift.AppendPeriod(periodic, p);
  }
  EXPECT_DOUBLE_EQ(periodic.Raw(0, 1, 0), before);
  EXPECT_DOUBLE_EQ(drift.CumulativeDrift(0, 1, 0), drift_before);
}

// ---------------------------------------------------------------------------
// Temporal models.
// ---------------------------------------------------------------------------

TEST(AffinityModelSpecTest, Names) {
  EXPECT_EQ(AffinityModelSpec::Default().Name(), "discrete");
  EXPECT_EQ(AffinityModelSpec::Continuous().Name(), "continuous");
  EXPECT_EQ(AffinityModelSpec::AffinityAgnostic().Name(), "affinity-agnostic");
  EXPECT_EQ(AffinityModelSpec::TimeAgnostic().Name(), "time-agnostic");
}

TEST(AffinityCombinerTest, AffinityAgnosticIsZero) {
  const AffinityCombiner combiner(AffinityModelSpec::AffinityAgnostic(), {});
  EXPECT_DOUBLE_EQ(combiner.Combine(0.9, {}), 0.0);
  EXPECT_DOUBLE_EQ(combiner.MaxAffinity(), 0.0);
}

TEST(AffinityCombinerTest, TimeAgnosticReturnsStatic) {
  const AffinityCombiner combiner(AffinityModelSpec::TimeAgnostic(), {});
  EXPECT_DOUBLE_EQ(combiner.Combine(0.7, {}), 0.7);
}

AffinityModelSpec UnitGain(AffinityModelSpec spec) {
  spec.drift_gain = 1.0;
  return spec;
}

TEST(AffinityCombinerTest, DiscreteAddsMeanDrift) {
  // Two periods with averages 0.2, 0.4 (gain pinned to 1 for hand numbers).
  const AffinityCombiner combiner(UnitGain(AffinityModelSpec::Default()),
                                  {0.2, 0.4});
  const std::vector<double> aff_p{0.8, 0.6};
  // drift = ((0.8-0.2)+(0.6-0.4))/2 = 0.4;  affD = 0.5 + 0.4 = 0.9.
  EXPECT_NEAR(combiner.MeanDrift(aff_p), 0.4, 1e-12);
  EXPECT_NEAR(combiner.Combine(0.5, aff_p), 0.9, 1e-12);
}

TEST(AffinityCombinerTest, DiscreteClampsToUnitInterval) {
  const AffinityCombiner combiner(UnitGain(AffinityModelSpec::Default()),
                                  {0.0});
  EXPECT_DOUBLE_EQ(combiner.Combine(0.9, std::vector<double>{1.0}), 1.0);
  const AffinityCombiner high_avg(UnitGain(AffinityModelSpec::Default()),
                                  {1.0});
  EXPECT_DOUBLE_EQ(high_avg.Combine(0.1, std::vector<double>{0.0}), 0.0);
}

TEST(AffinityCombinerTest, DriftGainAmplifiesSmallDrifts) {
  AffinityModelSpec gained = AffinityModelSpec::Default();
  gained.drift_gain = 4.0;
  const AffinityCombiner weak(UnitGain(AffinityModelSpec::Default()), {0.0});
  const AffinityCombiner strong(gained, {0.0});
  const std::vector<double> aff_p{0.1};
  EXPECT_NEAR(weak.Combine(0.2, aff_p), 0.3, 1e-12);
  EXPECT_NEAR(strong.Combine(0.2, aff_p), 0.6, 1e-12);
  // Gain never pushes the effective drift outside [-1, 1].
  EXPECT_NEAR(strong.MeanDrift(std::vector<double>{0.9}), 1.0, 1e-12);
}

TEST(AffinityCombinerTest, ContinuousGrowsAndDecaysAroundStatic) {
  const AffinityCombiner combiner(UnitGain(AffinityModelSpec::Continuous()),
                                  {0.5, 0.5});
  // Zero drift: e^0 = 1 -> affC = affS.
  EXPECT_NEAR(combiner.Combine(0.4, std::vector<double>{0.5, 0.5}), 0.4,
              1e-12);
  // Positive drift grows, negative decays.
  const double grown = combiner.Combine(0.4, std::vector<double>{1.0, 1.0});
  const double decayed = combiner.Combine(0.4, std::vector<double>{0.0, 0.0});
  EXPECT_GT(grown, 0.4);
  EXPECT_LT(decayed, 0.4);
  EXPECT_NEAR(decayed, 0.4 * std::exp(-0.5), 1e-12);
}

TEST(AffinityCombinerTest, ContinuousZeroStaticStaysZero) {
  const AffinityCombiner combiner(AffinityModelSpec::Continuous(), {0.0});
  EXPECT_DOUBLE_EQ(combiner.Combine(0.0, std::vector<double>{1.0}), 0.0);
}

/// Property: both models are monotone non-decreasing in affS and every affP,
/// and interval propagation encloses the exact value.
class CombinerPropertyTest
    : public ::testing::TestWithParam<AffinityModelSpec> {};

TEST_P(CombinerPropertyTest, MonotoneInEveryArgument) {
  Rng rng(53);
  const AffinityCombiner combiner(GetParam(), {0.3, 0.1, 0.4});
  for (int trial = 0; trial < 200; ++trial) {
    const double aff_s = rng.NextDouble();
    std::vector<double> aff_p{rng.NextDouble(), rng.NextDouble(),
                              rng.NextDouble()};
    const double base = combiner.Combine(aff_s, aff_p);
    EXPECT_GE(combiner.Combine(std::min(1.0, aff_s + 0.1), aff_p),
              base - 1e-12);
    for (std::size_t j = 0; j < aff_p.size(); ++j) {
      auto bumped = aff_p;
      bumped[j] = std::min(1.0, bumped[j] + 0.1);
      EXPECT_GE(combiner.Combine(aff_s, bumped), base - 1e-12);
    }
  }
}

TEST_P(CombinerPropertyTest, IntervalEnclosesExact) {
  Rng rng(59);
  const AffinityCombiner combiner(GetParam(), {0.3, 0.1, 0.4});
  for (int trial = 0; trial < 200; ++trial) {
    // Random intervals and a random point inside each.
    Interval s{rng.NextDouble(0.0, 0.5), 0.0};
    s.ub = s.lb + rng.NextDouble(0.0, 0.5);
    std::vector<Interval> p_iv(3);
    std::vector<double> p_exact(3);
    for (std::size_t j = 0; j < 3; ++j) {
      p_iv[j].lb = rng.NextDouble(0.0, 0.5);
      p_iv[j].ub = p_iv[j].lb + rng.NextDouble(0.0, 0.5);
      p_exact[j] = rng.NextDouble(p_iv[j].lb, p_iv[j].ub);
    }
    const double s_exact = rng.NextDouble(s.lb, s.ub);
    const Interval out = combiner.CombineInterval(s, p_iv);
    const double exact = combiner.Combine(s_exact, p_exact);
    EXPECT_LE(out.lb, exact + 1e-12);
    EXPECT_GE(out.ub, exact - 1e-12);
  }
}

TEST_P(CombinerPropertyTest, OutputInUnitInterval) {
  Rng rng(61);
  const AffinityCombiner combiner(GetParam(), {0.3, 0.1, 0.4});
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<double> aff_p{rng.NextDouble(), rng.NextDouble(),
                                    rng.NextDouble()};
    const double a = combiner.Combine(rng.NextDouble(), aff_p);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, CombinerPropertyTest,
    ::testing::Values(AffinityModelSpec::Default(),
                      AffinityModelSpec::Continuous()),
    [](const ::testing::TestParamInfo<AffinityModelSpec>& param_info) {
      return param_info.param.time_model == TimeModel::kDiscrete ? "Discrete"
                                                           : "Continuous";
    });

// ---------------------------------------------------------------------------
// Running example (paper Tables 2–4): affinity of (u1,u2) decreased between
// p1 (0.8) and p2 (0.7) but stays the strongest pair.
// ---------------------------------------------------------------------------

TEST(RunningExampleAffinity, PairOrderingPreservedByBothModels) {
  const std::vector<double> averages{0.2, 0.15};
  for (const auto spec :
       {AffinityModelSpec::Default(), AffinityModelSpec::Continuous()}) {
    const AffinityCombiner combiner(spec, averages);
    const double a12 =
        combiner.Combine(1.0, std::vector<double>{0.8, 0.7});
    const double a13 =
        combiner.Combine(0.2, std::vector<double>{0.1, 0.1});
    const double a23 =
        combiner.Combine(0.3, std::vector<double>{0.2, 0.1});
    EXPECT_GT(a12, a23) << spec.Name();
    EXPECT_GT(a23, a13) << spec.Name();
  }
}

}  // namespace
}  // namespace greca
