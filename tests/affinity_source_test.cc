// Tests for the pluggable AffinitySource layer: the study-backed source must
// reproduce the raw tables and the legacy group normalization exactly, and
// the default CumulativeDrift must match the incremental index.
#include <gtest/gtest.h>

#include "affinity/affinity_source.h"
#include "affinity/dynamic_affinity.h"
#include "affinity/periodic_affinity.h"
#include "affinity/static_affinity.h"

namespace greca {
namespace {

/// 4 users, 3 periods of page likes with shifting overlaps, plus a static
/// common-friend table.
class AffinitySourceTest : public ::testing::Test {
 protected:
  AffinitySourceTest()
      : timeline_(Timeline::FixedWindows(0, 30, 10)),
        likes_(PageLikeLog::FromEvents(
            4, 6,
            {
                // Period 0 [0, 10): users 0/1 share categories 0 and 1.
                {0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}, {2, 2, 5},
                // Period 1 [10, 20): 0/1 share one category, 1/2 share one.
                {0, 0, 11}, {1, 0, 12}, {1, 3, 13}, {2, 3, 14},
                // Period 2 [20, 30): 2/3 share two categories.
                {2, 4, 21}, {2, 5, 22}, {3, 4, 23}, {3, 5, 24},
            })),
        periodic_(PeriodicAffinity::Compute(likes_, timeline_)),
        dynamic_(DynamicAffinityIndex::Build(periodic_)),
        static_(4) {
    static_.Set(0, 1, 6.0);
    static_.Set(0, 2, 3.0);
    static_.Set(1, 2, 1.0);
    static_.Set(2, 3, 2.0);
  }

  Timeline timeline_;
  PageLikeLog likes_;
  PeriodicAffinity periodic_;
  DynamicAffinityIndex dynamic_;
  PairTable static_;
};

TEST_F(AffinitySourceTest, StudySourceReproducesRawTables) {
  const StudyAffinitySource source(static_, periodic_, &dynamic_);
  EXPECT_EQ(source.num_users(), 4u);
  EXPECT_EQ(source.num_periods(), 3u);
  EXPECT_DOUBLE_EQ(source.Static(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(source.MaxStatic(), 6.0);
  EXPECT_DOUBLE_EQ(source.NormalizedStatic(0, 2), 0.5);
  for (PeriodId p = 0; p < 3; ++p) {
    for (UserId u = 0; u < 4; ++u) {
      for (UserId v = u + 1; v < 4; ++v) {
        EXPECT_DOUBLE_EQ(source.Periodic(u, v, p),
                         periodic_.Normalized(u, v, p));
      }
    }
    EXPECT_DOUBLE_EQ(source.PeriodAverage(p),
                     periodic_.PopulationAverageNormalized(p));
  }
}

TEST_F(AffinitySourceTest, MaterializedStaticListMatchesGroupNormalization) {
  const StudyAffinitySource source(static_, periodic_);
  const std::vector<UserId> group{0, 1, 2};
  const SortedList list = source.MaterializeStaticList(group);
  const std::vector<double> expected = NormalizeWithinGroup(static_, group);
  ASSERT_EQ(list.size(), expected.size());
  for (ListKey q = 0; q < expected.size(); ++q) {
    EXPECT_DOUBLE_EQ(list.ScoreOfKey(q), expected[q]) << "pair " << q;
  }
}

TEST_F(AffinitySourceTest, MaterializedPeriodListMatchesNormalizedTable) {
  const StudyAffinitySource source(static_, periodic_);
  const std::vector<UserId> group{1, 2, 3};
  for (PeriodId p = 0; p < 3; ++p) {
    const SortedList list = source.MaterializePeriodList(group, p);
    ASSERT_EQ(list.size(), 3u);
    ListKey q = 0;
    for (std::size_t a = 0; a < group.size(); ++a) {
      for (std::size_t b = a + 1; b < group.size(); ++b, ++q) {
        EXPECT_DOUBLE_EQ(list.ScoreOfKey(q),
                         periodic_.Normalized(group[a], group[b], p));
      }
    }
  }
}

TEST_F(AffinitySourceTest, DefaultCumulativeDriftMatchesIncrementalIndex) {
  const StudyAffinitySource with_index(static_, periodic_, &dynamic_);
  const StudyAffinitySource without_index(static_, periodic_);
  for (PeriodId p = 0; p < 3; ++p) {
    for (UserId u = 0; u < 4; ++u) {
      for (UserId v = u + 1; v < 4; ++v) {
        const double reference = RecomputeCumulativeDrift(periodic_, u, v, p);
        EXPECT_NEAR(with_index.CumulativeDrift(u, v, p), reference, 1e-12);
        EXPECT_NEAR(without_index.CumulativeDrift(u, v, p), reference, 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace greca
