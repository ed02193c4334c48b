// Tests for the synthetic MovieLens twin (determinism, calibration targets,
// ground-truth consistency) and the scale-up generator behind the sharded
// engine (power-law shape, locality knob).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dataset/synthetic.h"
#include "shard/shard_router.h"

namespace greca {
namespace {

SyntheticRatingsConfig SmallConfig() {
  SyntheticRatingsConfig config;
  config.num_users = 200;
  config.num_items = 300;
  config.target_ratings = 12'000;
  config.min_ratings_per_user = 10;
  config.seed = 77;
  return config;
}

TEST(SyntheticRatingsTest, DeterministicInSeed) {
  const SyntheticRatings a = GenerateSyntheticRatings(SmallConfig());
  const SyntheticRatings b = GenerateSyntheticRatings(SmallConfig());
  ASSERT_EQ(a.dataset.num_ratings(), b.dataset.num_ratings());
  for (UserId u = 0; u < a.dataset.num_users(); ++u) {
    const auto ra = a.dataset.RatingsOfUser(u);
    const auto rb = b.dataset.RatingsOfUser(u);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].item, rb[i].item);
      EXPECT_EQ(ra[i].rating, rb[i].rating);
    }
  }
}

TEST(SyntheticRatingsTest, DifferentSeedsDiffer) {
  SyntheticRatingsConfig config = SmallConfig();
  const SyntheticRatings a = GenerateSyntheticRatings(config);
  config.seed = 78;
  const SyntheticRatings b = GenerateSyntheticRatings(config);
  EXPECT_NE(a.dataset.num_ratings(), b.dataset.num_ratings());
}

TEST(SyntheticRatingsTest, HitsTargetVolumeApproximately) {
  const SyntheticRatings s = GenerateSyntheticRatings(SmallConfig());
  const double achieved = static_cast<double>(s.dataset.num_ratings());
  EXPECT_GT(achieved, 0.7 * 12'000);
  EXPECT_LT(achieved, 1.4 * 12'000);
}

TEST(SyntheticRatingsTest, EveryUserMeetsMinimumActivity) {
  const SyntheticRatings s = GenerateSyntheticRatings(SmallConfig());
  for (UserId u = 0; u < s.dataset.num_users(); ++u) {
    EXPECT_GE(s.dataset.RatingsOfUser(u).size(), 10u) << "user " << u;
  }
}

TEST(SyntheticRatingsTest, RatingsOnStarScale) {
  const SyntheticRatings s = GenerateSyntheticRatings(SmallConfig());
  const DatasetStats stats = s.dataset.Stats();
  EXPECT_GE(stats.min_rating, 1.0);
  EXPECT_LE(stats.max_rating, 5.0);
  EXPECT_GT(stats.mean_rating, 2.5);
  EXPECT_LT(stats.mean_rating, 4.2);
  // Stars are integral.
  for (const auto& e : s.dataset.RatingsOfUser(0)) {
    EXPECT_DOUBLE_EQ(e.rating, std::round(e.rating));
  }
}

TEST(SyntheticRatingsTest, PopularityIsSkewed) {
  const SyntheticRatings s = GenerateSyntheticRatings(SmallConfig());
  const auto top = s.dataset.TopPopularItems(s.dataset.num_items());
  const double head = static_cast<double>(s.dataset.RatingsOfItem(top[0]).size());
  const double tail =
      static_cast<double>(s.dataset.RatingsOfItem(top[top.size() - 1]).size());
  EXPECT_GT(head, 5.0 * std::max(tail, 1.0));
}

TEST(SyntheticRatingsTest, TruePreferenceWithinScaleAndCorrelatesWithStars) {
  const SyntheticRatings s = GenerateSyntheticRatings(SmallConfig());
  double agree = 0.0, count = 0.0;
  for (UserId u = 0; u < 50; ++u) {
    for (const auto& e : s.dataset.RatingsOfUser(u)) {
      const double tp = s.truth.TruePreference(u, e.item);
      EXPECT_GE(tp, 1.0);
      EXPECT_LE(tp, 5.0);
      agree += std::abs(tp - e.rating) <= 1.0 ? 1.0 : 0.0;
      count += 1.0;
    }
  }
  // Observed stars are the true preference plus bounded noise and rounding;
  // the vast majority must land within one star.
  EXPECT_GT(agree / count, 0.8);
}

TEST(SyntheticRatingsTest, TimestampsWithinSpan) {
  SyntheticRatingsConfig config = SmallConfig();
  config.epoch = 1'000;
  config.span_seconds = 500'000;
  const SyntheticRatings s = GenerateSyntheticRatings(config);
  for (UserId u = 0; u < s.dataset.num_users(); ++u) {
    for (const auto& e : s.dataset.RatingsOfUser(u)) {
      EXPECT_GE(e.timestamp, 1'000);
      EXPECT_LT(e.timestamp, 1'000 + 500'000);
    }
  }
}

// --- Scale-up generator (src/shard's million-user harness) ------------------

ScaleRatingsConfig SmallScaleConfig() {
  ScaleRatingsConfig config;
  config.num_users = 20'000;
  config.num_items = 4'000;
  config.min_ratings_per_user = 4;
  config.max_ratings_per_user = 256;
  config.seed = 19;
  return config;
}

TEST(ScaleRatingsTest, DeterministicInSeed) {
  const SyntheticRatings a = GenerateScaleRatings(SmallScaleConfig());
  const SyntheticRatings b = GenerateScaleRatings(SmallScaleConfig());
  ASSERT_EQ(a.dataset.num_ratings(), b.dataset.num_ratings());
  for (UserId u = 0; u < a.dataset.num_users(); ++u) {
    const auto ra = a.dataset.RatingsOfUser(u);
    const auto rb = b.dataset.RatingsOfUser(u);
    ASSERT_EQ(ra.size(), rb.size()) << "user " << u;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].item, rb[i].item);
      EXPECT_EQ(ra[i].rating, rb[i].rating);
      EXPECT_EQ(ra[i].timestamp, rb[i].timestamp);
    }
  }
  ScaleRatingsConfig other = SmallScaleConfig();
  other.seed = 20;
  EXPECT_NE(GenerateScaleRatings(other).dataset.num_ratings(),
            a.dataset.num_ratings());
}

TEST(ScaleRatingsTest, ActivityBoundsAndStarScale) {
  const SyntheticRatings s = GenerateScaleRatings(SmallScaleConfig());
  std::size_t at_max = 0;
  for (UserId u = 0; u < s.dataset.num_users(); ++u) {
    const auto row = s.dataset.RatingsOfUser(u);
    // The rejection loop can fall a little short of `want` for tail users,
    // but the Pareto floor keeps everyone active.
    EXPECT_GE(row.size(), 1u) << "user " << u;
    EXPECT_LE(row.size(), 256u) << "user " << u;
    at_max += row.size() >= 200 ? 1 : 0;
    for (const auto& e : row) {
      EXPECT_GE(e.rating, 1.0);
      EXPECT_LE(e.rating, 5.0);
      EXPECT_DOUBLE_EQ(e.rating, std::round(e.rating));
    }
  }
  // The heavy tail exists but is rare: some power raters, far below 1%.
  EXPECT_GT(at_max, 0u);
  EXPECT_LT(at_max, s.dataset.num_users() / 100);
  // The truncated-Pareto mean stays near the floor — the property that
  // keeps million-user datasets generable.
  const double mean = static_cast<double>(s.dataset.num_ratings()) /
                      static_cast<double>(s.dataset.num_users());
  EXPECT_GT(mean, 4.0);
  EXPECT_LT(mean, 30.0);
}

// Per-user rating counts follow the configured power law: the log-log
// complementary CDF of counts is near-linear with slope ≈ −(α − 1) over the
// untruncated middle of the distribution.
TEST(ScaleRatingsTest, ActivityTailIndexMatchesConfiguredAlpha) {
  const ScaleRatingsConfig config = SmallScaleConfig();
  const SyntheticRatings s = GenerateScaleRatings(config);
  std::vector<double> counts;
  counts.reserve(s.dataset.num_users());
  for (UserId u = 0; u < s.dataset.num_users(); ++u) {
    counts.push_back(static_cast<double>(s.dataset.RatingsOfUser(u).size()));
  }
  std::sort(counts.begin(), counts.end());
  // Least-squares fit of log P(count > x) against log x at sample points
  // inside (min, max/2) — away from both truncation edges.
  const double n = static_cast<double>(counts.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, pts = 0;
  for (double x = 6; x <= 100; x *= 1.5) {
    const auto above = counts.end() -
                       std::upper_bound(counts.begin(), counts.end(), x);
    if (above == 0) break;
    const double lx = std::log(x);
    const double ly = std::log(static_cast<double>(above) / n);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    pts += 1;
  }
  ASSERT_GE(pts, 4);
  const double slope = (pts * sxy - sx * sy) / (pts * sxx - sx * sx);
  const double tail_index = config.pareto_alpha - 1.0;  // 1.2
  EXPECT_NEAR(-slope, tail_index, 0.25)
      << "fitted tail slope " << slope << " for alpha " << config.pareto_alpha;
}

// Fewer items than the activity cap: each user's target is clamped to
// num_items, so Debug and Release builds generate the same data and the
// heavy tail saturates at "rated everything".
TEST(ScaleRatingsTest, PerUserTargetClampedToItemCount) {
  ScaleRatingsConfig config;
  config.num_users = 2'000;
  config.num_items = 24;
  config.min_ratings_per_user = 4;
  config.max_ratings_per_user = 512;
  config.seed = 23;
  const SyntheticRatings s = GenerateScaleRatings(config);
  ASSERT_EQ(s.dataset.num_items(), 24u);
  std::size_t saturated = 0;
  for (UserId u = 0; u < s.dataset.num_users(); ++u) {
    const auto row = s.dataset.RatingsOfUser(u);
    EXPECT_GE(row.size(), 1u) << "user " << u;
    ASSERT_LE(row.size(), config.num_items) << "user " << u;
    for (std::size_t i = 1; i < row.size(); ++i) {
      EXPECT_LT(row[i - 1].item, row[i].item) << "user " << u;
    }
    saturated += row.size() == config.num_items ? 1 : 0;
  }
  EXPECT_GT(saturated, 0u);
  EXPECT_EQ(GenerateScaleRatings(config).dataset.num_ratings(),
            s.dataset.num_ratings());
}

TEST(ScaleRatingsTest, ItemPopularityIsZipfSkewed) {
  const SyntheticRatings s = GenerateScaleRatings(SmallScaleConfig());
  const auto top = s.dataset.TopPopularItems(s.dataset.num_items());
  // Head mass: the top 1% of items draw a disproportionate rating share.
  const std::size_t head_items = s.dataset.num_items() / 100;
  std::size_t head_mass = 0;
  for (std::size_t i = 0; i < head_items; ++i) {
    head_mass += s.dataset.RatingsOfItem(top[i]).size();
  }
  EXPECT_GT(static_cast<double>(head_mass),
            0.2 * static_cast<double>(s.dataset.num_ratings()));
}

TEST(ScaleGroupsTest, DeterministicDistinctAndSized) {
  const ShardRouter router(8, 10'000, ShardStrategy::kHash);
  const auto shard_of = [&](UserId u) { return router.ShardOf(u); };
  ScaleGroupsConfig config;
  config.num_groups = 200;
  config.group_size = 5;
  config.locality = 0.5;
  const auto a = GenerateScaleGroups(config, 10'000, 8, shard_of);
  const auto b = GenerateScaleGroups(config, 10'000, 8, shard_of);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(a, b);
  for (const auto& group : a) {
    ASSERT_EQ(group.size(), 5u);
    std::vector<UserId> sorted(group);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "duplicate member";
    for (const UserId u : group) EXPECT_LT(u, 10'000u);
  }
}

// The locality knob is monotone: raising it can only concentrate groups
// onto fewer shards. At 1.0 every group is single-shard; at 0.0 a 5-member
// group on 8 hash shards scatters wide.
TEST(ScaleGroupsTest, LocalityKnobMonotonicallyConcentratesGroups) {
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kUsers = 10'000;
  const ShardRouter router(kShards, kUsers, ShardStrategy::kHash);
  const auto shard_of = [&](UserId u) { return router.ShardOf(u); };

  const auto avg_shards_touched = [&](double locality) {
    ScaleGroupsConfig config;
    config.num_groups = 400;
    config.group_size = 5;
    config.locality = locality;
    const auto groups =
        GenerateScaleGroups(config, kUsers, kShards, shard_of);
    double total = 0;
    std::vector<std::size_t> seen;
    for (const auto& group : groups) {
      seen.clear();
      for (const UserId u : group) seen.push_back(shard_of(u));
      std::sort(seen.begin(), seen.end());
      seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
      total += static_cast<double>(seen.size());
    }
    return total / static_cast<double>(groups.size());
  };

  const double at_zero = avg_shards_touched(0.0);
  const double at_half = avg_shards_touched(0.5);
  const double at_one = avg_shards_touched(1.0);
  EXPECT_DOUBLE_EQ(at_one, 1.0) << "locality 1.0 means single-shard groups";
  EXPECT_LT(at_half, at_zero);
  EXPECT_GT(at_half, at_one);
  // 5 uniform draws over 8 shards touch ~4 shards in expectation.
  EXPECT_GT(at_zero, 3.0);
}

}  // namespace
}  // namespace greca
