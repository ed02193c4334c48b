// The incremental CF re-predict (cf/user_knn.h, UserKnnStates) behind both
// write paths must reproduce a fresh UserKnn::PredictAll bit for bit. After
// every publish of a seeded stream of re-rates, new items, stale events,
// off-grid ratings (3.7, 1500) and at least one compaction, each study
// user's prediction row (Engine) or index row (ShardedEngine at 1 and 3
// shards) must equal the row built from PredictAll over the user's merged
// ratings. The stream re-touches a few users, so most re-predicts take the
// diff walk; a second universe holds one off-grid rating, so every
// re-predict over it walks from zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "cf/user_knn.h"
#include "common/rng.h"
#include "shard/sharded_engine.h"

namespace greca {
namespace {

class RepredictTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 240;
    uc.num_items = 400;
    uc.target_ratings = 18'000;
    uc.seed = 91;
    universe_ = new SyntheticRatings(GenerateSyntheticRatings(uc));
    FacebookStudyConfig sc;
    sc.diversity_pool = 180;
    study_ = new FacebookStudy(GenerateFacebookStudy(sc, *universe_));
    // The same universe with one rating moved off the half-star grid.
    const RatingsDataset& on_grid = universe_->dataset;
    std::vector<RatingRecord> records;
    for (UserId u = 0; u < on_grid.num_users(); ++u) {
      for (const UserRatingEntry& e : on_grid.RatingsOfUser(u)) {
        records.push_back(RatingRecord{u, e.item, e.rating, e.timestamp});
      }
    }
    records[records.size() / 2].rating = 3.7;
    off_grid_ = new RatingsDataset(RatingsDataset::FromRecords(
        on_grid.num_users(), on_grid.num_items(), std::move(records)));
  }
  static void TearDownTestSuite() {
    delete off_grid_;
    delete study_;
    delete universe_;
    off_grid_ = nullptr;
    study_ = nullptr;
    universe_ = nullptr;
  }

  /// The on-grid universe (diff walks) and its off-grid twin (walks from
  /// zero).
  static std::vector<const RatingsDataset*> Universes() {
    return {&universe_->dataset, off_grid_};
  }

  static RecommenderOptions Options() {
    RecommenderOptions options;
    options.max_candidate_items = 360;
    // Compacts once the log passes ~60 ratings: once or twice a stream.
    options.compact_delta_fraction =
        60.0 / static_cast<double>(study_->study_ratings.num_ratings());
    return options;
  }

  /// One publish of the stream: re-rates and new items for a few recurring
  /// users, one stale event, and off-grid ratings on some publishes.
  static std::vector<RatingEvent> NextBatch(Rng& rng,
                                            const RatingsOverlay& ratings,
                                            std::size_t publish,
                                            Timestamp& clock) {
    const auto items = static_cast<ItemId>(universe_->dataset.num_items());
    const auto user = [&] { return static_cast<UserId>(rng.NextBounded(6)); };
    const auto grid_rating = [&] {
      return 1.0 + 0.5 * static_cast<double>(rng.NextBounded(9));
    };
    std::vector<UserRatingEntry> scratch;
    const auto rated = [&](UserId u) {
      const auto merged = ratings.MergedRatingsOfUser(u, scratch);
      return merged[rng.NextBounded(merged.size())];
    };
    std::vector<RatingEvent> events;
    for (int i = 0; i < 3; ++i) {
      const UserId u = user();
      events.push_back({u, rated(u).item, grid_rating(), ++clock});
    }
    for (int i = 0; i < 2; ++i) {
      events.push_back({user(), static_cast<ItemId>(rng.NextBounded(items)),
                        grid_rating(), ++clock});
    }
    const UserId stale_user = user();
    const UserRatingEntry stale = rated(stale_user);
    events.push_back({stale_user, stale.item, grid_rating(),
                      stale.timestamp - 1});
    if (publish % 4 == 3) {
      const UserId u = user();
      events.push_back({u, rated(u).item, 3.7, ++clock});
    }
    if (publish % 5 == 4) {
      events.push_back({user(), static_cast<ItemId>(rng.NextBounded(items)),
                        1500.0, ++clock});
    }
    return events;
  }

  static void ExpectSameBits(std::span<const Score> got,
                             std::span<const Score> want,
                             const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size_bytes()), 0)
        << where;
  }

  static constexpr std::size_t kPublishes = 20;
  static constexpr Timestamp kClockStart = 4'000'000'000;

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
  static RatingsDataset* off_grid_;
};

SyntheticRatings* RepredictTest::universe_ = nullptr;
FacebookStudy* RepredictTest::study_ = nullptr;
RatingsDataset* RepredictTest::off_grid_ = nullptr;

TEST_F(RepredictTest, EnginePredictionRowsMatchFreshPredictAll) {
  for (const RatingsDataset* universe : Universes()) {
    const std::string label =
        universe == off_grid_ ? "off-grid universe" : "on-grid universe";
    const UserKnn knn(*universe, Options().knn);
    EngineOptions eopts;
    eopts.num_threads = 2;
    Engine engine(*universe, *study_, Options(), eopts);
    Rng rng(2'301);
    Timestamp clock = kClockStart;
    std::size_t compactions = 0;
    std::size_t stale = 0;
    std::vector<UserRatingEntry> scratch;
    for (std::size_t p = 0; p < kPublishes; ++p) {
      const std::vector<RatingEvent> events =
          NextBatch(rng, engine.snapshot()->ratings(), p, clock);
      UpdateReport report;
      ASSERT_TRUE(engine.ApplyUpdates(events, &report).ok());
      compactions += report.compacted ? 1 : 0;
      stale += report.events_ignored_stale;
      const auto snap = engine.snapshot();
      for (UserId u = 0; u < study_->num_participants(); ++u) {
        ExpectSameBits(
            snap->predictions(u),
            knn.PredictAll(snap->ratings().MergedRatingsOfUser(u, scratch)),
            label + ", publish " + std::to_string(p) + ", user " +
                std::to_string(u));
      }
    }
    EXPECT_GE(compactions, 1u) << label;
    EXPECT_GE(stale, 1u) << label;
  }
}

TEST_F(RepredictTest, ShardedIndexRowsMatchFreshPredictAll) {
  for (const RatingsDataset* universe : Universes()) {
    for (const std::size_t num_shards : {1u, 3u}) {
      const std::string label =
          std::string(universe == off_grid_ ? "off-grid" : "on-grid") +
          " universe, " + std::to_string(num_shards) + " shards";
      const UserKnn knn(*universe, Options().knn);
      ShardedEngineOptions options;
      options.num_shards = num_shards;
      options.recommender = Options();
      // Construction predicts distinct users on several threads at once
      // (the TSan job runs this).
      options.build_threads = 3;
      options.batch_threads = 1;
      ShardedEngine engine(*universe, *study_, options);
      const std::vector<ItemId> pool(engine.pool().begin(),
                                     engine.pool().end());
      Rng rng(2'301);
      Timestamp clock = kClockStart;
      std::size_t compactions = 0;
      std::vector<UserRatingEntry> scratch;
      // Publish 0 checks the rows built at construction.
      for (std::size_t p = 0; p <= kPublishes; ++p) {
        if (p > 0) {
          const std::vector<RatingEvent> events =
              NextBatch(rng, *engine.Pin()->shard(0).ratings, p - 1, clock);
          ShardedUpdateReport report;
          ASSERT_TRUE(engine.ApplyUpdates(events, &report).ok());
          compactions += report.total.compacted ? 1 : 0;
        }
        const auto set = engine.Pin();
        for (UserId u = 0; u < study_->num_participants(); ++u) {
          const std::size_t s = engine.router().ShardOf(u);
          const std::uint32_t row = engine.shard(s).LocalRowOf(u);
          const PreferenceIndex& index = *set->shard(s).index;
          const std::vector<std::vector<Score>> fresh = {knn.PredictAll(
              set->shard(s).ratings->MergedRatingsOfUser(u, scratch))};
          const PreferenceIndex want = PreferenceIndex::Build(
              fresh, /*scale_max=*/5.0, pool, universe->num_items());
          const std::string where = label + ", publish " + std::to_string(p) +
                                    ", user " + std::to_string(u);
          ExpectSameBits(index.UserScores(row), want.UserScores(0), where);
          EXPECT_TRUE(std::ranges::equal(index.UserKeys(row),
                                         want.UserKeys(0)))
              << where;
        }
      }
      EXPECT_GE(compactions, 1u) << label;
    }
  }
}

}  // namespace
}  // namespace greca
