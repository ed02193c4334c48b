// Tests for the collaborative-filtering engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "cf/similarity.h"
#include "cf/user_knn.h"
#include "common/rng.h"
#include "dataset/synthetic.h"

namespace greca {
namespace {

std::vector<UserRatingEntry> Profile(
    std::initializer_list<std::pair<ItemId, Score>> ratings) {
  std::vector<UserRatingEntry> out;
  for (const auto& [item, rating] : ratings) out.push_back({item, rating, 0});
  return out;
}

TEST(SimilarityTest, CosineIdenticalVectorsIsOne) {
  const auto a = Profile({{0, 5.0}, {1, 3.0}});
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0, 1e-12);
}

TEST(SimilarityTest, CosineDisjointIsZero) {
  const auto a = Profile({{0, 5.0}});
  const auto b = Profile({{1, 5.0}});
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, {}), 0.0);
}

TEST(SimilarityTest, CosineHandExample) {
  // Overlap on item 0 only: dot = 4*2 = 8; norms = 5, sqrt(8).
  const auto a = Profile({{0, 4.0}, {1, 3.0}});
  const auto b = Profile({{0, 2.0}, {2, 2.0}});
  EXPECT_NEAR(CosineSimilarity(a, b), 8.0 / (5.0 * std::sqrt(8.0)), 1e-12);
}

TEST(SimilarityTest, OverlapCosineIgnoresNonShared) {
  const auto a = Profile({{0, 4.0}, {1, 1.0}});
  const auto b = Profile({{0, 2.0}, {2, 5.0}});
  // Only item 0 is shared: overlap cosine of single positive pair = 1.
  EXPECT_NEAR(OverlapCosineSimilarity(a, b), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(OverlapCosineSimilarity(a, Profile({{2, 3.0}})), 0.0);
}

TEST(SimilarityTest, PearsonDetectsOppositeTastes) {
  const auto a = Profile({{0, 1.0}, {1, 3.0}, {2, 5.0}});
  const auto b = Profile({{0, 5.0}, {1, 3.0}, {2, 1.0}});
  EXPECT_NEAR(PearsonSimilarity(a, b), -1.0, 1e-12);
  EXPECT_NEAR(PearsonSimilarity(a, a), 1.0, 1e-12);
}

class UserKnnTest : public ::testing::Test {
 protected:
  UserKnnTest() {
    SyntheticRatingsConfig config;
    config.num_users = 150;
    config.num_items = 120;
    config.target_ratings = 6'000;
    config.min_ratings_per_user = 15;
    config.seed = 5;
    synthetic_ = GenerateSyntheticRatings(config);
  }
  SyntheticRatings synthetic_;
};

TEST_F(UserKnnTest, NeighborsSortedAndBounded) {
  UserKnnConfig config;
  config.num_neighbors = 10;
  const UserKnn knn(synthetic_.dataset, config);
  const auto profile = synthetic_.dataset.RatingsOfUser(0);
  const auto neighbors = knn.Neighbors(profile);
  ASSERT_LE(neighbors.size(), 10u);
  ASSERT_GE(neighbors.size(), 2u);
  for (std::size_t i = 1; i < neighbors.size(); ++i) {
    EXPECT_GE(neighbors[i - 1].score, neighbors[i].score);
  }
  // A user's own row is their most similar neighbor (cosine 1).
  EXPECT_EQ(neighbors[0].id, 0u);
  EXPECT_NEAR(neighbors[0].score, 1.0, 1e-9);
}

TEST_F(UserKnnTest, PredictionsOnRatingScale) {
  const UserKnn knn(synthetic_.dataset, {});
  const auto preds = knn.PredictAll(synthetic_.dataset.RatingsOfUser(3));
  ASSERT_EQ(preds.size(), synthetic_.dataset.num_items());
  for (const double p : preds) {
    EXPECT_GE(p, 1.0);
    EXPECT_LE(p, 5.0);
  }
}

TEST_F(UserKnnTest, EmptyProfileFallsBackToItemMeans) {
  const UserKnn knn(synthetic_.dataset, {});
  const auto preds = knn.PredictAll({});
  // With no neighbors, predictions equal the shrunk item means; popular
  // items should be near their observed mean.
  const ItemId top = synthetic_.dataset.TopPopularItems(1)[0];
  EXPECT_NEAR(preds[top], synthetic_.dataset.ItemMeanRating(top, 3.5), 0.2);
}

TEST_F(UserKnnTest, PredictAllReconstructsKnownRatings) {
  const UserKnn knn(synthetic_.dataset, {});
  double err = 0.0;
  std::size_t count = 0;
  for (UserId u = 0; u < 30; ++u) {
    const auto profile = synthetic_.dataset.RatingsOfUser(u);
    const auto preds = knn.PredictAll(profile);
    for (const auto& e : profile) {
      err += std::abs(preds[e.item] - e.rating);
      ++count;
    }
  }
  // Reconstruction MAE well under random guessing (~1.5 stars).
  EXPECT_LT(err / static_cast<double>(count), 1.0);
}

TEST_F(UserKnnTest, StatesMatchPredictAllThroughProfileEdits) {
  // Random edits of two users' profiles — re-rates, added and removed items,
  // off-grid ratings — each re-predicted through the per-user state, must
  // give PredictAll's bits. Most steps take the diff walk.
  const UserKnn knn(synthetic_.dataset, {});
  UserKnnStates states(knn, 2);
  std::vector<UserRatingEntry> profiles[2];
  for (UserId u = 0; u < 2; ++u) {
    const auto row = synthetic_.dataset.RatingsOfUser(u + 7);
    profiles[u].assign(row.begin(), row.end());
  }
  Rng rng(19);
  const auto items = static_cast<ItemId>(synthetic_.dataset.num_items());
  for (int step = 0; step < 300; ++step) {
    const auto u = static_cast<UserId>(rng.NextBounded(2));
    std::vector<UserRatingEntry>& profile = profiles[u];
    const ItemId item = static_cast<ItemId>(rng.NextBounded(items));
    const double rating =
        step % 37 == 36 ? 3.7 : 0.5 * static_cast<double>(rng.NextBounded(11));
    const auto it = std::lower_bound(
        profile.begin(), profile.end(), item,
        [](const UserRatingEntry& e, ItemId i) { return e.item < i; });
    if (it != profile.end() && it->item == item) {
      if (rng.NextBounded(3) == 0) {
        profile.erase(it);
      } else {
        it->rating = rating;
      }
    } else {
      profile.insert(it, {item, rating, 0});
    }
    const std::vector<Score> got = states.Predict(u, profile);
    const std::vector<Score> want = knn.PredictAll(profile);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Score)),
              0)
        << "step " << step;
  }
}

}  // namespace
}  // namespace greca
