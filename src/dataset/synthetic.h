// Statistics-calibrated synthetic twin of the MovieLens 1M ratings dataset.
//
// The real dataset cannot be redistributed with this repository, so all
// experiments run on a generator that matches its shape: 6 040 users,
// 3 952 movies, ~1 M ratings on a 1..5 star scale, Zipfian item popularity,
// log-normally distributed user activity, and a latent-factor rating model.
// The generator also exposes its ground truth (latent user/item factors),
// which the quality-experiment oracle uses as the simulated human judge.
#ifndef GRECA_DATASET_SYNTHETIC_H_
#define GRECA_DATASET_SYNTHETIC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "dataset/ratings.h"

namespace greca {

struct SyntheticRatingsConfig {
  std::size_t num_users = 6'040;
  std::size_t num_items = 3'952;
  /// Target rating count; achieved count is within a few percent (per-user
  /// activities are rounded and clamped). MovieLens 1M has 1 000 209.
  std::size_t target_ratings = 1'000'209;
  /// Zipf exponent of item popularity. ~0.9 matches MovieLens.
  double popularity_exponent = 0.9;
  /// Log-normal user-activity spread (sigma of ln #ratings).
  double activity_sigma = 0.9;
  /// Every user rates at least this many items (MovieLens guarantees 20).
  std::size_t min_ratings_per_user = 20;
  /// Latent taste dimensionality shared by users and items.
  std::size_t latent_dim = 8;
  /// Strength of the latent-taste term relative to quality/bias/noise.
  double taste_weight = 1.8;
  /// Std-dev of observation noise added before rounding to stars.
  double noise_sigma = 0.35;
  /// Rating timestamps span [epoch, epoch + span_seconds).
  Timestamp epoch = 0;
  Timestamp span_seconds = 3 * 365 * kSecondsPerDayForRatings;
  std::uint64_t seed = 42;

  static constexpr Timestamp kSecondsPerDayForRatings = 86'400;
};

/// The generator's hidden state: the "true" tastes behind the observed stars.
/// TruePreference() is the noise-free utility a user has for an item, mapped
/// to the rating scale; the quality experiments use it as the judge.
struct RatingGroundTruth {
  std::size_t latent_dim = 0;
  std::vector<double> user_factors;  // num_users × latent_dim, row-major
  std::vector<double> item_factors;  // num_items × latent_dim
  std::vector<double> item_quality;  // per-item intercept
  std::vector<double> user_bias;     // per-user intercept
  double taste_weight = 0.0;

  /// Noise-free utility on the 1..5 scale (clamped).
  double TruePreference(UserId u, ItemId i) const;
};

struct SyntheticRatings {
  RatingsDataset dataset;
  RatingGroundTruth truth;
};

/// Generates the dataset. Deterministic in `config.seed`.
SyntheticRatings GenerateSyntheticRatings(const SyntheticRatingsConfig& config);

// --- Scale-up generation (the shard-per-core harness, src/shard/) ---
//
// The MovieLens twin above targets study-sized experiments; the sharded
// engine needs MILLIONS of users, where per-user log-normal activity with a
// 20-rating floor would cost tens of millions of ratings per million users
// just in floors. The scale generator keeps the same latent-factor truth
// model but swaps the activity model for a truncated Pareto (few ratings
// for almost everyone, a heavy tail of power raters) and keeps items
// Zipf-popular — the canonical web-scale shape on both axes.

struct ScaleRatingsConfig {
  std::size_t num_users = 1'000'000;
  std::size_t num_items = 100'000;
  /// Zipf exponent of item popularity (P(rank r) ∝ 1/(r+1)^s).
  double popularity_exponent = 1.05;
  /// Per-user rating counts follow a Pareto with tail index
  /// `pareto_alpha` − 1, truncated to [min, max]:
  /// count = clamp(min · U^(−1/(α−1)), min, max) for uniform U in (0, 1],
  /// then capped at num_items (a user rates each item at most once).
  std::size_t min_ratings_per_user = 4;
  std::size_t max_ratings_per_user = 512;
  double pareto_alpha = 2.2;
  /// Latent truth model — same semantics as SyntheticRatingsConfig.
  std::size_t latent_dim = 4;
  double taste_weight = 1.8;
  double noise_sigma = 0.35;
  Timestamp epoch = 0;
  Timestamp span_seconds =
      365 * SyntheticRatingsConfig::kSecondsPerDayForRatings;
  std::uint64_t seed = 7;
};

/// Generates the scale dataset. Deterministic in `config.seed`; the truth
/// factors back the scale harness's PoolPredictor (no CF model is trained
/// at this scale).
SyntheticRatings GenerateScaleRatings(const ScaleRatingsConfig& config);

/// Ad-hoc query groups with a tunable shard-locality knob.
struct ScaleGroupsConfig {
  std::size_t num_groups = 1'000;
  std::size_t group_size = 5;
  /// Probability that a group is drawn entirely from ONE shard (the rest
  /// are drawn population-uniform). 1.0 models community-local groups that
  /// touch a single shard; 0.0 models adversarial scatter. Monotone by
  /// construction: raising it can only lower the expected shards-touched
  /// per group (tests/synthetic_test.cc).
  double locality = 1.0;
  std::uint64_t seed = 11;
};

/// Generates groups of distinct users. `shard_of` is the router's placement
/// function (kept as a callback so dataset/ stays independent of shard/);
/// `num_shards` scopes the local draw. Deterministic in `config.seed`.
std::vector<std::vector<UserId>> GenerateScaleGroups(
    const ScaleGroupsConfig& config, std::size_t num_users,
    std::size_t num_shards,
    const std::function<std::size_t(UserId)>& shard_of);

}  // namespace greca

#endif  // GRECA_DATASET_SYNTHETIC_H_
