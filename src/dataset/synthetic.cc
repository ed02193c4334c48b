#include "dataset/synthetic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "common/distributions.h"

namespace greca {

double RatingGroundTruth::TruePreference(UserId u, ItemId i) const {
  double dot = 0.0;
  const double* uf = &user_factors[u * latent_dim];
  const double* itf = &item_factors[i * latent_dim];
  for (std::size_t d = 0; d < latent_dim; ++d) dot += uf[d] * itf[d];
  const double raw = item_quality[i] + user_bias[u] + taste_weight * dot;
  return std::clamp(raw, 1.0, 5.0);
}

SyntheticRatings GenerateSyntheticRatings(
    const SyntheticRatingsConfig& config) {
  assert(config.num_users > 0);
  assert(config.num_items > 0);
  assert(config.min_ratings_per_user <= config.num_items);
  Rng rng(config.seed);
  Rng factor_rng = rng.Fork(1);
  Rng activity_rng = rng.Fork(2);
  Rng choice_rng = rng.Fork(3);
  Rng time_rng = rng.Fork(4);

  SyntheticRatings out;
  RatingGroundTruth& truth = out.truth;
  truth.latent_dim = config.latent_dim;
  truth.taste_weight = config.taste_weight;
  truth.user_factors.resize(config.num_users * config.latent_dim);
  truth.item_factors.resize(config.num_items * config.latent_dim);
  truth.item_quality.resize(config.num_items);
  truth.user_bias.resize(config.num_users);

  const double factor_scale = 1.0 / std::sqrt(static_cast<double>(
                                        std::max<std::size_t>(1, config.latent_dim)));
  for (auto& f : truth.user_factors) {
    f = factor_rng.NextGaussian() * factor_scale;
  }
  for (auto& f : truth.item_factors) {
    f = factor_rng.NextGaussian() * factor_scale;
  }
  // MovieLens 1M item means cluster around 3.2 with spread ~0.6.
  for (auto& q : truth.item_quality) {
    q = std::clamp(3.2 + 0.6 * factor_rng.NextGaussian(), 1.5, 4.8);
  }
  for (auto& b : truth.user_bias) {
    b = 0.35 * factor_rng.NextGaussian();
  }

  // Per-user activity: log-normal scaled so the sum lands near the target.
  const double mean_activity = static_cast<double>(config.target_ratings) /
                               static_cast<double>(config.num_users);
  // For a log-normal, E[X] = exp(mu + sigma^2/2); solve mu for the target mean.
  const double mu = std::log(mean_activity) -
                    config.activity_sigma * config.activity_sigma / 2.0;
  LogNormalSampler activity(mu, config.activity_sigma,
                            static_cast<double>(config.min_ratings_per_user),
                            static_cast<double>(config.num_items));
  std::vector<std::size_t> counts(config.num_users);
  for (auto& c : counts) {
    c = static_cast<std::size_t>(std::llround(activity.Sample(activity_rng)));
  }

  ZipfSampler popularity(config.num_items, config.popularity_exponent);

  std::vector<RatingRecord> records;
  records.reserve(static_cast<std::size_t>(
      static_cast<double>(config.target_ratings) * 1.1));
  std::unordered_set<ItemId> seen;
  for (UserId u = 0; u < config.num_users; ++u) {
    const std::size_t want = counts[u];
    seen.clear();
    // Each user is active inside a window of the global span (people join and
    // leave the platform); this makes timestamps realistic for the timeline.
    const auto window_len = static_cast<Timestamp>(
        static_cast<double>(config.span_seconds) *
        time_rng.NextDouble(0.25, 1.0));
    const Timestamp window_start =
        config.epoch +
        time_rng.NextInt(0, std::max<Timestamp>(
                                0, config.span_seconds - window_len));
    std::size_t attempts = 0;
    const std::size_t max_attempts = want * 30 + 100;
    while (seen.size() < want && attempts < max_attempts) {
      ++attempts;
      const auto item = static_cast<ItemId>(popularity.Sample(choice_rng));
      if (!seen.insert(item).second) continue;
      const double star_raw =
          truth.TruePreference(u, item) +
          config.noise_sigma * choice_rng.NextGaussian();
      const double star = std::clamp(std::round(star_raw), 1.0, 5.0);
      const Timestamp ts =
          window_start +
          time_rng.NextInt(0, std::max<Timestamp>(1, window_len) - 1);
      records.push_back(RatingRecord{u, item, star, ts});
    }
  }

  out.dataset = RatingsDataset::FromRecords(config.num_users, config.num_items,
                                            std::move(records));
  return out;
}

SyntheticRatings GenerateScaleRatings(const ScaleRatingsConfig& config) {
  assert(config.num_users > 0);
  assert(config.num_items > 0);
  assert(config.min_ratings_per_user >= 1);
  assert(config.min_ratings_per_user <= config.max_ratings_per_user);
  assert(config.pareto_alpha > 1.0);
  Rng rng(config.seed);
  Rng factor_rng = rng.Fork(1);
  Rng activity_rng = rng.Fork(2);
  Rng choice_rng = rng.Fork(3);
  Rng time_rng = rng.Fork(4);

  SyntheticRatings out;
  RatingGroundTruth& truth = out.truth;
  truth.latent_dim = config.latent_dim;
  truth.taste_weight = config.taste_weight;
  truth.user_factors.resize(config.num_users * config.latent_dim);
  truth.item_factors.resize(config.num_items * config.latent_dim);
  truth.item_quality.resize(config.num_items);
  truth.user_bias.resize(config.num_users);

  const double factor_scale =
      1.0 / std::sqrt(
                static_cast<double>(std::max<std::size_t>(1, config.latent_dim)));
  for (auto& f : truth.user_factors) {
    f = factor_rng.NextGaussian() * factor_scale;
  }
  for (auto& f : truth.item_factors) {
    f = factor_rng.NextGaussian() * factor_scale;
  }
  for (auto& q : truth.item_quality) {
    q = std::clamp(3.2 + 0.6 * factor_rng.NextGaussian(), 1.5, 4.8);
  }
  for (auto& b : truth.user_bias) {
    b = 0.35 * factor_rng.NextGaussian();
  }

  // Truncated-Pareto activity by inverse CDF; the mean stays O(min) however
  // heavy the tail, which is what keeps million-user datasets generable.
  const double tail_index = config.pareto_alpha - 1.0;
  const auto pareto_count = [&](Rng& r) {
    const double u = 1.0 - r.NextDouble();  // (0, 1]
    const double raw = static_cast<double>(config.min_ratings_per_user) *
                       std::pow(u, -1.0 / tail_index);
    return static_cast<std::size_t>(std::llround(
        std::clamp(raw, static_cast<double>(config.min_ratings_per_user),
                   static_cast<double>(config.max_ratings_per_user))));
  };

  ZipfSampler popularity(config.num_items, config.popularity_exponent);

  std::vector<RatingRecord> records;
  records.reserve(config.num_users * config.min_ratings_per_user * 2);
  std::unordered_set<ItemId> seen;
  for (UserId u = 0; u < config.num_users; ++u) {
    // A user cannot rate more distinct items than exist: the target is
    // clamped to num_items (the draw still consumes the activity stream, so
    // configs with num_items >= max_ratings_per_user are unaffected).
    const std::size_t want =
        std::min(pareto_count(activity_rng), config.num_items);
    seen.clear();
    std::size_t attempts = 0;
    const std::size_t max_attempts = want * 30 + 100;
    while (seen.size() < want && attempts < max_attempts) {
      ++attempts;
      const auto item = static_cast<ItemId>(popularity.Sample(choice_rng));
      if (!seen.insert(item).second) continue;
      const double star_raw = truth.TruePreference(u, item) +
                              config.noise_sigma * choice_rng.NextGaussian();
      const double star = std::clamp(std::round(star_raw), 1.0, 5.0);
      const Timestamp ts =
          config.epoch +
          time_rng.NextInt(0, std::max<Timestamp>(1, config.span_seconds) - 1);
      records.push_back(RatingRecord{u, item, star, ts});
    }
  }

  out.dataset = RatingsDataset::FromRecords(config.num_users, config.num_items,
                                            std::move(records));
  return out;
}

std::vector<std::vector<UserId>> GenerateScaleGroups(
    const ScaleGroupsConfig& config, std::size_t num_users,
    std::size_t num_shards,
    const std::function<std::size_t(UserId)>& shard_of) {
  assert(config.group_size >= 1);
  assert(config.group_size <= num_users);
  assert(num_shards >= 1);
  Rng rng(config.seed);
  std::vector<std::vector<UserId>> groups;
  groups.reserve(config.num_groups);
  std::vector<UserId> group;
  for (std::size_t g = 0; g < config.num_groups; ++g) {
    group.clear();
    const bool local = num_shards > 1 && rng.NextBool(config.locality);
    const std::size_t target = local ? rng.NextBounded(num_shards) : 0;
    // Rejection-draw distinct members (shard-restricted for local groups);
    // the attempt cap guards degenerate placements (a shard smaller than
    // the group) by falling back to population-uniform fill.
    std::size_t attempts = 0;
    const std::size_t max_attempts =
        config.group_size * (local ? num_shards * 30 : 30) + 100;
    while (group.size() < config.group_size && attempts < max_attempts) {
      ++attempts;
      const auto u = static_cast<UserId>(rng.NextBounded(num_users));
      if (local && shard_of(u) != target) continue;
      if (std::find(group.begin(), group.end(), u) != group.end()) continue;
      group.push_back(u);
    }
    while (group.size() < config.group_size) {
      const auto u = static_cast<UserId>(rng.NextBounded(num_users));
      if (std::find(group.begin(), group.end(), u) != group.end()) continue;
      group.push_back(u);
    }
    groups.push_back(group);
  }
  return groups;
}

}  // namespace greca
