#include "shard/shard.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace greca {

Shard::Shard(std::size_t shard_id, std::vector<UserId> users,
             std::shared_ptr<const RatingsDataset> base,
             PoolPredictor predictor, double scale_max,
             std::vector<ItemId> pool, std::size_t num_universe_items,
             const RecommenderOptions& options, ThreadPool* build_threads)
    : shard_id_(shard_id),
      users_(std::move(users)),
      predictor_(std::move(predictor)),
      publisher_(
          [this] {
            const std::shared_ptr<const ShardSnapshot> cur = snapshot();
            return RatingPublisher::Published{cur->generation, cur->ratings};
          },
          std::bind_front(&Shard::RebuildRatings, this),
          options.compact_delta_fraction) {
  assert(std::is_sorted(users_.begin(), users_.end()));
  assert(base != nullptr);
  // Generation 1: empty delta log + streaming-built index (one row per
  // owned user, filled straight from the base ratings — no universe-scale
  // prediction matrix ever exists).
  auto overlay = std::make_shared<const RatingsOverlay>(base);
  const RatingsDataset& ratings = *base;
  auto index =
      std::make_shared<const PreferenceIndex>(PreferenceIndex::BuildStreaming(
          users_.size(),
          [&](UserId row, std::span<const ItemId> p, std::span<Score> out) {
            const UserId global = users_[row];
            predictor_(global, ratings.RatingsOfUser(global), p, out);
          },
          scale_max, std::move(pool), num_universe_items, build_threads));
  snapshot_ = std::make_shared<const ShardSnapshot>(
      ShardSnapshot{/*generation=*/1, std::move(overlay), std::move(index)});
}

std::uint32_t Shard::LocalRowOf(UserId u) const {
  const auto it = std::lower_bound(users_.begin(), users_.end(), u);
  assert(it != users_.end() && *it == u && "user not owned by this shard");
  return static_cast<std::uint32_t>(it - users_.begin());
}

void Shard::RebuildRatings(std::shared_ptr<const RatingsOverlay> ratings,
                           std::span<const UserId> touched,
                           std::uint64_t generation) {
  // Rebuild only the touched local rows: predictor over the merged view →
  // raw pool scores → CloneWithUpdatedPoolRows (page-table copy, a fresh
  // block per touched page and a linear-time rebuild per touched row;
  // untouched pages stay shared with the current generation).
  const std::shared_ptr<const ShardSnapshot> cur = snapshot();
  const PreferenceIndex& index = *cur->index;
  std::vector<std::uint32_t> rows;
  rows.reserve(touched.size());
  std::vector<Score> scores(touched.size() * index.pool_size());
  std::vector<std::span<const Score>> score_views;
  score_views.reserve(touched.size());
  std::vector<UserRatingEntry> scratch;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    const UserId global = touched[i];
    rows.push_back(LocalRowOf(global));
    const std::span<Score> out(scores.data() + i * index.pool_size(),
                               index.pool_size());
    predictor_(global, ratings->MergedRatingsOfUser(global, scratch),
               index.pool(), out);
    score_views.emplace_back(out);
  }
  auto next = std::make_shared<const ShardSnapshot>(ShardSnapshot{
      generation, std::move(ratings),
      std::make_shared<const PreferenceIndex>(
          index.CloneWithUpdatedPoolRows(rows, score_views))});
  std::lock_guard<std::mutex> swap_lock(snapshot_mu_);
  snapshot_ = std::move(next);
}

}  // namespace greca
