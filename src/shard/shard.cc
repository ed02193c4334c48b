#include "shard/shard.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "shard/sharded_engine.h"

namespace greca {

Shard::Shard(const ShardedEngine& engine, std::size_t shard_id,
             std::vector<UserId> users)
    : engine_(engine), shard_id_(shard_id), users_(std::move(users)) {
  assert(std::is_sorted(users_.begin(), users_.end()));
}

std::uint32_t Shard::LocalRowOf(UserId u) const {
  const auto it = std::lower_bound(users_.begin(), users_.end(), u);
  assert(it != users_.end() && *it == u && "user not owned by this shard");
  return static_cast<std::uint32_t>(it - users_.begin());
}

PreferenceIndex Shard::BuildIndex(const RatingsDataset& ratings,
                                  const PoolPredictor& predictor,
                                  double scale_max, std::vector<ItemId> pool,
                                  std::size_t num_universe_items,
                                  ThreadPool* build_threads) const {
  return PreferenceIndex::BuildStreaming(
      users_.size(),
      [&](UserId row, std::span<const ItemId> p, std::span<Score> out) {
        const UserId global = users_[row];
        predictor(global, ratings.RatingsOfUser(global), p, out);
      },
      scale_max, std::move(pool), num_universe_items, build_threads);
}

PreferenceIndex Shard::RebuildRows(const PreferenceIndex& index,
                                   const RatingsOverlay& ratings,
                                   std::span<const UserId> users,
                                   const PoolPredictor& predictor) const {
  // Predictor over the merged view → raw pool scores →
  // CloneWithUpdatedPoolRows (page-table copy, a fresh block per touched
  // page and a linear-time rebuild per touched row).
  std::vector<std::uint32_t> rows;
  rows.reserve(users.size());
  std::vector<Score> scores(users.size() * index.pool_size());
  std::vector<std::span<const Score>> score_views;
  score_views.reserve(users.size());
  std::vector<UserRatingEntry> scratch;
  for (std::size_t i = 0; i < users.size(); ++i) {
    const UserId global = users[i];
    rows.push_back(LocalRowOf(global));
    const std::span<Score> out(scores.data() + i * index.pool_size(),
                               index.pool_size());
    predictor(global, ratings.MergedRatingsOfUser(global, scratch),
              index.pool(), out);
    score_views.emplace_back(out);
  }
  return index.CloneWithUpdatedPoolRows(rows, score_views);
}

std::shared_ptr<const ShardSnapshot> Shard::snapshot() const {
  return engine_.Pin()->shard_ptr(shard_id_);
}

}  // namespace greca
