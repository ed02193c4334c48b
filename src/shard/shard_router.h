// User → shard placement for the shard-per-core engine.
//
// The router is the ONE authority on where a user's serving rows live:
// construction partitions the population with it, update batches are split
// with it, and query assembly gathers member slices with it. It is pure
// arithmetic over (user id, population size, shard count) — stateless,
// trivially copyable, and identical on every thread — so the three call
// sites can never disagree.
//
// Two strategies:
//  * kHash    — SplitMix64(user) % num_shards. Spreads any id distribution
//               evenly; neighboring user ids land on different shards, so
//               locality-clustered workloads see it as the adversarial
//               placement (a group of consecutive ids touches ~min(|G|, N)
//               shards).
//  * kRange   — contiguous blocks of ⌈num_users / num_shards⌉ ids. Preserves
//               id locality: datasets whose communities are id-clustered
//               (the scale generator's locality knob) touch few shards per
//               group.
#ifndef GRECA_SHARD_SHARD_ROUTER_H_
#define GRECA_SHARD_SHARD_ROUTER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace greca {

enum class ShardStrategy {
  kHash,
  kRange,
};

class ShardRouter {
 public:
  /// `num_shards` 0 reads as 1 (one shard owning every user); `num_users`
  /// sizes the kRange blocks (and bounds the ids PartitionUsers
  /// enumerates).
  ShardRouter(std::size_t num_shards, std::size_t num_users,
              ShardStrategy strategy = ShardStrategy::kHash)
      : num_shards_(std::max<std::size_t>(num_shards, 1)),
        num_users_(num_users),
        strategy_(strategy),
        block_(std::max<std::size_t>(
            (num_users + num_shards_ - 1) / num_shards_, 1)) {}

  std::size_t num_shards() const { return num_shards_; }
  std::size_t num_users() const { return num_users_; }
  ShardStrategy strategy() const { return strategy_; }

  std::size_t ShardOf(UserId u) const {
    if (num_shards_ == 1) return 0;
    if (strategy_ == ShardStrategy::kRange) {
      const std::size_t s = u / block_;
      return s < num_shards_ ? s : num_shards_ - 1;
    }
    std::uint64_t state = u;
    return SplitMix64(state) % num_shards_;
  }

  /// All users of [0, num_users) grouped by shard, each list ascending —
  /// the shard construction order (a shard's local row r is its r-th
  /// smallest owned user id).
  std::vector<std::vector<UserId>> PartitionUsers() const {
    std::vector<std::vector<UserId>> owned(num_shards_);
    for (UserId u = 0; u < num_users_; ++u) {
      owned[ShardOf(u)].push_back(u);
    }
    return owned;
  }

 private:
  std::size_t num_shards_;
  std::size_t num_users_;
  ShardStrategy strategy_;
  std::size_t block_;  // kRange block width
};

}  // namespace greca

#endif  // GRECA_SHARD_SHARD_ROUTER_H_
