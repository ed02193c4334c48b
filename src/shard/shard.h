// One shard of the shard-per-core engine: an independent publisher for a
// slice of the user population.
//
// A shard owns, for exactly the users the ShardRouter assigned to it:
//  * a PreferenceIndex with ONE ROW PER OWNED USER (local row r = the r-th
//    smallest owned user id), built over the engine's shared popularity
//    pool — every shard speaks the same candidate key space;
//  * a RatingsOverlay delta log over the shared immutable base dataset
//    (only owned users ever have delta rows here);
//  * its own RatingPublisher (the write path shared with the monolithic
//    recommender) and RCU snapshot (generation-stamped overlay + index
//    pair, swapped under a light mutex).
//
// Publish independence is the point: a rating batch touching only this
// shard's users publishes THIS shard alone, under its own build lock, so
// shards fold, re-predict and publish in parallel and a reader pins only
// the shards its group touches. The clone itself is copy-on-write at any
// shard size (PreferenceIndex pages): it copies the page table and the
// pages holding touched rows, not the shard's rows, so a shard count is a
// parallelism choice, not a way to make publishes cheaper.
//
// Prediction recompute goes through a PoolPredictor instead of stored
// universe-scale prediction arrays: the predictor maps a user's merged
// ratings straight to raw scores per POOL POSITION, so million-user shards
// never materialize num_users × num_universe_items state. The study-backed
// engine wraps UserKnn::PredictAll in one; the scale harness wraps the
// synthetic ground truth.
//
// Equivalence contract (tests/sharded_equivalence_test.cc): a shard's rows
// are bit-identical to the corresponding rows of a monolithic index built
// from the same predictor over the same pool — rows depend only on (user's
// merged ratings, pool, scale_max), none of which shard placement changes.
#ifndef GRECA_SHARD_SHARD_H_
#define GRECA_SHARD_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "api/update.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "core/group_recommender.h"
#include "dataset/rating_publisher.h"
#include "dataset/ratings.h"
#include "dataset/ratings_overlay.h"
#include "index/preference_index.h"

namespace greca {

/// Maps one user's merged ratings (base + live deltas, sorted by item) to
/// raw (universe-scale, un-normalized) scores per pool position:
/// out[key] = predicted rating for pool[key]. Must be safe for concurrent
/// calls on distinct users.
using PoolPredictor = std::function<void(
    UserId user, std::span<const UserRatingEntry> merged_ratings,
    std::span<const ItemId> pool, std::span<Score> out)>;

/// One published generation of a shard: immutable once built, pinned by
/// queries via shared_ptr (RCU). `ratings` is an overlay over the shared
/// base with delta rows only for this shard's users; `index` holds one row
/// per owned user in local-row order.
struct ShardSnapshot {
  std::uint64_t generation = 0;
  std::shared_ptr<const RatingsOverlay> ratings;
  std::shared_ptr<const PreferenceIndex> index;
};

class Shard {
 public:
  /// Builds generation 1. `users` are the owned global ids, ascending (the
  /// ShardRouter::PartitionUsers order); `base` is the SHARED immutable
  /// ratings dataset of the whole population; `pool` the shared popularity
  /// pool (copied per shard — each index owns its pool vector, all equal).
  /// `options` supplies build_flat_twin and the per-shard compaction policy.
  /// `build_threads`, when non-null, fans the initial row fills out
  /// (bit-identical to serial — rows are disjoint).
  Shard(std::size_t shard_id, std::vector<UserId> users,
        std::shared_ptr<const RatingsDataset> base, PoolPredictor predictor,
        double scale_max, std::vector<ItemId> pool,
        std::size_t num_universe_items,
        std::span<const std::uint32_t> band_breakpoints,
        const RecommenderOptions& options,
        ThreadPool* build_threads = nullptr);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  std::size_t shard_id() const { return shard_id_; }
  std::span<const UserId> users() const { return users_; }
  std::size_t num_local_users() const { return users_.size(); }

  /// Local index row of an owned user (binary search; asserts ownership in
  /// debug builds, callers route through the ShardRouter first).
  std::uint32_t LocalRowOf(UserId u) const;

  /// The currently published generation; constant-time pointer copy.
  std::shared_ptr<const ShardSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// Applies one PRE-VALIDATED, PRE-PARTITIONED sub-batch (every event's
  /// user owned by this shard, engine-arrival order preserved) and publishes
  /// a new shard generation. Same contract as
  /// GroupRecommender::ApplyRatingUpdates scoped to one shard: O(delta)
  /// fold, touched-row-only rebuild, group commit for concurrent callers,
  /// all-stale batches publish nothing. `report` receives the per-shard
  /// attribution (applied / stale / users_rebuilt / generation).
  Status Apply(std::span<const RatingEvent> events,
               UpdateReport* report = nullptr) {
    return publisher_.Apply(events, report);
  }

 private:
  /// The publisher's rebuild step (see RatingPublisher::Rebuild).
  void RebuildRatings(std::shared_ptr<const RatingsOverlay> ratings,
                      std::span<const UserId> touched,
                      std::uint64_t generation);

  const std::size_t shard_id_;
  const std::vector<UserId> users_;  // ascending; local row -> global id
  const PoolPredictor predictor_;

  mutable std::mutex snapshot_mu_;  // guards only the pointer swap
  std::shared_ptr<const ShardSnapshot> snapshot_;
  RatingPublisher publisher_;
};

}  // namespace greca

#endif  // GRECA_SHARD_SHARD_H_
