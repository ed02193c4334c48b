// One shard of the shard-per-core engine: a row partition of the user
// population.
//
// A shard owns the users the ShardRouter assigned to it and builds the
// PreferenceIndex rows of exactly those users: ONE ROW PER OWNED USER
// (local row r = the r-th smallest owned user id), over the engine's shared
// popularity pool — every shard speaks the same candidate key space. It
// builds generation 1's rows and, on a publish, rebuilds the rows it is
// given. It publishes nothing itself: the ShardedEngine owns the one
// RatingsOverlay, the one RatingPublisher and the one published
// ShardedSnapshotSet, so a publish that touches several shards lands in all
// of them at once.
//
// The rebuild is copy-on-write at any shard size (PreferenceIndex pages):
// it copies the page table and the pages holding touched rows, not the
// shard's rows, so a shard's size barely moves what a rebuild costs.
//
// Prediction recompute goes through a PoolPredictor instead of stored
// universe-scale prediction arrays: the predictor maps a user's merged
// ratings straight to raw scores per POOL POSITION, so million-user shards
// never materialize num_users × num_universe_items state. The study-backed
// engine wraps UserKnnStates::Predict in one — bit-identical to
// UserKnn::PredictAll, but a re-predict walks only the rater lists of the
// items whose rating changed since that user's last call; the scale harness
// wraps the synthetic ground truth.
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
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "dataset/ratings.h"
#include "dataset/ratings_overlay.h"
#include "index/preference_index.h"

namespace greca {

class ShardedEngine;

/// Maps one user's merged ratings (base + live deltas, sorted by item) to
/// raw (universe-scale, un-normalized) scores per pool position:
/// out[key] = predicted rating for pool[key]. Must be safe for concurrent
/// calls on distinct users.
using PoolPredictor = std::function<void(
    UserId user, std::span<const UserRatingEntry> merged_ratings,
    std::span<const ItemId> pool, std::span<Score> out)>;

/// One shard's entry of a published ShardedSnapshotSet: immutable once
/// built. Every entry of a set carries the set's generation and the
/// engine's one overlay; `index` holds one row per owned user in local-row
/// order.
struct ShardSnapshot {
  std::uint64_t generation = 0;
  std::shared_ptr<const RatingsOverlay> ratings;
  std::shared_ptr<const PreferenceIndex> index;
};

class Shard {
 public:
  /// `users` are the owned global ids, ascending (the
  /// ShardRouter::PartitionUsers order). `engine` must outlive the shard.
  Shard(const ShardedEngine& engine, std::size_t shard_id,
        std::vector<UserId> users);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  std::size_t shard_id() const { return shard_id_; }
  std::span<const UserId> users() const { return users_; }
  std::size_t num_local_users() const { return users_.size(); }

  /// Local index row of an owned user (binary search; asserts ownership in
  /// debug builds, callers route through the ShardRouter first).
  std::uint32_t LocalRowOf(UserId u) const;

  /// Generation 1's index: one row per owned user, filled straight from
  /// the base ratings (no universe-scale prediction matrix ever exists).
  /// `build_threads`, when non-null, fans the row fills out (bit-identical
  /// to serial — rows are disjoint).
  PreferenceIndex BuildIndex(const RatingsDataset& ratings,
                             const PoolPredictor& predictor, double scale_max,
                             std::vector<ItemId> pool,
                             std::size_t num_universe_items,
                             ThreadPool* build_threads) const;

  /// `index` with the rows of `users` (owned, ascending, distinct)
  /// re-predicted from their merged ratings in `ratings`; untouched pages
  /// stay shared with `index`.
  PreferenceIndex RebuildRows(const PreferenceIndex& index,
                              const RatingsOverlay& ratings,
                              std::span<const UserId> users,
                              const PoolPredictor& predictor) const;

  /// This shard's entry of the engine's currently published set
  /// (ShardedEngine::Pin()->shard_ptr(shard_id())); the shard keeps no
  /// pointer of its own. Kept for the perfbench adapter until it calls
  /// engine-level names only (ROADMAP item 1).
  std::shared_ptr<const ShardSnapshot> snapshot() const;

 private:
  const ShardedEngine& engine_;
  const std::size_t shard_id_;
  const std::vector<UserId> users_;  // ascending; local row -> global id
};

}  // namespace greca

#endif  // GRECA_SHARD_SHARD_H_
