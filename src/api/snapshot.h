// The immutable unit of serving state that every query pins.
//
// A Snapshot bundles everything a query reads that changes with ratings —
// the pre-sorted PreferenceIndex, the CF predictions it was built from and
// the study ratings (base + live delta log, the tombstone source for §2.4's
// already-rated exclusion) — under one generation id. Queries pin a
// snapshot for their whole lifetime (one per query via Engine::Recommend,
// one per batch via Engine::RecommendBatch), so a concurrently published
// update can never change a running query's inputs: updates build a NEW
// snapshot off the serving path and publish it with a constant-time pointer
// swap (RCU-style; see update.h and GroupRecommender::ApplyRatingUpdates).
//
// What does NOT change with ratings is not in a Snapshot: the AffinitySource
// is fixed at construction and owned by the engine (GroupRecommender,
// ShardedEngine). Problem assembly builds the group's periodic affinity
// lists from it per query, into the query's arena, like the static list.
//
// Thread-safety: a Snapshot is immutable after construction — it has no
// mutable member and no lock — so any number of threads may read it at
// once. Problem assembly builds everything a query derives from it (the
// §2.4 tombstone bitmap, the affinity lists) into the query's own arena.
#ifndef GRECA_API_SNAPSHOT_H_
#define GRECA_API_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "dataset/ratings.h"
#include "dataset/ratings_overlay.h"
#include "index/preference_index.h"

namespace greca {

/// Kept only for perfbench, which sizes its adhoc_unique warmup from this
/// constant, until its adapter calls engine-level names only (ROADMAP
/// item 1). Period lists are built per query (core/problem_assembly.h);
/// nothing caches them.
struct PeriodListCache {
  static constexpr std::size_t kDefaultMaxEntries = 8'192;
};

/// Kept for perfbench until ROADMAP item 1: its sharded adapter stores
/// ShardedSnapshotSet::tombstone_cache() into AssemblyContext. Empty, and
/// nothing reads it: assembly builds the group's tombstone bitmap per query
/// (core/problem_assembly.h).
struct TombstoneCache {};

/// One study participant's CF-predicted ratings (universe scale), one slot
/// per universe item. Immutable and shared across generations until that
/// participant's ratings change: a publish replaces only the touched rows.
using PredictionRow = std::shared_ptr<const std::vector<Score>>;

class Snapshot {
 public:
  /// All parts must be non-null, and so must every prediction row; the
  /// snapshot shares their ownership (the overlay's base may alias
  /// caller-owned storage on the initial generation — see GroupRecommender
  /// construction).
  Snapshot(std::uint64_t generation,
           std::shared_ptr<const RatingsOverlay> ratings,
           std::vector<PredictionRow> predictions,
           std::shared_ptr<const PreferenceIndex> index);

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// Monotonically increasing publish id; 1 is the construction-time state.
  std::uint64_t generation() const { return generation_; }

  const PreferenceIndex& index() const { return *index_; }
  /// The study participants' own ratings as of this generation: the
  /// immutable base plus the live per-user delta log, merged on read
  /// (tombstone source for the group-rated exclusion). Use
  /// ratings().base() for the base alone.
  const RatingsOverlay& ratings() const { return *ratings_; }
  /// CF-predicted ratings (universe scale) per study participant.
  std::span<const Score> predictions(UserId study_user) const {
    return *predictions_[study_user];
  }
  std::size_t num_users() const { return predictions_.size(); }

  /// Shared handles (what the next generation's builder reuses for the
  /// untouched parts).
  const std::shared_ptr<const RatingsOverlay>& ratings_ptr() const {
    return ratings_;
  }
  const std::vector<PredictionRow>& prediction_rows() const {
    return predictions_;
  }
  const std::shared_ptr<const PreferenceIndex>& index_ptr() const {
    return index_;
  }
 private:
  const std::uint64_t generation_;
  const std::shared_ptr<const RatingsOverlay> ratings_;
  const std::vector<PredictionRow> predictions_;
  const std::shared_ptr<const PreferenceIndex> index_;
};

}  // namespace greca

#endif  // GRECA_API_SNAPSHOT_H_
