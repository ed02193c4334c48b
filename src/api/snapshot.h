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
// Thread-safety: a Snapshot is const after construction except its
// tombstone memo, which is internally synchronized — any number of batch
// workers may fill and read it concurrently. Memo hits are allocation-free
// (heterogeneous key lookup on the group span).
//
// The memo is BOUNDED: an insert that finds it full clears it first, so
// adversarial ad-hoc group churn cannot grow it without bound. Entries are
// handed out as shared_ptrs — a problem assembled from a bitmap that gets
// cleared mid-flight keeps its copy alive through the arena's pin
// (topk/problem.h), so a clear is never a correctness event. The count of
// dropped entries sits next to the hit/miss counters for observability.
#ifndef GRECA_API_SNAPSHOT_H_
#define GRECA_API_SNAPSHOT_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
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

/// One group's candidate-pool exclusion state: the §2.4 already-rated
/// tombstone bitmap (1 bit per pool key, set = excluded) plus the live-key
/// count an assembled problem needs alongside it.
struct TombstoneSet {
  std::vector<std::uint64_t> words;
  std::size_t live = 0;
};

/// Memoized (group, pool-prefix) → tombstone bitmap. Bitmaps depend on the
/// group members' rated items — base rows plus the live delta log — so a
/// memo is scoped to ONE snapshot generation (Snapshot creates a fresh one
/// per publish, so invalidation is free). Batch workloads repeat groups
/// constantly, and between publishes every repeat skips the per-member
/// rated-item walk.
///
/// Internally synchronized. Bitmaps are built OUTSIDE the lock (a lost
/// insert race discards the duplicate build) and handed out as shared_ptrs,
/// so an entry dropped mid-flight stays alive for every holder.
class TombstoneCache {
 public:
  /// Default residency cap: bitmaps are a few hundred bytes each (pool/8),
  /// so the worst-case resident set stays in the low MB.
  static constexpr std::size_t kDefaultMaxEntries = 4'096;

  /// `max_entries` must be >= 1. An insert that finds the memo holding
  /// `max_entries` bitmaps clears it first.
  explicit TombstoneCache(std::size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries) {
    assert(max_entries_ >= 1);
  }

  /// The bitmap for (group, pool), built via `build` — a callable returning
  /// std::shared_ptr<const TombstoneSet> — on first use. The group is
  /// significant in ORDER; the validated query path always presents a
  /// canonical order. Problem assembly pins the returned set for the
  /// problem's lifetime.
  template <typename Builder>
  std::shared_ptr<const TombstoneSet> GetShared(std::span<const UserId> group,
                                                std::size_t pool,
                                                Builder&& build) {
    const KeyView probe{group, pool};
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = cache_.find(probe);  // heterogeneous: no key allocation
      if (it != cache_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    // Build outside the lock so a slow build never stalls other readers'
    // hits.
    std::shared_ptr<const TombstoneSet> built = build();
    Key key{std::vector<UserId>(group.begin(), group.end()), pool};
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = cache_.find(probe);
    if (it != cache_.end()) {  // a racing builder inserted it first
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    if (cache_.size() >= max_entries_) {
      evictions_.fetch_add(cache_.size(), std::memory_order_relaxed);
      cache_.clear();
    }
    cache_.emplace(std::move(key), built);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return built;
  }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Entries dropped by full-memo clears (0 while the working set fits).
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }
  /// Resident bytes: keys, bookkeeping and bitmaps.
  std::size_t MemoryBytes() const;

 private:
  struct Key {
    std::vector<UserId> group;
    std::size_t pool = 0;
  };
  /// Allocation-free probe key over a caller-owned span.
  struct KeyView {
    std::span<const UserId> group;
    std::size_t pool = 0;
  };
  struct KeyHash {
    using is_transparent = void;
    static std::size_t Mix(std::span<const UserId> group, std::size_t pool) {
      // FNV-1a over the member ids and the pool.
      std::uint64_t h = 1469598103934665603ull;
      auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
      };
      for (const UserId u : group) mix(u);
      mix(0xABCDull);
      mix(pool);
      return static_cast<std::size_t>(h);
    }
    std::size_t operator()(const Key& k) const { return Mix(k.group, k.pool); }
    std::size_t operator()(const KeyView& k) const {
      return Mix(k.group, k.pool);
    }
  };
  struct KeyEqual {
    using is_transparent = void;
    static bool Eq(std::span<const UserId> a, std::size_t pa,
                   std::span<const UserId> b, std::size_t pb) {
      return pa == pb && std::ranges::equal(a, b);
    }
    bool operator()(const Key& a, const Key& b) const {
      return Eq(a.group, a.pool, b.group, b.pool);
    }
    bool operator()(const KeyView& a, const Key& b) const {
      return Eq(a.group, a.pool, b.group, b.pool);
    }
    bool operator()(const Key& a, const KeyView& b) const {
      return Eq(a.group, a.pool, b.group, b.pool);
    }
  };

  const std::size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<Key, std::shared_ptr<const TombstoneSet>, KeyHash,
                     KeyEqual>
      cache_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// One study participant's CF-predicted ratings (universe scale), one slot
/// per universe item. Immutable and shared across generations until that
/// participant's ratings change: a publish replaces only the touched rows.
using PredictionRow = std::shared_ptr<const std::vector<Score>>;

class Snapshot {
 public:
  /// All parts must be non-null, and so must every prediction row; the
  /// snapshot shares their ownership (the overlay's base may alias
  /// caller-owned storage on the initial generation — see GroupRecommender
  /// construction). The tombstone cache is ALWAYS fresh per snapshot
  /// (bitmaps depend on the ratings overlay, which changes every publish)
  /// and bounded at TombstoneCache's default cap.
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
  /// The generation-scoped (group, pool) → tombstone-bitmap memo (see
  /// TombstoneCache for the scoping rationale; its counters start at zero
  /// with every publish). Internally synchronized mutable state on an
  /// otherwise-immutable snapshot, hence the const accessor.
  TombstoneCache& tombstone_cache() const { return tombstone_cache_; }

 private:
  const std::uint64_t generation_;
  const std::shared_ptr<const RatingsOverlay> ratings_;
  const std::vector<PredictionRow> predictions_;
  const std::shared_ptr<const PreferenceIndex> index_;
  mutable TombstoneCache tombstone_cache_;
};

}  // namespace greca

#endif  // GRECA_API_SNAPSHOT_H_
