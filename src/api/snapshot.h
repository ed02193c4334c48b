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
// What does NOT change with ratings is not in a Snapshot. The AffinitySource
// and the (group, period) PeriodListCache below are fixed at construction
// and owned by the engine (GroupRecommender, ShardedEngine): a period list
// depends only on (group, period) and the source — not on the candidate
// pool and not on ratings — so every generation shares one cache and a
// steady rating-update stream never re-colds it.
//
// Thread-safety: a Snapshot is const after construction except its
// tombstone cache, and both memo caches below are internally synchronized —
// any number of batch workers may fill and read them concurrently. Cache
// hits are allocation-free (heterogeneous key lookup on the group span).
//
// Both caches are BOUNDED: at most max_entries values stay resident,
// evicted least-recently-used once the cap is hit, so adversarial ad-hoc
// group churn cannot grow them without bound. Entries are handed out as
// shared_ptrs — a problem assembled from a list that gets evicted mid-flight
// keeps its copy alive through the arena's pins (topk/problem.h), so
// eviction is never a correctness event. Eviction counters sit next to the
// hit/miss counters for observability.
#ifndef GRECA_API_SNAPSHOT_H_
#define GRECA_API_SNAPSHOT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "affinity/affinity_source.h"
#include "common/types.h"
#include "dataset/ratings.h"
#include "dataset/ratings_overlay.h"
#include "index/preference_index.h"
#include "topk/sorted_list.h"

namespace greca {

/// The bounded-LRU machinery shared by the two memo caches
/// (PeriodListCache, TombstoneCache): (ordered group, uint64 tag) →
/// immutable shared value, internally synchronized, with hit/miss/eviction
/// counters. Values are built OUTSIDE the lock (a lost insert race discards
/// the duplicate build) and handed out as shared_ptrs, so an entry evicted
/// mid-flight stays alive for every holder — eviction is never a
/// correctness event.
template <typename Value>
class BoundedGroupCache {
 public:
  /// `max_entries` == 0 means unbounded (no eviction ever).
  explicit BoundedGroupCache(std::size_t max_entries)
      : max_entries_(max_entries) {}

  /// The cached value for (group, tag), built via `build` — a callable
  /// returning std::shared_ptr<const Value> — on first use. The group is
  /// significant in ORDER; the validated query path always presents a
  /// canonical order.
  template <typename Builder>
  std::shared_ptr<const Value> GetOrBuild(std::span<const UserId> group,
                                          std::uint64_t tag, Builder&& build) {
    const KeyView probe{group, tag};
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = cache_.find(probe);  // heterogeneous: no key allocation
      if (it != cache_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        it->second.last_used = ++use_clock_;
        return it->second.value;
      }
    }
    // Build outside the lock so a slow build never stalls other readers'
    // cache hits.
    std::shared_ptr<const Value> built = build();
    Key key{std::vector<UserId>(group.begin(), group.end()), tag};
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = cache_.try_emplace(std::move(key));
    if (inserted) {
      it->second.value = std::move(built);
      misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    it->second.last_used = ++use_clock_;
    std::shared_ptr<const Value> result = it->second.value;
    // Evict AFTER grabbing the result: even a cap of 1 under heavy churn
    // hands every caller a live value (the shared_ptr outlives residency).
    EvictIfNeededLocked();
    return result;
  }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Entries dropped by the LRU cap (0 while the working set fits).
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::size_t max_entries() const { return max_entries_; }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }

  /// Resident bytes: the key/bookkeeping overhead plus `value_bytes(v)` per
  /// resident value, accumulated under the lock.
  template <typename Fn>
  std::size_t MemoryBytes(Fn&& value_bytes) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t bytes = 0;
    for (const auto& [key, entry] : cache_) {
      bytes += key.group.size() * sizeof(UserId) + sizeof(Key) + sizeof(Entry);
      bytes += value_bytes(*entry.value);
    }
    return bytes;
  }

 private:
  struct Key {
    std::vector<UserId> group;
    std::uint64_t tag = 0;
  };
  /// Allocation-free probe key over a caller-owned span.
  struct KeyView {
    std::span<const UserId> group;
    std::uint64_t tag = 0;
  };
  struct KeyHash {
    using is_transparent = void;
    static std::size_t Mix(std::span<const UserId> group, std::uint64_t tag) {
      // FNV-1a over the member ids and the tag.
      std::uint64_t h = 1469598103934665603ull;
      auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
      };
      for (const UserId u : group) mix(u);
      mix(0xABCDull);
      mix(tag);
      return static_cast<std::size_t>(h);
    }
    std::size_t operator()(const Key& k) const { return Mix(k.group, k.tag); }
    std::size_t operator()(const KeyView& k) const {
      return Mix(k.group, k.tag);
    }
  };
  struct KeyEqual {
    using is_transparent = void;
    static bool Eq(std::span<const UserId> a, std::uint64_t ta,
                   std::span<const UserId> b, std::uint64_t tb) {
      return ta == tb && std::ranges::equal(a, b);
    }
    bool operator()(const Key& a, const Key& b) const {
      return Eq(a.group, a.tag, b.group, b.tag);
    }
    bool operator()(const KeyView& a, const Key& b) const {
      return Eq(a.group, a.tag, b.group, b.tag);
    }
    bool operator()(const Key& a, const KeyView& b) const {
      return Eq(a.group, a.tag, b.group, b.tag);
    }
  };

  /// One resident value plus its recency stamp. shared_ptr values keep
  /// addresses stable across rehashes AND alive across eviction.
  struct Entry {
    std::shared_ptr<const Value> value;
    std::uint64_t last_used = 0;
  };

  /// Drops least-recently-used entries until size() <= max_entries_.
  /// Requires mu_ held. O(size) per eviction — evictions only happen on
  /// misses, which already pay a full value build.
  void EvictIfNeededLocked() {
    while (max_entries_ > 0 && cache_.size() > max_entries_) {
      auto victim = cache_.begin();
      for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if (it->second.last_used < victim->second.last_used) victim = it;
      }
      cache_.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const std::size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash, KeyEqual> cache_;
  std::uint64_t use_clock_ = 0;  // guarded by mu_
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Memoized (group, period) → materialized periodic-affinity pair list.
/// Internally synchronized; one per engine, built at construction next to
/// the engine's AffinitySource and shared by every rating generation.
/// Entries are immutable and pointer-stable.
class PeriodListCache {
 public:
  /// Default residency cap: generous for real batch workloads (which repeat
  /// a few hundred groups × a handful of periods) while bounding adversarial
  /// group churn to a few MB of pair lists.
  static constexpr std::size_t kDefaultMaxEntries = 8'192;

  /// `max_entries` == 0 means unbounded (no eviction ever).
  explicit PeriodListCache(std::size_t max_entries = kDefaultMaxEntries)
      : cache_(max_entries) {}

  /// The cached list for (group, p), materialized through `source` on first
  /// use. The returned shared_ptr keeps the list alive across eviction —
  /// problem assembly pins it for the problem's lifetime.
  std::shared_ptr<const SortedList> GetShared(std::span<const UserId> group,
                                              PeriodId p,
                                              const AffinitySource& source);

  std::uint64_t hits() const { return cache_.hits(); }
  std::uint64_t misses() const { return cache_.misses(); }
  /// Entries dropped by the LRU cap (0 while the working set fits).
  std::uint64_t evictions() const { return cache_.evictions(); }
  std::size_t max_entries() const { return cache_.max_entries(); }
  std::size_t size() const { return cache_.size(); }
  std::size_t MemoryBytes() const;

 private:
  BoundedGroupCache<SortedList> cache_;
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
/// cache instance is scoped to ONE snapshot generation (Snapshot creates a
/// fresh one per publish, so invalidation is free). Batch workloads repeat groups constantly, and
/// between publishes every repeat skips the per-member rated-item walk.
class TombstoneCache {
 public:
  /// Default residency cap: bitmaps are a few hundred bytes each (pool/8),
  /// so the worst-case resident set stays in the low MB.
  static constexpr std::size_t kDefaultMaxEntries = 4'096;

  /// `max_entries` == 0 means unbounded (no eviction ever).
  explicit TombstoneCache(std::size_t max_entries = kDefaultMaxEntries)
      : cache_(max_entries) {}

  /// The cached bitmap for (group, pool), built via `build` — a callable
  /// returning std::shared_ptr<const TombstoneSet> — on first use. The
  /// returned shared_ptr keeps the set alive across eviction; problem
  /// assembly pins it for the problem's lifetime.
  template <typename Builder>
  std::shared_ptr<const TombstoneSet> GetShared(std::span<const UserId> group,
                                                std::size_t pool,
                                                Builder&& build) {
    return cache_.GetOrBuild(group, static_cast<std::uint64_t>(pool),
                             std::forward<Builder>(build));
  }

  std::uint64_t hits() const { return cache_.hits(); }
  std::uint64_t misses() const { return cache_.misses(); }
  /// Entries dropped by the LRU cap (0 while the working set fits).
  std::uint64_t evictions() const { return cache_.evictions(); }
  std::size_t max_entries() const { return cache_.max_entries(); }
  std::size_t size() const { return cache_.size(); }
  std::size_t MemoryBytes() const {
    return cache_.MemoryBytes([](const TombstoneSet& set) {
      return sizeof(TombstoneSet) +
             set.words.size() * sizeof(std::uint64_t);
    });
  }

 private:
  BoundedGroupCache<TombstoneSet> cache_;
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
