#include "api/snapshot.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace greca {

std::shared_ptr<const SortedList> PeriodListCache::GetShared(
    std::span<const UserId> group, PeriodId p, const AffinitySource& source) {
  return cache_.GetOrBuild(
      group, static_cast<std::uint64_t>(p),
      [&]() -> std::shared_ptr<const SortedList> {
        // Materialized outside the cache lock (see BoundedGroupCache);
        // concurrent builders of the same key race benignly (the loser
        // drops its copy).
        auto list = std::make_shared<SortedList>();
        std::vector<ListEntry> scratch;
        source.MaterializePeriodListInto(group, p, scratch, *list);
        return list;
      });
}

std::size_t PeriodListCache::MemoryBytes() const {
  return cache_.MemoryBytes([](const SortedList& list) {
    // SoA rows: 4-byte keys + 8-byte scores per entry, 4-byte positions per
    // key-space slot.
    return sizeof(SortedList) +
           list.size() * (sizeof(ListKey) + sizeof(Score)) +
           list.key_space() * sizeof(std::uint32_t);
  });
}

Snapshot::Snapshot(std::uint64_t generation,
                   std::shared_ptr<const RatingsOverlay> ratings,
                   std::vector<PredictionRow> predictions,
                   std::shared_ptr<const PreferenceIndex> index,
                   std::size_t tombstone_cache_max_entries)
    : generation_(generation),
      ratings_(std::move(ratings)),
      predictions_(std::move(predictions)),
      index_(std::move(index)),
      tombstone_cache_(tombstone_cache_max_entries) {
  assert(ratings_ != nullptr);
  assert(std::ranges::none_of(predictions_, [](const PredictionRow& row) {
    return row == nullptr;
  }));
  assert(index_ != nullptr);
}

}  // namespace greca
