// Non-owning view over a score-sorted list — the access layer every top-k
// algorithm (Naive, TA, GRECA) consumes.
//
// A ListView is a pair of parallel spans (keys, scores — the SoA layout of
// sorted_list.h / index/preference_index.h) plus a key→position span,
// optionally restricted to a key-space prefix and filtered by a tombstone
// bitmap. The restriction mechanism is what makes zero-copy problem assembly
// possible: the shared PreferenceIndex stores one read-only row per user
// over the full popular-item pool, and a query slices it by prefix (its
// candidate-pool size) while tombstoning the group's already-rated items —
// no re-sort, no re-key, no copy. Liveness of an entry depends only on its
// key, so the skip scans read the 4-byte key array alone — one cache line
// covers 16 entries, and the scan vectorizes (topk/simd.h: 8 lanes per
// iteration under AVX2, scalar under -DGRECA_SIMD=OFF, bit-identical
// positions either way).
//
// Sequential access is a linear walk over the globally score-sorted span.
// Exhausting a prefix-restricted view passes every out-of-prefix entry of
// the row, uncounted, and the skip scan reads only their keys.
//
// Tombstoned entries are transparent: sequential access skips them without
// counting, random access reads them as absent (0.0), and size() reports
// only live entries — so access accounting is identical to an owning
// SortedList that materialized exactly the live entries.
//
// The sequential cursor is a raw position: callers initialize it to 0 and
// hand it back to SkipToLive / ReadSequential / PeekScore unmodified. A view
// is a plain value that no read changes, so any number of threads may read
// one view at once.
//
// A ListView never owns storage. The wrapped SortedList / PreferenceIndex /
// tombstone buffer must outlive the view; the buffers live either in a
// ProblemArena (reused per worker) or inside the GroupProblem itself.
#ifndef GRECA_TOPK_LIST_VIEW_H_
#define GRECA_TOPK_LIST_VIEW_H_

#include <cassert>
#include <cstdint>
#include <span>

#include "topk/access_counter.h"
#include "topk/simd.h"
#include "topk/sorted_list.h"

namespace greca {

/// Cache-line aligned: solvers read the spans of every member's view on
/// each step, from views stored side by side. Unaligned, a view straddles
/// two lines, and serving query latency measured ~5% higher.
class alignas(64) ListView {
 public:
  ListView() = default;

  /// Adapter over an owning SortedList: full key space, nothing tombstoned.
  explicit ListView(const SortedList& list)
      : keys_(list.keys()),
        scores_(list.scores()),
        position_of_key_(list.key_positions()),
        key_space_(list.key_space()),
        live_entries_(list.size()) {}

  /// `keys`/`scores` are parallel arrays sorted by descending score (ties
  /// ascending key) and may contain keys >= `key_space` (a prefix
  /// restriction of a larger index row); those and the keys whose bit is
  /// set in `tombstones` are dead. `live_entries` must equal the number of
  /// live entries and `tombstones` (when non-empty) must cover keys
  /// [0, key_space).
  ListView(std::span<const ListKey> keys, std::span<const Score> scores,
           std::span<const std::uint32_t> position_of_key,
           std::size_t key_space, std::size_t live_entries,
           std::span<const std::uint64_t> tombstones = {})
      : keys_(keys),
        scores_(scores),
        position_of_key_(position_of_key),
        tombstones_(tombstones),
        key_space_(key_space),
        live_entries_(live_entries) {
    assert(keys_.size() == scores_.size());
    assert(position_of_key_.size() >= key_space_);
    assert(tombstones_.empty() || tombstones_.size() >= (key_space_ + 63) / 64);
  }

  /// Number of live (non-tombstoned, in-prefix) entries.
  std::size_t size() const { return live_entries_; }
  bool empty() const { return live_entries_ == 0; }
  /// Keys run in [0, key_space()).
  std::size_t key_space() const { return key_space_; }

  /// True when `key` lies outside the prefix or is tombstoned.
  bool IsTombstoned(ListKey key) const {
    return simd::IsDeadKey(key, key_space_,
                           tombstones_.empty() ? nullptr : tombstones_.data());
  }

  /// Advances `cursor` to the next live entry; returns false when the list
  /// is exhausted. Skipping dead entries is uncounted — they do not exist as
  /// far as access accounting is concerned.
  bool SkipToLive(std::size_t& cursor) const {
    cursor = FindFirstLive(cursor);
    return cursor < keys_.size();
  }

  /// Counted sequential access: reads the live entry at `cursor` and advances
  /// it. The caller must have established liveness via SkipToLive.
  ListEntry ReadSequential(std::size_t& cursor, AccessCounter& counter) const {
    ++counter.sequential;
    assert(cursor < keys_.size() && !IsTombstoned(keys_[cursor]));
    const std::size_t pos = cursor++;
    return {keys_[pos], scores_[pos]};
  }

  /// Uncounted score of the live entry at `cursor` — the entry the next
  /// ReadSequential would return. The caller must have established liveness
  /// via SkipToLive (TA seeds its threshold bounds through this without
  /// paying a second walk over the dead prefix).
  double PeekScore(std::size_t cursor) const {
    assert(cursor < keys_.size() && !IsTombstoned(keys_[cursor]));
    return scores_[cursor];
  }

  /// Uncounted exact score of `key`; 0.0 for tombstoned, missing or
  /// out-of-range keys (same absent-key contract as SortedList::ScoreOfKey).
  double ScoreOfKey(ListKey key) const {
    if (IsTombstoned(key)) return 0.0;
    const std::uint32_t pos = position_of_key_[key];
    return pos == kMissingPosition ? 0.0 : scores_[pos];
  }

  /// Counted random access by key.
  double RandomAccess(ListKey key, AccessCounter& counter) const {
    ++counter.random;
    return ScoreOfKey(key);
  }

 private:
  /// The one scan primitive: first live position at or after `begin` in the
  /// key array (vectorized under GRECA_SIMD).
  std::size_t FindFirstLive(std::size_t begin) const {
    return simd::FindFirstLive(
        keys_.data(), begin, keys_.size(), key_space_,
        tombstones_.empty() ? nullptr : tombstones_.data());
  }

  std::span<const ListKey> keys_;    // sorted order, parallel to scores_
  std::span<const Score> scores_;
  std::span<const std::uint32_t> position_of_key_;
  std::span<const std::uint64_t> tombstones_;  // empty = nothing tombstoned
  std::size_t key_space_ = 0;
  std::size_t live_entries_ = 0;
};

// Two cache lines: the layout moves GRECA/TA query latency by several
// percent, so a change to it must be measured, not incidental.
static_assert(sizeof(ListView) == 128);

}  // namespace greca

#endif  // GRECA_TOPK_LIST_VIEW_H_
