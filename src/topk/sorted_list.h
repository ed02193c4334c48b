// Score-sorted input lists for Fagin-style top-k processing (paper §3.1).
//
// A SortedList holds (key, score) entries in decreasing score order and
// supports the two access modes of the threshold-algorithm family:
// counted sequential access (SA) down the list and counted random access
// (RA) by key. Keys form a dense space [0, key_space); preference lists use
// candidate-item keys, affinity lists use local pair indices.
//
// Storage is structure-of-arrays: parallel key (uint32) and score (double)
// arrays instead of interleaved (key, score) structs. Key-only operations —
// the tombstone-skip scans of the ListView layer — then read 4 bytes per
// entry instead of a 16-byte padded struct, and the key array is directly
// vectorizable (topk/simd.h). Entry-shaped values still cross the API
// (ListEntry by value); ListEntryOrder below stays THE order of every sort
// in the system (PreferenceIndex rows are radix-sorted into exactly it).
//
// SortedList owns its storage. The algorithms themselves consume the
// non-owning ListView (list_view.h), which either wraps a SortedList or
// slices the shared PreferenceIndex; SortedList remains the owning building
// block for per-query affinity/agreement lists and for tests/benches that
// compose problems directly.
#ifndef GRECA_TOPK_SORTED_LIST_H_
#define GRECA_TOPK_SORTED_LIST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "topk/access_counter.h"

namespace greca {

using ListKey = std::uint32_t;
using ListEntry = ScoredEntry<ListKey>;

/// Sentinel in key→position arrays for keys without an entry.
inline constexpr std::uint32_t kMissingPosition = 0xFFFFFFFFu;

/// THE list order: descending score, ties by ascending key. Every sorted
/// structure shares it — owning SortedLists and PreferenceIndex rows, which
/// ListViews walk as stored. The owning-vs-view bit-identical guarantee
/// rests on both agreeing on exactly this order, so never re-spell the
/// comparison inline. The one deliberate second spelling is the radix
/// sort that produces PreferenceIndex rows (index/preference_index.cc): its
/// DescendingKey (-0.0 folded onto +0.0, score bits inverted) plus a stable
/// sort over ascending keys yield this order, and the test
/// PreferenceIndexRadixTest.RowsMatchStableSortReference pins the two
/// together. Any change here must change DescendingKey too.
struct ListEntryOrder {
  constexpr bool operator()(const ListEntry& a, const ListEntry& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }
};

class SortedList {
 public:
  SortedList() = default;

  /// Sorts `entries` by descending score (ties by ascending key). Every key
  /// must be < key_space and appear at most once. Allocates fresh storage —
  /// hot paths that rebuild a list per query use AssignUnsorted instead.
  static SortedList FromUnsorted(std::vector<ListEntry> entries,
                                 ListKey key_space);

  /// Rebuilds this list in place from `entries` (same contract as
  /// FromUnsorted), reusing the existing buffer capacity so steady-state
  /// per-query lists allocate nothing.
  void AssignUnsorted(std::span<const ListEntry> entries, ListKey key_space);

  /// Process-wide FromUnsorted call count. Lets tests assert the zero-copy
  /// assembly path performs no per-query preference-list sort/copy.
  static std::uint64_t FromUnsortedCalls();

  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  ListKey key_space() const {
    return static_cast<ListKey>(position_of_key_.size());
  }

  /// Raw SoA storage views consumed by the ListView adapter. keys()[p] and
  /// scores()[p] are the p-th entry in sorted order.
  std::span<const ListKey> keys() const { return keys_; }
  std::span<const Score> scores() const { return scores_; }
  std::span<const std::uint32_t> key_positions() const {
    return position_of_key_;
  }

  /// Uncounted positional peek (internal bookkeeping, tests, exact scoring).
  ListEntry entry(std::size_t pos) const {
    return {keys_[pos], scores_[pos]};
  }

  /// Counted sequential access at `pos` (callers advance their own cursor).
  ListEntry ReadSequential(std::size_t pos, AccessCounter& counter) const {
    ++counter.sequential;
    return {keys_[pos], scores_[pos]};
  }

  /// Uncounted exact score of `key`; 0.0 when the key has no entry. Keys
  /// outside the key space are defined as absent (0.0) rather than UB, so
  /// callers probing a larger key space stay safe in every build mode.
  double ScoreOfKey(ListKey key) const {
    if (key >= position_of_key_.size()) return 0.0;
    const std::uint32_t pos = position_of_key_[key];
    return pos == kMissingPosition ? 0.0 : scores_[pos];
  }

  /// Counted random access by key.
  double RandomAccess(ListKey key, AccessCounter& counter) const {
    ++counter.random;
    return ScoreOfKey(key);
  }

  /// Highest score in the list (0.0 for empty lists).
  double MaxScore() const { return scores_.empty() ? 0.0 : scores_[0]; }

 private:
  /// Sorts `entries` with ListEntryOrder and scatters them into the SoA
  /// arrays + the key→position map.
  void FillFromSorted(std::span<ListEntry> entries, ListKey key_space);

  std::vector<ListKey> keys_;     // sorted order, parallel to scores_
  std::vector<Score> scores_;
  std::vector<std::uint32_t> position_of_key_;  // key -> position or missing
};

}  // namespace greca

#endif  // GRECA_TOPK_SORTED_LIST_H_
