// The shared, immutable preference index behind zero-copy problem assembly.
//
// The paper precomputes one CF-predicted preference list per user (§3.1); the
// seed nevertheless re-sorted and re-copied |G| lists of up to 3 900 entries
// inside every BuildProblem call — the dominant per-query cost at scale
// (§4.2's candidate-pool sweep exists precisely because list preparation
// dominates). This index moves that work to construction time: for every
// study participant it stores one row over the popular-item pool, sorted by
// descending predicted preference, plus a key→position array for random
// access.
//
// Keys are pool positions (popularity ranks), so a query's candidate pool of
// size C is simply the key prefix [0, C): UserView() restricts a stored row
// to that prefix and tombstones the group's already-rated items via a bitmap
// — no per-query sort, copy, or re-keying. One index snapshot is shared
// read-only by every batch worker (src/api/engine.h).
//
// Row storage is structure-of-arrays within a row: parallel key (uint32)
// and score (double) arrays instead of interleaved (key, score) structs. The
// serving hot loop — the tombstone-skip scan — tests liveness from keys
// alone, so it reads 4 bytes per entry (vs 16 padded) and vectorizes over
// the bare key array (topk/simd.h); scores are only touched for entries
// actually consumed. Each row is stored once, in global order: 12
// bytes/entry of row payload (key + score) plus 4 bytes/entry of
// key→position map, 16 bytes per pool item in all.
//
// Rows live in fixed-size pages. A page is one immutable heap block holding
// rows_per_page() consecutive row records (the last page may hold fewer); a
// row record is contiguous — scores, then keys, then the key→position map —
// so every view over a row is a plain span and the scan and SIMD code never
// sees a page. rows_per_page() is the largest power of two whose records
// fit in kPageBytes (at least one row), which keeps a page under glibc's
// mmap threshold: allocations and frees recycle heap memory instead of
// faulting fresh mappings. Row u is pages_[u >> shift] + (u & mask) ·
// record bytes: one page-table load per member lookup, none per entry.
//
// A prefix-restricted UserView walks the whole row and skips the
// out-of-prefix keys uncounted, so results and access counts are those of
// a list over exactly the prefix.
//
// Live updates never mutate a published index. When ratings change, the
// writer calls CloneWithUpdatedRows() with the affected users' fresh CF
// predictions. The clone copies the page table and gives each page holding
// a touched row one fresh block, in which it rebuilds the touched rows; the
// block starts as a copy of the parent's page unless every row of the page
// is rebuilt (always the case at one row per page). Every other page stays
// shared with the parent generation (shared_ptr), as do the pool and the
// item→key map. A row rebuild is linear in P: one stable LSD radix sort
// over the score bits. A publish
// therefore costs O(pages + partly rewritten pages × kPageBytes + touched
// rows × P), not O(population × P). The clone is
// published inside a new Snapshot (src/api/snapshot.h) via atomic pointer
// swap — readers holding the old index keep its pages alive and are
// unaffected; a page is freed when the last generation that references it
// goes.
#ifndef GRECA_INDEX_PREFERENCE_INDEX_H_
#define GRECA_INDEX_PREFERENCE_INDEX_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "topk/list_view.h"

namespace greca {

class ThreadPool;

class PreferenceIndex {
 public:
  /// PoolPositionOf() marker for items outside the popular-item pool.
  static constexpr std::uint32_t kNotPooled = 0xFFFFFFFFu;

  /// Byte budget of one row page (see the header comment): a page holds
  /// the largest power-of-two number of row records that fits, and at least
  /// one.
  static constexpr std::size_t kPageBytes = std::size_t{64} << 10;

  /// Builds the index: one sorted row per user in `predictions` (each a
  /// per-ItemId prediction array covering every universe item) over `pool`
  /// (universe items in popularity order). Scores are predictions / scale_max
  /// clamped to [0, 1] (NaN reads as 0); `num_universe_items` sizes the
  /// reverse item→pool map. Pool items >= `num_universe_items` and repeats
  /// are dropped (the first occurrence of an item keeps its place); pool()
  /// reports what remains.
  static PreferenceIndex Build(
      std::span<const std::vector<Score>> predictions, double scale_max,
      std::vector<ItemId> pool, std::size_t num_universe_items);

  /// Fills raw (universe-scale, un-normalized) scores for one row, one slot
  /// per POOL POSITION: out[key] is the prediction for pool[key]. The
  /// contract deliberately skips the per-universe-item indirection of
  /// Build() so million-row builds never materialize a num_rows ×
  /// num_universe_items prediction matrix.
  using PoolScoreFiller = std::function<void(
      UserId row, std::span<const ItemId> pool, std::span<Score> out)>;

  /// Streaming twin of Build() for populations too large to hold full
  /// per-item prediction arrays: `fill` produces each row's pool scores on
  /// demand (called once per row, from multiple threads when `threads` is
  /// non-null — it must be safe for concurrent calls on distinct rows).
  /// Rows are bit-identical to Build() fed predictions p with
  /// p[pool[key]] == filled out[key].
  static PreferenceIndex BuildStreaming(
      std::size_t num_rows, const PoolScoreFiller& fill, double scale_max,
      std::vector<ItemId> pool, std::size_t num_universe_items,
      ThreadPool* threads = nullptr);

  /// Incremental rebuild for live updates: a new generation of this index
  /// in which the rows of `users` (parallel to `predictions`: predictions[i]
  /// is a view of users[i]'s fresh per-ItemId prediction array) are
  /// re-normalized and re-sorted; every other row reads bit-identically and
  /// shares its page with this index (copy-on-write, see the header
  /// comment). A user listed twice keeps its last entry. The pool, the
  /// item→key map and the score normalization (scale_max) are inherited.
  /// Cost: one page-table copy, one kPageBytes copy per touched page that
  /// keeps some parent rows (none when every row of the page is updated)
  /// and O(pool) per updated row.
  PreferenceIndex CloneWithUpdatedRows(
      std::span<const UserId> users,
      std::span<const std::span<const Score>> predictions) const;

  /// CloneWithUpdatedRows twin fed pool-position scores instead of
  /// per-universe-item predictions: pool_scores[i][key] is users[i]'s raw
  /// (universe-scale) score for pool()[key] — the per-shard publish path,
  /// where full per-item arrays never exist. Same layout, normalization,
  /// ordering and page-sharing guarantees as CloneWithUpdatedRows.
  PreferenceIndex CloneWithUpdatedPoolRows(
      std::span<const UserId> users,
      std::span<const std::span<const Score>> pool_scores) const;

  std::size_t num_users() const { return num_users_; }
  std::size_t pool_size() const { return pool_size_; }
  /// Rows per page (a power of two; the last page may hold fewer).
  std::size_t rows_per_page() const { return std::size_t{1} << page_shift_; }

  /// The popular-item pool in key order: pool()[key] is the universe item of
  /// candidate key `key` for every prefix slice.
  std::span<const ItemId> pool() const { return key_space_->pool; }

  /// Pool position (== candidate key) of a universe item, or kNotPooled.
  std::uint32_t PoolPositionOf(ItemId item) const {
    const std::vector<std::uint32_t>& of_item = key_space_->position_of_item;
    return item < of_item.size() ? of_item[item] : kNotPooled;
  }

  /// User `u`'s full row (descending score, ties by ascending key): parallel
  /// key/score arrays, UserKeys(u)[p] scored UserScores(u)[p].
  std::span<const ListKey> UserKeys(UserId u) const {
    return {RowWords(Row(u)), pool_size_};
  }
  std::span<const Score> UserScores(UserId u) const {
    return {RowScores(Row(u)), pool_size_};
  }

  /// Non-owning preference list of user `u` restricted to the candidate-pool
  /// prefix [0, prefix) minus the keys tombstoned in `tombstones` (which,
  /// with `live_entries`, the caller derives from the group's rated items —
  /// all members share both). The view is valid as long as this index and
  /// the tombstone buffer live.
  ListView UserView(UserId u, std::size_t prefix,
                    std::span<const std::uint64_t> tombstones,
                    std::size_t live_entries) const {
    const std::size_t pool_size = pool_size_;
    assert(prefix <= pool_size);
    const std::byte* const row = Row(u);
    const std::uint32_t* const words = RowWords(row);
    return ListView({words, pool_size}, {RowScores(row), pool_size},
                    {words + pool_size, pool_size}, prefix, live_entries,
                    tombstones);
  }

  /// Logical resident size: every row and map this index references,
  /// whether or not another generation shares them (page slack aside).
  std::size_t MemoryBytes() const {
    return num_users_ * row_bytes_ +
           key_space_->pool.size() * sizeof(ItemId) +
           key_space_->position_of_item.size() * sizeof(std::uint32_t);
  }

 private:
  /// Everything a clone inherits unchanged, shared across generations: the
  /// pool and the item→key map.
  struct KeySpace {
    std::vector<ItemId> pool;                     // key -> universe item
    std::vector<std::uint32_t> position_of_item;  // item -> key
  };

  /// One page: the row records of rows_per_page() consecutive rows (fewer
  /// on the last page), immutable once published.
  using Page = std::shared_ptr<const std::byte[]>;
  using MutablePage = std::shared_ptr<std::byte[]>;

  PreferenceIndex() = default;

  /// Row record of user `u`. Record layout (P = pool size):
  ///   Score[P] scores, uint32[P] keys, uint32[P] key→position.
  const std::byte* Row(UserId u) const {
    assert(u < num_users_);
    return pages_[u >> page_shift_].get() + RecordOffset(u);
  }
  /// Byte offset of user `u`'s record within its page.
  std::size_t RecordOffset(UserId u) const {
    return (u & (rows_per_page() - 1)) * row_bytes_;
  }
  static const Score* RowScores(const std::byte* row) {
    return reinterpret_cast<const Score*>(row);
  }
  const std::uint32_t* RowWords(const std::byte* row) const {
    return reinterpret_cast<const std::uint32_t*>(row + words_offset_);
  }

  /// User `u`'s row with its key→position map, keys[positions[key]] ==
  /// key. Only the tests read the map directly; queries go through
  /// UserView.
  struct RowOrder {
    std::span<const ListKey> keys;
    std::span<const Score> scores;
    std::span<const std::uint32_t> positions;
  };
  RowOrder UserOrder(UserId u) const {
    const std::size_t p = pool_size_;
    const std::byte* const row = Row(u);
    const std::uint32_t* const words = RowWords(row);
    return {{words, p}, {RowScores(row), p}, {words + p, p}};
  }
  friend class PreferenceIndexTestPeer;

  /// Rows held by page `page` (rows_per_page() except on a partial last
  /// page).
  std::size_t PageRows(std::size_t page) const;
  /// A fresh, uninitialized page sized for PageRows(page) records.
  MutablePage NewPage(std::size_t page) const;

  /// Writes one row record at `row` — the sorted row and its key→position
  /// map — from a raw score per pool position (pool_scores[key] scores
  /// pool()[key]; NaN is stored as 0). Linear in the pool size: one stable
  /// radix sort. Internal: only called on pages not yet published. Safe to
  /// call concurrently on DISTINCT records (the sort
  /// scratch is thread-local) — the parallel build path relies on that.
  void FillRow(std::byte* row, std::span<const Score> pool_scores) const;

  /// Installs the pool, the item→key map and the page geometry —
  /// everything before the pages are allocated and filled.
  void InitLayout(std::size_t num_rows, double scale_max,
                  std::vector<ItemId> pool, std::size_t num_universe_items);

  std::size_t num_users_ = 0;
  std::size_t pool_size_ = 0;
  double scale_max_ = 1.0;  // score normalization
  std::shared_ptr<const KeySpace> key_space_;
  // Page geometry: row u is record (u & (rows_per_page() - 1)) of page
  // u >> page_shift_; a record is row_bytes_ long and its uint32 arrays
  // start words_offset_ bytes in (after the Score array).
  std::size_t page_shift_ = 0;
  std::size_t row_bytes_ = 0;
  std::size_t words_offset_ = 0;
  std::vector<Page> pages_;
};

}  // namespace greca

#endif  // GRECA_INDEX_PREFERENCE_INDEX_H_
