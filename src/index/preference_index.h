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
// serving hot loops — tombstone-skip scans, band-head skips — test liveness
// from keys alone, so they read 4 bytes per entry (vs 16 padded) and
// vectorize over the bare key array (topk/simd.h); scores are only touched
// for entries actually consumed. 12 bytes/entry of row payload (key + score)
// plus 4 bytes/entry of position map, per stored order.
//
// Rows live in fixed-size pages. A page is one immutable heap block holding
// rows_per_page() consecutive row records (the last page may hold fewer); a
// row record is contiguous — band-order scores, flat-twin scores, then the
// band-order keys and key→position map and the flat twin's — so every view
// over a row is a plain span and the scan, SIMD and merge code never sees
// a page. rows_per_page() is the largest power of two whose records fit in
// kPageBytes (at least one row), which keeps a page under glibc's mmap
// threshold: allocations and frees recycle heap memory instead of
// faulting fresh mappings. Row u is pages_[u >> shift] + (u & mask) ·
// record bytes: one page-table load per member lookup, none per entry.
//
// Row layout. A row is partitioned into popularity bands: band b holds
// exactly the keys [band_begin[b], band_begin[b+1]), each band sorted
// independently (descending score, ties ascending key). A prefix-restricted
// UserView receives only the bands its prefix intersects, so an exhaustive
// sequential scan walks at most the next band boundary past the prefix
// (≤ 2× the prefix under the geometric grid) instead of the full row — the
// fix for the prefix-slice skip-tail pathology. ListView merges the band
// heads through a loser tree; merged order equals a global sort, so results
// and access counts are bit-identical across layouts. With a single band
// (the flat layout, band_begin = {0, pool}) the row is globally sorted and
// views degenerate to the plain linear walk — kept as an equivalence and
// bench baseline (RecommenderOptions::min_band_size = 0).
//
// A banded index additionally keeps each row in global (flat) order: when a
// prefix covers most of the row the band merge cannot pay for itself (few
// skipped entries, per-read head comparisons), so UserView serves the flat
// copy whenever the covered footprint exceeds half the row — large-prefix
// queries keep the exact pre-banding fast path. The dual order doubles
// per-row storage (MemoryBreakdownBytes() reports the split). Both engines
// always build it; Build(..., build_flat_twin = false) skips it, and wide
// prefixes then take the banded merge — same results, no twin bytes (the
// reference build of the sort-once test).
//
// Live updates never mutate a published index. When ratings change, the
// writer calls CloneWithUpdatedRows() with the affected users' fresh CF
// predictions. The clone copies the page table and gives each page holding
// a touched row one fresh block, in which it rebuilds the touched rows; the
// block starts as a copy of the parent's page unless every row of the page
// is rebuilt (always the case at one row per page). Every other page stays
// shared with the parent generation (shared_ptr), as do the pool and the
// item→key map. A row rebuild is linear in P: one stable LSD radix sort
// over the score bits serves the band order and the twin. A publish
// therefore costs O(pages + partly rewritten pages × kPageBytes + touched
// rows × P), not O(population × P). The clone is
// published inside a new Snapshot (src/api/snapshot.h) via atomic pointer
// swap — readers holding the old index keep its pages alive and are
// unaffected; a page is freed when the last generation that references it
// goes.
#ifndef GRECA_INDEX_PREFERENCE_INDEX_H_
#define GRECA_INDEX_PREFERENCE_INDEX_H_

#include <atomic>
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

  /// Resident-size split of one index (MemoryBreakdownBytes): the banded SoA
  /// rows, the global-order twin rows, and the pool/key maps.
  struct MemoryBreakdown {
    /// Band-order rows: keys + scores + key→position maps.
    std::size_t banded_bytes = 0;
    /// Global-order twin rows (0 on flat layouts or build_flat_twin=false).
    std::size_t flat_twin_bytes = 0;
    /// Pool vector, item→key map and the band grid.
    std::size_t map_bytes = 0;
    std::size_t total() const {
      return banded_bytes + flat_twin_bytes + map_bytes;
    }
  };

  /// Builds the index: one sorted row per user in `predictions` (each a
  /// per-ItemId prediction array covering every universe item) over `pool`
  /// (universe items in popularity order). Scores are predictions / scale_max
  /// clamped to [0, 1] (NaN reads as 0); `num_universe_items` sizes the
  /// reverse item→pool map.
  /// `band_breakpoints` are ascending interior pool-position breakpoints of
  /// the banded row layout; out-of-range or non-ascending values are
  /// dropped and the count is clamped to ListView::kMaxBands bands (a bad
  /// grid degrades to coarser bands, never to UB). Empty means one band —
  /// the flat, globally sorted layout. `build_flat_twin` = false skips the
  /// global-order twin of banded rows (halves row storage; wide prefixes
  /// then use the banded merge).
  static PreferenceIndex Build(
      std::span<const std::vector<Score>> predictions, double scale_max,
      std::vector<ItemId> pool, std::size_t num_universe_items,
      std::span<const std::uint32_t> band_breakpoints = {},
      bool build_flat_twin = true);

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
      std::span<const std::uint32_t> band_breakpoints = {},
      bool build_flat_twin = true, ThreadPool* threads = nullptr);

  /// The default banded grid: geometric (doubling) breakpoints
  /// {first_band, 2·first_band, ...} below `pool_size`, capped at
  /// ListView::kMaxBands bands. Guarantees a prefix P >= first_band / 2 walks
  /// at most 2·P entries per exhaustive scan (the next boundary past P).
  /// first_band == 0 yields no breakpoints (flat).
  static std::vector<std::uint32_t> GeometricBandBreakpoints(
      std::size_t pool_size, std::size_t first_band = 64);

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

  /// Number of popularity bands per row (1 = flat layout).
  std::size_t num_bands() const { return band_begin_.size() - 1; }
  /// Band boundaries as pool positions: band b = [bounds[b], bounds[b+1]).
  std::span<const std::uint32_t> band_boundaries() const {
    return band_begin_;
  }
  /// True when banded rows also carry the global-order twin (the wide-prefix
  /// fast path).
  bool has_flat_twin() const { return flat_twin_; }

  /// The popular-item pool in key order: pool()[key] is the universe item of
  /// candidate key `key` for every prefix slice.
  std::span<const ItemId> pool() const { return key_space_->pool; }

  /// Pool position (== candidate key) of a universe item, or kNotPooled.
  std::uint32_t PoolPositionOf(ItemId item) const {
    const std::vector<std::uint32_t>& of_item = key_space_->position_of_item;
    return item < of_item.size() ? of_item[item] : kNotPooled;
  }

  /// User `u`'s full row in band order (per-band descending score, ties by
  /// ascending key; globally sorted when num_bands() == 1): parallel
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
  /// all members share both). Only the bands the prefix intersects back the
  /// view, so exhausting it never walks past the first band boundary >=
  /// prefix; a prefix whose covered footprint exceeds half the row serves
  /// the flat-order copy instead when the twin exists (see the header
  /// comment — the merge cannot pay for itself there). The view is valid as
  /// long as this index and the tombstone buffer live.
  ListView UserView(UserId u, std::size_t prefix,
                    std::span<const std::uint64_t> tombstones,
                    std::size_t live_entries) const {
    const std::size_t pool_size = pool_size_;
    assert(prefix <= pool_size);
    const std::byte* const row = Row(u);
    const Score* const scores = RowScores(row);
    const std::uint32_t* const words = RowWords(row);
    // Band-order positions follow the band-order keys in the record.
    const std::span<const std::uint32_t> positions{words + pool_size,
                                                   pool_size};
    if (num_bands() == 1) {
      // Flat layout: the banded arrays ARE the globally sorted row.
      return ListView({words, pool_size}, {scores, pool_size}, positions,
                      prefix, live_entries, tombstones);
    }
    // Covered-band span: smallest nb with band_begin_[nb] >= prefix. The
    // grid is shared by every row, so the walk depends on the prefix alone;
    // batch traffic repeats a handful of pool sizes, so a single-entry memo
    // (packed (prefix+1, nb), 0 = cold) short-circuits it. Relaxed atomics:
    // a stale or torn-away entry only means a recompute from the immutable
    // grid, never a wrong span.
    std::size_t nb;
    const std::uint64_t memo =
        band_span_memo_.packed.load(std::memory_order_relaxed);
    if ((memo >> 32) == prefix + 1) {
      nb = static_cast<std::size_t>(memo & 0xFFFFFFFFull);
    } else {
      nb = 1;  // covered bands: band_begin_[nb - 1] < prefix
      while (band_begin_[nb] < prefix) ++nb;
      band_span_memo_.packed.store(
          (static_cast<std::uint64_t>(prefix + 1) << 32) |
              static_cast<std::uint64_t>(nb),
          std::memory_order_relaxed);
    }
    const std::size_t footprint = band_begin_[nb];
    if (2 * footprint > pool_size && flat_twin_) {
      // Cost-model guard: the merge must at least halve the walk, otherwise
      // the flat copy (no merge, pre-banding behavior) is the better lens.
      return ListView({words + 2 * pool_size, pool_size},
                      {scores + pool_size, pool_size},
                      {words + 3 * pool_size, pool_size}, prefix,
                      live_entries, tombstones);
    }
    const std::span<const ListKey> keys{words, footprint};
    const std::span<const Score> band_scores{scores, footprint};
    if (nb == 1) {
      // One covered band is already sorted — plain flat view, no merge.
      return ListView(keys, band_scores, positions, prefix, live_entries,
                      tombstones);
    }
    return ListView(keys, band_scores, positions, prefix, live_entries,
                    tombstones,
                    std::span<const std::uint32_t>(band_begin_.data(), nb + 1));
  }

  /// Resident size split by component, for capacity planning and the bench
  /// JSON (BENCH_batch.json index_memory): the logical bytes of every row
  /// and map this index references, whether or not another generation
  /// shares them.
  MemoryBreakdown MemoryBreakdownBytes() const {
    MemoryBreakdown b;
    const std::size_t order_bytes =
        num_users_ * pool_size_ *
        (sizeof(ListKey) + sizeof(Score) + sizeof(std::uint32_t));
    b.banded_bytes = order_bytes;
    b.flat_twin_bytes = flat_twin_ ? order_bytes : 0;
    b.map_bytes =
        key_space_->pool.size() * sizeof(ItemId) +
        key_space_->position_of_item.size() * sizeof(std::uint32_t) +
        band_begin_.size() * sizeof(std::uint32_t);
    return b;
  }

  /// Approximate total resident size (the breakdown summed).
  std::size_t MemoryBytes() const { return MemoryBreakdownBytes().total(); }

 private:
  /// Everything a clone inherits unchanged, shared across generations: the
  /// pool, the item→key map and the key→band map the row fill scatters by.
  struct KeySpace {
    std::vector<ItemId> pool;                     // key -> universe item
    std::vector<std::uint32_t> position_of_item;  // item -> key
    std::vector<std::uint8_t> band_of_key;        // key -> band
  };

  /// One page: the row records of rows_per_page() consecutive rows (fewer
  /// on the last page), immutable once published.
  using Page = std::shared_ptr<const std::byte[]>;
  using MutablePage = std::shared_ptr<std::byte[]>;

  PreferenceIndex() = default;

  /// Row record of user `u`. Record layout (P = pool size; the flat-twin
  /// parts only when flat_twin_):
  ///   Score[P] band-order scores, Score[P] flat scores,
  ///   uint32[P] band-order keys, uint32[P] band-order key→position,
  ///   uint32[P] flat keys, uint32[P] flat key→position.
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

  /// One stored order of a row: parallel key/score arrays, keys[p] scored
  /// scores[p], and the key→position map, keys[positions[key]] == key.
  struct RowOrder {
    std::span<const ListKey> keys;
    std::span<const Score> scores;
    std::span<const std::uint32_t> positions;
  };
  /// User `u`'s band order (keys and scores as UserKeys/UserScores), or
  /// with `flat` the global-order twin (requires flat_twin_). Only the
  /// tests read the key→position maps and the twin directly; queries go
  /// through UserView.
  RowOrder UserOrder(UserId u, bool flat = false) const {
    assert(!flat || flat_twin_);
    const std::size_t p = pool_size_;
    const std::byte* const row = Row(u);
    const Score* const scores = RowScores(row) + (flat ? p : 0);
    const std::uint32_t* const words = RowWords(row) + (flat ? 2 * p : 0);
    return {{words, p}, {scores, p}, {words + p, p}};
  }
  friend class PreferenceIndexTestPeer;

  /// Rows held by page `page` (rows_per_page() except on a partial last
  /// page).
  std::size_t PageRows(std::size_t page) const;
  /// A fresh, uninitialized page sized for PageRows(page) records.
  MutablePage NewPage(std::size_t page) const;

  /// Writes one row record at `row` — both orders and their key→position
  /// maps — from a raw score per pool position (pool_scores[key] scores
  /// pool()[key]; NaN is stored as 0). Linear in the pool size: one stable
  /// radix sort feeds every order. Internal: only called on pages not yet
  /// published. Safe to call concurrently on DISTINCT records (the sort
  /// scratch is thread-local) — the parallel build path relies on that.
  void FillRow(std::byte* row, std::span<const Score> pool_scores) const;

  /// Installs the pool, the item→key map, the normalized band grid and the
  /// page geometry — everything before the pages are allocated and filled.
  void InitLayout(std::size_t num_rows, double scale_max,
                  std::vector<ItemId> pool, std::size_t num_universe_items,
                  std::span<const std::uint32_t> band_breakpoints,
                  bool build_flat_twin);

  /// The UserView band-span memo: one packed (prefix+1) << 32 | nb entry
  /// (0 = cold), atomic so concurrent batch workers share it without racing.
  /// All special members reset to cold — an index copied or moved (the
  /// CloneWithUpdatedRows/CloneWithUpdatedPoolRows publish path) starts
  /// invalidated, and PreferenceIndex keeps its implicit value semantics
  /// despite the atomic.
  struct BandSpanMemo {
    BandSpanMemo() = default;
    BandSpanMemo(const BandSpanMemo&) noexcept {}
    BandSpanMemo(BandSpanMemo&&) noexcept {}
    BandSpanMemo& operator=(const BandSpanMemo&) noexcept {
      packed.store(0, std::memory_order_relaxed);
      return *this;
    }
    BandSpanMemo& operator=(BandSpanMemo&&) noexcept {
      packed.store(0, std::memory_order_relaxed);
      return *this;
    }
    mutable std::atomic<std::uint64_t> packed{0};
  };

  std::size_t num_users_ = 0;
  std::size_t pool_size_ = 0;
  double scale_max_ = 1.0;  // score normalization
  bool flat_twin_ = false;  // records carry the global-order twin
  std::shared_ptr<const KeySpace> key_space_;
  std::vector<std::uint32_t> band_begin_ = {0, 0};  // band b = [b, b+1) keys
  // Page geometry: row u is record (u & (rows_per_page() - 1)) of page
  // u >> page_shift_; a record is row_bytes_ long and its uint32 arrays
  // start words_offset_ bytes in (after the Score arrays).
  std::size_t page_shift_ = 0;
  std::size_t row_bytes_ = 0;
  std::size_t words_offset_ = 0;
  std::vector<Page> pages_;
  BandSpanMemo band_span_memo_;
};

}  // namespace greca

#endif  // GRECA_INDEX_PREFERENCE_INDEX_H_
