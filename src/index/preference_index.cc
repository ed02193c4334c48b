#include "index/preference_index.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <iterator>
#include <numeric>
#include <utility>

#include "common/thread_pool.h"

namespace greca {

namespace {

/// AoS fill/sort scratch, one per thread: rows are filled and sorted as
/// interleaved (key, score) entries — exactly the pre-SoA semantics, under
/// the one canonical ListEntryOrder — then scattered into the record's
/// parallel arrays. Thread-local so the parallel build fan-out stays
/// allocation-free after warm-up without sharing buffers across workers.
std::vector<ListEntry>& RowScratch() {
  thread_local std::vector<ListEntry> scratch;
  return scratch;
}

/// Gathers a per-universe-item prediction array down to pool order
/// (out[key] = predictions[pool[key]]), the input FillRow reads.
void GatherPoolScores(std::span<const Score> predictions,
                      std::span<const ItemId> pool, std::span<Score> out) {
  for (std::size_t key = 0; key < pool.size(); ++key) {
    assert(pool[key] < predictions.size());
    out[key] = predictions[pool[key]];
  }
}

}  // namespace

std::vector<std::uint32_t> PreferenceIndex::GeometricBandBreakpoints(
    std::size_t pool_size, std::size_t first_band) {
  std::vector<std::uint32_t> breakpoints;
  if (first_band == 0) return breakpoints;
  for (std::size_t b = first_band;
       b < pool_size && breakpoints.size() + 1 < ListView::kMaxBands; b *= 2) {
    breakpoints.push_back(static_cast<std::uint32_t>(b));
  }
  return breakpoints;
}

std::size_t PreferenceIndex::PageRows(std::size_t page) const {
  return std::min(rows_per_page(), num_users_ - (page << page_shift_));
}

PreferenceIndex::MutablePage PreferenceIndex::NewPage(std::size_t page) const {
  MutablePage block =
      std::make_shared_for_overwrite<std::byte[]>(PageRows(page) * row_bytes_);
  // The record layout needs Score alignment; array make_shared places the
  // block at the start of an operator-new allocation.
  assert(reinterpret_cast<std::uintptr_t>(block.get()) % alignof(Score) == 0);
  return block;
}

void PreferenceIndex::FillRow(std::byte* row,
                              std::span<const Score> pool_scores) const {
  assert(scale_max_ > 0.0);
  const std::size_t pool_size = pool_size_;
  assert(pool_scores.size() == pool_size);
  std::vector<ListEntry>& entries = RowScratch();
  entries.resize(pool_size);
  for (std::uint32_t key = 0; key < pool_size; ++key) {
    entries[key] = {key, std::clamp(pool_scores[key] / scale_max_, 0.0, 1.0)};
  }
  constexpr ListEntryOrder by_score{};
  auto* const scores = reinterpret_cast<Score*>(row);
  auto* const keys = reinterpret_cast<std::uint32_t*>(row + words_offset_);
  std::uint32_t* const pos = keys + pool_size;
  if (flat_twin_) {
    // One global sort serves both orders. ListEntryOrder is a strict total
    // order (keys are distinct), so scattering the globally sorted entries
    // into their bands, in order, yields exactly each band's sorted order.
    std::sort(entries.begin(), entries.end(), by_score);
    Score* const flat_scores = scores + pool_size;
    std::uint32_t* const flat_keys = keys + 2 * pool_size;
    std::uint32_t* const flat_pos = keys + 3 * pool_size;
    std::array<std::uint32_t, ListView::kMaxBands> next{};  // band cursors
    std::copy(band_begin_.begin(), band_begin_.end() - 1, next.begin());
    const std::uint8_t* const band_of = key_space_->band_of_key.data();
    for (std::uint32_t p = 0; p < pool_size; ++p) {
      const ListEntry& e = entries[p];
      flat_keys[p] = e.id;
      flat_scores[p] = e.score;
      flat_pos[e.id] = p;
      const std::uint32_t q = next[band_of[e.id]]++;
      keys[q] = e.id;
      scores[q] = e.score;
      pos[e.id] = q;
    }
    return;
  }
  // Band b holds exactly the keys [band_begin_[b], band_begin_[b+1]), so
  // the key-order fill already places every entry in its band; each band is
  // then score-sorted independently. One band (the flat layout) degenerates
  // to the global sort.
  for (std::size_t b = 0; b + 1 < band_begin_.size(); ++b) {
    std::sort(entries.begin() + band_begin_[b],
              entries.begin() + band_begin_[b + 1], by_score);
  }
  for (std::uint32_t p = 0; p < pool_size; ++p) {
    keys[p] = entries[p].id;
    scores[p] = entries[p].score;
    pos[entries[p].id] = p;
  }
}

void PreferenceIndex::InitLayout(
    std::size_t num_rows, double scale_max, std::vector<ItemId> pool,
    std::size_t num_universe_items,
    std::span<const std::uint32_t> band_breakpoints, bool build_flat_twin) {
  num_users_ = num_rows;
  scale_max_ = scale_max;
  pool_size_ = pool.size();
  const std::size_t pool_size = pool_size_;

  // Normalize the breakpoints defensively (not assert-only): out-of-range
  // and non-ascending values are dropped and the band count is clamped to
  // ListView's inline merge arrays — a bad grid degrades to coarser bands,
  // never to out-of-bounds writes in release builds.
  band_begin_.assign(1, 0);
  for (const std::uint32_t breakpoint : band_breakpoints) {
    if (breakpoint == 0 || breakpoint >= pool_size) continue;
    if (breakpoint <= band_begin_.back()) continue;
    if (band_begin_.size() >= ListView::kMaxBands) break;
    band_begin_.push_back(breakpoint);
  }
  band_begin_.push_back(static_cast<std::uint32_t>(pool_size));
  assert(num_bands() <= ListView::kMaxBands);
  flat_twin_ = num_bands() > 1 && build_flat_twin;

  auto key_space = std::make_shared<KeySpace>();
  key_space->position_of_item.assign(num_universe_items, kNotPooled);
  for (std::size_t key = 0; key < pool_size; ++key) {
    assert(pool[key] < num_universe_items);
    key_space->position_of_item[pool[key]] = static_cast<std::uint32_t>(key);
  }
  key_space->band_of_key.resize(pool_size);
  for (std::size_t b = 0; b + 1 < band_begin_.size(); ++b) {
    std::fill(key_space->band_of_key.begin() + band_begin_[b],
              key_space->band_of_key.begin() + band_begin_[b + 1],
              static_cast<std::uint8_t>(b));
  }
  key_space->pool = std::move(pool);
  key_space_ = std::move(key_space);

  const std::size_t orders = flat_twin_ ? 2 : 1;
  words_offset_ = orders * pool_size * sizeof(Score);
  row_bytes_ = words_offset_ + orders * 2 * pool_size * sizeof(std::uint32_t);
  const std::size_t record_bytes = std::max<std::size_t>(row_bytes_, 1);
  page_shift_ = 0;
  while ((std::size_t{2} << page_shift_) * record_bytes <= kPageBytes) {
    ++page_shift_;
  }
}

PreferenceIndex PreferenceIndex::Build(
    std::span<const std::vector<Score>> predictions, double scale_max,
    std::vector<ItemId> pool, std::size_t num_universe_items,
    std::span<const std::uint32_t> band_breakpoints, bool build_flat_twin) {
  return BuildStreaming(
      predictions.size(),
      [&](UserId u, std::span<const ItemId> p, std::span<Score> out) {
        GatherPoolScores(predictions[u], p, out);
      },
      scale_max, std::move(pool), num_universe_items, band_breakpoints,
      build_flat_twin);
}

PreferenceIndex PreferenceIndex::BuildStreaming(
    std::size_t num_rows, const PoolScoreFiller& fill, double scale_max,
    std::vector<ItemId> pool, std::size_t num_universe_items,
    std::span<const std::uint32_t> band_breakpoints, bool build_flat_twin,
    ThreadPool* threads) {
  PreferenceIndex index;
  index.InitLayout(num_rows, scale_max, std::move(pool), num_universe_items,
                   band_breakpoints, build_flat_twin);
  const std::size_t pool_size = index.pool_size_;
  // Every page is allocated up front, on this thread; the fills below write
  // disjoint records of them.
  std::vector<MutablePage> pages(
      (num_rows + index.rows_per_page() - 1) >> index.page_shift_);
  for (std::size_t page = 0; page < pages.size(); ++page) {
    pages[page] = index.NewPage(page);
  }
  const auto record = [&](UserId u) {
    return pages[u >> index.page_shift_].get() + index.RecordOffset(u);
  };
  const std::span<const ItemId> pool_keys = index.pool();
  if (threads != nullptr && num_rows > 1) {
    // One raw-score scratch per worker; records are disjoint, so concurrent
    // FillRow calls never touch the same storage.
    std::vector<std::vector<Score>> scratch(threads->size());
    for (auto& s : scratch) s.resize(pool_size);
    threads->ParallelFor(num_rows, [&](std::size_t worker, std::size_t row) {
      const auto u = static_cast<UserId>(row);
      fill(u, pool_keys, scratch[worker]);
      index.FillRow(record(u), scratch[worker]);
    });
  } else {
    std::vector<Score> scores(pool_size);
    for (UserId u = 0; u < num_rows; ++u) {
      fill(u, pool_keys, scores);
      index.FillRow(record(u), scores);
    }
  }
  index.pages_.assign(std::make_move_iterator(pages.begin()),
                      std::make_move_iterator(pages.end()));
  return index;
}

PreferenceIndex PreferenceIndex::CloneWithUpdatedRows(
    std::span<const UserId> users,
    std::span<const std::span<const Score>> predictions) const {
  assert(users.size() == predictions.size());
  const std::size_t pool_size = pool_size_;
  std::vector<Score> scores(users.size() * pool_size);
  std::vector<std::span<const Score>> pool_scores;
  pool_scores.reserve(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const std::span<Score> out(scores.data() + i * pool_size, pool_size);
    GatherPoolScores(predictions[i], pool(), out);
    pool_scores.emplace_back(out);
  }
  return CloneWithUpdatedPoolRows(users, pool_scores);
}

PreferenceIndex PreferenceIndex::CloneWithUpdatedPoolRows(
    std::span<const UserId> users,
    std::span<const std::span<const Score>> pool_scores) const {
  assert(users.size() == pool_scores.size());
  // The copy shares every page and the key space (the band-span memo starts
  // cold); only the pages holding touched rows are replaced below.
  PreferenceIndex clone = *this;
  // Visit the touched rows page by page. The sort is stable, so a row
  // listed twice is rebuilt in input order and keeps its last scores.
  std::vector<std::size_t> order(users.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto page_of = [&](std::size_t i) {
    assert(users[i] < num_users_);
    return static_cast<std::size_t>(users[i]) >> page_shift_;
  };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return page_of(a) < page_of(b);
  });
  for (std::size_t i = 0; i < order.size();) {
    const std::size_t page = page_of(order[i]);
    MutablePage copy = NewPage(page);
    std::memcpy(copy.get(), pages_[page].get(), PageRows(page) * row_bytes_);
    for (; i < order.size() && page_of(order[i]) == page; ++i) {
      FillRow(copy.get() + RecordOffset(users[order[i]]),
              pool_scores[order[i]]);
    }
    clone.pages_[page] = std::move(copy);
  }
  return clone;
}

}  // namespace greca
