#include "index/preference_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <iterator>
#include <numeric>
#include <utility>

#include "common/thread_pool.h"

namespace greca {

namespace {

/// Per-thread FillRow scratch: the row's normalized scores and radix keys
/// by pool key, and the two key buffers the radix sort ping-pongs between.
/// Thread-local so the parallel build fan-out stays allocation-free after
/// warm-up without sharing buffers across workers.
struct RowScratchBuffers {
  std::vector<Score> scores;
  std::vector<std::uint64_t> radix_keys;
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> spare;
};

RowScratchBuffers& RowScratch() {
  thread_local RowScratchBuffers scratch;
  return scratch;
}

/// Radix key of a normalized score: ascending keys are descending scores.
/// FillRow scores are never NaN or negative, so their IEEE bits order like
/// their values once -0.0 is folded onto +0.0 (the two compare equal).
std::uint64_t DescendingKey(Score score) {
  return ~(score == 0.0 ? std::uint64_t{0}
                        : std::bit_cast<std::uint64_t>(score));
}

/// Stable LSD radix sort of the pool keys 0..n-1 by radix_keys[key], 8 bits
/// per pass, ping-ponging between `order` and `spare` (both n long); returns
/// the buffer holding the sorted keys. The keys start in ascending order
/// and the sort is stable, so equal scores keep ascending key order: the
/// result is exactly ListEntryOrder. A pass whose digit is the same for
/// every key is skipped; the cost is linear in n whatever the scores are.
std::span<const std::uint32_t> SortKeysByRadixKey(
    std::span<const std::uint64_t> radix_keys, std::span<std::uint32_t> order,
    std::span<std::uint32_t> spare) {
  constexpr unsigned kDigitBits = 8;
  constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
  constexpr unsigned kPasses = 64 / kDigitBits;
  const std::size_t n = radix_keys.size();
  const auto digit = [](std::uint64_t radix_key, unsigned pass) {
    return static_cast<std::size_t>(radix_key >> (pass * kDigitBits)) &
           (kRadix - 1);
  };
  // Every pass's histogram in one read of the keys.
  std::array<std::array<std::uint32_t, kRadix>, kPasses> counts{};
  for (const std::uint64_t radix_key : radix_keys) {
    for (unsigned pass = 0; pass < kPasses; ++pass) {
      ++counts[pass][digit(radix_key, pass)];
    }
  }
  std::uint32_t* src = order.data();
  std::uint32_t* dst = spare.data();
  std::iota(src, src + n, std::uint32_t{0});
  for (unsigned pass = 0; n > 0 && pass < kPasses; ++pass) {
    std::array<std::uint32_t, kRadix>& next = counts[pass];
    if (next[digit(radix_keys[0], pass)] == n) continue;
    std::uint32_t begin = 0;  // counts -> each digit's first output slot
    for (std::uint32_t& c : next) begin += std::exchange(c, begin);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t key = src[i];
      dst[next[digit(radix_keys[key], pass)]++] = key;
    }
    std::swap(src, dst);
  }
  return {src, n};
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
  RowScratchBuffers& scratch = RowScratch();
  scratch.scores.resize(pool_size);
  scratch.radix_keys.resize(pool_size);
  scratch.order.resize(pool_size);
  scratch.spare.resize(pool_size);
  for (std::size_t key = 0; key < pool_size; ++key) {
    // NaN (a caller's predictor may emit one) would pass the clamp and has
    // no place in a descending order: it is stored as 0.
    const Score s = pool_scores[key] / scale_max_;
    scratch.scores[key] = std::isnan(s) ? 0.0 : std::clamp(s, 0.0, 1.0);
    scratch.radix_keys[key] = DescendingKey(scratch.scores[key]);
  }
  const std::span<const std::uint32_t> sorted =
      SortKeysByRadixKey(scratch.radix_keys, scratch.order, scratch.spare);
  auto* const scores = reinterpret_cast<Score*>(row);
  auto* const keys = reinterpret_cast<std::uint32_t*>(row + words_offset_);
  std::uint32_t* const pos = keys + pool_size;
  for (std::uint32_t p = 0; p < pool_size; ++p) {
    const std::uint32_t key = sorted[p];
    keys[p] = key;
    scores[p] = scratch.scores[key];
    pos[key] = p;
  }
}

void PreferenceIndex::InitLayout(std::size_t num_rows, double scale_max,
                                 std::vector<ItemId> pool,
                                 std::size_t num_universe_items) {
  num_users_ = num_rows;
  scale_max_ = scale_max;

  // The item→key map gives every pooled item one key, so items outside the
  // universe (which would index past the map) and repeats (which would get
  // a second key) are dropped; the first occurrence keeps its place.
  auto key_space = std::make_shared<KeySpace>();
  key_space->position_of_item.assign(num_universe_items, kNotPooled);
  std::size_t kept = 0;
  for (const ItemId item : pool) {
    if (item >= num_universe_items ||
        key_space->position_of_item[item] != kNotPooled) {
      continue;
    }
    key_space->position_of_item[item] = static_cast<std::uint32_t>(kept);
    pool[kept++] = item;
  }
  pool.resize(kept);
  pool_size_ = kept;
  const std::size_t pool_size = pool_size_;
  key_space->pool = std::move(pool);
  key_space_ = std::move(key_space);

  words_offset_ = pool_size * sizeof(Score);
  row_bytes_ = words_offset_ + 2 * pool_size * sizeof(std::uint32_t);
  const std::size_t record_bytes = std::max<std::size_t>(row_bytes_, 1);
  page_shift_ = 0;
  while ((std::size_t{2} << page_shift_) * record_bytes <= kPageBytes) {
    ++page_shift_;
  }
}

PreferenceIndex PreferenceIndex::Build(
    std::span<const std::vector<Score>> predictions, double scale_max,
    std::vector<ItemId> pool, std::size_t num_universe_items) {
  return BuildStreaming(
      predictions.size(),
      [&](UserId u, std::span<const ItemId> p, std::span<Score> out) {
        GatherPoolScores(predictions[u], p, out);
      },
      scale_max, std::move(pool), num_universe_items);
}

PreferenceIndex PreferenceIndex::BuildStreaming(
    std::size_t num_rows, const PoolScoreFiller& fill, double scale_max,
    std::vector<ItemId> pool, std::size_t num_universe_items,
    ThreadPool* threads) {
  PreferenceIndex index;
  index.InitLayout(num_rows, scale_max, std::move(pool), num_universe_items);
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
  // The copy shares every page and the key space; only the pages holding
  // touched rows are replaced below.
  PreferenceIndex clone = *this;
  // Visit the touched rows in row order, which groups them by page. The
  // sort is stable, so of a row listed twice the last entry comes last;
  // only that one is kept, so the row ends with its last scores.
  std::vector<std::size_t> order(users.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return users[a] < users[b];
  });
  const auto same_row = [&](std::size_t a, std::size_t b) {
    return users[a] == users[b];
  };
  order.erase(order.begin(),
              std::unique(order.rbegin(), order.rend(), same_row).base());
  const auto page_of = [&](std::size_t i) {
    assert(users[i] < num_users_);
    return static_cast<std::size_t>(users[i]) >> page_shift_;
  };
  for (std::size_t i = 0; i < order.size();) {
    const std::size_t page = page_of(order[i]);
    std::size_t end = i;
    while (end < order.size() && page_of(order[end]) == page) ++end;
    MutablePage copy = NewPage(page);
    // A page whose every row is rebuilt needs nothing from its parent.
    if (end - i < PageRows(page)) {
      std::memcpy(copy.get(), pages_[page].get(), PageRows(page) * row_bytes_);
    }
    for (; i < end; ++i) {
      FillRow(copy.get() + RecordOffset(users[order[i]]),
              pool_scores[order[i]]);
    }
    clone.pages_[page] = std::move(copy);
  }
  return clone;
}

}  // namespace greca
