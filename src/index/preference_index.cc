#include "index/preference_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/thread_pool.h"

namespace greca {

namespace {

/// AoS fill/sort scratch, one per thread: rows are filled and sorted as
/// interleaved (key, score) entries — exactly the pre-SoA semantics, under
/// the one canonical ListEntryOrder — then scattered into the parallel
/// arrays. Thread-local so the parallel build fan-out stays
/// allocation-free after warm-up without sharing buffers across workers.
std::vector<ListEntry>& RowScratch() {
  thread_local std::vector<ListEntry> scratch;
  return scratch;
}

std::vector<ListEntry>& FlatScratch() {
  thread_local std::vector<ListEntry> scratch;
  return scratch;
}

/// Gathers a per-universe-item prediction array down to pool order
/// (out[key] = predictions[pool[key]]), the input RebuildRowFromPool reads.
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

void PreferenceIndex::RebuildRowFromPool(UserId u,
                                         std::span<const Score> pool_scores) {
  assert(scale_max_ > 0.0);
  const std::size_t pool_size = pool_.size();
  assert(pool_scores.size() == pool_size);
  // Band b holds exactly the keys [band_begin_[b], band_begin_[b+1]), so a
  // key-order fill already places every entry in its band; each band is
  // then score-sorted independently. One band (the flat layout) degenerates
  // to the global sort.
  std::vector<ListEntry>& row = RowScratch();
  row.resize(pool_size);
  for (std::uint32_t key = 0; key < pool_size; ++key) {
    row[key] = {key, std::clamp(pool_scores[key] / scale_max_, 0.0, 1.0)};
  }
  constexpr ListEntryOrder by_score{};
  if (!flat_keys_.empty()) {
    // Global-order twin for the large-prefix fast path, sorted from the
    // key-order fill before the bands scramble it.
    std::vector<ListEntry>& flat = FlatScratch();
    flat.assign(row.begin(), row.end());
    std::sort(flat.begin(), flat.end(), by_score);
    ListKey* const fk = flat_keys_.data() + u * pool_size;
    Score* const fs = flat_scores_.data() + u * pool_size;
    std::uint32_t* const fpos = flat_positions_.data() + u * pool_size;
    for (std::size_t p = 0; p < pool_size; ++p) {
      fk[p] = flat[p].id;
      fs[p] = flat[p].score;
      fpos[flat[p].id] = static_cast<std::uint32_t>(p);
    }
  }
  for (std::size_t b = 0; b + 1 < band_begin_.size(); ++b) {
    std::sort(row.begin() + band_begin_[b], row.begin() + band_begin_[b + 1],
              by_score);
  }
  ListKey* const keys = keys_.data() + u * pool_size;
  Score* const scores = scores_.data() + u * pool_size;
  std::uint32_t* const pos = positions_.data() + u * pool_size;
  for (std::size_t p = 0; p < pool_size; ++p) {
    keys[p] = row[p].id;
    scores[p] = row[p].score;
    pos[row[p].id] = static_cast<std::uint32_t>(p);
  }
}

void PreferenceIndex::InitStorage(
    std::size_t num_rows, double scale_max, std::vector<ItemId> pool,
    std::size_t num_universe_items,
    std::span<const std::uint32_t> band_breakpoints, bool build_flat_twin) {
  num_users_ = num_rows;
  scale_max_ = scale_max;
  pool_ = std::move(pool);
  const std::size_t pool_size = pool_.size();

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

  pool_position_of_item_.assign(num_universe_items, kNotPooled);
  for (std::size_t key = 0; key < pool_size; ++key) {
    assert(pool_[key] < num_universe_items);
    pool_position_of_item_[pool_[key]] = static_cast<std::uint32_t>(key);
  }

  keys_.resize(num_users_ * pool_size);
  scores_.resize(num_users_ * pool_size);
  positions_.resize(num_users_ * pool_size);
  if (num_bands() > 1 && build_flat_twin) {
    flat_keys_.resize(num_users_ * pool_size);
    flat_scores_.resize(num_users_ * pool_size);
    flat_positions_.resize(num_users_ * pool_size);
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
  index.InitStorage(num_rows, scale_max, std::move(pool), num_universe_items,
                    band_breakpoints, build_flat_twin);
  const std::size_t pool_size = index.pool_.size();
  if (threads != nullptr && num_rows > 1) {
    // One raw-score scratch per worker; rows are disjoint, so concurrent
    // RebuildRowFromPool calls never touch the same storage.
    std::vector<std::vector<Score>> scratch(threads->size());
    for (auto& s : scratch) s.resize(pool_size);
    threads->ParallelFor(num_rows, [&](std::size_t worker, std::size_t row) {
      const auto u = static_cast<UserId>(row);
      fill(u, index.pool_, scratch[worker]);
      index.RebuildRowFromPool(u, scratch[worker]);
    });
    return index;
  }
  std::vector<Score> scores(pool_size);
  for (UserId u = 0; u < num_rows; ++u) {
    fill(u, index.pool_, scores);
    index.RebuildRowFromPool(u, scores);
  }
  return index;
}

PreferenceIndex PreferenceIndex::CloneWithUpdatedRows(
    std::span<const UserId> users,
    std::span<const std::span<const Score>> predictions) const {
  assert(users.size() == predictions.size());
  const std::size_t pool_size = pool_.size();
  std::vector<Score> scores(users.size() * pool_size);
  std::vector<std::span<const Score>> pool_scores;
  pool_scores.reserve(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const std::span<Score> out(scores.data() + i * pool_size, pool_size);
    GatherPoolScores(predictions[i], pool_, out);
    pool_scores.emplace_back(out);
  }
  return CloneWithUpdatedPoolRows(users, pool_scores);
}

PreferenceIndex PreferenceIndex::CloneWithUpdatedPoolRows(
    std::span<const UserId> users,
    std::span<const std::span<const Score>> pool_scores) const {
  assert(users.size() == pool_scores.size());
  // Wholesale copy on purpose (the implicit copy; the band-span memo starts
  // cold): touched rows get written twice, but touched × pool is tiny next
  // to the full arrays, while any skip-the-touched-rows scheme pays a full
  // value-initializing resize first — double the memory traffic of one copy.
  PreferenceIndex clone = *this;
  for (std::size_t i = 0; i < users.size(); ++i) {
    assert(users[i] < num_users_);
    clone.RebuildRowFromPool(users[i], pool_scores[i]);
  }
  return clone;
}

}  // namespace greca
