// Tests for the shared PreferenceIndex: row ordering, the item↔key maps,
// prefix/tombstone slicing through UserView, and the copy-on-write pages
// behind CloneWithUpdated*Rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "index/preference_index.h"
#include "topk/list_view.h"

namespace greca {
namespace {

/// Zips a row's SoA key/score arrays back into entry order for assertions.
std::vector<ListEntry> RowEntries(const PreferenceIndex& index, UserId u) {
  const auto keys = index.UserKeys(u);
  const auto scores = index.UserScores(u);
  std::vector<ListEntry> row;
  row.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    row.push_back({keys[i], scores[i]});
  }
  return row;
}

PreferenceIndex MakeIndex() {
  // Two users over a 6-item universe; the pool keeps 4 items in "popularity"
  // order 5, 2, 0, 3 (universe item ids).
  const std::vector<std::vector<Score>> predictions = {
      {1.0, 2.0, 3.0, 4.0, 0.0, 5.0},  // user 0
      {4.0, 0.5, 4.0, 1.0, 2.5, 2.0},  // user 1
  };
  return PreferenceIndex::Build(predictions, /*scale_max=*/5.0,
                                {5, 2, 0, 3}, /*num_universe_items=*/6);
}

TEST(PreferenceIndexTest, PoolMapsRoundTrip) {
  const PreferenceIndex index = MakeIndex();
  EXPECT_EQ(index.num_users(), 2u);
  EXPECT_EQ(index.pool_size(), 4u);
  ASSERT_EQ(index.pool().size(), 4u);
  EXPECT_EQ(index.pool()[0], 5u);
  EXPECT_EQ(index.pool()[2], 0u);
  EXPECT_EQ(index.PoolPositionOf(5), 0u);
  EXPECT_EQ(index.PoolPositionOf(3), 3u);
  // Items outside the pool (or the universe) are kNotPooled.
  EXPECT_EQ(index.PoolPositionOf(1), PreferenceIndex::kNotPooled);
  EXPECT_EQ(index.PoolPositionOf(4), PreferenceIndex::kNotPooled);
  EXPECT_EQ(index.PoolPositionOf(999), PreferenceIndex::kNotPooled);
}

TEST(PreferenceIndexTest, RowsAreSortedDescendingWithPoolKeyTies) {
  const PreferenceIndex index = MakeIndex();
  // User 0 pool scores (key order): item5=1.0, item2=0.6, item0=0.2,
  // item3=0.8 → sorted keys 0, 3, 1, 2.
  const auto row0 = RowEntries(index, 0);
  ASSERT_EQ(row0.size(), 4u);
  EXPECT_EQ(row0[0].id, 0u);
  EXPECT_DOUBLE_EQ(row0[0].score, 1.0);
  EXPECT_EQ(row0[1].id, 3u);
  EXPECT_DOUBLE_EQ(row0[1].score, 0.8);
  EXPECT_EQ(row0[2].id, 1u);
  EXPECT_EQ(row0[3].id, 2u);
  // User 1 pool scores: item5=0.4, item2=0.8, item0=0.8, item3=0.2 — the
  // 0.8 tie breaks by ascending pool key (1 before 2).
  const auto row1 = RowEntries(index, 1);
  EXPECT_EQ(row1[0].id, 1u);
  EXPECT_EQ(row1[1].id, 2u);
  EXPECT_EQ(row1[2].id, 0u);
  EXPECT_EQ(row1[3].id, 3u);
}

TEST(PreferenceIndexTest, UserViewSlicesPrefixAndSkipsTombstones) {
  const PreferenceIndex index = MakeIndex();
  // Prefix 3 (keys 0..2), tombstone key 0. User 0's live order: 1, 2.
  const std::vector<std::uint64_t> tombstones = {0b001};
  const ListView view = index.UserView(0, /*prefix=*/3, tombstones,
                                       /*live_entries=*/2);
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(view.key_space(), 3u);
  EXPECT_TRUE(view.IsTombstoned(0));
  EXPECT_FALSE(view.IsTombstoned(1));
  EXPECT_TRUE(view.IsTombstoned(3));  // beyond the prefix

  AccessCounter counter;
  std::size_t cursor = 0;
  ASSERT_TRUE(view.SkipToLive(cursor));
  EXPECT_EQ(view.ReadSequential(cursor, counter).id, 1u);
  ASSERT_TRUE(view.SkipToLive(cursor));
  EXPECT_EQ(view.ReadSequential(cursor, counter).id, 2u);
  EXPECT_FALSE(view.SkipToLive(cursor));
  EXPECT_EQ(counter.sequential, 2u);  // skipped entries are not counted

  // Random access: live keys read their score, dead keys read as absent.
  EXPECT_DOUBLE_EQ(view.ScoreOfKey(1), 0.6);
  EXPECT_DOUBLE_EQ(view.ScoreOfKey(0), 0.0);
  EXPECT_DOUBLE_EQ(view.ScoreOfKey(3), 0.0);
  EXPECT_DOUBLE_EQ(view.MaxScore(), 0.6);
}

TEST(PreferenceIndexTest, BandedRowsSortEachBandIndependently) {
  const std::vector<std::vector<Score>> predictions = {
      {1.0, 2.0, 3.0, 4.0, 0.0, 5.0},  // user 0
  };
  // Pool 5, 2, 0, 3 with one interior breakpoint at 2: band 0 = keys {0, 1},
  // band 1 = keys {2, 3}.
  const std::vector<std::uint32_t> breakpoints{2};
  const PreferenceIndex index = PreferenceIndex::Build(
      predictions, /*scale_max=*/5.0, {5, 2, 0, 3}, /*num_universe_items=*/6,
      breakpoints);
  EXPECT_EQ(index.num_bands(), 2u);
  ASSERT_EQ(index.band_boundaries().size(), 3u);
  EXPECT_EQ(index.band_boundaries()[1], 2u);

  // Key scores: key0=1.0, key1=0.6, key2=0.2, key3=0.8. Band-local order:
  // band 0 → 0, 1; band 1 → 3, 2 (NOT the global order 0, 3, 1, 2).
  const auto row = RowEntries(index, 0);
  EXPECT_EQ(row[0].id, 0u);
  EXPECT_EQ(row[1].id, 1u);
  EXPECT_EQ(row[2].id, 3u);
  EXPECT_EQ(row[3].id, 2u);

  // A full-prefix view covers the whole row, where the merge cannot pay for
  // itself: the flat-order twin serves it (global order, no merge), and
  // random access resolves through the matching position map.
  const ListView view = index.UserView(0, 4, {}, 4);
  EXPECT_EQ(view.num_bands(), 1u);
  EXPECT_EQ(view.scan_footprint(), 4u);
  AccessCounter counter;
  std::size_t cursor = 0;
  const std::uint32_t expected[] = {0, 3, 1, 2};
  for (const std::uint32_t id : expected) {
    ASSERT_TRUE(view.SkipToLive(cursor));
    EXPECT_EQ(view.ReadSequential(cursor, counter).id, id);
  }
  EXPECT_FALSE(view.SkipToLive(cursor));
  EXPECT_DOUBLE_EQ(view.ScoreOfKey(3), 0.8);
  EXPECT_DOUBLE_EQ(view.MaxScore(), 1.0);

  // A prefix inside the first band never receives band 1: flat single-band
  // view whose scan footprint is the band, not the row.
  const ListView prefix_view = index.UserView(0, 2, {}, 2);
  EXPECT_EQ(prefix_view.num_bands(), 1u);
  EXPECT_EQ(prefix_view.scan_footprint(), 2u);
}

TEST(PreferenceIndexTest, SmallPrefixViewMergesCoveredBands) {
  // Pool of 8 with bands {0..1}, {2..3}, {4..7}: a prefix of 3 covers two
  // bands (footprint 4 <= half the row), so the view is a real band merge
  // that must still read in global score order.
  const std::vector<std::vector<Score>> predictions = {
      {4.0, 1.0, 3.5, 2.0, 5.0, 0.5, 4.5, 1.5},
  };
  const std::vector<std::uint32_t> breakpoints{2, 4};
  const PreferenceIndex index = PreferenceIndex::Build(
      predictions, /*scale_max=*/5.0, {0, 1, 2, 3, 4, 5, 6, 7},
      /*num_universe_items=*/8, breakpoints);
  ASSERT_EQ(index.num_bands(), 3u);

  const ListView view = index.UserView(0, /*prefix=*/3, {}, 3);
  EXPECT_EQ(view.num_bands(), 2u);
  EXPECT_EQ(view.scan_footprint(), 4u);  // next boundary past the prefix
  // Key scores: 0→0.8, 1→0.2, 2→0.7 (key 3 is out of prefix).
  AccessCounter counter;
  std::size_t cursor = 0;
  const std::uint32_t expected[] = {0, 2, 1};
  for (const std::uint32_t id : expected) {
    ASSERT_TRUE(view.SkipToLive(cursor));
    EXPECT_EQ(view.ReadSequential(cursor, counter).id, id);
  }
  EXPECT_FALSE(view.SkipToLive(cursor));
  EXPECT_EQ(counter.sequential, 3u);
  EXPECT_DOUBLE_EQ(view.MaxScore(), 0.8);
}

TEST(PreferenceIndexTest, GeometricBandBreakpointsDoubleAndCap) {
  const auto bp = PreferenceIndex::GeometricBandBreakpoints(3'900, 64);
  const std::vector<std::uint32_t> expected{64, 128, 256, 512, 1024, 2048};
  EXPECT_EQ(bp, expected);
  // A prefix P >= 32 walks at most the first boundary >= P, which is < 2P.
  EXPECT_TRUE(PreferenceIndex::GeometricBandBreakpoints(64, 64).empty());
  EXPECT_TRUE(PreferenceIndex::GeometricBandBreakpoints(100, 0).empty());
  // Never more than ListView::kMaxBands bands even for huge pools.
  const auto huge =
      PreferenceIndex::GeometricBandBreakpoints(1u << 30, 1);
  EXPECT_LE(huge.size() + 1, ListView::kMaxBands);
}

TEST(PreferenceIndexTest, FullPrefixViewMatchesRow) {
  const PreferenceIndex index = MakeIndex();
  const ListView view = index.UserView(1, index.pool_size(), {},
                                       index.pool_size());
  EXPECT_EQ(view.size(), 4u);
  std::size_t cursor = 0;
  AccessCounter counter;
  const auto row = RowEntries(index, 1);
  for (std::size_t i = 0; i < row.size(); ++i) {
    ASSERT_TRUE(view.SkipToLive(cursor));
    const ListEntry& e = view.ReadSequential(cursor, counter);
    EXPECT_EQ(e.id, row[i].id);
    EXPECT_DOUBLE_EQ(e.score, row[i].score);
  }
  EXPECT_FALSE(view.SkipToLive(cursor));
}

// --- Copy-on-write pages ----------------------------------------------------

/// Raw pool-order scores (universe scale [0, 5]) on a half-star grid, so
/// rows carry plenty of score ties for the key tie-break to order.
std::vector<std::vector<Score>> RandomPoolScores(std::size_t rows,
                                                 std::size_t pool,
                                                 std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> half_stars(0, 10);
  std::vector<std::vector<Score>> scores(rows, std::vector<Score>(pool));
  for (auto& row : scores) {
    for (Score& s : row) s = 0.5 * half_stars(rng);
  }
  return scores;
}

std::vector<ItemId> IdentityPool(std::size_t pool) {
  std::vector<ItemId> items(pool);
  std::iota(items.begin(), items.end(), ItemId{0});
  return items;
}

/// An index over pool == universe items 0..P-1 (so pool-order scores are
/// also the per-item predictions), geometric bands, flat twin on request.
PreferenceIndex BuildPoolIndex(const std::vector<std::vector<Score>>& scores,
                               std::size_t pool, bool flat_twin = true) {
  return PreferenceIndex::Build(
      scores, /*scale_max=*/5.0, IdentityPool(pool), pool,
      PreferenceIndex::GeometricBandBreakpoints(pool), flat_twin);
}

/// Reads a view to exhaustion as (key, score) entries, plus every key's
/// random-access score — the position maps are checked through the latter.
std::vector<ListEntry> Drain(const ListView& view, std::size_t key_space) {
  std::vector<ListEntry> out;
  AccessCounter counter;
  std::size_t cursor = 0;
  while (view.SkipToLive(cursor)) out.push_back(view.ReadSequential(cursor, counter));
  for (ListKey key = 0; key < key_space; ++key) {
    out.push_back({key, view.ScoreOfKey(key)});
  }
  return out;
}

/// Both indexes read bit-identically: band-order rows, the flat twin (a
/// full-prefix view) and a small-prefix band merge, for every row.
void ExpectSameRows(const PreferenceIndex& a, const PreferenceIndex& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.pool_size(), b.pool_size());
  const std::size_t pool = a.pool_size();
  for (UserId u = 0; u < a.num_users(); ++u) {
    ASSERT_TRUE(std::ranges::equal(a.UserKeys(u), b.UserKeys(u))) << u;
    ASSERT_TRUE(std::ranges::equal(a.UserScores(u), b.UserScores(u))) << u;
    for (const std::size_t prefix : {pool, pool / 3}) {
      const std::vector<ListEntry> va =
          Drain(a.UserView(u, prefix, {}, prefix), prefix);
      const std::vector<ListEntry> vb =
          Drain(b.UserView(u, prefix, {}, prefix), prefix);
      ASSERT_EQ(va.size(), vb.size());
      for (std::size_t i = 0; i < va.size(); ++i) {
        ASSERT_EQ(va[i].id, vb[i].id) << "row " << u << " prefix " << prefix;
        ASSERT_EQ(va[i].score, vb[i].score) << "row " << u;
      }
    }
  }
}

std::vector<std::span<const Score>> Views(
    const std::vector<std::vector<Score>>& scores,
    std::span<const UserId> users) {
  std::vector<std::span<const Score>> views;
  for (const UserId u : users) views.emplace_back(scores[u]);
  return views;
}

TEST(PreferenceIndexPagesTest, PageGeometryFollowsTheByteBudget) {
  // 256 keys x (key + score + position) = 4 KiB per order: 8 twin records
  // or 16 single-order records per 64 KiB page.
  const auto scores = RandomPoolScores(3, 256, 1);
  EXPECT_EQ(BuildPoolIndex(scores, 256).rows_per_page(), 8u);
  EXPECT_EQ(BuildPoolIndex(scores, 256, /*flat_twin=*/false).rows_per_page(),
            16u);
  // Pool 3 900 with the twin needs ~122 KiB per record: one row per page.
  const auto wide = RandomPoolScores(2, 3'900, 2);
  const PreferenceIndex index = BuildPoolIndex(wide, 3'900);
  EXPECT_EQ(index.num_bands(), 7u);
  EXPECT_EQ(index.rows_per_page(), 1u);
  // MemoryBreakdownBytes reports the logical row bytes, page slack aside.
  EXPECT_EQ(index.MemoryBreakdownBytes().banded_bytes, 2u * 3'900u * 16u);
  EXPECT_EQ(index.MemoryBreakdownBytes().flat_twin_bytes, 2u * 3'900u * 16u);
}

TEST(PreferenceIndexPagesTest, SortOnceMatchesPerBandSorts) {
  // With the twin, band order is scattered from the one global sort; without
  // it, every band is sorted on its own. Both must give the same rows.
  const auto scores = RandomPoolScores(9, 700, 3);
  const PreferenceIndex twin = BuildPoolIndex(scores, 700);
  const PreferenceIndex banded = BuildPoolIndex(scores, 700, false);
  ASSERT_TRUE(twin.has_flat_twin());
  ASSERT_FALSE(banded.has_flat_twin());
  for (UserId u = 0; u < twin.num_users(); ++u) {
    EXPECT_TRUE(std::ranges::equal(twin.UserKeys(u), banded.UserKeys(u)));
    EXPECT_TRUE(std::ranges::equal(twin.UserScores(u), banded.UserScores(u)));
  }
}

TEST(PreferenceIndexPagesTest, CloneSharesUntouchedPagesAndKeepsParent) {
  constexpr std::size_t kPool = 256;
  // Five full pages of 8 rows plus a partial last page of 3.
  auto scores = RandomPoolScores(43, kPool, 4);
  const PreferenceIndex parent = BuildPoolIndex(scores, kPool);
  const std::size_t rpp = parent.rows_per_page();
  ASSERT_EQ(rpp, 8u);
  std::vector<std::vector<ListKey>> parent_keys;
  std::vector<std::vector<Score>> parent_scores;
  for (UserId u = 0; u < parent.num_users(); ++u) {
    parent_keys.emplace_back(parent.UserKeys(u).begin(),
                             parent.UserKeys(u).end());
    parent_scores.emplace_back(parent.UserScores(u).begin(),
                               parent.UserScores(u).end());
  }

  // Both sides of the first page boundary and a row on the partial page.
  const std::vector<UserId> touched{static_cast<UserId>(rpp - 1),
                                    static_cast<UserId>(rpp), 41};
  const auto fresh = RandomPoolScores(touched.size(), kPool, 5);
  for (std::size_t i = 0; i < touched.size(); ++i) {
    scores[touched[i]] = fresh[i];
  }
  const PreferenceIndex clone =
      parent.CloneWithUpdatedPoolRows(touched, Views(scores, touched));

  const auto page_touched = [&](UserId u) {
    return std::ranges::any_of(
        touched, [&](UserId t) { return t / rpp == u / rpp; });
  };
  for (UserId u = 0; u < parent.num_users(); ++u) {
    const bool shared =
        clone.UserKeys(u).data() == parent.UserKeys(u).data() &&
        clone.UserScores(u).data() == parent.UserScores(u).data();
    // Rows on untouched pages are the parent's storage; every row on a
    // touched page (touched or not) lives in that page's fresh copy.
    EXPECT_EQ(shared, !page_touched(u)) << "row " << u;
    // The parent generation never changes.
    EXPECT_TRUE(std::ranges::equal(parent.UserKeys(u), parent_keys[u])) << u;
    EXPECT_TRUE(std::ranges::equal(parent.UserScores(u), parent_scores[u]))
        << u;
  }
  ExpectSameRows(clone, BuildPoolIndex(scores, kPool));
}

TEST(PreferenceIndexPagesTest, OneRowPerPageAtWidePools) {
  constexpr std::size_t kPool = 3'900;
  auto scores = RandomPoolScores(5, kPool, 6);
  const PreferenceIndex parent = BuildPoolIndex(scores, kPool);
  ASSERT_EQ(parent.rows_per_page(), 1u);
  const std::vector<UserId> touched{2};
  scores[2] = RandomPoolScores(1, kPool, 7)[0];
  const PreferenceIndex clone =
      parent.CloneWithUpdatedPoolRows(touched, Views(scores, touched));
  for (UserId u = 0; u < parent.num_users(); ++u) {
    EXPECT_EQ(clone.UserKeys(u).data() == parent.UserKeys(u).data(), u != 2)
        << "row " << u;
  }
  ExpectSameRows(clone, BuildPoolIndex(scores, kPool));
}

TEST(PreferenceIndexPagesTest, RowListedTwiceKeepsItsLastScores) {
  constexpr std::size_t kPool = 256;
  auto scores = RandomPoolScores(10, kPool, 8);
  const PreferenceIndex parent = BuildPoolIndex(scores, kPool);
  const auto fresh = RandomPoolScores(2, kPool, 9);
  const std::vector<UserId> users{3, 3};
  const std::vector<std::span<const Score>> views{fresh[0], fresh[1]};
  const PreferenceIndex clone = parent.CloneWithUpdatedPoolRows(users, views);
  scores[3] = fresh[1];
  ExpectSameRows(clone, BuildPoolIndex(scores, kPool));
}

TEST(PreferenceIndexPagesTest, CloneChainMatchesFreshBuild) {
  // Twenty generations, each built from the previous one, which is dropped
  // right after: the survivor shares pages with freed generations' parents
  // only through its own page table (ASan flags any page freed too early).
  constexpr std::size_t kPool = 256;
  constexpr std::size_t kRows = 37;
  auto scores = RandomPoolScores(kRows, kPool, 10);
  auto index = std::make_unique<PreferenceIndex>(BuildPoolIndex(scores, kPool));
  std::mt19937 rng(11);
  std::uniform_int_distribution<UserId> any_row(0, kRows - 1);
  for (std::uint32_t step = 0; step < 20; ++step) {
    std::vector<UserId> touched(1 + step % 4);
    for (UserId& u : touched) u = any_row(rng);
    const auto fresh = RandomPoolScores(touched.size(), kPool, 100 + step);
    std::vector<std::span<const Score>> views;
    for (std::size_t i = 0; i < touched.size(); ++i) {
      scores[touched[i]] = fresh[i];
      views.emplace_back(fresh[i]);
    }
    auto next = std::make_unique<PreferenceIndex>(
        index->CloneWithUpdatedPoolRows(touched, views));
    index = std::move(next);
  }
  ExpectSameRows(*index, BuildPoolIndex(scores, kPool));
}

TEST(PreferenceIndexPagesTest, PerItemCloneMatchesPoolClone) {
  // CloneWithUpdatedRows gathers per-item predictions to pool order; over a
  // permuted pool it must land on the same rows as the pool-order twin.
  constexpr std::size_t kItems = 300;
  auto predictions = RandomPoolScores(20, kItems, 12);
  std::vector<ItemId> pool = IdentityPool(kItems);
  std::shuffle(pool.begin(), pool.end(), std::mt19937(13));
  pool.resize(200);
  const auto breakpoints = PreferenceIndex::GeometricBandBreakpoints(200);
  const PreferenceIndex parent = PreferenceIndex::Build(
      predictions, 5.0, pool, kItems, breakpoints);
  const std::vector<UserId> touched{0, 15, 19};
  for (const UserId u : touched) {
    predictions[u] = RandomPoolScores(1, kItems, 14 + u)[0];
  }
  const PreferenceIndex clone =
      parent.CloneWithUpdatedRows(touched, Views(predictions, touched));
  ExpectSameRows(clone, PreferenceIndex::Build(predictions, 5.0, pool, kItems,
                                               breakpoints));
}

}  // namespace
}  // namespace greca
