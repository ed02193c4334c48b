// Tests for the shared PreferenceIndex: row ordering, the item↔key maps,
// prefix/tombstone slicing through UserView, the copy-on-write pages
// behind CloneWithUpdated*Rows, the radix row sort against a comparator
// reference, and a ShardedEngine caller's NaN scores and ill-formed pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "affinity/affinity_source.h"
#include "dataset/synthetic.h"
#include "index/preference_index.h"
#include "shard/sharded_engine.h"
#include "topk/list_view.h"
#include "topk/sorted_list.h"

namespace greca {

/// Reads PreferenceIndex's private row accessor: the stored row with its
/// key→position map, for bit-level row checks.
class PreferenceIndexTestPeer {
 public:
  using RowOrder = PreferenceIndex::RowOrder;
  static RowOrder UserOrder(const PreferenceIndex& index, UserId u) {
    return index.UserOrder(u);
  }
};

namespace {

using Peer = PreferenceIndexTestPeer;
using RowOrder = Peer::RowOrder;

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
/// also the per-item predictions).
PreferenceIndex BuildPoolIndex(const std::vector<std::vector<Score>>& scores,
                               std::size_t pool) {
  return PreferenceIndex::Build(scores, /*scale_max=*/5.0, IdentityPool(pool),
                                pool);
}

/// Generic ShardedEngine inputs over a scale dataset: constant affinity and
/// a predictor that scores each pool item by the ground truth, shifted by
/// the user's rating count so a publish changes the row.
ShardedEngineInputs TruthInputs(const SyntheticRatings& scale,
                                std::vector<ItemId> pool) {
  ShardedEngineInputs inputs;
  inputs.ratings = std::shared_ptr<const RatingsDataset>(
      std::shared_ptr<const void>(), &scale.dataset);
  inputs.affinity = std::make_shared<const ConstantAffinitySource>(
      scale.dataset.num_users(), /*num_periods=*/1, /*static_value=*/1.0,
      /*periodic_value=*/1.0);
  inputs.predictor = [&scale](UserId u,
                              std::span<const UserRatingEntry> merged,
                              std::span<const ItemId> pool_items,
                              std::span<Score> out) {
    for (std::size_t k = 0; k < pool_items.size(); ++k) {
      out[k] = scale.truth.TruePreference(u, pool_items[k]) +
               0.01 * static_cast<double>(merged.size());
    }
  };
  inputs.pool = std::move(pool);
  inputs.num_universe_items = scale.dataset.num_items();
  return inputs;
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

/// Both indexes read bit-identically: the stored rows and full- and
/// small-prefix views over them, for every row.
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
  // One order per row: 16 bytes per pool item (key + score + position).
  // Pool 512 is 8 KiB per record, 8 records per 64 KiB page.
  const auto scores = RandomPoolScores(3, 512, 1);
  EXPECT_EQ(BuildPoolIndex(scores, 512).rows_per_page(), 8u);
  // Pool 3 900 needs ~61 KiB per record: one row per page.
  const auto wide = RandomPoolScores(2, 3'900, 2);
  const PreferenceIndex index = BuildPoolIndex(wide, 3'900);
  EXPECT_EQ(index.rows_per_page(), 1u);
  // MemoryBytes reports the logical row and map bytes, page slack aside.
  EXPECT_EQ(index.MemoryBytes(), 2u * 3'900u * 16u + 3'900u * 4u * 2u);
}

TEST(PreferenceIndexPagesTest, EngineStoresEachRowOnce) {
  // The scale shape: a ShardedEngine over pool 256. Every shard's index
  // stores each row once — 4 KiB per record, 16 records per page — and its
  // size is rows × pool × 16 B plus the pool and item→key maps.
  ScaleRatingsConfig sc;
  sc.num_users = 300;
  sc.num_items = 400;
  sc.seed = 3;
  const SyntheticRatings scale = GenerateScaleRatings(sc);
  constexpr std::size_t kPool = 256;
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.batch_threads = 1;
  const ShardedEngine engine(
      TruthInputs(scale, scale.dataset.TopPopularItems(kPool)), options);
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    const PreferenceIndex& index = *engine.Pin()->shard(s).index;
    EXPECT_EQ(index.rows_per_page(), 16u) << "shard " << s;
    EXPECT_EQ(index.MemoryBytes(),
              engine.shard(s).num_local_users() * kPool * 16u +
                  kPool * sizeof(ItemId) +
                  scale.dataset.num_items() * sizeof(std::uint32_t))
        << "shard " << s;
  }
}

TEST(PreferenceIndexPagesTest, CloneSharesUntouchedPagesAndKeepsParent) {
  constexpr std::size_t kPool = 512;
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
  constexpr std::size_t kPool = 512;
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
  const PreferenceIndex parent =
      PreferenceIndex::Build(predictions, 5.0, pool, kItems);
  const std::vector<UserId> touched{0, 15, 19};
  for (const UserId u : touched) {
    predictions[u] = RandomPoolScores(1, kItems, 14 + u)[0];
  }
  const PreferenceIndex clone =
      parent.CloneWithUpdatedRows(touched, Views(predictions, touched));
  ExpectSameRows(clone, PreferenceIndex::Build(predictions, 5.0, pool, kItems));
}

// --- Radix row sort vs a comparator reference -------------------------------

/// Pool-order raw scores at universe scale (scale_max 5) built to stress the
/// radix sort: exact ties, -0.0 beside +0.0, values outside [0, scale_max]
/// (±inf included), 1-ulp neighbours, subnormals and all-equal rows. Row r
/// takes kind r % 7; the last kind mixes the others per entry.
std::vector<Score> AdversarialRow(std::size_t pool, std::size_t kind,
                                  std::mt19937& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const auto pick = [&](std::initializer_list<double> values) {
    std::uniform_int_distribution<std::size_t> any(0, values.size() - 1);
    return values.begin()[any(rng)];
  };
  std::uniform_real_distribution<double> stars(0.0, 5.0);
  std::uniform_int_distribution<int> small(0, 6);
  const double near = 2.5;
  std::vector<Score> row(pool);
  for (Score& s : row) {
    const std::size_t k = kind == 6 ? small(rng) % 6 : kind;
    switch (k) {
      case 0:  // exact ties on a coarse grid
        s = 1.25 * small(rng);
        break;
      case 1:  // signed zeros among positives
        s = pick({-0.0, 0.0, -0.0, 2.5});
        break;
      case 2:  // outside [0, scale_max]: clamps to 0 or 1
        s = pick({-3.0, -1e-300, 7.5, kInf, -kInf, 5.0, 0.0, stars(rng)});
        break;
      case 3:  // 1-ulp neighbours
        s = pick({near, std::nextafter(near, kInf), std::nextafter(near, 0.0),
                  std::nextafter(std::nextafter(near, kInf), kInf), 5.0,
                  std::nextafter(5.0, 0.0)});
        break;
      case 4:  // subnormals: 5·k·denorm_min / 5 is exactly k·denorm_min
        s = 5.0 * kTiny * small(rng);
        break;
      default:  // all equal
        s = 3.0;
        break;
    }
  }
  return row;
}

/// Reference normalization: raw / scale_max clamped to [0, 1], NaN as 0.
Score Normalized(Score raw, double scale_max) {
  const Score s = raw / scale_max;
  return std::isnan(s) ? 0.0 : std::clamp(s, 0.0, 1.0);
}

/// Reference order of keys [begin, end) of `raw`: std::stable_sort under
/// ListEntryOrder.
std::vector<ListEntry> ReferenceOrder(std::span<const Score> raw,
                                      std::size_t begin, std::size_t end,
                                      double scale_max) {
  std::vector<ListEntry> entries;
  for (std::size_t key = begin; key < end; ++key) {
    entries.push_back(
        {static_cast<ListKey>(key), Normalized(raw[key], scale_max)});
  }
  std::stable_sort(entries.begin(), entries.end(), ListEntryOrder{});
  return entries;
}

/// `got` holds exactly `want`: keys, scores bit for bit (-0.0 is not +0.0)
/// and the key→position map.
void ExpectOrder(const RowOrder& got,
                 const std::vector<ListEntry>& want, const std::string& what) {
  ASSERT_EQ(got.keys.size(), want.size()) << what;
  for (std::size_t p = 0; p < want.size(); ++p) {
    ASSERT_EQ(got.keys[p], want[p].id) << what << " position " << p;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.scores[p]),
              std::bit_cast<std::uint64_t>(want[p].score))
        << what << " position " << p;
    ASSERT_EQ(got.positions[want[p].id], p) << what << " key " << want[p].id;
  }
}

/// Every row of `index` equals the reference built from `raw` (pool-order
/// raw scores per row).
void ExpectMatchesReference(const PreferenceIndex& index,
                            const std::vector<std::vector<Score>>& raw,
                            double scale_max, const std::string& what) {
  ASSERT_EQ(index.num_users(), raw.size());
  for (UserId u = 0; u < raw.size(); ++u) {
    ExpectOrder(Peer::UserOrder(index, u),
                ReferenceOrder(raw[u], 0, raw[u].size(), scale_max),
                what + " row " + std::to_string(u));
  }
}

PreferenceIndex BuildRaw(const std::vector<std::vector<Score>>& raw,
                         std::size_t pool) {
  return PreferenceIndex::BuildStreaming(
      raw.size(),
      [&](UserId u, std::span<const ItemId>, std::span<Score> out) {
        std::copy(raw[u].begin(), raw[u].end(), out.begin());
      },
      /*scale_max=*/5.0, IdentityPool(pool), pool);
}

TEST(PreferenceIndexRadixTest, RowsMatchStableSortReference) {
  constexpr std::size_t kRows = 14;  // every row kind twice
  for (const std::size_t pool :
       {1u, 2u, 63u, 64u, 65u, 255u, 256u, 257u, 3'900u}) {
    std::mt19937 rng(static_cast<std::uint32_t>(pool));
    std::vector<std::vector<Score>> raw;
    for (std::size_t r = 0; r < kRows; ++r) {
      raw.push_back(AdversarialRow(pool, r % 7, rng));
    }
    ExpectMatchesReference(BuildRaw(raw, pool), raw, 5.0,
                           "pool " + std::to_string(pool));
  }
}

/// Row `u` of both indexes reads bit-identically in every stored array.
void ExpectRowBitIdentical(const PreferenceIndex& a,
                           const PreferenceIndex& b, UserId u) {
  const auto same = [](auto x, auto y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  };
  const RowOrder x = Peer::UserOrder(a, u);
  const RowOrder y = Peer::UserOrder(b, u);
  EXPECT_TRUE(same(x.keys, y.keys)) << "row " << u;
  EXPECT_TRUE(same(x.scores, y.scores)) << "row " << u;
  EXPECT_TRUE(same(x.positions, y.positions)) << "row " << u;
}

// Pool 512: 8 rows per page, so 21 rows are pages {0..7}, {8..15} and a
// partial last page {16..20}.
class PreferenceIndexCloneTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPool = 512;
  static constexpr std::size_t kRows = 21;

  PreferenceIndexCloneTest() : rng_(21) {
    for (std::size_t r = 0; r < kRows; ++r) {
      raw_.push_back(AdversarialRow(kPool, r % 7, rng_));
    }
    parent_ = std::make_unique<PreferenceIndex>(BuildRaw(raw_, kPool));
  }

  /// Clones the parent with fresh adversarial scores for `users` (in that
  /// order; a repeat gets its own scores) and records the last scores of
  /// each user in raw_, the reference of the result.
  PreferenceIndex Clone(const std::vector<UserId>& users) {
    std::vector<std::vector<Score>> fresh;
    for (std::size_t i = 0; i < users.size(); ++i) {
      fresh.push_back(AdversarialRow(kPool, 6, rng_));
    }
    const std::vector<std::span<const Score>> views(fresh.begin(),
                                                    fresh.end());
    PreferenceIndex clone = parent_->CloneWithUpdatedPoolRows(users, views);
    for (std::size_t i = 0; i < users.size(); ++i) {
      raw_[users[i]] = fresh[i];
    }
    return clone;
  }

  bool Shared(const PreferenceIndex& clone, UserId u) const {
    return clone.UserKeys(u).data() == parent_->UserKeys(u).data();
  }

  std::mt19937 rng_;
  std::vector<std::vector<Score>> raw_;
  std::unique_ptr<PreferenceIndex> parent_;
};

TEST_F(PreferenceIndexCloneTest, FullyRewrittenPagesNeedNoParentCopy) {
  ASSERT_EQ(parent_->rows_per_page(), 8u);
  // Every row of page 1 and of the partial last page, out of order: both
  // pages are rebuilt in full, so neither starts from a copy of its parent.
  const PreferenceIndex clone =
      Clone({12, 8, 15, 9, 20, 14, 10, 17, 13, 11, 16, 18, 19});
  ExpectMatchesReference(clone, raw_, 5.0, "clone");
  for (UserId u = 0; u < kRows; ++u) EXPECT_EQ(Shared(clone, u), u < 8) << u;
}

TEST_F(PreferenceIndexCloneTest, RowListedTwiceOnFullyRewrittenPage) {
  // Page 1 in full with row 11 listed three times: it keeps its last scores.
  const PreferenceIndex clone =
      Clone({11, 8, 9, 10, 11, 12, 13, 14, 15, 11});
  ExpectMatchesReference(clone, raw_, 5.0, "clone");
}

TEST_F(PreferenceIndexCloneTest, PartlyRewrittenPageKeepsOtherRowsIntact) {
  // Eight entries on page 1 but only seven distinct rows: row 15 must come
  // from the parent's page, bit for bit. Row 18 alone on the last page
  // leaves four parent rows there.
  const PreferenceIndex clone = Clone({8, 9, 9, 10, 11, 12, 13, 14, 18});
  ExpectMatchesReference(clone, raw_, 5.0, "clone");
  for (const UserId u : {15u, 16u, 17u, 19u, 20u}) {
    EXPECT_FALSE(Shared(clone, u)) << u;
    ExpectRowBitIdentical(clone, *parent_, u);
  }
}

// --- NaN scores --------------------------------------------------------------

/// Every row is in descending score order with ties by ascending key, and
/// holds no NaN.
void ExpectRowsSorted(const PreferenceIndex& index) {
  for (UserId u = 0; u < index.num_users(); ++u) {
    const auto keys = index.UserKeys(u);
    const auto scores = index.UserScores(u);
    for (std::size_t p = 0; p < keys.size(); ++p) {
      ASSERT_FALSE(std::isnan(scores[p])) << "row " << u << " position " << p;
      if (p > 0) {
        ASSERT_TRUE(ListEntryOrder{}({keys[p - 1], scores[p - 1]},
                                     {keys[p], scores[p]}))
            << "row " << u << " position " << p;
      }
    }
  }
}

TEST(PreferenceIndexNanTest, StreamingBuildStoresNanAsZero) {
  constexpr std::size_t kPool = 3'900;
  std::mt19937 rng(97);
  std::uniform_real_distribution<double> stars(0.0, 5.0);
  std::vector<std::vector<Score>> raw(4, std::vector<Score>(kPool));
  for (auto& row : raw) {
    for (std::size_t key = 0; key < kPool; ++key) {
      row[key] = key % 97 == 0 ? std::numeric_limits<double>::quiet_NaN()
                               : stars(rng);
    }
  }
  const PreferenceIndex index = BuildRaw(raw, kPool);
  ExpectRowsSorted(index);
  ExpectMatchesReference(index, raw, 5.0, "streaming");
  const RowOrder row = Peer::UserOrder(index, 0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(row.scores[row.positions[97]]),
            std::bit_cast<std::uint64_t>(0.0));
}

TEST(PreferenceIndexNanTest, ShardedEngineWithNanPredictorServes) {
  ScaleRatingsConfig sc;
  sc.num_users = 400;
  sc.num_items = 300;
  sc.seed = 5;
  const SyntheticRatings scale = GenerateScaleRatings(sc);
  constexpr std::size_t kPool = 200;
  ShardedEngineInputs inputs =
      TruthInputs(scale, scale.dataset.TopPopularItems(kPool));
  // Every 7th (user, key) cell is NaN; the rest is the ground truth, shifted
  // by the user's rating count so a publish changes the row.
  inputs.predictor = [&scale](UserId u,
                              std::span<const UserRatingEntry> merged,
                              std::span<const ItemId> pool,
                              std::span<Score> out) {
    for (std::size_t k = 0; k < pool.size(); ++k) {
      out[k] = (u + k) % 7 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                : scale.truth.TruePreference(u, pool[k]) +
                                      0.01 * static_cast<double>(merged.size());
    }
  };
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.batch_threads = 1;
  ShardedEngine engine(std::move(inputs), options);

  QuerySpec spec;
  spec.k = 8;
  spec.model = AffinityModelSpec::TimeAgnostic();
  spec.num_candidate_items = kPool;
  spec.eval_period = 0;
  const auto check = [&] {
    for (std::size_t s = 0; s < engine.num_shards(); ++s) {
      ExpectRowsSorted(*engine.Pin()->shard(s).index);
    }
    for (UserId first = 0; first + 4 < 400; first += 37) {
      const std::vector<UserId> group{first, first + 1, first + 2, first + 3};
      const Result<Recommendation> rec = engine.Recommend(group, spec);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      EXPECT_EQ(rec.value().items.size(), spec.k);
    }
  };
  check();
  // A publish rebuilds the touched rows through the clone path.
  std::vector<RatingEvent> events;
  for (UserId u = 0; u < 400; u += 9) {
    events.push_back({u, scale.dataset.TopPopularItems(1)[0], 4.0,
                      std::numeric_limits<Timestamp>::max() / 2});
  }
  ASSERT_TRUE(engine.ApplyUpdates(events).ok());
  check();
}

// --- Caller-supplied pools -----------------------------------------------

TEST(PreferenceIndexPoolTest, BuildDropsOutOfRangeAndRepeatedPoolItems) {
  // Called directly, with no engine filtering its inputs: items past the
  // universe and repeats must neither reach the item→key map nor get a
  // key. Checked by value, so a Release build (no asserts) proves it too.
  constexpr std::size_t kUniverse = 8;
  const std::vector<std::vector<Score>> predictions = {
      {1.0, 2.0, 3.0, 4.0, 0.0, 5.0, 2.5, 1.5},
      {4.0, 0.5, 4.0, 1.0, 2.5, 2.0, 3.0, 0.0},
      {0.0, 5.0, 1.0, 1.0, 4.5, 3.5, 2.0, 4.0},
  };
  const std::vector<ItemId> clean = {5, 2, 0, 3, 7};
  const std::vector<ItemId> dirty = {
      5, 9, 2, 5, 0, 100, 3, 2, 7, std::numeric_limits<ItemId>::max(), 0, 8};
  const auto streaming = [&](const std::vector<ItemId>& pool) {
    return PreferenceIndex::BuildStreaming(
        predictions.size(),
        [&](UserId u, std::span<const ItemId> p, std::span<Score> out) {
          for (std::size_t key = 0; key < p.size(); ++key) {
            out[key] = predictions[u][p[key]];
          }
        },
        /*scale_max=*/5.0, pool, kUniverse);
  };
  const PreferenceIndex want =
      PreferenceIndex::Build(predictions, 5.0, clean, kUniverse);
  const auto same_rows = [](const PreferenceIndex& a, const PreferenceIndex& b,
                            UserId u) {
    return std::ranges::equal(a.UserKeys(u), b.UserKeys(u)) &&
           std::ranges::equal(a.UserScores(u), b.UserScores(u)) &&
           std::ranges::equal(Peer::UserOrder(a, u).positions,
                              Peer::UserOrder(b, u).positions);
  };
  const auto check = [&](const PreferenceIndex& got) {
    ASSERT_EQ(got.pool_size(), clean.size());
    EXPECT_TRUE(std::ranges::equal(got.pool(), clean));
    for (ItemId item = 0; item < kUniverse + 4; ++item) {
      EXPECT_EQ(got.PoolPositionOf(item), want.PoolPositionOf(item)) << item;
    }
    for (UserId u = 0; u < predictions.size(); ++u) {
      EXPECT_TRUE(same_rows(got, want, u)) << u;
    }
    // The clone path inherits the filtered pool.
    const std::vector<Score> fresh = {5.0, 0.0, 4.0, 1.0, 2.0, 3.0, 0.5, 2.5};
    const UserId touched[] = {1};
    const std::span<const Score> rows[] = {fresh};
    EXPECT_TRUE(same_rows(got.CloneWithUpdatedRows(touched, rows),
                          want.CloneWithUpdatedRows(touched, rows), 1));
  };
  check(PreferenceIndex::Build(predictions, 5.0, dirty, kUniverse));
  check(streaming(dirty));
}

TEST(PreferenceIndexPoolTest, ShardedEngineDropsOutOfRangeAndRepeatedPools) {
  ScaleRatingsConfig sc;
  sc.num_users = 400;
  sc.num_items = 300;
  sc.seed = 7;
  const SyntheticRatings scale = GenerateScaleRatings(sc);
  const std::vector<ItemId> clean = scale.dataset.TopPopularItems(120);
  // The clean pool with items past the universe and repeats of earlier
  // items mixed in.
  std::vector<ItemId> dirty;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    dirty.push_back(clean[i]);
    if (i % 10 == 3) dirty.push_back(static_cast<ItemId>(sc.num_items + i));
    if (i % 10 == 7) dirty.push_back(clean[i / 2]);
  }
  dirty.push_back(std::numeric_limits<ItemId>::max());
  dirty.push_back(clean.front());
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.batch_threads = 1;
  ShardedEngine engine(TruthInputs(scale, dirty), options);
  ShardedEngine reference(TruthInputs(scale, clean), options);
  EXPECT_TRUE(std::ranges::equal(engine.pool(), clean));

  QuerySpec spec;
  spec.k = 8;
  spec.model = AffinityModelSpec::TimeAgnostic();
  spec.num_candidate_items = clean.size();
  spec.eval_period = 0;
  const auto expect_same = [&](const std::string& phase) {
    for (UserId first = 0; first + 3 < 400; first += 41) {
      const std::vector<UserId> group{first, first + 1, first + 2};
      const Result<Recommendation> got = engine.Recommend(group, spec);
      const Result<Recommendation> want = reference.Recommend(group, spec);
      ASSERT_TRUE(got.ok()) << phase << ": " << got.status().ToString();
      ASSERT_TRUE(want.ok()) << phase;
      EXPECT_EQ(got.value().items, want.value().items) << phase << " " << first;
      EXPECT_EQ(got.value().scores, want.value().scores) << phase;
    }
  };
  expect_same("build");
  // A publish rebuilds the touched rows through the clone path.
  std::vector<RatingEvent> events;
  for (UserId u = 0; u < 400; u += 11) {
    events.push_back({u, clean[u % clean.size()], 4.0,
                      std::numeric_limits<Timestamp>::max() / 2});
  }
  ASSERT_TRUE(engine.ApplyUpdates(events).ok());
  ASSERT_TRUE(reference.ApplyUpdates(events).ok());
  expect_same("publish");
}

}  // namespace
}  // namespace greca
