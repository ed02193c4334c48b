// Banded-vs-flat layout equivalence: popularity-banded index rows must be
// observationally identical to the globally sorted flat layout — bit-identical
// recommendations AND identical sequential/random access counts across all
// three algorithms — while cutting the raw entries an exhaustive scan over a
// prefix-restricted view walks from ~full-row to within 2x of the prefix.
//
// Three levels:
//  * ListView: randomized banded rows walked head-to-head against flat rows
//    (merged order, counters, MaxScore/PeekScore/ScoreOfKey, cursor rewind);
//  * facade: engines differing only in RecommenderOptions::min_band_size
//    (0 = flat), randomized groups/pools/specs, all algorithms — including
//    after ApplyRatingUpdates rebuilds rows through CloneWithUpdatedRows, and
//    a flat ShardedEngine, whose build derives its band grid on its own path;
//  * cost model: scan_footprint() of small-prefix views (the acceptance
//    criterion the bench_batch layout sweep measures as qps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/greca.h"
#include "core/group_recommender.h"
#include "index/preference_index.h"
#include "shard/sharded_engine.h"
#include "solver/solver_registry.h"
#include "topk/list_view.h"
#include "topk/naive.h"
#include "topk/simd.h"
#include "topk/ta.h"

namespace greca {
namespace {

// ---- View-level equivalence ----------------------------------------------

/// One user row realized in a given band layout: SoA keys/scores in band
/// order (per-band descending score, ties ascending key), key→position map,
/// and the band boundary array. Empty `breakpoints` = flat (one band).
struct LayoutRow {
  std::vector<ListKey> keys;
  std::vector<Score> scores;
  std::vector<std::uint32_t> positions;
  std::vector<std::uint32_t> bounds;
};

LayoutRow MakeRow(const std::vector<double>& scores,
                  const std::vector<std::uint32_t>& breakpoints) {
  LayoutRow row;
  const auto n = static_cast<std::uint32_t>(scores.size());
  row.bounds.push_back(0);
  for (const std::uint32_t b : breakpoints) {
    if (b > 0 && b < n) row.bounds.push_back(b);
  }
  row.bounds.push_back(n);

  std::vector<ListEntry> entries;
  entries.reserve(n);
  for (std::uint32_t key = 0; key < n; ++key) {
    entries.push_back({key, scores[key]});
  }
  for (std::size_t b = 0; b + 1 < row.bounds.size(); ++b) {
    std::sort(entries.begin() + row.bounds[b],
              entries.begin() + row.bounds[b + 1], ListEntryOrder{});
  }
  row.keys.resize(n);
  row.scores.resize(n);
  row.positions.resize(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    row.keys[p] = entries[p].id;
    row.scores[p] = entries[p].score;
    row.positions[entries[p].id] = p;
  }
  return row;
}

/// The covered-band view over a banded row, mirroring
/// PreferenceIndex::UserView's band selection.
ListView BandedView(const LayoutRow& row, std::size_t prefix,
                    std::span<const std::uint64_t> tombstones,
                    std::size_t live) {
  std::size_t nb = 1;
  while (row.bounds[nb] < prefix) ++nb;
  const std::span<const ListKey> keys{row.keys.data(), row.bounds[nb]};
  const std::span<const Score> scores{row.scores.data(), row.bounds[nb]};
  if (nb == 1) {
    return ListView(keys, scores, row.positions, prefix, live, tombstones);
  }
  return ListView(keys, scores, row.positions, prefix, live, tombstones,
                  std::span<const std::uint32_t>(row.bounds.data(), nb + 1));
}

TEST(BandedListViewTest, MergedWalkMatchesFlatWalkOnRandomRows) {
  Rng rng(20'260'729);
  for (int trial = 0; trial < 80; ++trial) {
    const auto pool = static_cast<std::size_t>(rng.NextInt(8, 96));
    std::vector<double> scores(pool);
    for (double& s : scores) {
      // Coarse quantization forces plenty of score ties so the merged
      // tie-break (ascending key) is actually exercised.
      s = static_cast<double>(rng.NextBounded(8)) / 8.0;
    }
    // Geometric grid with a small first band; every trial gets >= 2 bands.
    const std::vector<std::uint32_t> breakpoints =
        PreferenceIndex::GeometricBandBreakpoints(
            pool, static_cast<std::size_t>(rng.NextInt(2, 5)));
    const LayoutRow flat = MakeRow(scores, {});
    const LayoutRow banded = MakeRow(scores, breakpoints);

    const auto prefix = static_cast<std::size_t>(
        rng.NextInt(1, static_cast<std::int64_t>(pool)));
    std::vector<std::uint64_t> tombstones((prefix + 63) / 64, 0);
    std::size_t live = 0;
    for (std::uint32_t key = 0; key < prefix; ++key) {
      if (rng.NextBool(0.3)) {
        tombstones[key >> 6] |= 1ull << (key & 63u);
      } else {
        ++live;
      }
    }
    const ListView fv(std::span<const ListKey>(flat.keys),
                      std::span<const Score>(flat.scores), flat.positions,
                      prefix, live, tombstones);
    const ListView bv = BandedView(banded, prefix, tombstones, live);
    const std::string label = "trial " + std::to_string(trial) + " pool=" +
                              std::to_string(pool) + " prefix=" +
                              std::to_string(prefix) + " bands=" +
                              std::to_string(bv.num_bands());

    EXPECT_EQ(fv.size(), bv.size()) << label;
    EXPECT_DOUBLE_EQ(fv.MaxScore(), bv.MaxScore()) << label;
    for (std::uint32_t key = 0; key < pool; ++key) {
      EXPECT_DOUBLE_EQ(fv.ScoreOfKey(key), bv.ScoreOfKey(key))
          << label << " key " << key;
    }

    // Two complete walks over the SAME banded view: the second rewinds the
    // cursor to 0 and must replay identically (merge-state reset).
    for (int pass = 0; pass < 2; ++pass) {
      AccessCounter fc, bc;
      std::size_t fcur = 0, bcur = 0;
      std::size_t read = 0;
      for (;;) {
        const bool f_more = fv.SkipToLive(fcur);
        const bool b_more = bv.SkipToLive(bcur);
        ASSERT_EQ(f_more, b_more) << label << " pass " << pass;
        if (!f_more) break;
        EXPECT_DOUBLE_EQ(fv.PeekScore(fcur), bv.PeekScore(bcur))
            << label << " pass " << pass;
        const ListEntry& fe = fv.ReadSequential(fcur, fc);
        const ListEntry& be = bv.ReadSequential(bcur, bc);
        ASSERT_EQ(fe.id, be.id) << label << " pass " << pass << " read " << read;
        EXPECT_DOUBLE_EQ(fe.score, be.score) << label;
        // An uncounted MaxScore mid-walk must not perturb the merge.
        if (read % 5 == 2) {
          EXPECT_DOUBLE_EQ(fv.MaxScore(), bv.MaxScore());
        }
        ++read;
      }
      EXPECT_EQ(read, live) << label;
      EXPECT_EQ(fc.sequential, bc.sequential) << label;
      EXPECT_EQ(fc.sequential, live) << label;
    }

    // The cost model: the banded view walks at most up to the first band
    // boundary past the prefix; the flat view spans the whole row.
    EXPECT_EQ(fv.scan_footprint(), pool) << label;
    std::size_t bound = banded.bounds.back();
    for (const std::uint32_t b : banded.bounds) {
      if (b >= prefix) {
        bound = b;
        break;
      }
    }
    EXPECT_EQ(bv.scan_footprint(), bound) << label;
  }
}

// ---- SoA-vs-AoS oracle ---------------------------------------------------

/// Walks `view` to exhaustion and asserts it yields exactly `expected` (the
/// AoS oracle's live entries in merged order) with one counted sequential
/// access per live entry. `passes` > 1 rewinds the cursor between passes.
void ExpectWalkMatchesOracle(const ListView& view,
                             const std::vector<ListEntry>& expected,
                             int passes, const std::string& label) {
  const std::size_t live = expected.size();
  EXPECT_EQ(view.size(), live) << label;
  EXPECT_EQ(view.empty(), live == 0) << label;
  EXPECT_DOUBLE_EQ(view.MaxScore(), live == 0 ? 0.0 : expected[0].score)
      << label;
  for (int pass = 0; pass < passes; ++pass) {
    AccessCounter counter;
    std::size_t cursor = 0;
    std::size_t read = 0;
    while (view.SkipToLive(cursor)) {
      ASSERT_LT(read, live) << label << " pass " << pass;
      EXPECT_DOUBLE_EQ(view.PeekScore(cursor), expected[read].score)
          << label << " pass " << pass << " read " << read;
      const ListEntry e = view.ReadSequential(cursor, counter);
      ASSERT_EQ(e.id, expected[read].id)
          << label << " pass " << pass << " read " << read;
      EXPECT_DOUBLE_EQ(e.score, expected[read].score) << label;
      ++read;
    }
    EXPECT_EQ(read, live) << label << " pass " << pass;
    EXPECT_EQ(counter.sequential, live) << label << " pass " << pass;
  }
}

TEST(BandedListViewTest, SoAWalkMatchesAoSOracle) {
  // Independent AoS model: the row mirrored as interleaved entries, liveness
  // decided by plain scalar code (no ListView, no simd.h), merged order =
  // one global ListEntryOrder sort of the live entries. Pool lengths cover
  // every tail residue of the vector width (plus 37, coprime to any lane
  // count), so the SIMD kernel's scalar tail and partial final blocks are on
  // the tested path; density 1.0 is the fully-tombstoned prefix (live = 0).
  Rng rng(20'270'101);
  std::vector<std::size_t> pools;
  for (std::size_t p = 1; p <= 2 * simd::kLanes + 1; ++p) pools.push_back(p);
  pools.push_back(37);
  pools.push_back(4 * simd::kLanes + 5);
  const double densities[] = {0.0, 0.35, 1.0};

  for (const std::size_t pool : pools) {
    for (const double density : densities) {
      for (const bool banded : {false, true}) {
        std::vector<double> scores(pool);
        for (double& s : scores) {
          s = static_cast<double>(rng.NextBounded(6)) / 6.0;  // force ties
        }
        const std::vector<std::uint32_t> breakpoints =
            banded ? PreferenceIndex::GeometricBandBreakpoints(pool, 2)
                   : std::vector<std::uint32_t>{};
        const LayoutRow row = MakeRow(scores, breakpoints);
        const auto prefix = static_cast<std::size_t>(
            rng.NextInt(1, static_cast<std::int64_t>(pool)));
        std::vector<std::uint64_t> tombstones((prefix + 63) / 64, 0);
        for (std::uint32_t key = 0; key < prefix; ++key) {
          if (density == 1.0 || rng.NextBool(density)) {
            tombstones[key >> 6] |= 1ull << (key & 63u);
          }
        }

        std::vector<ListEntry> expected;
        for (std::size_t p = 0; p < row.keys.size(); ++p) {
          const ListKey key = row.keys[p];
          const bool dead =
              key >= prefix ||
              ((tombstones[key >> 6] >> (key & 63u)) & 1u) != 0;
          if (!dead) expected.push_back({key, row.scores[p]});
        }
        std::sort(expected.begin(), expected.end(), ListEntryOrder{});

        const ListView view =
            banded ? BandedView(row, prefix, tombstones, expected.size())
                   : ListView(std::span<const ListKey>(row.keys),
                              std::span<const Score>(row.scores),
                              row.positions, prefix, expected.size(),
                              tombstones);
        ExpectWalkMatchesOracle(
            view, expected, /*passes=*/1,
            "pool=" + std::to_string(pool) + " density=" +
                std::to_string(density) + (banded ? " banded" : " flat") +
                " prefix=" + std::to_string(prefix));
      }
    }
  }
}

TEST(BandedListViewTest, SingleEntryBandsMergeAndRewind) {
  // Every band holds exactly one entry (the kMaxBands-wide degenerate grid):
  // each consumed head immediately exhausts its band, so the merge runs on
  // sentinel heads almost from the start — the hardest case for the loser
  // tree's exhausted-head handling. Scores are coarsely quantized so the
  // ascending-key tiebreak decides most of the merged order.
  const std::size_t n = ListView::kMaxBands;
  Rng rng(4242);
  std::vector<double> scores(n);
  for (double& s : scores) s = static_cast<double>(rng.NextBounded(4)) / 4.0;
  std::vector<std::uint32_t> breakpoints;
  for (std::uint32_t b = 1; b < n; ++b) breakpoints.push_back(b);
  const LayoutRow row = MakeRow(scores, breakpoints);
  ASSERT_EQ(row.bounds.size(), n + 1);

  for (const std::size_t prefix : {n, n / 2 + 1, std::size_t{1}}) {
    std::vector<std::uint64_t> tombstones(1, 0);
    std::vector<ListEntry> expected;
    for (std::uint32_t key = 0; key < n; ++key) {
      if (key < prefix && key % 3 != 1) {
        expected.push_back({key, scores[key]});
      } else if (key < prefix) {
        tombstones[0] |= 1ull << key;
      }
    }
    std::sort(expected.begin(), expected.end(), ListEntryOrder{});
    const ListView view = BandedView(row, prefix, tombstones, expected.size());
    ExpectWalkMatchesOracle(view, expected, /*passes=*/2,
                            "single-entry bands prefix=" +
                                std::to_string(prefix));
  }
}

// ---- Facade-level equivalence --------------------------------------------

class BandedFacadeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 200;
    uc.num_items = 260;
    uc.target_ratings = 16'000;
    uc.seed = 929;
    universe_ = new SyntheticRatings(GenerateSyntheticRatings(uc));
    FacebookStudyConfig sc;
    sc.diversity_pool = 120;
    study_ = new FacebookStudy(GenerateFacebookStudy(sc, *universe_));
  }
  static void TearDownTestSuite() {
    delete study_;
    delete universe_;
    study_ = nullptr;
    universe_ = nullptr;
  }

  /// 32 gives several bands even at this test scale; 0 gives the flat
  /// layout.
  static RecommenderOptions Options(std::size_t min_band_size) {
    RecommenderOptions options;
    options.max_candidate_items = 240;
    options.min_band_size = min_band_size;
    return options;
  }

  static std::vector<UserId> RandomGroup(Rng& rng, std::size_t size,
                                         std::size_t num_participants) {
    std::vector<UserId> group;
    while (group.size() < size) {
      const auto u = static_cast<UserId>(rng.NextBounded(num_participants));
      if (std::find(group.begin(), group.end(), u) == group.end()) {
        group.push_back(u);
      }
    }
    return group;
  }

  /// Runs randomized queries against both engines and asserts bit-identical
  /// recommendations and access counts.
  template <typename FlatEngine>
  static void ExpectEquivalentServing(const GroupRecommender& banded,
                                      const FlatEngine& flat,
                                      std::uint64_t seed,
                                      const std::string& phase) {
    Rng rng(seed);
    const ConsensusSpec consensus_menu[] = {
        ConsensusSpec::AveragePreference(), ConsensusSpec::LeastMisery(),
        ConsensusSpec::PairwiseDisagreement(0.6)};
    const AffinityModelSpec model_menu[] = {AffinityModelSpec::Default(),
                                            AffinityModelSpec::TimeAgnostic()};
    const std::string_view solvers[] = {kNaiveSolverId, kTaSolverId,
                                        kGrecaSolverId};
    const std::size_t participants = study_->num_participants();
    QueryWorkspace banded_ws, flat_ws;

    for (int trial = 0; trial < 12; ++trial) {
      const auto g = static_cast<std::size_t>(rng.NextInt(1, 5));
      const std::vector<UserId> group = RandomGroup(rng, g, participants);
      QuerySpec spec;
      spec.k = 1 + rng.NextBounded(8);
      spec.num_candidate_items =
          static_cast<std::size_t>(rng.NextInt(8, 240));
      spec.consensus = consensus_menu[rng.NextBounded(3)];
      spec.model = model_menu[rng.NextBounded(2)];
      for (const std::string_view id : solvers) {
        spec.solver_id = std::string(id);
        const std::string label =
            phase + " trial " + std::to_string(trial) + " solver " +
            spec.solver_id + " pool " +
            std::to_string(spec.num_candidate_items) + " g " +
            std::to_string(g);
        const Recommendation b =
            banded.Recommend(group, spec, &banded_ws).value();
        const Recommendation f = flat.Recommend(group, spec, &flat_ws).value();
        EXPECT_EQ(b.items, f.items) << label;
        EXPECT_EQ(b.scores, f.scores) << label;
        EXPECT_EQ(b.raw.accesses.sequential, f.raw.accesses.sequential)
            << label;
        EXPECT_EQ(b.raw.accesses.random, f.raw.accesses.random) << label;
        EXPECT_EQ(b.raw.rounds, f.raw.rounds) << label;
        EXPECT_EQ(b.raw.total_entries, f.raw.total_entries) << label;
      }
    }
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
};

SyntheticRatings* BandedFacadeTest::universe_ = nullptr;
FacebookStudy* BandedFacadeTest::study_ = nullptr;

TEST_F(BandedFacadeTest, AllAlgorithmsBitIdenticalAcrossLayouts) {
  const GroupRecommender banded(*universe_, *study_, Options(32));
  const GroupRecommender flat(*universe_, *study_, Options(0));
  EXPECT_GT(banded.snapshot()->index().num_bands(), 1u);
  EXPECT_EQ(flat.snapshot()->index().num_bands(), 1u);
  ExpectEquivalentServing(banded, flat, /*seed=*/41, "fresh");
}

TEST_F(BandedFacadeTest, ShardedFlatBuildBitIdenticalToBanded) {
  const GroupRecommender banded(*universe_, *study_, Options(32));
  ShardedEngineOptions sopts;
  sopts.num_shards = 3;
  sopts.recommender = Options(0);
  const ShardedEngine flat(universe_->dataset, *study_, sopts);
  for (std::size_t s = 0; s < flat.num_shards(); ++s) {
    EXPECT_EQ(flat.shard(s).snapshot()->index->num_bands(), 1u) << s;
  }
  ExpectEquivalentServing(banded, flat, /*seed=*/47, "sharded flat");
}

TEST_F(BandedFacadeTest, EquivalenceSurvivesApplyUpdatesRowRebuilds) {
  GroupRecommender banded(*universe_, *study_, Options(32));
  GroupRecommender flat(*universe_, *study_, Options(0));

  // Same live-rating batches into both: touched rows rebuild through
  // CloneWithUpdatedRows and must land in the same layout-specific order.
  Rng rng(77);
  const std::size_t participants = study_->num_participants();
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<RatingEvent> events;
    for (int i = 0; i < 40; ++i) {
      RatingEvent e;
      e.user = static_cast<UserId>(rng.NextBounded(participants));
      e.item = static_cast<ItemId>(rng.NextBounded(260));
      e.rating = static_cast<Score>(rng.NextInt(1, 5));
      e.timestamp = 1'000'000 + batch * 1'000 + i;
      events.push_back(e);
    }
    ASSERT_TRUE(banded.ApplyRatingUpdates(events).ok());
    ASSERT_TRUE(flat.ApplyRatingUpdates(events).ok());
  }
  EXPECT_GT(banded.snapshot()->generation(), 1u);
  ExpectEquivalentServing(banded, flat, /*seed=*/43, "post-update");
}

TEST_F(BandedFacadeTest, SmallPrefixScanFootprintWithinTwiceThePrefix) {
  const GroupRecommender banded(*universe_, *study_, Options(32));
  const GroupRecommender flat(*universe_, *study_, Options(0));
  const std::size_t row = banded.snapshot()->index().pool_size();
  const std::vector<UserId> group{1, 4, 9};

  QuerySpec spec;
  spec.num_candidate_items = row / 4;  // the small-pool workload (<= 25%)
  const GroupProblem banded_problem =
      banded.BuildProblem(group, spec).value();
  const GroupProblem flat_problem = flat.BuildProblem(group, spec).value();
  for (const ListView& view : banded_problem.preference_lists()) {
    EXPECT_LE(view.scan_footprint(), 2 * spec.num_candidate_items);
    EXPECT_GE(view.scan_footprint(), view.size());
  }
  for (const ListView& view : flat_problem.preference_lists()) {
    EXPECT_EQ(view.scan_footprint(), row);  // the skip-tail pathology
  }

  // Full-pool views cover the whole row in either layout.
  spec.num_candidate_items = row;
  const GroupProblem full = banded.BuildProblem(group, spec).value();
  for (const ListView& view : full.preference_lists()) {
    EXPECT_EQ(view.scan_footprint(), row);
  }
}

}  // namespace
}  // namespace greca
