// Equivalence suite for the zero-copy access layer: GRECA, TA and the naive
// scan over tombstone-masked, prefix-sliced ListViews must return exactly the
// top-k sets and access counts a dense reference returns on the same logical
// problem: lists re-keyed over exactly the live keys, nothing tombstoned.
// A SoA-vs-AoS oracle holds the view's key-only skip scan (AVX2 or the
// -DGRECA_SIMD=OFF scalar body) to plain scalar liveness on every SIMD tail
// residue. Also pins the facade-level guarantees: BuildProblem performs no
// per-query preference-list sort (no SortedList::FromUnsorted), and a prefix
// slice of a large pool behaves like a dedicated small pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/greca.h"
#include "core/group_recommender.h"
#include "topk/list_view.h"
#include "topk/naive.h"
#include "topk/problem.h"
#include "topk/simd.h"
#include "topk/ta.h"
#include "test_util.h"

namespace greca {
namespace {

// One randomized logical problem realized twice: through restricted views
// over full-pool lists (pool keys, dead entries skipped) and through lists
// materialized over exactly the live keys (dense keys).
struct EquivalenceCase {
  // View-path storage (must outlive view_problem).
  std::vector<SortedList> full_pref;
  std::vector<std::uint64_t> tombstones;
  std::vector<ListView> pref_views;
  SortedList view_static;
  std::vector<SortedList> view_periods;
  std::vector<ListView> period_views;

  /// Dense key -> pool view key (ascending).
  std::vector<ListKey> live_keys;

  std::optional<GroupProblem> view_problem;
  std::optional<GroupProblem> dense_problem;
};

EquivalenceCase MakeCase(Rng& rng, std::size_t g, std::size_t pool,
                         std::size_t prefix, double tombstone_prob,
                         std::size_t num_periods,
                         const ConsensusSpec& consensus,
                         const AffinityModelSpec& model) {
  EquivalenceCase c;

  // Member scores over the full pool.
  std::vector<std::vector<double>> scores(g, std::vector<double>(pool));
  for (auto& row : scores) {
    for (double& s : row) s = rng.NextDouble();
  }
  for (std::size_t u = 0; u < g; ++u) {
    std::vector<ListEntry> entries;
    entries.reserve(pool);
    for (ListKey key = 0; key < pool; ++key) {
      entries.push_back({key, scores[u][key]});
    }
    c.full_pref.push_back(SortedList::FromUnsorted(
        std::move(entries), static_cast<ListKey>(pool)));
  }

  // Tombstones over the prefix; keep at least one live key.
  c.tombstones.assign((prefix + 63) / 64, 0);
  for (ListKey key = 0; key < prefix; ++key) {
    if (rng.NextBool(tombstone_prob)) {
      c.tombstones[key >> 6] |= 1ull << (key & 63u);
    }
  }
  c.tombstones[0] &= ~1ull;  // key 0 always live
  for (ListKey key = 0; key < prefix; ++key) {
    if (!((c.tombstones[key >> 6] >> (key & 63u)) & 1u)) {
      c.live_keys.push_back(key);
    }
  }
  const std::size_t live = c.live_keys.size();

  for (std::size_t u = 0; u < g; ++u) {
    c.pref_views.emplace_back(c.full_pref[u].keys(), c.full_pref[u].scores(),
                              c.full_pref[u].key_positions(), prefix, live,
                              c.tombstones);
  }

  // Affinity lists (pair-keyed, identical on both paths).
  const auto pairs = static_cast<ListKey>(NumUserPairs(g));
  std::vector<ListEntry> pair_entries;
  for (ListKey q = 0; q < pairs; ++q) {
    pair_entries.push_back({q, rng.NextDouble()});
  }
  c.view_static = SortedList::FromUnsorted(pair_entries, pairs);
  SortedList dense_static = c.view_static;

  std::vector<double> averages;
  std::vector<SortedList> dense_periods;
  const bool temporal = model.affinity_aware && model.time_aware;
  for (std::size_t t = 0; temporal && t < num_periods; ++t) {
    std::vector<ListEntry> entries;
    for (ListKey q = 0; q < pairs; ++q) {
      entries.push_back({q, rng.NextDouble()});
    }
    c.view_periods.push_back(SortedList::FromUnsorted(entries, pairs));
    dense_periods.push_back(c.view_periods.back());
    averages.push_back(rng.NextDouble(0.0, 0.5));
  }
  for (const SortedList& list : c.view_periods) {
    c.period_views.emplace_back(list);
  }

  // Dense preference lists: the live keys re-keyed 0..live-1.
  std::vector<SortedList> dense_pref;
  for (std::size_t u = 0; u < g; ++u) {
    std::vector<ListEntry> entries;
    entries.reserve(live);
    for (ListKey dense = 0; dense < live; ++dense) {
      entries.push_back({dense, scores[u][c.live_keys[dense]]});
    }
    dense_pref.push_back(SortedList::FromUnsorted(
        std::move(entries), static_cast<ListKey>(live)));
  }

  // Each problem builds its own aggregated agreement list at construction:
  // the view problem over the tombstoned prefix into the arena it owns, the
  // dense one over the live keys.
  auto arena = std::make_unique<ProblemArena>();
  ProblemArena& view_arena = *arena;
  c.view_problem.emplace(prefix, live, c.pref_views, ListView(c.view_static),
                         c.period_views, AffinityCombiner(model, averages),
                         consensus, view_arena, ConsensusWeights{},
                         std::move(arena));
  c.dense_problem.emplace(testing::MakeProblem(
      live, std::move(dense_pref), std::move(dense_static),
      std::move(dense_periods), AffinityCombiner(model, std::move(averages)),
      consensus));
  return c;
}

void ExpectEquivalent(const TopKResult& view, const TopKResult& dense,
                      const std::vector<ListKey>& live_keys,
                      const std::string& label) {
  EXPECT_EQ(view.accesses.sequential, dense.accesses.sequential) << label;
  EXPECT_EQ(view.accesses.random, dense.accesses.random) << label;
  EXPECT_EQ(view.total_entries, dense.total_entries) << label;
  EXPECT_EQ(view.rounds, dense.rounds) << label;
  EXPECT_EQ(view.early_terminated, dense.early_terminated) << label;
  ASSERT_EQ(view.items.size(), dense.items.size()) << label;
  for (std::size_t i = 0; i < view.items.size(); ++i) {
    ASSERT_LT(dense.items[i].id, live_keys.size()) << label;
    EXPECT_EQ(view.items[i].id, live_keys[dense.items[i].id])
        << label << " item " << i;
    EXPECT_DOUBLE_EQ(view.items[i].score, dense.items[i].score)
        << label << " item " << i;
  }
}

TEST(ListViewEquivalenceTest, AllAlgorithmsMatchOwningPathOnRandomProblems) {
  Rng rng(20'150'317);
  const ConsensusSpec consensus_menu[] = {
      ConsensusSpec::AveragePreference(), ConsensusSpec::LeastMisery(),
      ConsensusSpec::PairwiseDisagreement(0.6),
      ConsensusSpec::VarianceDisagreement(0.8)};
  const AffinityModelSpec model_menu[] = {
      AffinityModelSpec::Default(), AffinityModelSpec::Continuous(),
      AffinityModelSpec::TimeAgnostic(), AffinityModelSpec::AffinityAgnostic()};

  for (int trial = 0; trial < 60; ++trial) {
    const auto g = static_cast<std::size_t>(rng.NextInt(1, 5));
    const auto pool = static_cast<std::size_t>(rng.NextInt(12, 60));
    const auto prefix = static_cast<std::size_t>(
        rng.NextInt(4, static_cast<std::int64_t>(pool)));
    const double tombstone_prob = rng.NextDouble(0.0, 0.5);
    const auto periods = static_cast<std::size_t>(rng.NextInt(1, 3));
    const ConsensusSpec& consensus = consensus_menu[rng.NextBounded(4)];
    const AffinityModelSpec& model = model_menu[rng.NextBounded(4)];

    EquivalenceCase c = MakeCase(rng, g, pool, prefix, tombstone_prob,
                                 periods, consensus, model);
    const GroupProblem& vp = *c.view_problem;
    const GroupProblem& dp = *c.dense_problem;
    const std::size_t k = 1 + rng.NextBounded(5);
    const std::string label = "trial " + std::to_string(trial) + " g=" +
                              std::to_string(g) + " prefix=" +
                              std::to_string(prefix) + " live=" +
                              std::to_string(c.live_keys.size()) + " k=" +
                              std::to_string(k) + " " + consensus.Name() +
                              "/" + model.Name();

    EXPECT_EQ(vp.TotalEntries(), dp.TotalEntries()) << label;
    EXPECT_EQ(vp.num_candidates(), dp.num_candidates()) << label;

    ExpectEquivalent(NaiveTopK(vp, k), NaiveTopK(dp, k), c.live_keys,
                     "naive " + label);
    ExpectEquivalent(TaTopK(vp, k), TaTopK(dp, k), c.live_keys, "ta " + label);
    for (const TerminationPolicy policy :
         {TerminationPolicy::kBufferCondition,
          TerminationPolicy::kThresholdOnly}) {
      GrecaConfig config;
      config.k = k;
      config.termination = policy;
      ExpectEquivalent(Greca(vp, config), Greca(dp, config), c.live_keys,
                       "greca " + label);
    }
  }
}

TEST(ListViewEquivalenceTest, ExactScoresMatchAcrossPaths) {
  Rng rng(77);
  EquivalenceCase c =
      MakeCase(rng, 3, 30, 20, 0.3, 2, ConsensusSpec::PairwiseDisagreement(0.5),
               AffinityModelSpec::Default());
  for (std::size_t dense = 0; dense < c.live_keys.size(); ++dense) {
    EXPECT_DOUBLE_EQ(c.view_problem->ExactScore(c.live_keys[dense]),
                     c.dense_problem->ExactScore(static_cast<ListKey>(dense)))
        << "dense key " << dense;
  }
}

// ---- SoA-vs-AoS oracle ---------------------------------------------------

TEST(ListViewEquivalenceTest, SoAWalkMatchesAoSOracle) {
  // Independent AoS model: the row mirrored as interleaved entries, liveness
  // decided by plain scalar code (no ListView, no simd.h), walk order = one
  // ListEntryOrder sort of the live entries. Pool lengths cover every tail
  // residue of the vector width (plus 37, coprime to any lane count), so the
  // SIMD kernel's scalar tail and partial final blocks are on the tested
  // path; density 1.0 is the fully-tombstoned prefix (live = 0).
  Rng rng(20'270'101);
  std::vector<std::size_t> pools;
  for (std::size_t p = 1; p <= 2 * simd::kLanes + 1; ++p) pools.push_back(p);
  pools.push_back(37);
  pools.push_back(4 * simd::kLanes + 5);
  const double densities[] = {0.0, 0.35, 1.0};

  for (const std::size_t pool : pools) {
    for (const double density : densities) {
      std::vector<ListEntry> row;
      for (ListKey key = 0; key < pool; ++key) {
        // Coarse scores force ties, so the ascending-key tiebreak decides.
        row.push_back({key, static_cast<double>(rng.NextBounded(6)) / 6.0});
      }
      std::sort(row.begin(), row.end(), ListEntryOrder{});
      std::vector<ListKey> keys;
      std::vector<Score> scores;
      std::vector<std::uint32_t> positions(pool);
      for (std::size_t p = 0; p < pool; ++p) {
        keys.push_back(row[p].id);
        scores.push_back(row[p].score);
        positions[row[p].id] = static_cast<std::uint32_t>(p);
      }
      const auto prefix = static_cast<std::size_t>(
          rng.NextInt(1, static_cast<std::int64_t>(pool)));
      std::vector<std::uint64_t> tombstones((prefix + 63) / 64, 0);
      for (ListKey key = 0; key < prefix; ++key) {
        if (density == 1.0 || rng.NextBool(density)) {
          tombstones[key >> 6] |= 1ull << (key & 63u);
        }
      }

      std::vector<ListEntry> expected;
      for (const ListEntry& e : row) {
        const bool dead =
            e.id >= prefix || ((tombstones[e.id >> 6] >> (e.id & 63u)) & 1u);
        if (!dead) expected.push_back(e);
      }

      const ListView view(std::span<const ListKey>(keys),
                          std::span<const Score>(scores), positions, prefix,
                          expected.size(), tombstones);
      const std::string label = "pool=" + std::to_string(pool) +
                                " density=" + std::to_string(density) +
                                " prefix=" + std::to_string(prefix);
      EXPECT_EQ(view.size(), expected.size()) << label;
      EXPECT_EQ(view.empty(), expected.empty()) << label;
      // The second pass rewinds the cursor and must replay identically.
      for (int pass = 0; pass < 2; ++pass) {
        AccessCounter counter;
        std::size_t cursor = 0;
        std::size_t read = 0;
        while (view.SkipToLive(cursor)) {
          ASSERT_LT(read, expected.size()) << label << " pass " << pass;
          EXPECT_DOUBLE_EQ(view.PeekScore(cursor), expected[read].score)
              << label << " pass " << pass << " read " << read;
          const ListEntry e = view.ReadSequential(cursor, counter);
          ASSERT_EQ(e.id, expected[read].id)
              << label << " pass " << pass << " read " << read;
          EXPECT_DOUBLE_EQ(e.score, expected[read].score) << label;
          ++read;
        }
        EXPECT_EQ(read, expected.size()) << label << " pass " << pass;
        EXPECT_EQ(counter.sequential, expected.size())
            << label << " pass " << pass;
      }
      // Random access: live keys read their score, dead keys read as absent.
      std::vector<double> score_of_key(pool, 0.0);
      for (const ListEntry& e : expected) score_of_key[e.id] = e.score;
      for (ListKey key = 0; key < pool; ++key) {
        EXPECT_DOUBLE_EQ(view.ScoreOfKey(key), score_of_key[key])
            << label << " key " << key;
      }
    }
  }
}

// ---- Facade-level guarantees --------------------------------------------

class ZeroCopyFacadeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 200;
    uc.num_items = 260;
    uc.target_ratings = 16'000;
    uc.seed = 71;
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

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
};

SyntheticRatings* ZeroCopyFacadeTest::universe_ = nullptr;
FacebookStudy* ZeroCopyFacadeTest::study_ = nullptr;

TEST_F(ZeroCopyFacadeTest, BuildProblemPerformsNoPreferenceListSort) {
  RecommenderOptions options;
  options.max_candidate_items = 220;
  const GroupRecommender recommender(*universe_, *study_, options);
  const std::vector<UserId> group{1, 4, 9, 16};

  QueryWorkspace workspace;
  for (const ConsensusSpec& consensus :
       {ConsensusSpec::AveragePreference(),
        ConsensusSpec::PairwiseDisagreement(0.5)}) {
    QuerySpec spec;
    spec.k = 5;
    spec.num_candidate_items = 200;
    spec.consensus = consensus;
    // The acceptance hook: zero-copy assembly never calls FromUnsorted —
    // preference lists are index slices and affinity/agreement lists rebuild
    // arena-owned storage in place.
    const std::uint64_t before = SortedList::FromUnsortedCalls();
    const auto with_ws =
        recommender.BuildProblem(group, spec, nullptr, &workspace);
    ASSERT_TRUE(with_ws.ok());
    EXPECT_EQ(SortedList::FromUnsortedCalls(), before) << consensus.Name();
    // The workspace-less path allocates its own arena but still never sorts
    // a preference list.
    const auto owned = recommender.BuildProblem(group, spec);
    ASSERT_TRUE(owned.ok());
    EXPECT_EQ(SortedList::FromUnsortedCalls(), before) << consensus.Name();
  }
}

TEST_F(ZeroCopyFacadeTest, PrefixSliceMatchesDedicatedPool) {
  // Querying a 120-item prefix of a 220-item index must behave exactly like
  // a recommender whose whole pool is those 120 items.
  RecommenderOptions wide;
  wide.max_candidate_items = 220;
  RecommenderOptions narrow;
  narrow.max_candidate_items = 120;
  const GroupRecommender big(*universe_, *study_, wide);
  const GroupRecommender small(*universe_, *study_, narrow);

  QuerySpec spec;
  spec.k = 6;
  spec.num_candidate_items = 120;
  const std::vector<std::vector<UserId>> groups = {
      {0, 3, 7}, {2, 5, 11, 19}, {13}};
  for (const std::vector<UserId>& group : groups) {
    const Recommendation sliced = big.Recommend(group, spec).value();
    const Recommendation dedicated = small.Recommend(group, spec).value();
    EXPECT_EQ(sliced.items, dedicated.items);
    EXPECT_EQ(sliced.scores, dedicated.scores);
    EXPECT_EQ(sliced.raw.accesses.sequential,
              dedicated.raw.accesses.sequential);
    EXPECT_EQ(sliced.raw.accesses.random, dedicated.raw.accesses.random);
  }
}

TEST_F(ZeroCopyFacadeTest, WorkspaceProblemViewsStayValidUntilReuse) {
  RecommenderOptions options;
  options.max_candidate_items = 180;
  const GroupRecommender recommender(*universe_, *study_, options);
  QuerySpec spec;
  spec.k = 4;
  spec.num_candidate_items = 150;

  QueryWorkspace workspace;
  const std::vector<UserId> group{2, 6, 10};
  const auto ws_problem =
      recommender.BuildProblem(group, spec, nullptr, &workspace);
  ASSERT_TRUE(ws_problem.ok());
  const auto owned_problem = recommender.BuildProblem(group, spec);
  ASSERT_TRUE(owned_problem.ok());
  // Identical problems whether the arena is the workspace's or owned.
  EXPECT_EQ(ws_problem.value().TotalEntries(),
            owned_problem.value().TotalEntries());
  const TopKResult a = NaiveTopK(ws_problem.value(), spec.k);
  const TopKResult b = NaiveTopK(owned_problem.value(), spec.k);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].id, b.items[i].id);
    EXPECT_DOUBLE_EQ(a.items[i].score, b.items[i].score);
  }
}

}  // namespace
}  // namespace greca
