// Tests for the snapshot-centric serving API: RCU-style publish semantics
// (pinned generations are immutable under concurrent updates), the
// live-update path (ApplyUpdates rebuilds predictions + index rows +
// tombstones), the engine-owned period-list cache every generation shares,
// and the generation-scoped tombstone cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/query_builder.h"
#include "common/rng.h"
#include "solver/solver_registry.h"

namespace greca {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 350;
    uc.num_items = 450;
    uc.target_ratings = 30'000;
    uc.seed = 33;
    universe_ = new SyntheticRatings(GenerateSyntheticRatings(uc));
    FacebookStudyConfig sc;
    sc.diversity_pool = 200;
    study_ = new FacebookStudy(GenerateFacebookStudy(sc, *universe_));
  }
  static void TearDownTestSuite() {
    delete study_;
    delete universe_;
    study_ = nullptr;
    universe_ = nullptr;
  }

  static std::unique_ptr<Engine> MakeEngine(std::size_t threads = 4) {
    RecommenderOptions options;
    options.max_candidate_items = 400;
    EngineOptions eopts;
    eopts.num_threads = threads;
    return std::make_unique<Engine>(*universe_, *study_, options, eopts);
  }

  /// A mixed batch exercising all algorithms, models and several periods.
  static std::vector<Query> MixedBatch(const Engine& engine,
                                       std::size_t count,
                                       std::uint64_t seed) {
    const auto participants = static_cast<UserId>(study_->num_participants());
    const auto num_periods =
        static_cast<PeriodId>(engine.recommender().num_periods());
    const AffinityModelSpec models[] = {
        AffinityModelSpec::Default(), AffinityModelSpec::Continuous(),
        AffinityModelSpec::TimeAgnostic()};
    const std::string_view solvers[] = {kGrecaSolverId, kNaiveSolverId,
                                        kTaSolverId};
    Rng rng(seed);
    std::vector<Query> batch;
    for (std::size_t i = 0; i < count; ++i) {
      Query q;
      const std::size_t size = 2 + rng.NextInt(0, 4);
      while (q.group.size() < size) {
        const auto u =
            static_cast<UserId>(rng.NextInt(0, participants - 1));
        if (std::find(q.group.begin(), q.group.end(), u) == q.group.end()) {
          q.group.push_back(u);
        }
      }
      q.spec.k = 3 + i % 6;
      q.spec.model = models[i % 3];
      q.spec.solver_id = std::string(solvers[i % 3]);
      q.spec.num_candidate_items = 400;
      q.spec.eval_period = static_cast<PeriodId>(i % num_periods);
      batch.push_back(std::move(q));
    }
    return batch;
  }

  static std::vector<RatingEvent> RandomEvents(std::size_t count,
                                               std::uint64_t seed) {
    const auto participants = static_cast<UserId>(study_->num_participants());
    const auto items = static_cast<ItemId>(universe_->dataset.num_items());
    Rng rng(seed);
    std::vector<RatingEvent> events;
    for (std::size_t i = 0; i < count; ++i) {
      RatingEvent e;
      e.user = static_cast<UserId>(rng.NextInt(0, participants - 1));
      e.item = static_cast<ItemId>(rng.NextInt(0, items - 1));
      e.rating = static_cast<Score>(1 + rng.NextInt(0, 4));
      // Far-future timestamps so every event overrides any stored rating.
      e.timestamp = 1'000'000'000 + static_cast<Timestamp>(i);
      events.push_back(e);
    }
    return events;
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
};

SyntheticRatings* SnapshotTest::universe_ = nullptr;
FacebookStudy* SnapshotTest::study_ = nullptr;

TEST_F(SnapshotTest, GenerationsIncrementAndReportsFill) {
  auto engine = MakeEngine();
  const auto g1 = engine->snapshot();
  EXPECT_EQ(g1->generation(), 1u);

  UpdateReport report;
  ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(16, 7), &report).ok());
  EXPECT_EQ(report.published_generation, 2u);
  EXPECT_EQ(report.events_applied, 16u);
  EXPECT_GE(report.users_rebuilt, 1u);
  EXPECT_LE(report.users_rebuilt, 16u);
  EXPECT_EQ(engine->snapshot()->generation(), 2u);
  // The pinned generation-1 snapshot is untouched.
  EXPECT_EQ(g1->generation(), 1u);

  // Empty batches publish nothing (every generation means a state change).
  ASSERT_TRUE(engine->ApplyUpdates({}, &report).ok());
  EXPECT_EQ(report.events_applied, 0u);
  EXPECT_EQ(engine->snapshot()->generation(), 2u);
}

TEST_F(SnapshotTest, InvalidEventsRejectAtomically) {
  auto engine = MakeEngine();
  std::vector<RatingEvent> events = RandomEvents(4, 11);
  events[2].user = 10'000;  // unknown study participant
  auto status = engine->ApplyUpdates(events);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(engine->snapshot()->generation(), 1u) << "nothing published";

  events = RandomEvents(4, 13);
  events[0].item = 1'000'000;  // unknown universe item
  status = engine->ApplyUpdates(events);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(engine->snapshot()->generation(), 1u);

  // Non-finite ratings would poison the fold (NaN similarities) forever.
  events = RandomEvents(4, 19);
  events[3].rating = std::numeric_limits<Score>::quiet_NaN();
  status = engine->ApplyUpdates(events);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->snapshot()->generation(), 1u);

  // A null explicit snapshot is a Status, not a crash — for one query, and
  // for every query of a batch.
  Query query;
  query.group = {4, 17};
  query.spec.k = 3;
  const auto null_snap = engine->Recommend(query, nullptr);
  ASSERT_FALSE(null_snap.ok());
  EXPECT_EQ(null_snap.status().code(), StatusCode::kInvalidArgument);

  const std::vector<Query> batch = {query, query, query};
  BatchReport report;
  const auto results = engine->RecommendBatch(batch, nullptr, &report);
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// The tentpole guarantee: a batch pinned to generation G returns
// bit-identical results whether or not updates publish G+1 (and G+2, ...)
// mid-stream. Randomized over groups, specs and event batches.
TEST_F(SnapshotTest, PinnedBatchIsImmuneToConcurrentPublishes) {
  auto engine = MakeEngine();
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    const auto pinned = engine->snapshot();
    const std::vector<Query> batch = MixedBatch(*engine, 24, 100 + trial);
    const auto before = engine->RecommendBatch(batch, pinned);

    // Publish one or two newer generations.
    ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(32, 200 + trial)).ok());
    if (trial % 2 == 1) {
      ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(32, 300 + trial)).ok());
    }
    EXPECT_GT(engine->snapshot()->generation(), pinned->generation());

    // Replaying against the pinned snapshot is bit-identical.
    const auto after = engine->RecommendBatch(batch, pinned);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(before[i].ok()) << "trial " << trial << " query " << i;
      ASSERT_TRUE(after[i].ok()) << "trial " << trial << " query " << i;
      EXPECT_EQ(before[i].value().items, after[i].value().items)
          << "trial " << trial << " query " << i;
      EXPECT_EQ(before[i].value().scores, after[i].value().scores)
          << "trial " << trial << " query " << i;
    }

    // The current snapshot serves the same batch without error (results may
    // legitimately differ — the data changed).
    for (const auto& r : engine->RecommendBatch(batch)) {
      EXPECT_TRUE(r.ok());
    }
  }
}

// Live ratings must actually change serving: rating an item for every
// member tombstones it out of that group's candidates (§2.4 exclusion).
TEST_F(SnapshotTest, AppliedRatingsTombstoneRecommendedItems) {
  auto engine = MakeEngine();
  Query query;
  query.group = {4, 17, 29};
  query.spec.k = 5;
  query.spec.num_candidate_items = 400;

  const auto before = engine->Recommend(query);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before.value().items.empty());
  const ItemId top = before.value().items[0];

  std::vector<RatingEvent> events;
  for (const UserId member : query.group) {
    events.push_back({member, top, 5.0, 2'000'000'000});
  }
  ASSERT_TRUE(engine->ApplyUpdates(events).ok());

  const auto after = engine->Recommend(query);
  ASSERT_TRUE(after.ok());
  for (const ItemId item : after.value().items) {
    EXPECT_NE(item, top) << "group-rated item still recommended";
  }
  // The update also lands in the snapshot's merged ratings view (the delta
  // log, not the immutable base).
  EXPECT_TRUE(engine->snapshot()->ratings().HasRating(4, top));
  EXPECT_FALSE(engine->snapshot()->ratings().base().HasRating(4, top));
}

// Period-list cache: the first query for a (group, period) materializes, a
// repeated group rebuilds nothing — on the same snapshot and on every later
// rating generation, which all share the recommender's one cache.
TEST_F(SnapshotTest, PeriodCacheHitsOnRepeatedGroups) {
  auto engine = MakeEngine();
  const PeriodListCache& cache = engine->recommender().period_cache();
  const auto snap = engine->snapshot();
  const auto last_period =
      static_cast<PeriodId>(engine->recommender().num_periods() - 1);
  const std::size_t periods = static_cast<std::size_t>(last_period) + 1;

  Query query;
  query.group = {4, 17, 29};
  query.spec.k = 5;
  query.spec.num_candidate_items = 400;
  query.spec.eval_period = last_period;  // touches every period list

  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);

  ASSERT_TRUE(engine->Recommend(query, snap).ok());
  EXPECT_EQ(cache.misses(), periods);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), periods);

  // Second identical query: zero pair-list rebuild work — every period list
  // is a cache hit and no new list is materialized.
  ASSERT_TRUE(engine->Recommend(query, snap).ok());
  EXPECT_EQ(cache.misses(), periods) << "no rebuild on repeat";
  EXPECT_EQ(cache.hits(), periods);
  EXPECT_EQ(cache.size(), periods);

  // A different group misses again (cache is keyed by (group, period)).
  Query other = query;
  other.group = {3, 11};
  ASSERT_TRUE(engine->Recommend(other, snap).ok());
  EXPECT_EQ(cache.misses(), 2 * periods);
  EXPECT_EQ(cache.size(), 2 * periods);

  EXPECT_GT(cache.MemoryBytes(), 0u);

  // Rating updates and compactions leave the affinity source alone, so the
  // next generation reads the same warm cache — a steady update stream
  // never re-colds it.
  ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(4, 17)).ok());
  const auto next = engine->snapshot();
  ASSERT_GT(next->generation(), snap->generation());
  EXPECT_EQ(cache.size(), 2 * periods);
  ASSERT_TRUE(engine->Recommend(query, next).ok());
  EXPECT_EQ(cache.misses(), 2 * periods) << "still warm";
  EXPECT_EQ(cache.hits(), 2 * periods);
}

// The period-list cache is bounded: entries past the cap evict least
// recently used, the eviction counter sits next to hit/miss, and a
// GetShared copy held by a query survives its own eviction.
TEST_F(SnapshotTest, PeriodCacheEvictsLeastRecentlyUsedPastCap) {
  const auto last_period =
      static_cast<PeriodId>(study_->periods.num_periods() - 1);
  const std::size_t periods = static_cast<std::size_t>(last_period) + 1;

  RecommenderOptions options;
  options.max_candidate_items = 400;
  options.period_cache_max_entries = periods;  // exactly one group fits
  EngineOptions eopts;
  eopts.num_threads = 2;
  auto engine = std::make_unique<Engine>(*universe_, *study_, options, eopts);
  const GroupRecommender& recommender = engine->recommender();
  PeriodListCache& cache = recommender.period_cache();
  const auto snap = engine->snapshot();

  Query query;
  query.group = {4, 17, 29};
  query.spec.k = 5;
  query.spec.num_candidate_items = 400;
  query.spec.eval_period = last_period;  // touches every period list

  // Group A fills the cache to the cap without evicting.
  ASSERT_TRUE(engine->Recommend(query, snap).ok());
  const auto first = engine->Recommend(query, snap);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.size(), periods);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.hits(), periods) << "repeat was all hits";

  // Hold one of A's lists across the churn below.
  const std::shared_ptr<const SortedList> pinned =
      cache.GetShared(query.group, 0, recommender.affinity());

  // Group B displaces A entry by entry; the size never passes the cap.
  Query other = query;
  other.group = {3, 11};
  ASSERT_TRUE(engine->Recommend(other, snap).ok());
  EXPECT_EQ(cache.size(), periods);
  EXPECT_EQ(cache.evictions(), periods);

  // B is resident (all hits), A was evicted (all misses again) — LRU, not
  // random or insertion-order eviction.
  const auto hits_before = cache.hits();
  const auto misses_before = cache.misses();
  ASSERT_TRUE(engine->Recommend(other, snap).ok());
  EXPECT_EQ(cache.hits(), hits_before + periods);
  EXPECT_EQ(cache.misses(), misses_before);
  const auto replay = engine->Recommend(query, snap);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(cache.misses(), misses_before + periods)
      << "evicted lists rebuild from scratch";

  // Eviction is invisible to results: the rebuilt lists answer identically.
  EXPECT_EQ(first.value().items, replay.value().items);
  EXPECT_EQ(first.value().scores, replay.value().scores);

  // The held copy outlived its eviction and still matches a direct
  // materialization.
  const SortedList direct =
      recommender.affinity().MaterializePeriodList(query.group, 0);
  ASSERT_EQ(pinned->size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(pinned->entry(i).id, direct.entry(i).id);
    EXPECT_EQ(pinned->entry(i).score, direct.entry(i).score);
  }

  // An unbounded cache (cap 0) never evicts under the same workload.
  RecommenderOptions unbounded = options;
  unbounded.period_cache_max_entries = 0;
  auto engine2 =
      std::make_unique<Engine>(*universe_, *study_, unbounded, eopts);
  const PeriodListCache& cache2 = engine2->recommender().period_cache();
  ASSERT_TRUE(engine2->Recommend(query).ok());
  ASSERT_TRUE(engine2->Recommend(other).ok());
  EXPECT_EQ(cache2.size(), 2 * periods);
  EXPECT_EQ(cache2.evictions(), 0u);
}

// Cached lists must be identical to freshly materialized ones (the cache is
// a pure memoization, not an approximation).
TEST_F(SnapshotTest, CachedPeriodListsMatchDirectMaterialization) {
  auto engine = MakeEngine();
  const GroupRecommender& recommender = engine->recommender();
  PeriodListCache& cache = recommender.period_cache();
  const AffinitySource& source = recommender.affinity();
  const std::vector<UserId> group = {2, 9, 23, 31};
  const auto last_period =
      static_cast<PeriodId>(recommender.num_periods() - 1);
  for (PeriodId p = 0; p <= last_period; ++p) {
    const std::shared_ptr<const SortedList> pinned =
        cache.GetShared(group, p, source);
    const SortedList& cached = *pinned;
    const SortedList direct = source.MaterializePeriodList(group, p);
    ASSERT_EQ(cached.size(), direct.size()) << "period " << p;
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(cached.entry(i).id, direct.entry(i).id) << "period " << p;
      EXPECT_EQ(cached.entry(i).score, direct.entry(i).score)
          << "period " << p;
    }
    // Second lookup returns the same resident list.
    EXPECT_EQ(cache.GetShared(group, p, source), pinned);
  }
}

// Rating updates racing a query stream: queries must never crash or error,
// and every RecommendBatch must equal sequential Recommend calls on the one
// snapshot it pinned while ApplyUpdates keeps publishing. (The ASan/TSan CI
// jobs turn latent races into failures here.)
TEST_F(SnapshotTest, RatingUpdatesRacingQueriesAreSafe) {
  auto engine = MakeEngine(/*threads=*/3);
  const std::vector<Query> batch = MixedBatch(*engine, 24, 777);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t seed = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(8, seed++)).ok());
      std::this_thread::yield();
    }
  });

  for (int round = 0; round < 8; ++round) {
    const auto pinned = engine->snapshot();
    const auto results = engine->RecommendBatch(batch, pinned);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << "round " << round << " query " << i;
      const auto replay = engine->Recommend(batch[i], pinned);
      ASSERT_TRUE(replay.ok());
      EXPECT_EQ(results[i].value().items, replay.value().items)
          << "round " << round << " query " << i;
      EXPECT_EQ(results[i].value().scores, replay.value().scores)
          << "round " << round << " query " << i;
    }
    // The unpinned entry point serves the newest generation without error.
    for (const auto& r : engine->RecommendBatch(batch)) {
      ASSERT_TRUE(r.ok()) << "round " << round;
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(engine->snapshot()->generation(), 1u);
}

// A GroupProblem built from a snapshot stays valid after newer generations
// publish (the problem shares ownership of the snapshot it aliases).
TEST_F(SnapshotTest, ProblemOutlivesRetiredGeneration) {
  auto engine = MakeEngine();
  const std::vector<UserId> group = {4, 17, 29};
  QuerySpec spec;
  spec.k = 5;
  spec.num_candidate_items = 400;

  auto pinned = engine->snapshot();
  auto problem =
      engine->recommender().BuildProblem(pinned, group, spec);
  ASSERT_TRUE(problem.ok());
  const double score_before = problem.value().ExactScore(0);

  // Retire the generation; drop our own pin. The problem must keep the
  // snapshot (index rows + cached period lists) alive on its own.
  ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(16, 99)).ok());
  pinned.reset();

  EXPECT_EQ(problem.value().ExactScore(0), score_before);
  std::vector<double> affinities = problem.value().ExactPairAffinities();
  EXPECT_EQ(affinities.size(), NumUserPairs(group.size()));
}

// Tombstone cache: the first assembly for a (group, pool) builds the
// group-rated bitmap, repeats within the same generation hit (bit-identical
// recs and access counts), a different pool prefix misses again, and a
// rating update starts a FRESH cache whose bitmaps see the new delta log.
TEST_F(SnapshotTest, TombstoneCacheHitsRepeatsAndResetsPerGeneration) {
  auto engine = MakeEngine();
  const auto snap = engine->snapshot();

  Query query;
  query.group = {4, 17, 29};
  query.spec.k = 5;
  query.spec.num_candidate_items = 400;

  EXPECT_EQ(snap->tombstone_cache().hits(), 0u);
  EXPECT_EQ(snap->tombstone_cache().misses(), 0u);

  const auto first = engine->Recommend(query, snap);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(snap->tombstone_cache().misses(), 1u);
  EXPECT_EQ(snap->tombstone_cache().hits(), 0u);
  EXPECT_EQ(snap->tombstone_cache().size(), 1u);

  // Identical repeat: the bitmap is served from the memo and nothing about
  // the answer changes — items, scores AND access counts.
  const auto repeat = engine->Recommend(query, snap);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(snap->tombstone_cache().misses(), 1u);
  EXPECT_EQ(snap->tombstone_cache().hits(), 1u);
  EXPECT_EQ(repeat.value().items, first.value().items);
  EXPECT_EQ(repeat.value().scores, first.value().scores);
  EXPECT_EQ(repeat.value().raw.accesses.sequential,
            first.value().raw.accesses.sequential);
  EXPECT_EQ(repeat.value().raw.accesses.random,
            first.value().raw.accesses.random);

  // A different pool prefix is a different bitmap (keyed by (group, pool)).
  Query narrower = query;
  narrower.spec.num_candidate_items = 100;
  ASSERT_TRUE(engine->Recommend(narrower, snap).ok());
  EXPECT_EQ(snap->tombstone_cache().misses(), 2u);
  EXPECT_EQ(snap->tombstone_cache().size(), 2u);
  EXPECT_GT(snap->tombstone_cache().MemoryBytes(), 0u);

  // Rate the group's current top pick: the next generation's FRESH cache
  // must tombstone it (a carried-over bitmap would keep recommending it).
  ASSERT_FALSE(first.value().items.empty());
  const ItemId top = first.value().items[0];
  RatingEvent e;
  e.user = 4;
  e.item = top;
  e.rating = 5.0;
  e.timestamp = 2'000'000'000;
  ASSERT_TRUE(engine->ApplyUpdates({&e, 1}).ok());
  const auto next = engine->snapshot();
  EXPECT_EQ(next->tombstone_cache().size(), 0u) << "fresh per generation";
  EXPECT_EQ(next->tombstone_cache().misses(), 0u);
  const auto after = engine->Recommend(query, next);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(next->tombstone_cache().misses(), 1u);
  for (const ItemId item : after.value().items) {
    EXPECT_NE(item, top) << "newly rated item must be excluded";
  }
}

// The tombstone cache is bounded: a cap of 1 evicts the older group's
// bitmap, the eviction counter records it, and the evicted group still
// answers identically when it misses back in.
TEST_F(SnapshotTest, TombstoneCacheEvictsLeastRecentlyUsedPastCap) {
  RecommenderOptions options;
  options.max_candidate_items = 400;
  options.tombstone_cache_max_entries = 1;
  EngineOptions eopts;
  eopts.num_threads = 2;
  auto engine = std::make_unique<Engine>(*universe_, *study_, options, eopts);
  const auto snap = engine->snapshot();

  Query a;
  a.group = {4, 17, 29};
  a.spec.k = 5;
  a.spec.num_candidate_items = 400;
  Query b = a;
  b.group = {3, 11};

  const auto a1 = engine->Recommend(a, snap);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(engine->Recommend(b, snap).ok());  // evicts A's bitmap
  EXPECT_EQ(snap->tombstone_cache().size(), 1u);
  EXPECT_EQ(snap->tombstone_cache().evictions(), 1u);

  const auto a2 = engine->Recommend(a, snap);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(snap->tombstone_cache().misses(), 3u);
  EXPECT_EQ(snap->tombstone_cache().evictions(), 2u);
  EXPECT_EQ(a2.value().items, a1.value().items);
  EXPECT_EQ(a2.value().scores, a1.value().scores);
}

}  // namespace
}  // namespace greca
