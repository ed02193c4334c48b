// Tests for the snapshot-centric serving API: RCU-style publish semantics
// (pinned generations are immutable under concurrent updates), the
// live-update path (ApplyUpdates rebuilds predictions + index rows +
// tombstones) and per-query tombstone bitmaps on a reused workspace.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <span>
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

void ExpectSameRecommendation(const Recommendation& a,
                              const Recommendation& b) {
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_EQ(a.raw.accesses.sequential, b.raw.accesses.sequential);
  EXPECT_EQ(a.raw.accesses.random, b.raw.accesses.random);
}

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
  report.num_queries = 12'345;
  const auto results = engine->RecommendBatch(batch, nullptr, &report);
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().ToString(), null_snap.status().ToString());
  }
  EXPECT_EQ(report.num_queries, 12'345u) << "report left untouched";
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
  // snapshot's index rows alive on its own; its affinity lists live in the
  // problem-owned arena.
  ASSERT_TRUE(engine->ApplyUpdates(RandomEvents(16, 99)).ok());
  pinned.reset();

  EXPECT_EQ(problem.value().ExactScore(0), score_before);
  std::vector<double> affinities = problem.value().ExactPairAffinities();
  EXPECT_EQ(affinities.size(), NumUserPairs(group.size()));
}

// Tombstone bitmaps are built per query into the workspace's arena. On one
// reused workspace an identical repeat is bit-identical (access counts
// included), a narrower pool prefix is served exactly as on a fresh
// workspace, and after a rating publish the next generation excludes the
// group's newly rated top pick.
TEST_F(SnapshotTest, ReusedWorkspaceRebuildsTombstonesPerQuery) {
  auto engine = MakeEngine();
  const GroupRecommender& recommender = engine->recommender();
  const auto snap = engine->snapshot();

  Query query;
  query.group = {4, 17, 29};
  query.spec.k = 5;
  query.spec.num_candidate_items = 400;

  QueryWorkspace workspace;
  const auto first =
      recommender.Recommend(snap, query.group, query.spec, &workspace);
  ASSERT_TRUE(first.ok());
  const auto repeat =
      recommender.Recommend(snap, query.group, query.spec, &workspace);
  ASSERT_TRUE(repeat.ok());
  ExpectSameRecommendation(repeat.value(), first.value());

  // A narrower pool prefix on the reused (wider) bitmap's arena.
  Query narrower = query;
  narrower.spec.num_candidate_items = 100;
  const auto narrow =
      recommender.Recommend(snap, narrower.group, narrower.spec, &workspace);
  ASSERT_TRUE(narrow.ok());
  QueryWorkspace fresh;
  const auto narrow_fresh =
      recommender.Recommend(snap, narrower.group, narrower.spec, &fresh);
  ASSERT_TRUE(narrow_fresh.ok());
  ExpectSameRecommendation(narrow.value(), narrow_fresh.value());
  const std::span<const ItemId> prefix =
      snap->index().pool().first(narrower.spec.num_candidate_items);
  for (const ItemId item : narrow.value().items) {
    EXPECT_NE(std::ranges::find(prefix, item), prefix.end())
        << "item " << item << " lies outside the narrower pool prefix";
  }

  // Rate the group's current top pick: the next generation must tombstone
  // it, on the same workspace that served the old generation.
  ASSERT_FALSE(first.value().items.empty());
  const ItemId top = first.value().items[0];
  RatingEvent e;
  e.user = 4;
  e.item = top;
  e.rating = 5.0;
  e.timestamp = 2'000'000'000;
  ASSERT_TRUE(engine->ApplyUpdates({&e, 1}).ok());
  const auto next = engine->snapshot();
  const auto after =
      recommender.Recommend(next, query.group, query.spec, &workspace);
  ASSERT_TRUE(after.ok());
  for (const ItemId item : after.value().items) {
    EXPECT_NE(item, top) << "newly rated item must be excluded";
  }
  // The retired generation, replayed on the same workspace, still serves
  // its old answer.
  const auto replay =
      recommender.Recommend(snap, query.group, query.spec, &workspace);
  ASSERT_TRUE(replay.ok());
  ExpectSameRecommendation(replay.value(), first.value());
}

}  // namespace
}  // namespace greca
