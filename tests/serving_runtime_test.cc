// The unified serving runtime's concurrency surface (src/serve/):
//
//  * WorkspacePool — leases are exclusive, returned workspaces are reused,
//    and the high-water mark tracks peak concurrency, not call count.
//  * Racing batches — Engine::RecommendBatch no longer serializes callers
//    behind a whole-batch mutex: two threads batching concurrently against
//    one pinned snapshot, with a publisher racing them, must each reproduce
//    the serial reference bit-for-bit. Runs under the TSan CI job like every
//    test (the old workspace sharing was exactly the race TSan would flag).
//  * Pin() under a publish storm — Pin() must never hand out a set older
//    than a completed publish.
//  * Cross-shard atomicity — a batch rating users on two shards lands in a
//    pinned set on both shards or on neither.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "serve/workspace_pool.h"
#include "shard/sharded_engine.h"

namespace greca {
namespace {

// --- WorkspacePool ----------------------------------------------------------

TEST(WorkspacePoolTest, LeasesAreExclusiveAndReused) {
  WorkspacePool pool;
  EXPECT_EQ(pool.created(), 0u);
  EXPECT_EQ(pool.idle(), 0u);

  {
    const WorkspacePool::Lease a = pool.Acquire();
    const WorkspacePool::Lease b = pool.Acquire();
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(pool.created(), 2u);
    EXPECT_EQ(pool.idle(), 0u);
  }
  EXPECT_EQ(pool.idle(), 2u);

  // Re-acquiring reuses the freed workspaces instead of allocating.
  {
    const WorkspacePool::Lease a = pool.Acquire();
    const WorkspacePool::Lease b = pool.Acquire();
    EXPECT_EQ(pool.created(), 2u) << "freelist hit must not allocate";
    EXPECT_EQ(pool.idle(), 0u);
    (void)a;
    (void)b;
  }
  EXPECT_EQ(pool.idle(), 2u);
}

TEST(WorkspacePoolTest, MovedLeaseReturnsExactlyOnce) {
  WorkspacePool pool;
  {
    WorkspacePool::Lease a = pool.Acquire();
    QueryWorkspace* ws = a.get();
    WorkspacePool::Lease b = std::move(a);
    EXPECT_EQ(b.get(), ws);
    WorkspacePool::Lease c;
    c = std::move(b);
    EXPECT_EQ(c.get(), ws);
  }
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.idle(), 1u) << "a moved-through lease must return once";
}

TEST(WorkspacePoolTest, HighWaterMarkTracksPeakConcurrencyNotCallCount) {
  WorkspacePool pool;
  for (int round = 0; round < 10; ++round) {
    const WorkspacePool::Lease lease = pool.Acquire();
    (void)lease;
  }
  EXPECT_EQ(pool.created(), 1u)
      << "sequential acquire/release must reuse one workspace forever";
}

// --- Racing batches ---------------------------------------------------------

class ServingRuntimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 160;
    uc.num_items = 300;
    uc.target_ratings = 10'000;
    uc.seed = 121;
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

  static std::vector<Query> MakeBatch(std::size_t count, std::uint64_t seed) {
    const auto participants = static_cast<UserId>(study_->num_participants());
    Rng rng(seed);
    std::vector<Query> queries;
    for (std::size_t i = 0; i < count; ++i) {
      Query q;
      const std::size_t size = 2 + rng.NextBounded(3);
      while (q.group.size() < size) {
        const auto u = static_cast<UserId>(rng.NextBounded(participants));
        if (std::find(q.group.begin(), q.group.end(), u) == q.group.end()) {
          q.group.push_back(u);
        }
      }
      q.spec.k = 5;
      q.spec.num_candidate_items = 240;
      // Duplicate every third query so the planner shares work mid-race.
      if (i % 3 == 2 && !queries.empty()) q = queries.back();
      queries.push_back(std::move(q));
    }
    return queries;
  }

  static std::vector<RatingEvent> RandomEvents(std::size_t count,
                                               std::uint64_t seed) {
    const auto participants = static_cast<UserId>(study_->num_participants());
    const auto items = static_cast<ItemId>(universe_->dataset.num_items());
    Rng rng(seed);
    std::vector<RatingEvent> events;
    for (std::size_t i = 0; i < count; ++i) {
      events.push_back({static_cast<UserId>(rng.NextBounded(participants)),
                        static_cast<ItemId>(rng.NextBounded(items)),
                        static_cast<Score>(1 + rng.NextBounded(5)),
                        static_cast<Timestamp>(rng.NextBounded(2'000'000))});
    }
    return events;
  }

  /// Exact equality of two batch outputs (gtest-free: callable off-thread;
  /// the caller asserts the returned flag on the main thread).
  static bool BatchesEqual(const std::vector<Result<Recommendation>>& a,
                           const std::vector<Result<Recommendation>>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].ok() != b[i].ok()) return false;
      if (!a[i].ok()) {
        if (a[i].status().code() != b[i].status().code()) return false;
        continue;
      }
      if (a[i].value().items != b[i].value().items) return false;
      if (a[i].value().scores != b[i].value().scores) return false;
    }
    return true;
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
};

SyntheticRatings* ServingRuntimeTest::universe_ = nullptr;
FacebookStudy* ServingRuntimeTest::study_ = nullptr;

// Two threads batch concurrently against one pinned snapshot while a third
// publishes updates. Every racing batch must equal the serial reference
// computed before the race — the pinned generation is immutable and each
// batch runs on its own leased workspaces, so neither the concurrent batch
// nor the publish may perturb results.
TEST_F(ServingRuntimeTest, RacingBatchesMatchSerialReferenceUnderPublish) {
  RecommenderOptions ropts;
  ropts.max_candidate_items = 240;
  EngineOptions eopts;
  eopts.num_threads = 2;
  Engine engine(universe_->dataset, *study_, ropts, eopts);

  const std::vector<Query> batch_a = MakeBatch(24, 7'001);
  const std::vector<Query> batch_b = MakeBatch(24, 7'002);
  const auto pin = engine.snapshot();
  const auto ref_a = engine.RecommendBatch(batch_a, pin, nullptr);
  const auto ref_b = engine.RecommendBatch(batch_b, pin, nullptr);

  constexpr int kRounds = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  auto racer = [&](const std::vector<Query>& batch,
                   const std::vector<Result<Recommendation>>& ref) {
    for (int r = 0; r < kRounds; ++r) {
      if (!BatchesEqual(engine.RecommendBatch(batch, pin, nullptr), ref)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::atomic<int> publish_failures{0};
  std::thread t1(racer, std::cref(batch_a), std::cref(ref_a));
  std::thread t2(racer, std::cref(batch_b), std::cref(ref_b));
  std::thread publisher([&] {
    std::uint64_t seed = 8'000;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!engine.ApplyUpdates(RandomEvents(8, seed++)).ok()) {
        publish_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  t1.join();
  t2.join();
  stop.store(true, std::memory_order_relaxed);
  publisher.join();

  EXPECT_EQ(publish_failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "a racing batch diverged from the pinned serial reference";
  // Fresh batches on the post-publish snapshot still work.
  for (const auto& r : engine.RecommendBatch(batch_a)) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

// The sharded engine's batches race the same way: concurrent RecommendBatch
// calls on one pinned set, publishes landing throughout.
TEST_F(ServingRuntimeTest, ShardedRacingBatchesMatchPinnedReference) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  options.recommender.max_candidate_items = 240;
  options.batch_threads = 2;
  ShardedEngine engine(universe_->dataset, *study_, options);

  const std::vector<Query> batch = MakeBatch(24, 7'003);
  const auto set = engine.Pin();
  const auto ref = engine.RecommendBatch(set, batch, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  auto racer = [&] {
    for (int r = 0; r < 4; ++r) {
      if (!BatchesEqual(engine.RecommendBatch(set, batch, nullptr), ref)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::atomic<int> publish_failures{0};
  std::thread t1(racer);
  std::thread t2(racer);
  std::thread publisher([&] {
    std::uint64_t seed = 9'000;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!engine.ApplyUpdates(RandomEvents(8, seed++)).ok()) {
        publish_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  t1.join();
  t2.join();
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  EXPECT_EQ(publish_failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// --- Pin() publish storm ----------------------------------------------------

// Pin() reuse must never resurrect a retired set. Storm: one thread
// publishes continuously and, after every publish, pins and checks the set
// reflects at least the generation it just published; reader threads hammer
// Pin() throughout.
TEST_F(ServingRuntimeTest, PinNeverReusesStaleSetAcrossPublishStorm) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  options.recommender.max_candidate_items = 240;
  ShardedEngine engine(universe_->dataset, *study_, options);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto set = engine.Pin();
        // A handed-out set is internally consistent by construction; touch
        // every shard to keep TSan honest about the gather.
        for (std::size_t s = 0; s < set->num_shards(); ++s) {
          (void)set->shard(s).generation;
        }
      }
    });
  }

  std::atomic<int> stale{0};
  constexpr int kPublishes = 60;
  for (int round = 0; round < kPublishes; ++round) {
    ShardedUpdateReport report;
    ASSERT_TRUE(
        engine.ApplyUpdates(RandomEvents(6, 10'000 + round), &report).ok());
    const auto set = engine.Pin();
    // Every shard this publish touched must be visible in the very next
    // pin: a stale cached set surviving the publish would fail this.
    for (std::size_t s = 0; s < report.per_shard.size(); ++s) {
      if (set->shard(s).generation < report.per_shard[s].published_generation) {
        stale.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  EXPECT_EQ(stale.load(), 0)
      << "Pin() handed out a set older than a completed publish";

  // Quiescent again: reuse resumes (same set object on repeat pins).
  const auto a = engine.Pin();
  EXPECT_EQ(a.get(), engine.Pin().get());
}

// --- Cross-shard atomicity -------------------------------------------------

// One publish is one state for every shard. Users a and b live on different
// shards; publish t rates pool item x[t % n] for a and y[t % n] for b, with
// a fresh rating and timestamp, every x and y unrated by either user
// before. Readers pin concurrently and check on the pinned set that a's
// overlay entry for each x[i] equals b's entry for y[i] (both absent, or
// both from the same publish), and that a served {a, b} query's problem
// (built through the tombstone bitmap of the items either member rated)
// tombstones x[i] exactly when it tombstones y[i]. A set holding shard A
// after a publish and shard B before it fails the first check, and within
// the first n publishes the second.
TEST_F(ServingRuntimeTest, CrossShardPublishIsAtomic) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  options.recommender.max_candidate_items = 240;
  options.batch_threads = 1;
  ShardedEngine engine(universe_->dataset, *study_, options);

  const UserId a = 0;
  UserId b = 1;
  while (engine.router().ShardOf(b) == engine.router().ShardOf(a)) ++b;
  const std::size_t shard_a = engine.router().ShardOf(a);
  const std::size_t shard_b = engine.router().ShardOf(b);
  const auto rated = [&](UserId u, ItemId item) {
    const auto row = study_->study_ratings.RatingsOfUser(u);
    return std::any_of(row.begin(), row.end(), [&](const UserRatingEntry& e) {
      return e.item == item;
    });
  };
  // x and y hold the items; x_key and y_key their pool positions, i.e. the
  // problem's candidate keys.
  std::vector<ItemId> x, y;
  std::vector<ListKey> x_key, y_key;
  const std::span<const ItemId> pool = engine.pool();
  for (std::size_t key = 0; key < pool.size() && y.size() < 32; ++key) {
    if (rated(a, pool[key]) || rated(b, pool[key])) continue;
    const bool to_x = x.size() == y.size();
    (to_x ? x : y).push_back(pool[key]);
    (to_x ? x_key : y_key).push_back(static_cast<ListKey>(key));
  }
  const std::size_t n = y.size();
  ASSERT_EQ(n, 32u) << "too few unrated pool items";
  constexpr std::size_t kPublishes = 600;

  // (rating, timestamp) of u's entry for `item` in the overlay; (0, 0) when
  // u has none.
  const auto entry = [](std::span<const UserRatingEntry> merged, ItemId item) {
    for (const UserRatingEntry& e : merged) {
      if (e.item == item) return std::pair(e.rating, e.timestamp);
    }
    return std::pair(Score{0}, Timestamp{0});
  };

  std::atomic<bool> stop{false};
  std::atomic<int> torn_ratings{0};
  std::atomic<int> torn_tombstones{0};
  std::atomic<int> build_failures{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      const std::vector<UserId> group{a, b};
      QuerySpec spec;
      spec.k = 5;
      spec.num_candidate_items = 240;
      QueryWorkspace ws;
      std::vector<UserRatingEntry> scratch_a, scratch_b;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto set = engine.Pin();
        reads.fetch_add(1, std::memory_order_relaxed);
        const auto merged_a =
            set->shard(shard_a).ratings->MergedRatingsOfUser(a, scratch_a);
        const auto merged_b =
            set->shard(shard_b).ratings->MergedRatingsOfUser(b, scratch_b);
        for (std::size_t i = 0; i < n; ++i) {
          if (entry(merged_a, x[i]) != entry(merged_b, y[i])) {
            torn_ratings.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        const Result<GroupProblem> problem =
            engine.BuildProblem(set, group, spec, nullptr, &ws);
        if (!problem.ok()) {
          build_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (problem.value().IsCandidate(x_key[i]) !=
              problem.value().IsCandidate(y_key[i])) {
            torn_tombstones.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }

  // Publish only once both readers are pinning.
  while (reads.load(std::memory_order_relaxed) < 2) std::this_thread::yield();
  for (std::size_t t = 0; t < kPublishes; ++t) {
    const auto rating = static_cast<Score>(1 + t % 5);
    const auto ts = static_cast<Timestamp>(3'000'000 + t);
    const std::vector<RatingEvent> events = {{a, x[t % n], rating, ts},
                                             {b, y[t % n], rating, ts}};
    ShardedUpdateReport report;
    EXPECT_TRUE(engine.ApplyUpdates(events, &report).ok());
    EXPECT_EQ(report.total.events_applied, 2u);
    EXPECT_EQ(report.shards_touched, 2u);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(build_failures.load(), 0);
  EXPECT_EQ(torn_ratings.load(), 0)
      << "a pinned set held one shard after a publish, the other before it";
  EXPECT_EQ(torn_tombstones.load(), 0)
      << "a served query tombstoned one member's new rating but not the "
         "other's";
  // The last publish landed on both shards.
  const auto set = engine.Pin();
  std::vector<UserRatingEntry> scratch;
  const auto last = entry(
      set->shard(shard_a).ratings->MergedRatingsOfUser(a, scratch),
      x[(kPublishes - 1) % n]);
  EXPECT_EQ(last.second, static_cast<Timestamp>(3'000'000 + kPublishes - 1));
}

}  // namespace
}  // namespace greca
