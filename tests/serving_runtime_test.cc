// The unified serving runtime's concurrency surface (src/serve/):
//
//  * WorkspacePool — leases are exclusive, returned workspaces are reused,
//    and the high-water mark tracks peak concurrency, not call count.
//  * Racing batches — Engine::RecommendBatch no longer serializes callers
//    behind a whole-batch mutex: two threads batching concurrently against
//    one pinned snapshot, with a publisher racing them, must each reproduce
//    the serial reference bit-for-bit. Runs under the TSan CI job like every
//    test (the old workspace sharing was exactly the race TSan would flag).
//  * Pin() under a publish storm — the per-shard snapshot gather runs
//    outside pin_mu_ (see ShardedEngine::Pin); the benign race must only
//    ever cost a missed reuse, never hand out a set older than a completed
//    publish.
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

// Pin()'s gather runs outside pin_mu_; the race with concurrent publishes is
// benign ONLY if reuse never resurrects a retired set. Storm: one thread
// publishes continuously and, after every publish, pins and checks the set
// reflects at least the generation it just published; reader threads hammer
// Pin() throughout to keep last_pin_ churning.
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

}  // namespace
}  // namespace greca
