// The sharded engine's load-bearing contract: ShardedEngine(N) over a study
// is BIT-IDENTICAL to the monolithic Engine built from the same inputs — at
// any shard count, under both routing strategies, through a randomized
// stream of live rating batches, with and without compactions, and for
// snapshot sets pinned across publishes. "Bit-identical" covers the full
// observable surface: recommended items, scores, raw top-k access counters
// (sequential/random), rounds, and the per-batch UpdateReport attribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "core/problem_assembly.h"
#include "shard/sharded_engine.h"
#include "solver/solver_registry.h"

namespace greca {
namespace {

class ShardedEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 240;
    uc.num_items = 400;
    uc.target_ratings = 18'000;
    uc.seed = 77;
    universe_ = new SyntheticRatings(GenerateSyntheticRatings(uc));
    FacebookStudyConfig sc;
    sc.diversity_pool = 180;
    study_ = new FacebookStudy(GenerateFacebookStudy(sc, *universe_));
  }
  static void TearDownTestSuite() {
    delete study_;
    delete universe_;
    study_ = nullptr;
    universe_ = nullptr;
  }

  static RecommenderOptions MonoOptions() {
    RecommenderOptions options;
    options.max_candidate_items = 360;
    options.compact_delta_fraction = 0.0;  // report parity needs no-compact
    return options;
  }

  static ShardedEngineOptions ShardOptionsFor(std::size_t num_shards,
                                              ShardStrategy strategy) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.strategy = strategy;
    options.recommender = MonoOptions();
    return options;
  }

  static std::unique_ptr<Engine> MakeMono(
      RecommenderOptions options = MonoOptions()) {
    EngineOptions eopts;
    eopts.num_threads = 2;
    return std::make_unique<Engine>(universe_->dataset, *study_, options,
                                    eopts);
  }

  static std::unique_ptr<ShardedEngine> MakeSharded(std::size_t num_shards,
                                                    ShardStrategy strategy) {
    return std::make_unique<ShardedEngine>(
        universe_->dataset, *study_, ShardOptionsFor(num_shards, strategy));
  }

  /// Deterministic queries across algorithms, models, periods and sizes.
  static std::vector<Query> QueryMix() {
    const auto participants = static_cast<UserId>(study_->num_participants());
    const auto num_periods =
        static_cast<PeriodId>(study_->periods.num_periods());
    const AffinityModelSpec models[] = {AffinityModelSpec::Default(),
                                        AffinityModelSpec::Continuous(),
                                        AffinityModelSpec::TimeAgnostic()};
    const std::string_view solvers[] = {kGrecaSolverId, kNaiveSolverId,
                                        kTaSolverId};
    Rng rng(626);
    std::vector<Query> queries;
    for (std::size_t i = 0; i < 15; ++i) {
      Query q;
      const std::size_t size = 2 + rng.NextBounded(4);
      while (q.group.size() < size) {
        const auto u = static_cast<UserId>(rng.NextBounded(participants));
        if (std::find(q.group.begin(), q.group.end(), u) == q.group.end()) {
          q.group.push_back(u);
        }
      }
      q.spec.k = 4 + i % 5;
      q.spec.model = models[i % 3];
      q.spec.solver_id = std::string(solvers[(i / 3) % 3]);
      q.spec.num_candidate_items = 360;
      q.spec.eval_period = static_cast<PeriodId>(i % num_periods);
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
      RatingEvent e;
      e.user = static_cast<UserId>(rng.NextBounded(participants));
      e.item = static_cast<ItemId>(rng.NextBounded(items));
      e.rating = static_cast<Score>(1 + rng.NextBounded(5));
      e.timestamp = static_cast<Timestamp>(rng.NextBounded(3'000'000'000));
      events.push_back(e);
    }
    return events;
  }

  static std::vector<Recommendation> RunMono(const Engine& engine,
                                             const std::vector<Query>& mix) {
    std::vector<Recommendation> out;
    const auto snap = engine.snapshot();
    for (const Query& q : mix) {
      auto r = engine.Recommend(q, snap);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(std::move(r.value()));
    }
    return out;
  }

  static std::vector<Recommendation> RunSharded(
      const ShardedEngine& engine, const std::vector<Query>& mix) {
    std::vector<Recommendation> out;
    const auto set = engine.Pin();
    QueryWorkspace ws;
    for (const Query& q : mix) {
      auto r = engine.Recommend(set, q.group, q.spec, &ws);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(std::move(r.value()));
    }
    return out;
  }

  /// The full observable surface must match, not just the item lists: equal
  /// access counters prove the assembled problems were identical, not merely
  /// that two different problems happened to rank items the same way.
  static void ExpectBitIdentical(const std::vector<Recommendation>& mono,
                                 const std::vector<Recommendation>& sharded,
                                 const char* label) {
    ASSERT_EQ(mono.size(), sharded.size());
    for (std::size_t i = 0; i < mono.size(); ++i) {
      const Recommendation& a = mono[i];
      const Recommendation& b = sharded[i];
      EXPECT_EQ(a.items, b.items) << label << " query " << i;
      EXPECT_EQ(a.scores, b.scores) << label << " query " << i;
      EXPECT_EQ(a.raw.accesses.sequential, b.raw.accesses.sequential)
          << label << " query " << i;
      EXPECT_EQ(a.raw.accesses.random, b.raw.accesses.random)
          << label << " query " << i;
      EXPECT_EQ(a.raw.total_entries, b.raw.total_entries)
          << label << " query " << i;
      EXPECT_EQ(a.raw.rounds, b.raw.rounds) << label << " query " << i;
      EXPECT_EQ(a.raw.early_terminated, b.raw.early_terminated)
          << label << " query " << i;
    }
  }

  /// Every UpdateReport field, publish for publish.
  static void ExpectSameReport(const UpdateReport& a, const UpdateReport& b,
                               std::uint64_t batch) {
    EXPECT_EQ(a.published_generation, b.published_generation)
        << "batch " << batch;
    EXPECT_EQ(a.users_rebuilt, b.users_rebuilt) << "batch " << batch;
    EXPECT_EQ(a.events_applied, b.events_applied) << "batch " << batch;
    EXPECT_EQ(a.events_ignored_stale, b.events_ignored_stale)
        << "batch " << batch;
    EXPECT_EQ(a.batches_coalesced, b.batches_coalesced) << "batch " << batch;
    EXPECT_EQ(a.compacted, b.compacted) << "batch " << batch;
    EXPECT_EQ(a.delta_log_ratings, b.delta_log_ratings) << "batch " << batch;
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
};

SyntheticRatings* ShardedEquivalenceTest::universe_ = nullptr;
FacebookStudy* ShardedEquivalenceTest::study_ = nullptr;

// --- Router invariants ------------------------------------------------------

TEST(ShardRouterTest, PartitionCoversEveryUserExactlyOnce) {
  for (const ShardStrategy strategy :
       {ShardStrategy::kHash, ShardStrategy::kRange}) {
    for (const std::size_t n : {1u, 2u, 4u, 7u}) {
      const ShardRouter router(n, 523, strategy);
      const auto owned = router.PartitionUsers();
      ASSERT_EQ(owned.size(), n);
      std::vector<bool> seen(523, false);
      for (std::size_t s = 0; s < n; ++s) {
        ASSERT_TRUE(std::is_sorted(owned[s].begin(), owned[s].end()));
        for (const UserId u : owned[s]) {
          EXPECT_EQ(router.ShardOf(u), s);
          EXPECT_FALSE(seen[u]) << "user " << u << " owned twice";
          seen[u] = true;
        }
      }
      EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                              [](bool b) { return b; }));
    }
  }
}

// A shard count of 0 reads as 1 under both strategies: one shard owning
// every user, no division by the count.
TEST(ShardRouterTest, ZeroShardsReadsAsOne) {
  for (const ShardStrategy strategy :
       {ShardStrategy::kHash, ShardStrategy::kRange}) {
    const ShardRouter router(0, 10, strategy);
    EXPECT_EQ(router.num_shards(), 1u);
    const auto owned = router.PartitionUsers();
    ASSERT_EQ(owned.size(), 1u);
    EXPECT_EQ(owned[0].size(), 10u);
    for (UserId u = 0; u < 10; ++u) EXPECT_EQ(router.ShardOf(u), 0u);
  }
  // An empty population has zero-width ranges; routing still divides by a
  // block of at least one id.
  EXPECT_EQ(ShardRouter(4, 0, ShardStrategy::kRange).ShardOf(7), 3u);
}

TEST(ShardRouterTest, RangeStrategyKeepsNeighborsTogether) {
  const ShardRouter router(4, 1000, ShardStrategy::kRange);
  EXPECT_EQ(router.ShardOf(0), 0u);
  EXPECT_EQ(router.ShardOf(249), 0u);
  EXPECT_EQ(router.ShardOf(250), 1u);
  EXPECT_EQ(router.ShardOf(999), 3u);
}

// --- The tentpole: bit-identity at every shard count ------------------------

TEST_F(ShardedEquivalenceTest, FreshEnginesAreBitIdentical) {
  const auto mono = MakeMono();
  const std::vector<Query> mix = QueryMix();
  const auto baseline = RunMono(*mono, mix);

  for (const std::size_t n : {1u, 2u, 4u, 7u}) {
    const auto sharded = MakeSharded(n, ShardStrategy::kHash);
    EXPECT_EQ(sharded->num_shards(), n);
    ExpectBitIdentical(baseline, RunSharded(*sharded, mix), "hash-fresh");
  }
  const auto range = MakeSharded(4, ShardStrategy::kRange);
  ExpectBitIdentical(baseline, RunSharded(*range, mix), "range-fresh");
}

// A 40-member group, past what a 32-bit seen mask could hold: every solver
// over AP and PD serves it bit-identically on the monolithic engine and on
// 1- and 3-shard engines, fresh and after a publish. (It has its own grid:
// one such GRECA query costs as much as the whole shared mix.)
TEST_F(ShardedEquivalenceTest, FortyMemberGroupIsBitIdentical) {
  std::vector<Query> mix;
  for (const ConsensusSpec& consensus :
       {ConsensusSpec::AveragePreference(),
        ConsensusSpec::PairwiseDisagreement()}) {
    for (const std::string_view id : kSolverIds) {
      Query q;
      for (UserId u = 10; u < 50; ++u) q.group.push_back(u);
      q.spec.k = 6;
      q.spec.consensus = consensus;
      q.spec.solver_id = std::string(id);
      q.spec.num_candidate_items = 120;
      mix.push_back(std::move(q));
    }
  }
  const auto mono = MakeMono();
  const auto one = MakeSharded(1, ShardStrategy::kHash);
  const auto three = MakeSharded(3, ShardStrategy::kHash);
  for (std::uint64_t batch = 0; batch < 2; ++batch) {
    if (batch > 0) {
      const std::vector<RatingEvent> events = RandomEvents(24, 7'300);
      ASSERT_TRUE(mono->ApplyUpdates(events).ok());
      ASSERT_TRUE(one->ApplyUpdates(events).ok());
      ASSERT_TRUE(three->ApplyUpdates(events).ok());
    }
    const auto baseline = RunMono(*mono, mix);
    ExpectBitIdentical(baseline, RunSharded(*one, mix), "forty-one-shard");
    ExpectBitIdentical(baseline, RunSharded(*three, mix),
                       "forty-three-shards");
  }
}

// num_shards = 0 builds the 1-shard engine: same answers before and after
// publishes, same reports.
TEST_F(ShardedEquivalenceTest, ZeroShardsServesLikeOneShard) {
  const auto zero = MakeSharded(0, ShardStrategy::kRange);
  const auto one = MakeSharded(1, ShardStrategy::kRange);
  EXPECT_EQ(zero->num_shards(), 1u);
  const std::vector<Query> mix = QueryMix();
  ExpectBitIdentical(RunSharded(*one, mix), RunSharded(*zero, mix),
                     "zero-shards-fresh");
  for (std::uint64_t batch = 0; batch < 3; ++batch) {
    const std::vector<RatingEvent> events = RandomEvents(20, 4'100 + batch);
    ShardedUpdateReport zero_report;
    ShardedUpdateReport one_report;
    ASSERT_TRUE(zero->ApplyUpdates(events, &zero_report).ok());
    ASSERT_TRUE(one->ApplyUpdates(events, &one_report).ok());
    ExpectSameReport(one_report.total, zero_report.total, batch);
    EXPECT_EQ(zero_report.shards_touched, 1u);
    ExpectBitIdentical(RunSharded(*one, mix), RunSharded(*zero, mix),
                       "zero-shards-published");
  }
}

// ShardedEngine::BuildProblem is the sharded twin of
// GroupRecommender::BuildProblem: same candidates, same problem shape, and
// solving either gives the same recommendation. Without a workspace each
// problem owns its arena; a null set is rejected like a null snapshot.
TEST_F(ShardedEquivalenceTest, BuildProblemMatchesMonolithic) {
  const auto mono = MakeMono();
  const auto sharded = MakeSharded(3, ShardStrategy::kHash);
  const auto snap = mono->snapshot();
  const auto set = sharded->Pin();
  const std::vector<Query> mix = QueryMix();
  for (const Query& q : mix) {
    std::vector<ItemId> mono_items;
    std::vector<ItemId> shard_items;
    auto a = mono->recommender().BuildProblem(snap, q.group, q.spec,
                                              &mono_items);
    auto b = sharded->BuildProblem(set, q.group, q.spec, &shard_items);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(mono_items, shard_items);
    EXPECT_EQ(a.value().num_items(), b.value().num_items());
    EXPECT_EQ(a.value().num_candidates(), b.value().num_candidates());
    EXPECT_EQ(a.value().num_periods(), b.value().num_periods());
    QueryWorkspace ws;
    const Recommendation from_mono =
        SolveGroupProblem(a.value(), q.spec, snap->index().pool(), ws);
    const Recommendation from_shards =
        SolveGroupProblem(b.value(), q.spec, sharded->pool(), ws);
    ExpectBitIdentical({from_mono}, {from_shards}, "build-problem");
  }
  const auto null_set = sharded->BuildProblem(nullptr, mix[0].group,
                                              mix[0].spec);
  EXPECT_EQ(null_set.status().code(), StatusCode::kInvalidArgument);

  // A null set fails every query of a batch the same way, report untouched.
  BatchReport report;
  report.num_queries = 12'345;
  const auto results = sharded->RecommendBatch(nullptr, mix, &report);
  ASSERT_EQ(results.size(), mix.size());
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().ToString(), null_set.status().ToString());
  }
  EXPECT_EQ(report.num_queries, 12'345u);
}

// A randomized update stream applied to the monolithic engine and to
// ShardedEngine(N in {1, 2, 4, 7}) must keep recommendations bit-identical
// after EVERY batch, and the engine-wide report must equal the monolithic
// report exactly (one fold over one overlay, whatever the shard count).
TEST_F(ShardedEquivalenceTest, RandomizedUpdateStreamEquivalence) {
  const auto mono = MakeMono();
  std::vector<std::unique_ptr<ShardedEngine>> fleet;
  for (const std::size_t n : {1u, 2u, 4u, 7u}) {
    fleet.push_back(MakeSharded(n, ShardStrategy::kHash));
  }
  fleet.push_back(MakeSharded(4, ShardStrategy::kRange));
  const std::vector<Query> mix = QueryMix();

  for (std::uint64_t batch = 0; batch < 6; ++batch) {
    const std::vector<RatingEvent> events = RandomEvents(20, 1'700 + batch);

    UpdateReport mono_report;
    ASSERT_TRUE(mono->ApplyUpdates(events, &mono_report).ok());
    const auto baseline = RunMono(*mono, mix);

    for (const auto& sharded : fleet) {
      ShardedUpdateReport report;
      ASSERT_TRUE(sharded->ApplyUpdates(events, &report).ok());

      EXPECT_EQ(report.total.events_applied, mono_report.events_applied)
          << "batch " << batch << " shards " << sharded->num_shards();
      EXPECT_EQ(report.total.events_ignored_stale,
                mono_report.events_ignored_stale)
          << "batch " << batch << " shards " << sharded->num_shards();
      EXPECT_EQ(report.total.users_rebuilt, mono_report.users_rebuilt)
          << "batch " << batch << " shards " << sharded->num_shards();
      EXPECT_EQ(report.total.delta_log_ratings, mono_report.delta_log_ratings)
          << "batch " << batch << " shards " << sharded->num_shards();
      EXPECT_FALSE(report.total.compacted);
      EXPECT_EQ(report.total.events_applied +
                    report.total.events_ignored_stale,
                events.size());

      // The batch reached exactly the shards the router places its users
      // on, and every shard of the published set carries the publish's
      // generation.
      std::vector<bool> owns_event(sharded->num_shards(), false);
      for (const RatingEvent& e : events) {
        owns_event[sharded->router().ShardOf(e.user)] = true;
      }
      EXPECT_EQ(report.shards_touched,
                static_cast<std::size_t>(std::count(
                    owns_event.begin(), owns_event.end(), true)));
      ASSERT_EQ(report.per_shard.size(), sharded->num_shards());
      for (const UpdateReport& r : report.per_shard) {
        EXPECT_EQ(r.published_generation, report.total.published_generation);
      }

      ExpectBitIdentical(baseline, RunSharded(*sharded, mix),
                         "post-update");
    }
  }
}

// Compaction must be unobservable in the recommendations, against a
// monolithic engine that never compacts. The trigger reads the engine's one
// overlay, so at any shard count the cadence is the monolithic one: every
// publish of a 1- and a 4-shard engine reports what a compacting monolithic
// engine reports, every shard's entry carries the publish's generation and
// compaction, and every shard of a pinned set reads the same overlay —
// after a compacting publish too, when a per-shard log would have given
// each shard a private copy of the compacted base.
TEST_F(ShardedEquivalenceTest, CompactionIsUnobservableAcrossShardCounts) {
  RecommenderOptions compacting = MonoOptions();
  // Aggressive size trigger: compact once the log holds more than 12
  // ratings — almost every publish.
  compacting.compact_delta_fraction =
      12.0 / static_cast<double>(study_->study_ratings.num_ratings());
  const auto mono = MakeMono();  // never compacts
  const auto mono_compacting = MakeMono(compacting);
  ShardedEngineOptions copts = ShardOptionsFor(4, ShardStrategy::kHash);
  copts.recommender = compacting;
  const auto sharded =
      std::make_unique<ShardedEngine>(universe_->dataset, *study_, copts);
  ShardedEngineOptions single_opts = ShardOptionsFor(1, ShardStrategy::kHash);
  single_opts.recommender = compacting;
  const auto single = std::make_unique<ShardedEngine>(universe_->dataset,
                                                      *study_, single_opts);
  const std::vector<Query> mix = QueryMix();

  bool saw_compaction = false;
  for (std::uint64_t batch = 0; batch < 6; ++batch) {
    const std::vector<RatingEvent> events = RandomEvents(24, 2'900 + batch);
    ASSERT_TRUE(mono->ApplyUpdates(events).ok());
    UpdateReport mono_report;
    ASSERT_TRUE(mono_compacting->ApplyUpdates(events, &mono_report).ok());
    saw_compaction = saw_compaction || mono_report.compacted;
    for (ShardedEngine* engine : {sharded.get(), single.get()}) {
      ShardedUpdateReport report;
      ASSERT_TRUE(engine->ApplyUpdates(events, &report).ok());
      ExpectSameReport(mono_report, report.total, batch);
      ASSERT_EQ(report.per_shard.size(), engine->num_shards());
      for (const UpdateReport& r : report.per_shard) {
        EXPECT_EQ(r.published_generation, mono_report.published_generation)
            << "batch " << batch;
        EXPECT_EQ(r.compacted, mono_report.compacted) << "batch " << batch;
        EXPECT_EQ(r.delta_log_ratings, mono_report.delta_log_ratings)
            << "batch " << batch;
        EXPECT_EQ(r.batches_coalesced, mono_report.batches_coalesced)
            << "batch " << batch;
      }
      const auto set = engine->Pin();
      for (std::size_t s = 1; s < set->num_shards(); ++s) {
        EXPECT_EQ(set->shard(s).ratings, set->shard(0).ratings)
            << "batch " << batch << " shard " << s;
      }
    }

    const auto baseline = RunMono(*mono, mix);
    ExpectBitIdentical(baseline, RunSharded(*sharded, mix),
                       "compacting-shards");
    ExpectBitIdentical(baseline, RunMono(*mono_compacting, mix),
                       "compacting-mono");
    ExpectBitIdentical(baseline, RunSharded(*single, mix),
                       "compacting-single-shard");
  }
  EXPECT_TRUE(saw_compaction) << "the cadence never fired; test is vacuous";
}

// The batch executor plans the same way on both engines: a monolithic
// Engine and 1- and 3-shard ShardedEngines report identical per-batch
// bucket counts — cold, warm, and after a rating publish. Period lists and
// tombstone bitmaps are built per query, so the cache counters kept for
// perfbench read 0 throughout.
TEST_F(ShardedEquivalenceTest, BatchReportsMatchAcrossEngines) {
  EngineOptions serial;
  serial.num_threads = 1;
  Engine mono(universe_->dataset, *study_, MonoOptions(), serial);
  std::vector<std::unique_ptr<ShardedEngine>> sharded;
  for (const std::size_t shards : {1u, 3u}) {
    ShardedEngineOptions options = ShardOptionsFor(shards, ShardStrategy::kHash);
    options.batch_threads = 1;
    sharded.push_back(
        std::make_unique<ShardedEngine>(universe_->dataset, *study_, options));
  }
  // The shared mix uses AP only; PD and VD copies add the other consensus
  // functions' signatures.
  std::vector<Query> mix = QueryMix();
  const std::size_t base = mix.size();
  for (std::size_t i = 0; i < base; i += 2) {
    Query pd = mix[i];
    pd.spec.consensus = ConsensusSpec::PairwiseDisagreement();
    mix.push_back(pd);
    Query vd = mix[i];
    vd.spec.consensus = ConsensusSpec::VarianceDisagreement();
    mix.push_back(vd);
  }

  // Runs the mix once on every engine and returns the monolithic report.
  const auto run_all = [&](const char* phase) {
    BatchReport mono_report;
    mono.RecommendBatch(mix, &mono_report);
    for (const auto& engine : sharded) {
      BatchReport report;
      engine->RecommendBatch(mix, &report);
      const std::string where =
          std::string(phase) + ", " + std::to_string(engine->num_shards()) +
          " shards";
      EXPECT_EQ(report.num_buckets, mono_report.num_buckets) << where;
      EXPECT_EQ(report.period_cache_hits + report.period_cache_misses, 0u)
          << where;
      EXPECT_EQ(report.tombstone_cache_hits + report.tombstone_cache_misses,
                0u)
          << where;
    }
    return mono_report;
  };

  const BatchReport cold = run_all("cold");
  EXPECT_GT(cold.num_buckets, 0u);
  const BatchReport warm = run_all("warm");
  EXPECT_EQ(warm.num_buckets, cold.num_buckets);

  const std::vector<RatingEvent> events = RandomEvents(24, 6'100);
  UpdateReport update;
  ASSERT_TRUE(mono.ApplyUpdates(events, &update).ok());
  ASSERT_GT(update.events_applied, 0u) << "nothing published; test is vacuous";
  for (const auto& engine : sharded) {
    ASSERT_TRUE(engine->ApplyUpdates(events).ok());
  }
  const BatchReport published = run_all("after publish");
  EXPECT_EQ(published.num_buckets, cold.num_buckets);
}

// A pinned ShardedSnapshotSet is a cross-shard fence: publishes landing
// after the pin must not perturb it, and it must keep answering exactly
// like the monolithic snapshot pinned at the same instant.
TEST_F(ShardedEquivalenceTest, PinnedSetSurvivesConcurrentPublishes) {
  const auto mono = MakeMono();
  const auto sharded = MakeSharded(4, ShardStrategy::kHash);
  const std::vector<Query> mix = QueryMix();

  const auto mono_pin = mono->snapshot();
  const auto shard_pin = sharded->Pin();

  std::vector<Recommendation> before;
  {
    QueryWorkspace ws;
    for (const Query& q : mix) {
      auto r = sharded->Recommend(shard_pin, q.group, q.spec, &ws);
      ASSERT_TRUE(r.ok());
      before.push_back(std::move(r.value()));
    }
  }

  for (std::uint64_t batch = 0; batch < 3; ++batch) {
    const std::vector<RatingEvent> events = RandomEvents(24, 5'100 + batch);
    ASSERT_TRUE(mono->ApplyUpdates(events).ok());
    ShardedUpdateReport report;
    ASSERT_TRUE(sharded->ApplyUpdates(events, &report).ok());
    EXPECT_GE(report.shards_touched, 1u);
  }

  // The retired generations replay bit-identically...
  std::vector<Recommendation> replay;
  {
    QueryWorkspace ws;
    for (const Query& q : mix) {
      auto r = sharded->Recommend(shard_pin, q.group, q.spec, &ws);
      ASSERT_TRUE(r.ok());
      replay.push_back(std::move(r.value()));
    }
  }
  ExpectBitIdentical(before, replay, "pinned-replay");

  // ...still matching the monolithic snapshot pinned at the same instant...
  std::vector<Recommendation> mono_before;
  for (const Query& q : mix) {
    auto r = mono->Recommend(q, mono_pin);
    ASSERT_TRUE(r.ok());
    mono_before.push_back(std::move(r.value()));
  }
  ExpectBitIdentical(mono_before, replay, "pinned-vs-mono-pin");

  // ...while fresh pins see the post-update world, also identically.
  ExpectBitIdentical(RunMono(*mono, mix), RunSharded(*sharded, mix),
                     "fresh-after-pin");
}

// Validation is all-or-nothing on both paths with matching statuses (code
// and message): one bad event anywhere must leave every shard untouched.
TEST_F(ShardedEquivalenceTest, ValidationParityAndAtomicity) {
  const auto mono = MakeMono();
  const auto sharded = MakeSharded(4, ShardStrategy::kHash);

  const auto participants = static_cast<UserId>(study_->num_participants());
  const auto items = static_cast<ItemId>(universe_->dataset.num_items());
  std::vector<RatingEvent> bad_user = {{5, 7, 4.0, 100},
                                       {participants, 7, 4.0, 100}};
  std::vector<RatingEvent> bad_item = {{5, 7, 4.0, 100},
                                       {6, items, 4.0, 100}};
  std::vector<RatingEvent> bad_rating = {
      {5, 7, std::numeric_limits<Score>::quiet_NaN(), 100}};

  for (const auto& batch : {bad_user, bad_item, bad_rating}) {
    const Status ms = mono->ApplyUpdates(batch);
    ShardedUpdateReport report;
    const Status ss = sharded->ApplyUpdates(batch, &report);
    EXPECT_FALSE(ms.ok());
    EXPECT_FALSE(ss.ok());
    EXPECT_EQ(ms.code(), ss.code());
    EXPECT_EQ(ms.message(), ss.message());
  }
  // Nothing was applied anywhere: every shard still serves generation 1.
  const auto set = sharded->Pin();
  for (std::size_t s = 0; s < sharded->num_shards(); ++s) {
    EXPECT_EQ(set->shard(s).generation, 1u);
    EXPECT_EQ(set->shard(s).ratings->delta_ratings(), 0u);
  }

  // Query validation parity: same statuses for the same bad queries.
  const std::vector<UserId> good_group = {1, 2, 3};
  QuerySpec spec;
  spec.num_candidate_items = 360;
  Query q;
  q.group = good_group;
  q.spec = spec;
  const auto expect_same_status = [&](const char* label) {
    const Status ms = mono->Recommend(q).status();
    const Status ss = sharded->ValidateQuery(q.group, q.spec);
    EXPECT_FALSE(ms.ok()) << label;
    EXPECT_EQ(ms.code(), ss.code()) << label;
    EXPECT_EQ(ms.message(), ss.message()) << label;
  };

  q.group = {};
  expect_same_status("empty group");
  q.group = {1, 1};
  expect_same_status("duplicate member");
  q.group = {1, participants};
  expect_same_status("unknown member");
  q.group = good_group;
  q.spec.k = 0;
  expect_same_status("k = 0");
  q.spec = spec;
  q.spec.eval_period = static_cast<PeriodId>(study_->periods.num_periods());
  expect_same_status("period out of range");
}

TEST_F(ShardedEquivalenceTest, ShardsTouchedMatchesRouterPlacement) {
  const auto sharded = MakeSharded(4, ShardStrategy::kRange);
  const auto& router = sharded->router();
  // Users from one kRange block touch exactly one shard.
  const std::vector<UserId> local = {0, 1, 2};
  EXPECT_EQ(sharded->ShardsTouched(local), 1u);
  // One member per block touches all four.
  const std::size_t block =
      (router.num_users() + 3) / 4;  // kRange block width
  std::vector<UserId> scattered;
  for (std::size_t s = 0; s < 4; ++s) {
    scattered.push_back(static_cast<UserId>(s * block));
  }
  EXPECT_EQ(sharded->ShardsTouched(scattered), 4u);
}

// Concurrent writers + readers on one ShardedEngine. Pinned-set queries must
// stay bit-stable however many publishes land around them, and every report
// must attribute its batch exactly. The TSan CI job runs this against the
// real races (snapshot swaps, group-commit handoff, scatter/gather reads).
TEST_F(ShardedEquivalenceTest, ConcurrentWritersAndPinnedReaders) {
  const auto sharded = MakeSharded(4, ShardStrategy::kHash);
  const std::vector<Query> mix = QueryMix();
  constexpr std::size_t kWriters = 2;
  constexpr std::size_t kBatches = 5;
  constexpr std::size_t kEvents = 12;

  const auto pinned = sharded->Pin();
  const auto before = RunSharded(*sharded, mix);

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t b = 0; b < kBatches; ++b) {
        // Globally unique timestamps make the final fold order-independent.
        std::vector<RatingEvent> events =
            RandomEvents(kEvents, 7'000 + t * kBatches + b);
        for (std::size_t i = 0; i < events.size(); ++i) {
          events[i].timestamp = static_cast<Timestamp>(
              3'000'000'000 + ((t * kBatches + b) * kEvents + i));
        }
        ShardedUpdateReport report;
        EXPECT_TRUE(sharded->ApplyUpdates(events, &report).ok());
        EXPECT_EQ(report.total.events_applied +
                      report.total.events_ignored_stale,
                  kEvents);
      }
    });
  }
  workers.emplace_back([&] {
    QueryWorkspace ws;
    for (std::size_t round = 0; round < 4; ++round) {
      // The pre-update pin answers identically mid-publish...
      for (std::size_t i = 0; i < mix.size(); ++i) {
        auto r = sharded->Recommend(pinned, mix[i].group, mix[i].spec, &ws);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value().items, before[i].items) << "round " << round;
        EXPECT_EQ(r.value().scores, before[i].scores) << "round " << round;
      }
      // ...while fresh pins serve whatever generation mix is current.
      for (const Query& q : mix) {
        auto r = sharded->Recommend(q.group, q.spec, &ws);
        ASSERT_TRUE(r.ok());
        EXPECT_FALSE(r.value().items.empty());
      }
    }
  });
  for (auto& w : workers) w.join();

  // Post-join determinism check: the same events through a fresh sharded
  // engine AND a monolithic engine (any application order — timestamps are
  // unique) give the final state's recommendations.
  const auto mono = MakeMono();
  std::vector<RatingEvent> all;
  for (std::size_t t = 0; t < kWriters; ++t) {
    for (std::size_t b = 0; b < kBatches; ++b) {
      std::vector<RatingEvent> events =
          RandomEvents(kEvents, 7'000 + t * kBatches + b);
      for (std::size_t i = 0; i < events.size(); ++i) {
        events[i].timestamp = static_cast<Timestamp>(
            3'000'000'000 + ((t * kBatches + b) * kEvents + i));
      }
      all.insert(all.end(), events.begin(), events.end());
    }
  }
  ASSERT_TRUE(mono->ApplyUpdates(all).ok());
  ExpectBitIdentical(RunMono(*mono, mix), RunSharded(*sharded, mix),
                     "post-concurrency");
}

}  // namespace
}  // namespace greca
