// Tests for the per-user delta log behind live updates: fold semantics
// (latest-(timestamp, rating) wins, stale events counted but not applied),
// group commit (concurrent ApplyUpdates callers coalesce into one
// generation), the compaction policy, and the load-bearing equivalence — a
// stream of event batches applied through the delta log must produce
// BIT-IDENTICAL recommendations and PeriodListCache behavior to a full
// re-fold, with or without compactions in between.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "dataset/ratings_overlay.h"
#include "solver/solver_registry.h"

namespace greca {
namespace {

class DeltaLogTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 300;
    uc.num_items = 420;
    uc.target_ratings = 26'000;
    uc.seed = 91;
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

  static RecommenderOptions BaseOptions() {
    RecommenderOptions options;
    options.max_candidate_items = 380;
    return options;
  }

  /// The compact_delta_fraction that compacts a publish once the delta log
  /// holds more than `log_ratings` ratings over the initial study base.
  static double CompactPast(std::size_t log_ratings) {
    return static_cast<double>(log_ratings) /
           static_cast<double>(study_->study_ratings.num_ratings());
  }

  static std::unique_ptr<Engine> MakeEngine(const RecommenderOptions& options) {
    EngineOptions eopts;
    eopts.num_threads = 2;
    return std::make_unique<Engine>(*universe_, *study_, options, eopts);
  }

  /// A deterministic query mix covering all algorithms, models and periods.
  static std::vector<Query> QueryMix() {
    const auto participants = static_cast<UserId>(study_->num_participants());
    const auto num_periods =
        static_cast<PeriodId>(study_->periods.num_periods());
    const AffinityModelSpec models[] = {AffinityModelSpec::Default(),
                                        AffinityModelSpec::Continuous(),
                                        AffinityModelSpec::TimeAgnostic()};
    const std::string_view solvers[] = {kGrecaSolverId, kNaiveSolverId,
                                        kTaSolverId};
    Rng rng(515);
    std::vector<Query> queries;
    for (std::size_t i = 0; i < 18; ++i) {
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
      q.spec.num_candidate_items = 380;
      q.spec.eval_period = static_cast<PeriodId>(i % num_periods);
      queries.push_back(std::move(q));
    }
    return queries;
  }

  /// Random events with a timestamp mix that produces both fresh and stale
  /// outcomes once pairs start colliding.
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

  /// Runs the mix sequentially against the engine's current snapshot.
  static std::vector<Recommendation> RunMix(const Engine& engine,
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

  static void ExpectSameRecommendations(const std::vector<Recommendation>& a,
                                        const std::vector<Recommendation>& b,
                                        const char* label) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].items, b[i].items) << label << " query " << i;
      EXPECT_EQ(a[i].scores, b[i].scores) << label << " query " << i;
    }
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
};

SyntheticRatings* DeltaLogTest::universe_ = nullptr;
FacebookStudy* DeltaLogTest::study_ = nullptr;

// --- RatingsOverlay unit semantics -----------------------------------------

TEST(RatingsOverlayTest, MergesAndCompactsLikeFromRecords) {
  std::vector<RatingRecord> base_records = {
      {0, 1, 3.0, 100}, {0, 3, 4.0, 200}, {1, 0, 2.0, 150}, {2, 4, 5.0, 50},
  };
  auto base = std::make_shared<const RatingsDataset>(
      RatingsDataset::FromRecords(3, 5, base_records));
  const RatingsOverlay empty(base);
  EXPECT_EQ(empty.delta_ratings(), 0u);
  EXPECT_EQ(empty.num_ratings(), base->num_ratings());

  const std::vector<RatingRecord> events = {
      {0, 1, 5.0, 300},  // overrides base (newer)
      {0, 2, 1.0, 10},   // new pair, old timestamp: still applied
      {1, 0, 4.0, 120},  // older than base: stale
      {2, 4, 1.0, 50},   // same timestamp, lower rating: stale (tie rule)
      {2, 4, 5.0, 50},   // exact duplicate of the base entry: stale (no-op)
      {0, 1, 2.0, 400},  // second override of the same pair in one batch
  };
  RatingsOverlay::ApplyStats stats;
  const auto overlay = empty.WithEvents(events, &stats);
  EXPECT_EQ(stats.applied, 3u);
  EXPECT_EQ(stats.ignored_stale, 3u);
  EXPECT_EQ(stats.touched_users, (std::vector<UserId>{0}));

  // Redelivering the whole batch is a no-op: every event now ties or loses
  // against the stored state, so nothing is applied and no row is touched.
  RatingsOverlay::ApplyStats redelivery;
  const auto replayed = overlay->WithEvents(events, &redelivery);
  EXPECT_EQ(redelivery.applied, 0u);
  EXPECT_EQ(redelivery.ignored_stale, events.size());
  EXPECT_TRUE(redelivery.touched_users.empty());
  EXPECT_EQ(replayed->delta_ratings(), overlay->delta_ratings());

  EXPECT_EQ(overlay->delta_ratings(), 2u);           // (0,1) + (0,2)
  EXPECT_EQ(overlay->num_ratings(), base->num_ratings() + 1);  // (0,2) is new
  EXPECT_EQ(overlay->GetRating(0, 1), std::make_optional(2.0));
  EXPECT_EQ(overlay->GetRating(0, 2), std::make_optional(1.0));
  EXPECT_EQ(overlay->GetRating(1, 0), std::make_optional(2.0));  // base wins
  EXPECT_EQ(overlay->GetRating(2, 4), std::make_optional(5.0));  // base wins
  EXPECT_FALSE(overlay->GetRating(1, 4).has_value());

  // A user without a delta row reads straight from the base (no copy).
  std::vector<UserRatingEntry> scratch;
  const auto row1 = overlay->MergedRatingsOfUser(1, scratch);
  EXPECT_EQ(row1.data(), base->RatingsOfUser(1).data());

  // Compact() must equal one full FromRecords fold of base + all events.
  std::vector<RatingRecord> all = base_records;
  all.insert(all.end(), events.begin(), events.end());
  const RatingsDataset folded = RatingsDataset::FromRecords(3, 5, all);
  const RatingsDataset compacted = overlay->Compact();
  ASSERT_EQ(compacted.num_ratings(), folded.num_ratings());
  for (UserId u = 0; u < 3; ++u) {
    const auto lhs = compacted.RatingsOfUser(u);
    const auto rhs = folded.RatingsOfUser(u);
    ASSERT_EQ(lhs.size(), rhs.size()) << "user " << u;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].item, rhs[i].item);
      EXPECT_EQ(lhs[i].rating, rhs[i].rating);
      EXPECT_EQ(lhs[i].timestamp, rhs[i].timestamp);
    }
    // The merged view reads the same as the fold, entry for entry.
    const auto merged = overlay->MergedRatingsOfUser(u, scratch);
    ASSERT_EQ(merged.size(), rhs.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].item, rhs[i].item);
      EXPECT_EQ(merged[i].rating, rhs[i].rating);
    }
  }
}

// --- Report semantics (satellite regressions) ------------------------------

TEST_F(DeltaLogTest, StaleEventsCountedSeparatelyAndPublishNothing) {
  auto engine = MakeEngine(BaseOptions());

  UpdateReport report;
  const std::vector<RatingEvent> fresh = {{4, 7, 4.0, 2'000'000'000}};
  ASSERT_TRUE(engine->ApplyUpdates(fresh, &report).ok());
  EXPECT_EQ(report.events_applied, 1u);
  EXPECT_EQ(report.events_ignored_stale, 0u);
  EXPECT_EQ(report.published_generation, 2u);
  EXPECT_EQ(report.batches_coalesced, 1u);
  EXPECT_EQ(report.users_rebuilt, 1u);
  EXPECT_EQ(report.delta_log_ratings, 1u);

  // An older event for the same (user, item) is stale: counted, not applied,
  // and — since nothing changed — nothing publishes.
  const std::vector<RatingEvent> stale = {{4, 7, 5.0, 1'000'000'000}};
  ASSERT_TRUE(engine->ApplyUpdates(stale, &report).ok());
  EXPECT_EQ(report.events_applied, 0u);
  EXPECT_EQ(report.events_ignored_stale, 1u);
  EXPECT_EQ(report.published_generation, 2u) << "carries the current gen";
  EXPECT_EQ(report.users_rebuilt, 0u);
  EXPECT_EQ(engine->snapshot()->generation(), 2u) << "no state change";
  EXPECT_EQ(engine->snapshot()->ratings().GetRating(4, 7),
            std::make_optional(4.0));

  // Equal timestamp, higher rating wins (the FromRecords tie rule).
  const std::vector<RatingEvent> tie = {{4, 7, 5.0, 2'000'000'000}};
  ASSERT_TRUE(engine->ApplyUpdates(tie, &report).ok());
  EXPECT_EQ(report.events_applied, 1u);
  EXPECT_EQ(engine->snapshot()->generation(), 3u);
  EXPECT_EQ(engine->snapshot()->ratings().GetRating(4, 7),
            std::make_optional(5.0));

  // Redelivering the identical batch (at-least-once delivery) changes
  // nothing: stale, and no phantom generation.
  ASSERT_TRUE(engine->ApplyUpdates(tie, &report).ok());
  EXPECT_EQ(report.events_applied, 0u);
  EXPECT_EQ(report.events_ignored_stale, 1u);
  EXPECT_EQ(engine->snapshot()->generation(), 3u);

  // A mixed batch publishes, with exact attribution.
  const std::vector<RatingEvent> mixed = {{4, 7, 1.0, 10},  // stale
                                          {9, 3, 2.0, 2'000'000'001}};
  ASSERT_TRUE(engine->ApplyUpdates(mixed, &report).ok());
  EXPECT_EQ(report.events_applied, 1u);
  EXPECT_EQ(report.events_ignored_stale, 1u);
  EXPECT_EQ(report.users_rebuilt, 1u) << "stale-only users are not rebuilt";
  EXPECT_EQ(report.published_generation, 4u);
}

TEST_F(DeltaLogTest, EmptyBatchReportsCurrentGeneration) {
  auto engine = MakeEngine(BaseOptions());
  const std::vector<RatingEvent> one = {{2, 5, 3.0, 2'000'000'000}};
  ASSERT_TRUE(engine->ApplyUpdates(one).ok());
  ASSERT_EQ(engine->snapshot()->generation(), 2u);

  UpdateReport report;
  ASSERT_TRUE(engine->ApplyUpdates({}, &report).ok());
  EXPECT_EQ(report.events_applied, 0u);
  EXPECT_EQ(report.events_ignored_stale, 0u);
  EXPECT_EQ(report.published_generation, 2u)
      << "an empty batch must be distinguishable from 'never published'";
  EXPECT_EQ(report.delta_log_ratings, 1u)
      << "the report carries the resident log size, not a zeroed field";
  EXPECT_EQ(engine->snapshot()->generation(), 2u);
}

// --- The tentpole equivalence ----------------------------------------------

// N event batches applied through the delta log must match (1) compaction on
// every publish — the old full-re-fold behavior — and (2) periodic
// compactions forced by a small size trigger, bit for bit: recommendations,
// reports and period-cache counters. Finally the delta-log engine must match a FRESH engine built
// over the offline fold of all events.
TEST_F(DeltaLogTest, RandomizedDeltaLogEquivalence) {
  RecommenderOptions pure = BaseOptions();  // delta log only, never compacts
  pure.compact_delta_fraction = 0.0;
  RecommenderOptions refold = BaseOptions();  // compacts on every publish
  refold.compact_delta_fraction = std::numeric_limits<double>::min();
  RecommenderOptions periodic = BaseOptions();  // every ~3rd 24-event publish
  periodic.compact_delta_fraction = CompactPast(60);

  auto engine_pure = MakeEngine(pure);
  auto engine_refold = MakeEngine(refold);
  auto engine_periodic = MakeEngine(periodic);
  const std::vector<Query> mix = QueryMix();

  std::vector<RatingEvent> all_events;
  for (std::uint64_t batch = 0; batch < 8; ++batch) {
    const std::vector<RatingEvent> events = RandomEvents(24, 900 + batch);
    all_events.insert(all_events.end(), events.begin(), events.end());

    UpdateReport rp, rr, rc;
    ASSERT_TRUE(engine_pure->ApplyUpdates(events, &rp).ok());
    ASSERT_TRUE(engine_refold->ApplyUpdates(events, &rr).ok());
    ASSERT_TRUE(engine_periodic->ApplyUpdates(events, &rc).ok());

    // Attribution is identical on every path (it precedes compaction).
    EXPECT_EQ(rp.events_applied, rr.events_applied) << "batch " << batch;
    EXPECT_EQ(rp.events_ignored_stale, rr.events_ignored_stale);
    EXPECT_EQ(rp.users_rebuilt, rr.users_rebuilt);
    EXPECT_EQ(rp.events_applied, rc.events_applied);
    EXPECT_EQ(rp.events_applied + rp.events_ignored_stale, events.size());
    // The re-fold engine never accumulates a log; the pure engine never
    // drops one.
    if (rr.events_applied > 0) {
      EXPECT_TRUE(rr.compacted);
      EXPECT_EQ(rr.delta_log_ratings, 0u);
      EXPECT_FALSE(rp.compacted);
      EXPECT_GE(rp.delta_log_ratings, 1u);
    }

    const auto recs_pure = RunMix(*engine_pure, mix);
    ExpectSameRecommendations(recs_pure, RunMix(*engine_refold, mix),
                              "pure-vs-refold");
    ExpectSameRecommendations(recs_pure, RunMix(*engine_periodic, mix),
                              "pure-vs-periodic");
  }

  // The periodic engine really did compact mid-stream.
  EXPECT_LT(engine_periodic->snapshot()->ratings().delta_ratings(),
            engine_pure->snapshot()->ratings().delta_ratings());

  // Identical query sequences produced identical period-cache behavior —
  // one cache serves every generation, across delta publishes AND
  // compactions.
  const PeriodListCache& sp = engine_pure->recommender().period_cache();
  const PeriodListCache& sr = engine_refold->recommender().period_cache();
  const PeriodListCache& sc = engine_periodic->recommender().period_cache();
  EXPECT_EQ(sp.hits(), sr.hits());
  EXPECT_EQ(sp.misses(), sr.misses());
  EXPECT_EQ(sp.size(), sr.size());
  EXPECT_EQ(sp.hits(), sc.hits());
  EXPECT_EQ(sp.misses(), sc.misses());
  EXPECT_EQ(sp.size(), sc.size());

  // Ground truth: a fresh engine over the offline fold of every event sees
  // the exact same world as the delta-log engine that never compacted.
  FacebookStudy folded = *study_;
  std::vector<RatingRecord> records;
  for (UserId u = 0; u < study_->num_participants(); ++u) {
    for (const UserRatingEntry& e : study_->study_ratings.RatingsOfUser(u)) {
      records.push_back({u, e.item, e.rating, e.timestamp});
    }
  }
  for (const RatingEvent& e : all_events) {
    records.push_back({e.user, e.item, e.rating, e.timestamp});
  }
  folded.study_ratings = RatingsDataset::FromRecords(
      study_->num_participants(), universe_->dataset.num_items(),
      std::move(records));
  EngineOptions eopts;
  eopts.num_threads = 2;
  const Engine oracle(universe_->dataset, folded, BaseOptions(), eopts);
  ExpectSameRecommendations(RunMix(*engine_pure, mix), RunMix(oracle, mix),
                            "delta-vs-fresh-fold");
}

// --- Group commit ----------------------------------------------------------

// Concurrent ApplyUpdates callers must all land (possibly coalesced into
// shared generations), with exact per-batch attribution and a final state
// identical to the offline fold of every event. Globally unique timestamps
// make the final state independent of arrival order. The TSan CI job runs
// this against the real race.
TEST_F(DeltaLogTest, ConcurrentCallersGroupCommit) {
  auto engine = MakeEngine(BaseOptions());
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBatches = 6;
  constexpr std::size_t kEvents = 8;

  std::vector<std::vector<std::vector<RatingEvent>>> batches(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    Rng rng(3'000 + t);
    batches[t].resize(kBatches);
    for (std::size_t b = 0; b < kBatches; ++b) {
      for (std::size_t i = 0; i < kEvents; ++i) {
        RatingEvent e;
        e.user = static_cast<UserId>(
            rng.NextBounded(study_->num_participants()));
        e.item = static_cast<ItemId>(
            rng.NextBounded(universe_->dataset.num_items()));
        e.rating = static_cast<Score>(1 + rng.NextBounded(5));
        e.timestamp = static_cast<Timestamp>(
            2'000'000'000 + ((t * kBatches + b) * kEvents + i));
        batches[t][b].push_back(e);
      }
    }
  }

  std::vector<std::vector<UpdateReport>> reports(
      kThreads, std::vector<UpdateReport>(kBatches));
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::size_t b = 0; b < kBatches; ++b) {
        EXPECT_TRUE(
            engine->ApplyUpdates(batches[t][b], &reports[t][b]).ok());
      }
    });
  }
  for (auto& w : writers) w.join();

  const std::uint64_t final_generation = engine->snapshot()->generation();
  EXPECT_GE(final_generation, 2u);
  EXPECT_LE(final_generation, 1u + kThreads * kBatches);
  std::size_t total_accounted = 0;
  for (const auto& per_thread : reports) {
    for (const UpdateReport& r : per_thread) {
      EXPECT_GE(r.published_generation, 2u);
      EXPECT_LE(r.published_generation, final_generation);
      EXPECT_GE(r.batches_coalesced, 1u);
      EXPECT_EQ(r.events_applied + r.events_ignored_stale, kEvents);
      total_accounted += r.events_applied + r.events_ignored_stale;
    }
  }
  EXPECT_EQ(total_accounted, kThreads * kBatches * kEvents);

  // Final state oracle: fold base + every event offline; every touched pair
  // must read back the same rating through the merged view.
  std::vector<RatingRecord> records;
  for (UserId u = 0; u < study_->num_participants(); ++u) {
    for (const UserRatingEntry& e : study_->study_ratings.RatingsOfUser(u)) {
      records.push_back({u, e.item, e.rating, e.timestamp});
    }
  }
  std::map<std::pair<UserId, ItemId>, int> touched_pairs;
  for (const auto& per_thread : batches) {
    for (const auto& batch : per_thread) {
      for (const RatingEvent& e : batch) {
        records.push_back({e.user, e.item, e.rating, e.timestamp});
        touched_pairs[{e.user, e.item}] = 1;
      }
    }
  }
  const RatingsDataset folded = RatingsDataset::FromRecords(
      study_->num_participants(), universe_->dataset.num_items(),
      std::move(records));
  const RatingsOverlay& live = engine->snapshot()->ratings();
  for (const auto& [pair, unused] : touched_pairs) {
    (void)unused;
    EXPECT_EQ(live.GetRating(pair.first, pair.second),
              folded.GetRating(pair.first, pair.second))
        << "pair (" << pair.first << ", " << pair.second << ")";
  }

  // Serving still works on the coalesced result.
  for (const auto& rec : RunMix(*engine, QueryMix())) {
    EXPECT_FALSE(rec.items.empty());
  }
}

// --- Compaction policy -----------------------------------------------------

TEST_F(DeltaLogTest, CompactionCadenceAndPinnedSnapshots) {
  RecommenderOptions options = BaseOptions();
  options.compact_delta_fraction = CompactPast(24);
  auto engine = MakeEngine(options);
  const std::vector<Query> mix = QueryMix();

  const auto pinned = engine->snapshot();
  const auto before = RunMix(*engine, mix);

  bool saw_compaction = false;
  for (std::uint64_t batch = 0; batch < 4; ++batch) {
    UpdateReport report;
    ASSERT_TRUE(
        engine->ApplyUpdates(RandomEvents(16, 4'000 + batch), &report).ok());
    // Two 16-event batches pass the 24-rating trigger: every 2nd rating
    // publish folds the log into a fresh base.
    EXPECT_EQ(report.compacted, batch % 2 == 1) << "batch " << batch;
    if (report.compacted) {
      saw_compaction = true;
      EXPECT_EQ(report.delta_log_ratings, 0u);
    }
  }
  ASSERT_TRUE(saw_compaction);

  // Pinned pre-compaction snapshots replay bit-identically: compaction must
  // never mutate retired generations.
  std::vector<Recommendation> replay;
  for (const Query& q : mix) {
    auto r = engine->Recommend(q, pinned);
    ASSERT_TRUE(r.ok());
    replay.push_back(std::move(r.value()));
  }
  ExpectSameRecommendations(before, replay, "pinned-across-compactions");

  // The compacted base subsumed the log: merged reads keep working.
  EXPECT_EQ(engine->snapshot()->ratings().base().num_ratings(),
            engine->snapshot()->ratings().num_ratings());
}

}  // namespace
}  // namespace greca
