// The batch planner's load-bearing contract: a RecommendBatch — duplicate
// queries bucketed by execution signature, one assembled + solved problem
// per bucket, results fanned back out — is BIT-IDENTICAL to issuing every
// query alone through the engine's Recommend on the same pin, a reference
// that never touches BatchExecutor or BatchPlanner. It holds on both the
// monolithic Engine and the ShardedEngine, with invalid queries mixed in,
// and across publishes landing around a pinned snapshot / snapshot set.
// "Bit-identical" covers the full observable surface: per-query ok/status,
// recommended items, scores, raw access counters, rounds, early termination
// and GRECA's execution stats. The planner's report (buckets, attribution,
// dedup ratio and cache counters) is audited alongside.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "plan/batch_planner.h"
#include "shard/sharded_engine.h"
#include "solver/solver_registry.h"

namespace greca {
namespace {

// --- BatchPlanner unit tests ------------------------------------------------

QuerySpec SmallSpec() {
  QuerySpec spec;
  spec.k = 5;
  spec.num_candidate_items = 360;
  return spec;
}

Query MakeQuery(std::vector<UserId> group, QuerySpec spec) {
  Query q;
  q.group = std::move(group);
  q.spec = std::move(spec);
  return q;
}

constexpr std::size_t kUnitNumPeriods = 4;

BatchPlan PlanAllValid(const std::vector<Query>& queries) {
  return BatchPlanner::Plan(
      queries, [](const Query&) { return Status::Ok(); }, kUnitNumPeriods);
}

TEST(BatchPlannerTest, BucketsDuplicatesInFirstAppearanceOrder) {
  const Query a = MakeQuery({1, 2}, SmallSpec());
  QuerySpec bigger = SmallSpec();
  bigger.k = 7;
  const Query b = MakeQuery({1, 2}, bigger);
  const Query c = MakeQuery({3, 4, 5}, SmallSpec());
  const std::vector<Query> queries = {a, b, a, c, b, a};

  const BatchPlan plan = PlanAllValid(queries);
  ASSERT_EQ(plan.buckets.size(), 3u);
  EXPECT_EQ(plan.buckets[0].queries, (std::vector<std::uint32_t>{0, 2, 5}));
  EXPECT_EQ(plan.buckets[1].queries, (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(plan.buckets[2].queries, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(plan.bucket_of,
            (std::vector<std::uint32_t>{0, 1, 0, 2, 1, 0}));
  EXPECT_EQ(plan.num_valid, 6u);
  EXPECT_DOUBLE_EQ(plan.DedupRatio(), 2.0);
  for (const Status& s : plan.statuses) EXPECT_TRUE(s.ok());
}

// The planner buckets on RESOLVED periods: "default period" and "explicitly
// the last period" are the same execution and must share one solve.
TEST(BatchPlannerTest, NulloptAndExplicitLastPeriodShareABucket) {
  QuerySpec implicit_last = SmallSpec();
  implicit_last.eval_period = std::nullopt;
  QuerySpec explicit_last = SmallSpec();
  explicit_last.eval_period = static_cast<PeriodId>(kUnitNumPeriods - 1);
  QuerySpec earlier = SmallSpec();
  earlier.eval_period = 0;

  const BatchPlan plan = PlanAllValid({MakeQuery({1, 2}, implicit_last),
                                       MakeQuery({1, 2}, explicit_last),
                                       MakeQuery({1, 2}, earlier)});
  ASSERT_EQ(plan.buckets.size(), 2u);
  EXPECT_EQ(plan.buckets[0].queries, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(plan.buckets[1].queries, (std::vector<std::uint32_t>{2}));
}

// Group order is part of the signature (members map to problem rows by
// position), and every spec field that reaches the solve must split buckets.
TEST(BatchPlannerTest, SignatureCoversGroupOrderAndEverySpecField) {
  std::vector<Query> queries = {MakeQuery({1, 2, 3}, SmallSpec())};
  queries.push_back(MakeQuery({3, 2, 1}, SmallSpec()));  // order flipped
  auto add = [&queries](auto mutate) {
    QuerySpec spec = SmallSpec();
    mutate(spec);
    queries.push_back(MakeQuery({1, 2, 3}, std::move(spec)));
  };
  add([](QuerySpec& s) { s.k = 9; });
  add([](QuerySpec& s) { s.solver_id = std::string(kNaiveSolverId); });
  add([](QuerySpec& s) { s.solver_id = std::string(kSubmodularSolverId); });
  add([](QuerySpec& s) { s.weighting = MemberWeighting::kInfluence; });
  add([](QuerySpec& s) { s.eval_period = 0; });
  add([](QuerySpec& s) { s.termination = TerminationPolicy::kThresholdOnly; });
  add([](QuerySpec& s) { s.num_candidate_items = 200; });
  add([](QuerySpec& s) { s.model = AffinityModelSpec::TimeAgnostic(); });
  add([](QuerySpec& s) { s.model.drift_gain = 0.5; });
  add([](QuerySpec& s) { s.consensus = ConsensusSpec::LeastMisery(); });
  add([](QuerySpec& s) { s.consensus = ConsensusSpec::PairwiseDisagreement(); });
  add([](QuerySpec& s) {
    s.consensus = ConsensusSpec::PairwiseDisagreement(0.2);
  });
  add([](QuerySpec& s) {
    s.consensus = ConsensusSpec::PairwiseDisagreement();
    s.consensus.disagreement_scale = 4.0;
  });

  const BatchPlan plan = PlanAllValid(queries);
  EXPECT_EQ(plan.buckets.size(), queries.size())
      << "two distinct signatures collapsed into one bucket";
}

// SameSignature compares doubles with ==, so the hash must agree on the one
// pair of distinct bit patterns == calls equal: -0.0 and +0.0.
TEST(BatchPlannerTest, SignedZeroWeightsShareABucket) {
  QuerySpec positive = SmallSpec();
  positive.consensus.w2 = 0.0;
  QuerySpec negative = SmallSpec();
  negative.consensus.w2 = -0.0;
  ASSERT_TRUE(positive == negative);

  const BatchPlan plan = PlanAllValid(
      {MakeQuery({1, 2}, positive), MakeQuery({1, 2}, negative)});
  ASSERT_EQ(plan.buckets.size(), 1u);
  EXPECT_EQ(plan.buckets[0].queries, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_DOUBLE_EQ(plan.DedupRatio(), 2.0);
}

TEST(BatchPlannerTest, RejectedQueriesCarryTheValidatorStatus) {
  const std::vector<Query> queries = {MakeQuery({1, 2}, SmallSpec()),
                                      MakeQuery({}, SmallSpec()),
                                      MakeQuery({1, 2}, SmallSpec())};
  const BatchPlan plan = BatchPlanner::Plan(
      queries,
      [](const Query& q) {
        return q.group.empty() ? Status::InvalidArgument("group is empty")
                               : Status::Ok();
      },
      kUnitNumPeriods);
  ASSERT_EQ(plan.buckets.size(), 1u);
  EXPECT_EQ(plan.buckets[0].queries, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(plan.bucket_of[1], BatchQueryAttribution::kInvalid);
  EXPECT_EQ(plan.statuses[1].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.statuses[1].message(), "group is empty");
  EXPECT_EQ(plan.num_valid, 2u);
}

// --- End-to-end equivalence on both engines ---------------------------------

class PlannerEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 240;
    uc.num_items = 400;
    uc.target_ratings = 18'000;
    uc.seed = 88;
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
    return options;
  }

  static std::unique_ptr<Engine> MakeMono() {
    EngineOptions eopts;
    eopts.num_threads = 2;
    return std::make_unique<Engine>(universe_->dataset, *study_, MonoOptions(),
                                    eopts);
  }

  static std::unique_ptr<ShardedEngine> MakeSharded() {
    return MakeShardedN(4, /*batch_threads=*/0);
  }

  /// `batch_threads == 1` is the serial reference the executor's parallel
  /// path must be bit-identical to.
  static std::unique_ptr<ShardedEngine> MakeShardedN(
      std::size_t num_shards, std::size_t batch_threads) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.recommender.max_candidate_items = 360;
    options.batch_threads = batch_threads;
    return std::make_unique<ShardedEngine>(universe_->dataset, *study_,
                                           options);
  }

  /// The sequential reference: every query alone through Engine::Recommend
  /// on `pin` — no planner, no executor, no shared workspace.
  static std::vector<Result<Recommendation>> Sequential(
      const Engine& engine, std::span<const Query> batch,
      const std::shared_ptr<const Snapshot>& pin) {
    std::vector<Result<Recommendation>> results;
    results.reserve(batch.size());
    for (const Query& q : batch) results.push_back(engine.Recommend(q, pin));
    return results;
  }

  /// The sharded sequential reference on one pinned set.
  static std::vector<Result<Recommendation>> Sequential(
      const ShardedEngine& engine, std::span<const Query> batch,
      const std::shared_ptr<const ShardedSnapshotSet>& set) {
    std::vector<Result<Recommendation>> results;
    results.reserve(batch.size());
    for (const Query& q : batch) {
      results.push_back(engine.Recommend(set, q.group, q.spec));
    }
    return results;
  }

  /// A duplicate-heavy batch: `num_base` distinct valid queries across
  /// algorithms, models and consensus functions (pairwise included — the
  /// agreement list must be exercised), each repeated `dup` times, the
  /// whole batch shuffled, with invalid queries interleaved.
  static std::vector<Query> DuplicateHeavyBatch(std::size_t num_base,
                                                std::size_t dup,
                                                std::uint64_t seed) {
    const auto participants = static_cast<UserId>(study_->num_participants());
    const auto num_periods =
        static_cast<PeriodId>(study_->periods.num_periods());
    const AffinityModelSpec models[] = {AffinityModelSpec::Default(),
                                        AffinityModelSpec::Continuous(),
                                        AffinityModelSpec::TimeAgnostic()};
    const std::string_view solvers[] = {kGrecaSolverId, kNaiveSolverId,
                                        kTaSolverId};
    const ConsensusSpec consensus[] = {ConsensusSpec::AveragePreference(),
                                       ConsensusSpec::PairwiseDisagreement(),
                                       ConsensusSpec::LeastMisery()};
    Rng rng(seed);
    std::vector<Query> queries;
    for (std::size_t i = 0; i < num_base; ++i) {
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
      q.spec.consensus = consensus[i % 3];
      q.spec.num_candidate_items = 360;
      if (i % 4 == 0) {
        q.spec.eval_period = std::nullopt;  // resolves to the last period
      } else {
        q.spec.eval_period = static_cast<PeriodId>(i % num_periods);
      }
      for (std::size_t d = 0; d < dup; ++d) queries.push_back(q);
    }
    // Invalid queries ride along and must fail identically on every path.
    queries.push_back(MakeQuery({}, SmallSpec()));                // empty
    queries.push_back(MakeQuery({1, 1}, SmallSpec()));            // duplicate
    queries.push_back(MakeQuery({1, participants}, SmallSpec())); // unknown
    QuerySpec bad_k = SmallSpec();
    bad_k.k = 0;
    queries.push_back(MakeQuery({1, 2}, bad_k));
    QuerySpec bad_period = SmallSpec();
    bad_period.eval_period = num_periods;
    queries.push_back(MakeQuery({1, 2}, bad_period));
    // Fisher–Yates with the deterministic Rng.
    for (std::size_t i = queries.size(); i > 1; --i) {
      std::swap(queries[i - 1], queries[rng.NextBounded(i)]);
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

  /// The full observable surface must match per query: status parity for
  /// rejected queries, and for accepted ones equal access counters prove the
  /// fanned-out problems were identical — not merely same-ranking.
  static void ExpectBatchIdentical(
      const std::vector<Result<Recommendation>>& a,
      const std::vector<Result<Recommendation>>& b, const char* label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].ok(), b[i].ok()) << label << " query " << i;
      if (!a[i].ok()) {
        EXPECT_EQ(a[i].status().code(), b[i].status().code())
            << label << " query " << i;
        EXPECT_EQ(a[i].status().message(), b[i].status().message())
            << label << " query " << i;
        continue;
      }
      const Recommendation& x = a[i].value();
      const Recommendation& y = b[i].value();
      EXPECT_EQ(x.items, y.items) << label << " query " << i;
      EXPECT_EQ(x.scores, y.scores) << label << " query " << i;
      EXPECT_EQ(x.raw.accesses.sequential, y.raw.accesses.sequential)
          << label << " query " << i;
      EXPECT_EQ(x.raw.accesses.random, y.raw.accesses.random)
          << label << " query " << i;
      EXPECT_EQ(x.raw.total_entries, y.raw.total_entries)
          << label << " query " << i;
      EXPECT_EQ(x.raw.rounds, y.raw.rounds) << label << " query " << i;
      EXPECT_EQ(x.raw.early_terminated, y.raw.early_terminated)
          << label << " query " << i;
      const GrecaStats& gx = x.greca_stats;
      const GrecaStats& gy = y.greca_stats;
      EXPECT_EQ(gx.peak_buffer_size, gy.peak_buffer_size)
          << label << " query " << i;
      EXPECT_EQ(gx.pruned_items, gy.pruned_items) << label << " query " << i;
      EXPECT_EQ(gx.stop_checks, gy.stop_checks) << label << " query " << i;
      EXPECT_EQ(gx.stopped_by_buffer_condition,
                gy.stopped_by_buffer_condition)
          << label << " query " << i;
      EXPECT_EQ(gx.final_threshold, gy.final_threshold)
          << label << " query " << i;
    }
  }

  /// Attribution invariants every planned report must satisfy against its
  /// batch: buckets partition the valid queries, exactly one representative
  /// per bucket, and the representative is the bucket's first appearance.
  static void CheckPlannedReport(const BatchReport& report,
                                 std::size_t num_queries, const char* label) {
    EXPECT_EQ(report.num_queries, num_queries) << label;
    ASSERT_EQ(report.per_query.size(), num_queries) << label;
    const std::size_t valid = report.num_queries - report.num_invalid;
    EXPECT_EQ(report.duplicates_shared, valid - report.num_buckets) << label;
    EXPECT_NEAR(report.dedup_ratio,
                static_cast<double>(valid) /
                    static_cast<double>(report.num_buckets),
                1e-12)
        << label;
    std::vector<std::size_t> members(report.num_buckets, 0);
    std::vector<std::size_t> representatives(report.num_buckets, 0);
    std::vector<bool> seen(report.num_buckets, false);
    std::size_t invalid = 0;
    for (const BatchQueryAttribution& at : report.per_query) {
      if (at.bucket == BatchQueryAttribution::kInvalid) {
        ++invalid;
        EXPECT_FALSE(at.representative) << label;
        continue;
      }
      ASSERT_LT(at.bucket, report.num_buckets) << label;
      ++members[at.bucket];
      if (at.representative) ++representatives[at.bucket];
      // The representative is the first query of its bucket in input order.
      EXPECT_EQ(at.representative, !seen[at.bucket]) << label;
      seen[at.bucket] = true;
    }
    EXPECT_EQ(invalid, report.num_invalid) << label;
    for (std::size_t b = 0; b < report.num_buckets; ++b) {
      EXPECT_GE(members[b], 1u) << label << " bucket " << b;
      EXPECT_EQ(representatives[b], 1u) << label << " bucket " << b;
    }
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
};

SyntheticRatings* PlannerEquivalenceTest::universe_ = nullptr;
FacebookStudy* PlannerEquivalenceTest::study_ = nullptr;

TEST_F(PlannerEquivalenceTest, PlannedMatchesSequentialOnTheMonolithicEngine) {
  const auto engine = MakeMono();

  for (const std::size_t dup : {1u, 4u, 16u}) {
    const std::vector<Query> batch = DuplicateHeavyBatch(12, dup, 900 + dup);
    const auto pin = engine->snapshot();
    BatchReport report;
    const auto planned = engine->RecommendBatch(batch, pin, &report);
    ExpectBatchIdentical(planned, Sequential(*engine, batch, pin), "mono");

    CheckPlannedReport(report, batch.size(), "mono-planned");
    EXPECT_EQ(report.num_invalid, 5u);
    const std::size_t valid = batch.size() - 5;
    EXPECT_EQ(report.num_buckets, valid / dup)
        << "every duplicate must share its base query's bucket";
    EXPECT_NEAR(report.dedup_ratio, static_cast<double>(dup), 1e-12);
  }
}

// A batch replayed on a pinned snapshot must ignore publishes entirely —
// and so must the sequential reference on that pin — while fresh batches
// see the new generation, still identically to the sequential reference on
// the fresh pin.
TEST_F(PlannerEquivalenceTest, PinnedSnapshotSurvivesPublishes) {
  const auto engine = MakeMono();
  const std::vector<Query> batch = DuplicateHeavyBatch(10, 4, 911);

  const auto pin = engine->snapshot();
  const auto before = engine->RecommendBatch(batch, pin, nullptr);
  ExpectBatchIdentical(before, Sequential(*engine, batch, pin),
                       "pinned-before");

  for (std::uint64_t round = 0; round < 3; ++round) {
    const std::vector<RatingEvent> events = RandomEvents(24, 1'300 + round);
    ASSERT_TRUE(engine->ApplyUpdates(events).ok());
    ExpectBatchIdentical(before, engine->RecommendBatch(batch, pin, nullptr),
                         "pinned-replay-batch");
    ExpectBatchIdentical(before, Sequential(*engine, batch, pin),
                         "pinned-replay-sequential");
  }
  const auto fresh = engine->snapshot();
  ASSERT_NE(fresh.get(), pin.get());
  ExpectBatchIdentical(engine->RecommendBatch(batch, fresh, nullptr),
                       Sequential(*engine, batch, fresh), "fresh-after");
}

// Sharded batch == sharded sequential on the same set == monolithic batch,
// from fresh engines and after every batch of a shared update stream.
TEST_F(PlannerEquivalenceTest, ShardedPlannedMatchesSequentialAndMonolithic) {
  const auto mono = MakeMono();
  const auto sharded = MakeSharded();

  for (std::uint64_t round = 0; round < 3; ++round) {
    const std::vector<Query> batch = DuplicateHeavyBatch(10, 4, 1'500 + round);
    const auto set = sharded->Pin();
    BatchReport report;
    const auto planned = sharded->RecommendBatch(set, batch, &report);
    ExpectBatchIdentical(planned, Sequential(*sharded, batch, set),
                         "sharded-planned-vs-sequential");
    ExpectBatchIdentical(planned, mono->RecommendBatch(batch),
                         "sharded-vs-mono");
    CheckPlannedReport(report, batch.size(), "sharded-planned");
    EXPECT_NEAR(report.dedup_ratio, 4.0, 1e-12);

    const std::vector<RatingEvent> events = RandomEvents(20, 2'700 + round);
    ASSERT_TRUE(mono->ApplyUpdates(events).ok());
    ASSERT_TRUE(sharded->ApplyUpdates(events).ok());
  }
}

// Pin() reuse and the set-scoped tombstone memo: while no shard publishes,
// repeated pins return the same set object and repeated batches on it hit
// the memo; a publish retires the set (fresh pin, fresh memo) without
// perturbing batches replayed on the old one.
TEST_F(PlannerEquivalenceTest, PinnedSetReuseAndTombstoneMemo) {
  const auto sharded = MakeSharded();
  const std::vector<Query> batch = DuplicateHeavyBatch(10, 4, 1'777);

  const auto set = sharded->Pin();
  EXPECT_EQ(set.get(), sharded->Pin().get())
      << "no publish landed, so Pin() must reuse the set";

  BatchReport first_report;
  const auto first = sharded->RecommendBatch(set, batch, &first_report);
  CheckPlannedReport(first_report, batch.size(), "set-first");
  // Duplicate groups across specs share (group, pool) bitmaps within the
  // first batch already; the memo must have been consulted.
  EXPECT_GT(first_report.tombstone_cache_misses, 0u);

  BatchReport second_report;
  ExpectBatchIdentical(first,
                       sharded->RecommendBatch(set, batch, &second_report),
                       "set-repeat");
  EXPECT_GT(second_report.tombstone_cache_hits, 0u)
      << "the second batch on the same set must hit the memo";
  EXPECT_EQ(second_report.tombstone_cache_misses, 0u)
      << "every bitmap of the repeat batch was already memoized";

  ASSERT_TRUE(sharded->ApplyUpdates(RandomEvents(24, 3'900)).ok());
  const auto fresh = sharded->Pin();
  EXPECT_NE(set.get(), fresh.get())
      << "a publish must retire the reused set";
  // The retired set still answers exactly as before, from its own memo.
  ExpectBatchIdentical(first, sharded->RecommendBatch(set, batch, nullptr),
                       "set-replay-after-publish");
  EXPECT_EQ(fresh.get(), sharded->Pin().get());
}

// The unified executor's parallel sharded path: planned buckets solved over
// the batch pool must be bit-identical to the serial reference
// (batch_threads = 1, inline on the calling thread) AND to sequential
// Recommend calls on the same set, at every shard count, on duplicate-heavy
// batches with invalid queries mixed in, and across publishes landing
// around pinned sets.
TEST_F(PlannerEquivalenceTest, ShardedParallelPlannedMatchesSerialReference) {
  for (const std::size_t num_shards : {1u, 2u, 4u}) {
    const auto parallel = MakeShardedN(num_shards, /*batch_threads=*/4);
    const auto serial = MakeShardedN(num_shards, /*batch_threads=*/1);

    for (const std::size_t dup : {4u, 16u}) {
      const std::vector<Query> batch =
          DuplicateHeavyBatch(10, dup, 5'000 + 10 * num_shards + dup);
      const auto set = parallel->Pin();
      BatchReport parallel_report, serial_report;
      const auto p = parallel->RecommendBatch(set, batch, &parallel_report);
      const auto s = serial->RecommendBatch(batch, &serial_report);
      ExpectBatchIdentical(p, s, "sharded-parallel-vs-serial");
      ExpectBatchIdentical(p, Sequential(*parallel, batch, set),
                           "sharded-parallel-vs-sequential");
      CheckPlannedReport(parallel_report, batch.size(), "sharded-parallel");
      CheckPlannedReport(serial_report, batch.size(), "sharded-serial");
      // Attribution is deterministic (the plan is computed before any solve
      // runs), so the parallel report matches the serial one bucket-for-
      // bucket; only cache hit/miss counters may differ under racing
      // workers, never the attribution.
      ASSERT_EQ(parallel_report.per_query.size(),
                serial_report.per_query.size());
      for (std::size_t i = 0; i < parallel_report.per_query.size(); ++i) {
        EXPECT_EQ(parallel_report.per_query[i].bucket,
                  serial_report.per_query[i].bucket)
            << "query " << i;
        EXPECT_EQ(parallel_report.per_query[i].representative,
                  serial_report.per_query[i].representative)
            << "query " << i;
      }
      EXPECT_EQ(parallel_report.num_buckets, serial_report.num_buckets);
    }

    // Publishes around a pinned set: the pinned replay ignores them on both
    // paths, fresh batches see the new generation identically.
    const std::vector<Query> batch = DuplicateHeavyBatch(8, 4, 5'500);
    const auto pin_parallel = parallel->Pin();
    const auto pin_serial = serial->Pin();
    const auto before =
        parallel->RecommendBatch(pin_parallel, batch, nullptr);
    ExpectBatchIdentical(
        before, serial->RecommendBatch(pin_serial, batch, nullptr),
        "pinned-before");
    for (std::uint64_t round = 0; round < 2; ++round) {
      const std::vector<RatingEvent> events =
          RandomEvents(24, 6'100 + round);
      ASSERT_TRUE(parallel->ApplyUpdates(events).ok());
      ASSERT_TRUE(serial->ApplyUpdates(events).ok());
      ExpectBatchIdentical(
          before, parallel->RecommendBatch(pin_parallel, batch, nullptr),
          "pinned-replay-parallel");
      ExpectBatchIdentical(
          before, serial->RecommendBatch(pin_serial, batch, nullptr),
          "pinned-replay-serial");
    }
    ExpectBatchIdentical(parallel->RecommendBatch(batch),
                         serial->RecommendBatch(batch), "fresh-after");
  }
}

// The aggregated agreement list is built at assembly: right after
// BuildProblem it holds one entry per live candidate, and TotalEntries (the
// paper's EDA cost surface) counts it like every other input list.
TEST_F(PlannerEquivalenceTest, AgreementListBuiltAtAssembly) {
  const auto engine = MakeMono();
  const GroupRecommender& rec = engine->recommender();

  QuerySpec pairwise = SmallSpec();
  pairwise.consensus = ConsensusSpec::PairwiseDisagreement();
  const std::vector<UserId> group = {1, 2, 3};

  auto problem = rec.BuildProblem(group, pairwise);
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();
  const GroupProblem& p = problem.value();
  ASSERT_TRUE(p.uses_agreement_list());
  const ListView& list = p.agreement_list();
  EXPECT_GT(list.size(), 0u);
  EXPECT_EQ(list.size(), p.num_candidates());
  std::size_t entries = p.static_affinity().size() + list.size();
  for (const ListView& l : p.preference_lists()) entries += l.size();
  for (const ListView& l : p.period_affinity()) entries += l.size();
  EXPECT_EQ(p.TotalEntries(), entries);

  // Non-pairwise consensus has no agreement list.
  auto plain = rec.BuildProblem(group, SmallSpec());
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().uses_agreement_list());
}

}  // namespace
}  // namespace greca
