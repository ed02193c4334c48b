// Tests for the batch-first public API: Engine::RecommendBatch equivalence
// with sequential execution, QueryBuilder validation, determinism across
// thread counts, workspace reuse and the thread pool itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/query_builder.h"
#include "common/thread_pool.h"
#include "shard/sharded_engine.h"
#include "solver/solver_registry.h"

// Counts the heap allocations this thread makes while
// `g_count_allocations` is set (ReusedWorkspaceAssemblyAllocatesNothing).
namespace {
thread_local bool g_count_allocations = false;
thread_local std::size_t g_allocations = 0;

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (g_count_allocations) ++g_allocations;
  size = std::max<std::size_t>(size, 1);
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// Every replaceable form, so no allocation reaches a sanitizer runtime's
// own operator new and then this file's operator delete.
void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace greca {
namespace {

class ApiTest : public ::testing::Test {
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
    EngineOptions eopts;
    eopts.num_threads = 4;
    engine_ = new Engine(*universe_, *study_, Options(), eopts);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete study_;
    delete universe_;
    engine_ = nullptr;
    study_ = nullptr;
    universe_ = nullptr;
  }

  static RecommenderOptions Options() {
    RecommenderOptions options;
    options.max_candidate_items = 400;
    return options;
  }

  /// A mixed 64-query batch: group sizes 2..7, all algorithms, several
  /// models/consensus functions and k values, all periods.
  static std::vector<Query> MixedBatch() {
    const auto participants =
        static_cast<UserId>(study_->num_participants());
    const auto num_periods =
        static_cast<PeriodId>(engine_->recommender().num_periods());
    const AffinityModelSpec models[] = {
        AffinityModelSpec::Default(), AffinityModelSpec::Continuous(),
        AffinityModelSpec::TimeAgnostic(),
        AffinityModelSpec::AffinityAgnostic()};
    const ConsensusSpec consensus[] = {
        ConsensusSpec::AveragePreference(), ConsensusSpec::LeastMisery(),
        ConsensusSpec::PairwiseDisagreement(0.8)};
    const std::string_view solvers[] = {kGrecaSolverId, kNaiveSolverId,
                                        kTaSolverId};
    std::vector<Query> batch;
    for (std::size_t i = 0; i < 64; ++i) {
      Query q;
      const std::size_t size = 2 + i % 6;
      for (std::size_t j = 0; j < size; ++j) {
        q.group.push_back(
            static_cast<UserId>((i * 13 + j * 7) % participants));
      }
      std::sort(q.group.begin(), q.group.end());
      q.group.erase(std::unique(q.group.begin(), q.group.end()),
                    q.group.end());
      q.spec.k = 3 + i % 8;
      q.spec.model = models[i % 4];
      q.spec.consensus = consensus[i % 3];
      q.spec.solver_id = std::string(solvers[i % 3]);
      q.spec.num_candidate_items = 400;
      q.spec.eval_period = static_cast<PeriodId>(i % num_periods);
      batch.push_back(std::move(q));
    }
    return batch;
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
  static Engine* engine_;
};

SyntheticRatings* ApiTest::universe_ = nullptr;
FacebookStudy* ApiTest::study_ = nullptr;
Engine* ApiTest::engine_ = nullptr;

TEST_F(ApiTest, BatchMatchesSequentialOn64Queries) {
  const std::vector<Query> batch = MixedBatch();
  ASSERT_EQ(batch.size(), 64u);
  const auto parallel = engine_->RecommendBatch(batch);
  ASSERT_EQ(parallel.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto sequential = engine_->Recommend(batch[i]);
    ASSERT_TRUE(sequential.ok()) << "query " << i;
    ASSERT_TRUE(parallel[i].ok()) << "query " << i;
    EXPECT_EQ(parallel[i].value().items, sequential.value().items)
        << "query " << i;
    EXPECT_EQ(parallel[i].value().scores, sequential.value().scores)
        << "query " << i;
  }
}

TEST_F(ApiTest, BatchIsDeterministicAcrossThreadCounts) {
  const std::vector<Query> batch = MixedBatch();
  EngineOptions two;
  two.num_threads = 2;
  EngineOptions five;
  five.num_threads = 5;
  const Engine engine2(*universe_, *study_, Options(), two);
  const Engine engine5(*universe_, *study_, Options(), five);
  EXPECT_EQ(engine2.num_threads(), 2u);
  EXPECT_EQ(engine5.num_threads(), 5u);
  const auto r2 = engine2.RecommendBatch(batch);
  const auto r5 = engine5.RecommendBatch(batch);
  const auto r5b = engine5.RecommendBatch(batch);
  ASSERT_EQ(r2.size(), r5.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(r2[i].value().items, r5[i].value().items) << "query " << i;
    EXPECT_EQ(r5[i].value().items, r5b[i].value().items) << "query " << i;
    EXPECT_EQ(r2[i].value().scores, r5[i].value().scores) << "query " << i;
  }
}

TEST_F(ApiTest, DefaultEngineUsesAtLeastTwoThreads) {
  const Engine engine(*universe_, *study_, Options());
  EXPECT_GE(engine.num_threads(), 2u);
}

TEST_F(ApiTest, ValidationErrorsSurfaceAsStatus) {
  // Empty group.
  auto r = QueryBuilder(*engine_).TopK(5).Build();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // k = 0.
  r = QueryBuilder(*engine_).Members({1, 2, 3}).TopK(0).Build();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Unknown user.
  r = QueryBuilder(*engine_).Members({1, 10'000}).Build();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);

  // Duplicate members: the builder dedupes to first occurrences (see
  // query_builder.h) — a raw Query with duplicates is still rejected, which
  // DuplicateMembersAreDeduplicatedByBuilder covers in full.
  r = QueryBuilder(*engine_).Members({4, 4, 7}).Build();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().group, (std::vector<UserId>{4, 7}));

  // Out-of-range period.
  r = QueryBuilder(*engine_).Members({1, 2}).AtPeriod(10'000).Build();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);

  // Empty candidate pool.
  r = QueryBuilder(*engine_).Members({1, 2}).CandidatePool(0).Build();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // No solver caps the group size: a 33-member group builds and serves
  // under the default GRECA solver and under the naive scan.
  std::vector<UserId> big_group;
  for (UserId u = 0; u < 33; ++u) big_group.push_back(u);
  r = QueryBuilder(*engine_).Members(big_group).TopK(3).Build();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().spec.solver_id, kGrecaSolverId);
  const auto big_rec = engine_->Recommend(r.value());
  ASSERT_TRUE(big_rec.ok()) << big_rec.status().ToString();
  EXPECT_EQ(big_rec.value().items.size(), 3u);
  r = QueryBuilder(*engine_)
          .Members(big_group)
          .TopK(3)
          .Using(std::string(kNaiveSolverId))
          .Build();
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // A valid build passes and runs.
  r = QueryBuilder(*engine_).Members({4, 17, 29}).TopK(5).Build();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto rec = engine_->Recommend(r.value());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().items.size(), 5u);
}

// Numeric spec fields reach every score: NaN or inf poisons them, and a
// negative consensus weight or disagreement scale makes the consensus
// non-monotone, which breaks GRECA's exact-itemset guarantee. Every entry
// point rejects them, under every built-in solver, on both engines.
TEST_F(ApiTest, NonFiniteOrNegativeSpecNumbersAreRejected) {
  ShardedEngineOptions sopts;
  sopts.num_shards = 2;
  sopts.recommender = Options();
  const ShardedEngine sharded(universe_->dataset, *study_, sopts);

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, std::function<void(QuerySpec&)>>>
      bad = {
          {"w1 NaN", [](QuerySpec& s) { s.consensus.w1 = kNaN; }},
          {"w1 -1, w2 2",
           [](QuerySpec& s) {
             s.consensus.w1 = -1.0;
             s.consensus.w2 = 2.0;
           }},
          {"w1 inf", [](QuerySpec& s) { s.consensus.w1 = kInf; }},
          {"w2 NaN", [](QuerySpec& s) { s.consensus.w2 = kNaN; }},
          {"w2 -0.5", [](QuerySpec& s) { s.consensus.w2 = -0.5; }},
          {"scale -1e300",
           [](QuerySpec& s) { s.consensus.disagreement_scale = -1e300; }},
          {"scale NaN",
           [](QuerySpec& s) { s.consensus.disagreement_scale = kNaN; }},
          {"scale inf",
           [](QuerySpec& s) { s.consensus.disagreement_scale = kInf; }},
          {"drift_gain NaN", [](QuerySpec& s) { s.model.drift_gain = kNaN; }},
          {"drift_gain -inf",
           [](QuerySpec& s) { s.model.drift_gain = -kInf; }},
      };
  const auto expect_rejected = [](const Status& status,
                                  const std::string& what) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
  };

  for (const std::string_view solver : kSolverIds) {
    const std::string id(solver);
    for (const bool pairwise : {false, true}) {
      for (const auto& [name, mutate] : bad) {
        const std::string what = id + " / " + name +
                                 (pairwise ? " / PD" : " / AP");
        Query q;
        q.group = {4, 17, 29, 33};
        q.spec.k = 5;
        q.spec.solver_id = id;
        q.spec.num_candidate_items = 400;
        if (pairwise) q.spec.consensus = ConsensusSpec::PairwiseDisagreement();
        mutate(q.spec);

        const auto built = QueryBuilder(*engine_)
                               .Members(q.group)
                               .TopK(q.spec.k)
                               .Using(id)
                               .Model(q.spec.model)
                               .Consensus(q.spec.consensus)
                               .CandidatePool(q.spec.num_candidate_items)
                               .Build();
        ASSERT_FALSE(built.ok()) << what;
        expect_rejected(built.status(), what + " QueryBuilder");

        const auto mono = engine_->Recommend(q);
        ASSERT_FALSE(mono.ok()) << what;
        expect_rejected(mono.status(), what + " Engine::Recommend");
        const auto shard = sharded.Recommend(q.group, q.spec);
        ASSERT_FALSE(shard.ok()) << what;
        expect_rejected(shard.status(), what + " ShardedEngine::Recommend");

        const std::vector<Query> batch = {q, q};
        for (const auto& r : engine_->RecommendBatch(batch)) {
          ASSERT_FALSE(r.ok()) << what;
          expect_rejected(r.status(), what + " Engine::RecommendBatch");
        }
        for (const auto& r : sharded.RecommendBatch(batch)) {
          ASSERT_FALSE(r.ok()) << what;
          expect_rejected(r.status(), what + " ShardedEngine::RecommendBatch");
        }
      }
    }
  }

  // The boundary stays open: zero weights (either sign of zero), a zero
  // scale and a negative but finite drift gain are all accepted.
  ConsensusSpec zero = ConsensusSpec::PairwiseDisagreement(1.0);
  zero.w2 = -0.0;
  zero.disagreement_scale = 0.0;
  AffinityModelSpec negative_gain;
  negative_gain.drift_gain = -1.0;
  const auto ok = QueryBuilder(*engine_)
                      .Members({4, 17, 29, 33})
                      .TopK(5)
                      .Consensus(zero)
                      .Model(negative_gain)
                      .Build();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(engine_->Recommend(ok.value()).ok());
  EXPECT_TRUE(sharded.Recommend(ok.value().group, ok.value().spec).ok());
}

TEST_F(ApiTest, DuplicateMembersAreDeduplicatedByBuilder) {
  // A duplicated member would double-weight that member's preferences in
  // every consensus function; the builder collapses repeats to the first
  // occurrence (order preserved) so the query runs as the distinct group.
  const auto deduped = QueryBuilder(*engine_)
                           .Members({17, 4, 17, 29, 4})
                           .TopK(5)
                           .Build();
  ASSERT_TRUE(deduped.ok()) << deduped.status().ToString();
  EXPECT_EQ(deduped.value().group, (std::vector<UserId>{17, 4, 29}));

  // AddMember repeats collapse the same way.
  const auto added = QueryBuilder(*engine_)
                         .AddMember(4)
                         .AddMember(17)
                         .AddMember(4)
                         .TopK(5)
                         .Build();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value().group, (std::vector<UserId>{4, 17}));

  // The deduped query is equivalent to the distinct group spelled out.
  const auto distinct =
      QueryBuilder(*engine_).Members({17, 4, 29}).TopK(5).Build();
  ASSERT_TRUE(distinct.ok());
  const auto a = engine_->Recommend(deduped.value());
  const auto b = engine_->Recommend(distinct.value());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().items, b.value().items);
  EXPECT_EQ(a.value().scores, b.value().scores);

  // Bypassing the builder with a raw duplicate group is still rejected:
  // silent double-weighting never executes.
  Query raw;
  raw.group = {4, 4, 7};
  raw.spec.k = 5;
  const auto rejected = engine_->Recommend(raw);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ApiTest, BadQueryInBatchDoesNotPoisonOthers) {
  std::vector<Query> batch = MixedBatch();
  batch.resize(8);
  batch[3].group.clear();                  // invalid: empty group
  batch[5].spec.eval_period = 10'000;      // invalid: out-of-range period
  const auto results = engine_->RecommendBatch(batch);
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 3) {
      ASSERT_FALSE(results[i].ok());
      EXPECT_EQ(results[i].status().code(), StatusCode::kInvalidArgument);
    } else if (i == 5) {
      ASSERT_FALSE(results[i].ok());
      EXPECT_EQ(results[i].status().code(), StatusCode::kOutOfRange);
    } else {
      EXPECT_TRUE(results[i].ok()) << "query " << i;
    }
  }
}

TEST_F(ApiTest, WorkspaceReuseMatchesFreshExecution) {
  const std::vector<Query> batch = MixedBatch();
  QueryWorkspace workspace;
  for (std::size_t i = 0; i < 16; ++i) {
    const auto reused = engine_->recommender().Recommend(
        batch[i].group, batch[i].spec, &workspace);
    const auto fresh =
        engine_->recommender().Recommend(batch[i].group, batch[i].spec);
    ASSERT_TRUE(reused.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(reused.value().items, fresh.value().items) << "query " << i;
    EXPECT_EQ(reused.value().scores, fresh.value().scores) << "query " << i;
  }
}

void ExpectBitIdentical(const Recommendation& a, const Recommendation& b,
                        const std::string& what) {
  EXPECT_EQ(a.items, b.items) << what;
  EXPECT_EQ(a.scores, b.scores) << what;
  EXPECT_EQ(a.raw.accesses.sequential, b.raw.accesses.sequential) << what;
  EXPECT_EQ(a.raw.accesses.random, b.raw.accesses.random) << what;
}

// A workspace's arena keeps its period lists across queries and rebuilds
// them in place. Queries that need fewer periods, a much larger group (a
// wider pair key space) or no period lists at all must each serve exactly
// what a fresh workspace serves.
TEST_F(ApiTest, ReusedArenaPeriodListsMatchFreshWorkspace) {
  const auto participants = static_cast<UserId>(study_->num_participants());
  ASSERT_GE(participants, 42u);
  const auto last_period =
      static_cast<PeriodId>(engine_->recommender().num_periods() - 1);
  ASSERT_GE(last_period, 2u);

  Query last;
  last.group = {3, 8, 15, 22, 30, 41};
  last.spec.k = 5;
  last.spec.num_candidate_items = 400;
  last.spec.eval_period = last_period;
  Query earlier = last;
  earlier.spec.eval_period = 2;
  Query large = last;
  large.group.clear();
  for (UserId u = 0; u < 40; ++u) large.group.push_back(u);
  Query agnostic = last;
  agnostic.spec.model = AffinityModelSpec::TimeAgnostic();

  QueryWorkspace workspace;
  const std::pair<const char*, const Query*> sequence[] = {
      {"6 members, last period", &last},
      {"same group, period 2", &earlier},
      {"40 members", &large},
      {"time-agnostic", &agnostic},
      {"6 members again", &last}};
  for (const auto& [what, query] : sequence) {
    const auto reused = engine_->recommender().Recommend(
        query->group, query->spec, &workspace);
    QueryWorkspace fresh_workspace;
    const auto fresh = engine_->recommender().Recommend(
        query->group, query->spec, &fresh_workspace);
    ASSERT_TRUE(reused.ok()) << what << ": " << reused.status().ToString();
    ASSERT_TRUE(fresh.ok()) << what;
    ExpectBitIdentical(reused.value(), fresh.value(), what);
  }

  // The participants here rated the same pool items, so every group above
  // has one tombstone bitmap. On a private engine, member 41 (in `last`,
  // not in `large`) rates `large`'s top pick: serving `large` right after
  // `last` on one workspace must bring that item back.
  EngineOptions eopts;
  eopts.num_threads = 1;
  Engine engine(*universe_, *study_, Options(), eopts);
  const auto before = engine.recommender().Recommend(large.group, large.spec);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before.value().items.empty());
  RatingEvent e;
  e.user = 41;
  e.item = before.value().items[0];
  e.rating = 5.0;
  e.timestamp = 2'000'000'000;
  ASSERT_TRUE(engine.ApplyUpdates({&e, 1}).ok());
  QueryWorkspace rated_workspace;
  for (const auto& [what, query] :
       {std::pair{"with the rater", &last}, {"without the rater", &large}}) {
    const auto reused = engine.recommender().Recommend(
        query->group, query->spec, &rated_workspace);
    QueryWorkspace fresh_workspace;
    const auto fresh = engine.recommender().Recommend(
        query->group, query->spec, &fresh_workspace);
    ASSERT_TRUE(reused.ok()) << what;
    ASSERT_TRUE(fresh.ok()) << what;
    ExpectBitIdentical(reused.value(), fresh.value(), what);
  }
}

// Steady-state assembly allocates nothing: once a workspace has served a
// query shape, assembling it again — another group of the same size
// included, time-aware so period lists and averages are built, and under
// pairwise disagreement so the agreement list is too — makes no heap
// allocation.
TEST_F(ApiTest, ReusedWorkspaceAssemblyAllocatesNothing) {
  Query last;
  last.group = {3, 8, 15, 22, 30, 41};
  last.spec.k = 5;
  last.spec.num_candidate_items = 400;
  Query other = last;
  other.group = {1, 9, 16, 23, 31, 40};
  Query pd = last;
  pd.spec.consensus = ConsensusSpec::PairwiseDisagreement();
  const std::pair<const char*, const Query*> sequence[] = {
      {"time-aware AP", &last}, {"other group", &other}, {"PD", &pd}};

  const GroupRecommender& recommender = engine_->recommender();
  const auto snap = recommender.snapshot();
  QueryWorkspace workspace;
  for (const auto& [what, query] : sequence) {
    ASSERT_TRUE(recommender
                    .BuildProblem(snap, query->group, query->spec, nullptr,
                                  &workspace)
                    .ok())
        << what;
  }
  for (const auto& [what, query] : sequence) {
    g_allocations = 0;
    g_count_allocations = true;
    const bool ok = recommender
                        .BuildProblem(snap, query->group, query->spec,
                                      nullptr, &workspace)
                        .ok();
    g_count_allocations = false;
    EXPECT_TRUE(ok) << what;
    EXPECT_EQ(g_allocations, 0u) << what;
  }
}

// Weighting and Termination set the spec fields they name, and the built
// query serves exactly what the same hand-built Query serves.
TEST_F(ApiTest, BuilderCarriesWeightingAndTermination) {
  const auto built = QueryBuilder(*engine_)
                         .Members({4, 17, 29, 33})
                         .TopK(5)
                         .CandidatePool(400)
                         .Weighting(MemberWeighting::kInfluence)
                         .Termination(TerminationPolicy::kThresholdOnly)
                         .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built.value().spec.weighting, MemberWeighting::kInfluence);
  EXPECT_EQ(built.value().spec.termination, TerminationPolicy::kThresholdOnly);

  Query hand;
  hand.group = {4, 17, 29, 33};
  hand.spec.k = 5;
  hand.spec.num_candidate_items = 400;
  hand.spec.weighting = MemberWeighting::kInfluence;
  hand.spec.termination = TerminationPolicy::kThresholdOnly;
  EXPECT_EQ(built.value().group, hand.group);
  EXPECT_EQ(built.value().spec, hand.spec);

  const auto from_builder = engine_->Recommend(built.value());
  const auto from_hand = engine_->Recommend(hand);
  ASSERT_TRUE(from_builder.ok());
  ASSERT_TRUE(from_hand.ok());
  ExpectBitIdentical(from_builder.value(), from_hand.value(), "built vs hand");
}

TEST(ThreadPoolTest, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::vector<std::atomic<int>> hits(1'000);
  pool.ParallelFor(hits.size(), [&](std::size_t worker, std::size_t i) {
    EXPECT_LT(worker, 3u);
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RunsOnMultipleWorkerThreads) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.ParallelFor(200, [&](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 2u);
  EXPECT_FALSE(ids.contains(std::this_thread::get_id()));
}

TEST(ThreadPoolTest, BackToBackBatchesReuseWorkers) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(10, [&](std::size_t, std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 500u);
}

}  // namespace
}  // namespace greca
