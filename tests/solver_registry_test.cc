// The solver-selection contract:
//  * kSolverIds lists the four built-ins, sorted by id, and each validates;
//  * QuerySpec::solver_id is the one solver selector: the default spec runs
//    GRECA, and unknown ids (the empty one included) fail validation — on
//    the builder, the monolithic engine and the sharded engine alike;
//  * GRECA serves groups of any size (its seen-set grows in 64-member
//    words), so a 33-member group builds and serves like any other;
//  * the served uniform-weight path is BIT-IDENTICAL (items, scores, access
//    counts, rounds) to calling Greca/NaiveTopK/TaTopK/SubmodularGreedyTopK
//    directly on the same assembled problem — on both engines and across
//    live publishes on pinned snapshots;
//  * influence weighting produces genuinely non-uniform weights from the
//    social graph and flows through every solver with no per-solver code.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/query_builder.h"
#include "core/greca.h"
#include "core/problem_assembly.h"
#include "shard/sharded_engine.h"
#include "solver/solver_registry.h"
#include "solver/submodular_solver.h"
#include "topk/naive.h"
#include "topk/ta.h"

namespace greca {
namespace {

class SolverRegistryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticRatingsConfig uc;
    uc.num_users = 200;
    uc.num_items = 320;
    uc.target_ratings = 14'000;
    uc.seed = 31;
    universe_ = new SyntheticRatings(GenerateSyntheticRatings(uc));
    FacebookStudyConfig sc;
    sc.diversity_pool = 150;
    study_ = new FacebookStudy(GenerateFacebookStudy(sc, *universe_));
  }
  static void TearDownTestSuite() {
    delete study_;
    delete universe_;
    study_ = nullptr;
    universe_ = nullptr;
  }

  static RecommenderOptions Options() {
    RecommenderOptions options;
    options.max_candidate_items = 280;
    return options;
  }

  static std::vector<RatingEvent> SomeUpdates() {
    return {{3, 17, 4.5, 1'000}, {5, 40, 2.0, 1'001}, {3, 90, 3.0, 1'002}};
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
};

SyntheticRatings* SolverRegistryTest::universe_ = nullptr;
FacebookStudy* SolverRegistryTest::study_ = nullptr;

void ExpectSameRecommendation(const Recommendation& a,
                              const Recommendation& b) {
  ASSERT_EQ(a.items.size(), b.items.size());
  EXPECT_EQ(a.items, b.items);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i], b.scores[i]) << "score " << i;
  }
  EXPECT_EQ(a.raw.accesses.sequential, b.raw.accesses.sequential);
  EXPECT_EQ(a.raw.accesses.random, b.raw.accesses.random);
  EXPECT_EQ(a.raw.total_entries, b.raw.total_entries);
  EXPECT_EQ(a.raw.rounds, b.raw.rounds);
  EXPECT_EQ(a.raw.early_terminated, b.raw.early_terminated);
}

TEST_F(SolverRegistryTest, BuiltinsRegistered) {
  EXPECT_TRUE(std::is_sorted(kSolverIds.begin(), kSolverIds.end()));
  for (const std::string_view id :
       {kGrecaSolverId, kNaiveSolverId, kTaSolverId, kSubmodularSolverId}) {
    EXPECT_TRUE(IsSolverId(id)) << id;
    EXPECT_NE(std::find(kSolverIds.begin(), kSolverIds.end(), id),
              kSolverIds.end())
        << id;
  }
  EXPECT_FALSE(IsSolverId("no-such-solver"));
  EXPECT_FALSE(IsSolverId(""));

  // Every listed id passes validation on a plain query.
  const GroupRecommender recommender(universe_->dataset, *study_, Options());
  const std::vector<UserId> group{0, 1, 2};
  for (const std::string_view id : kSolverIds) {
    QuerySpec spec;
    spec.num_candidate_items = 280;
    spec.solver_id = std::string(id);
    EXPECT_TRUE(recommender.ValidateQuery(group, spec).ok()) << id;
  }
}

TEST_F(SolverRegistryTest, UnknownSolverIdFailsValidationEverywhere) {
  const GroupRecommender recommender(universe_->dataset, *study_, Options());
  ShardedEngineOptions sopts;
  sopts.num_shards = 3;
  sopts.recommender.max_candidate_items = 280;
  const ShardedEngine sharded(universe_->dataset, *study_, sopts);
  const std::vector<UserId> group{0, 1, 2};
  // An empty id selects nothing: it is just one more unknown id.
  for (const std::string id : {"definitely-not-registered", ""}) {
    QuerySpec spec;
    spec.num_candidate_items = 280;
    spec.solver_id = id;
    const Status direct = recommender.ValidateQuery(group, spec);
    EXPECT_EQ(direct.code(), StatusCode::kInvalidArgument) << id;

    const Result<Query> built = QueryBuilder(recommender)
                                    .Members({0, 1, 2})
                                    .Using(id)
                                    .CandidatePool(280)
                                    .Build();
    EXPECT_FALSE(built.ok()) << id;
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument) << id;

    EXPECT_EQ(sharded.ValidateQuery(group, spec).code(),
              StatusCode::kInvalidArgument)
        << id;
  }
}

TEST_F(SolverRegistryTest, DefaultSpecSolvesAsGreca) {
  const GroupRecommender recommender(universe_->dataset, *study_, Options());
  const std::vector<UserId> group{1, 4, 9, 16};
  QuerySpec by_default;
  by_default.num_candidate_items = 280;
  QuerySpec by_id = by_default;
  by_id.solver_id = std::string(kGrecaSolverId);
  const Result<Recommendation> a = recommender.Recommend(group, by_default);
  const Result<Recommendation> b = recommender.Recommend(group, by_id);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameRecommendation(a.value(), b.value());
  EXPECT_GT(a.value().greca_stats.stop_checks, 0u);  // GRECA ran
}

// GRECA has no group-size cap: a 33-member group (one past the width of a
// 32-bit mask) builds through QueryBuilder and serves the naive scan's
// itemset.
TEST_F(SolverRegistryTest, GrecaServesGroupsOver32Members) {
  const GroupRecommender recommender(universe_->dataset, *study_, Options());
  std::vector<UserId> big(33);
  for (UserId u = 0; u < 33; ++u) big[u] = u;
  const Result<Query> built = QueryBuilder(recommender)
                                  .Members(big)
                                  .TopK(6)
                                  .CandidatePool(280)
                                  .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Query& query = built.value();
  EXPECT_EQ(query.spec.solver_id, kGrecaSolverId);
  const Result<Recommendation> greca =
      recommender.Recommend(query.group, query.spec);
  ASSERT_TRUE(greca.ok()) << greca.status().ToString();
  EXPECT_EQ(greca.value().items.size(), 6u);
  EXPECT_GT(greca.value().greca_stats.stop_checks, 0u);

  QuerySpec naive_spec = query.spec;
  naive_spec.solver_id = std::string(kNaiveSolverId);
  const Result<Recommendation> naive =
      recommender.Recommend(query.group, naive_spec);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(std::set<ItemId>(greca.value().items.begin(),
                             greca.value().items.end()),
            std::set<ItemId>(naive.value().items.begin(),
                             naive.value().items.end()));
}

// Each built-in's free function called directly on the same assembled
// problem the served path solves — the reference the dispatch must match.
Recommendation SolveDirectly(const GroupRecommender& recommender,
                             const std::shared_ptr<const Snapshot>& snap,
                             const std::vector<UserId>& group,
                             const QuerySpec& spec) {
  QueryWorkspace ws;
  std::vector<ItemId> candidates;
  Result<GroupProblem> problem =
      recommender.BuildProblem(snap, group, spec, &candidates, &ws);
  EXPECT_TRUE(problem.ok());
  Recommendation rec;
  if (spec.solver_id == kGrecaSolverId) {
    GrecaConfig config;
    config.k = spec.k;
    config.termination = spec.termination;
    rec.raw = Greca(problem.value(), config, &rec.greca_stats, &ws.greca);
  } else if (spec.solver_id == kNaiveSolverId) {
    rec.raw = NaiveTopK(problem.value(), spec.k);
  } else if (spec.solver_id == kTaSolverId) {
    rec.raw = TaTopK(problem.value(), spec.k);
  } else if (spec.solver_id == kSubmodularSolverId) {
    rec.raw = SubmodularGreedyTopK(problem.value(), spec.k);
  } else {
    ADD_FAILURE() << "no direct call for solver " << spec.solver_id;
  }
  for (const ListEntry& e : rec.raw.items) {
    rec.items.push_back(candidates[e.id]);
    rec.scores.push_back(e.score);
  }
  return rec;
}

TEST_F(SolverRegistryTest,
       ServedPathBitIdenticalToDirectCallsAcrossPublishes) {
  GroupRecommender recommender(universe_->dataset, *study_, Options());
  const std::vector<UserId> group{1, 4, 9, 16};
  const ConsensusSpec consensuses[] = {ConsensusSpec::AveragePreference(),
                                       ConsensusSpec::PairwiseDisagreement()};
  // Pin the pre-update snapshot, publish, then check both generations: the
  // pinned one must still solve bit-identically after the publish.
  const std::shared_ptr<const Snapshot> before = recommender.snapshot();
  ASSERT_TRUE(recommender.ApplyRatingUpdates(SomeUpdates()).ok());
  const std::shared_ptr<const Snapshot> after = recommender.snapshot();
  ASSERT_NE(before->generation(), after->generation());

  for (const auto& snap : {before, after}) {
    for (const ConsensusSpec& consensus : consensuses) {
      for (const std::string_view id : kSolverIds) {
        QuerySpec spec;
        spec.k = 8;
        spec.consensus = consensus;
        spec.solver_id = std::string(id);
        spec.num_candidate_items = 280;
        const Recommendation reference =
            SolveDirectly(recommender, snap, group, spec);
        const Result<Recommendation> served =
            recommender.Recommend(snap, group, spec);
        ASSERT_TRUE(served.ok()) << id;
        ExpectSameRecommendation(served.value(), reference);
      }
    }
  }
}

TEST_F(SolverRegistryTest, ShardedServedPathMatchesMonolithic) {
  GroupRecommender mono(universe_->dataset, *study_, Options());
  ShardedEngineOptions sopts;
  sopts.num_shards = 4;
  sopts.recommender.max_candidate_items = 280;
  ShardedEngine sharded(universe_->dataset, *study_, sopts);
  ASSERT_TRUE(mono.ApplyRatingUpdates(SomeUpdates()).ok());
  ASSERT_TRUE(sharded.ApplyUpdates(SomeUpdates()).ok());

  const std::vector<UserId> group{2, 7, 11};
  for (const std::string_view id : {kGrecaSolverId, kNaiveSolverId,
                                    kTaSolverId, kSubmodularSolverId}) {
    QuerySpec spec;
    spec.k = 6;
    spec.solver_id = std::string(id);
    spec.num_candidate_items = 280;
    const Result<Recommendation> m = mono.Recommend(group, spec);
    const Result<Recommendation> s = sharded.Recommend(group, spec);
    ASSERT_TRUE(m.ok()) << id;
    ASSERT_TRUE(s.ok()) << id;
    ExpectSameRecommendation(s.value(), m.value());
  }
}

TEST_F(SolverRegistryTest, InfluenceWeightingIsNonUniformAndFlowsEverywhere) {
  GroupRecommender mono(universe_->dataset, *study_, Options());
  ShardedEngineOptions sopts;
  sopts.num_shards = 3;
  sopts.recommender.max_candidate_items = 280;
  ShardedEngine sharded(universe_->dataset, *study_, sopts);

  // The study graph yields genuinely non-uniform influence weights.
  const std::vector<UserId> group{0, 5, 10, 20};
  std::vector<double> weights(group.size());
  mono.affinity().MaterializeMemberWeightsInto(group, weights);
  bool non_uniform = false;
  for (const double w : weights) {
    EXPECT_GT(w, 0.0);
    non_uniform = non_uniform || w != weights[0];
  }
  EXPECT_TRUE(non_uniform);

  for (const std::string_view id : {kGrecaSolverId, kNaiveSolverId,
                                    kTaSolverId, kSubmodularSolverId}) {
    QuerySpec spec;
    spec.k = 6;
    spec.solver_id = std::string(id);
    spec.weighting = MemberWeighting::kInfluence;
    spec.num_candidate_items = 280;
    const Result<Recommendation> weighted = mono.Recommend(group, spec);
    ASSERT_TRUE(weighted.ok()) << id;
    EXPECT_FALSE(weighted.value().items.empty()) << id;
    // Both engines agree under influence weighting, for every solver.
    const Result<Recommendation> sharded_weighted =
        sharded.Recommend(group, spec);
    ASSERT_TRUE(sharded_weighted.ok()) << id;
    ExpectSameRecommendation(sharded_weighted.value(), weighted.value());
  }

  // The weighting changes scoring: the exact solvers rank differently (or at
  // least score differently) somewhere in the top-k for this group.
  QuerySpec uniform;
  uniform.k = 6;
  uniform.solver_id = std::string(kNaiveSolverId);
  uniform.num_candidate_items = 280;
  QuerySpec influence = uniform;
  influence.weighting = MemberWeighting::kInfluence;
  const Recommendation u = mono.Recommend(group, uniform).value();
  const Recommendation w = mono.Recommend(group, influence).value();
  EXPECT_TRUE(u.items != w.items || u.scores != w.scores);
}

}  // namespace
}  // namespace greca
