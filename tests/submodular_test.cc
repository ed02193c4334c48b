// The submodular-greedy solver's contract:
//  * λ = 1 degenerates to the exact consensus ranking — same items, same
//    order, same scores and the same access accounting as the naive scan;
//  * λ < 1 trades relevance for facility-location coverage: on a group with
//    orthogonal tastes the greedy list covers every member where the exact
//    ranking serves only the majority taste;
//  * reported scores are marginal gains, non-increasing by submodularity;
//  * the solver runs end-to-end through QueryBuilder, Engine::Recommend and
//    RecommendBatch (bit-identical to sequential Recommend on the same pin).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/query_builder.h"
#include "common/rng.h"
#include "solver/submodular_solver.h"
#include "test_util.h"
#include "topk/naive.h"

namespace greca {
namespace {

QuerySpec SpecForK(std::size_t k) {
  QuerySpec spec;
  spec.k = k;
  spec.solver_id = std::string(kSubmodularSolverId);
  return spec;
}

TEST(SubmodularSolverTest, LambdaOneMatchesNaiveExactly) {
  const SubmodularGreedySolver solver(1.0);
  Rng rng(91);
  for (const ConsensusSpec& consensus :
       {ConsensusSpec::AveragePreference(), ConsensusSpec::LeastMisery(),
        ConsensusSpec::PairwiseDisagreement()}) {
    GroupProblem problem = greca::testing::MakeRandomProblem(
        rng, 4, 60, 3, consensus, AffinityModelSpec::Default());
    const TopKResult naive = NaiveTopK(problem, 8);
    QueryWorkspace ws;
    const SolverResult greedy = solver.Solve(problem, SpecForK(8), ws);
    ASSERT_EQ(greedy.raw.items.size(), naive.items.size());
    for (std::size_t i = 0; i < naive.items.size(); ++i) {
      EXPECT_EQ(greedy.raw.items[i].id, naive.items[i].id) << "rank " << i;
      EXPECT_DOUBLE_EQ(greedy.raw.items[i].score, naive.items[i].score);
    }
    // Same cost model as the exhaustive baseline: one full sequential scan.
    EXPECT_EQ(greedy.raw.accesses.sequential, naive.accesses.sequential);
    EXPECT_EQ(greedy.raw.accesses.random, naive.accesses.random);
    EXPECT_EQ(greedy.raw.total_entries, naive.total_entries);
  }
}

// Two members with orthogonal tastes over four items. The exact average
// ranking serves member A twice; coverage-weighted greedy gives each member
// the item they love.
GroupProblem OrthogonalTastesProblem() {
  const auto list = [](std::initializer_list<double> scores) {
    std::vector<ListEntry> entries;
    ListKey key = 0;
    for (const double s : scores) entries.push_back({key++, s});
    return SortedList::FromUnsorted(std::move(entries), 4);
  };
  std::vector<SortedList> pref_lists;
  pref_lists.push_back(list({1.0, 0.92, 0.1, 0.0}));  // A loves items 0, 1
  pref_lists.push_back(list({0.0, 0.10, 0.2, 0.9}));  // B loves item 3
  SortedList static_list =
      SortedList::FromUnsorted({{0, 0.5}}, 1);  // one pair, ignored below
  AffinityCombiner combiner(AffinityModelSpec::AffinityAgnostic(), {});
  return GroupProblem(4, std::move(pref_lists), std::move(static_list), {},
                      std::move(combiner), ConsensusSpec::AveragePreference(),
                      {});
}

TEST(SubmodularSolverTest, CoverageServesEveryMember) {
  GroupProblem problem = OrthogonalTastesProblem();
  // Averages: item0 = .50, item1 = .51, item2 = .15, item3 = .45 — the exact
  // ranking's top-2 is {1, 0}, both member A's favourites.
  const TopKResult naive = NaiveTopK(problem, 2);
  ASSERT_EQ(naive.items.size(), 2u);
  EXPECT_EQ(naive.items[0].id, 1u);
  EXPECT_EQ(naive.items[1].id, 0u);

  // Pure coverage (λ = 0): round 1 picks item 1 (best average coverage),
  // round 2's marginal gains are item0 ≈ .04, item2 = .05, item3 = .40 —
  // member B finally gets item 3.
  const SubmodularGreedySolver coverage(0.0);
  QueryWorkspace ws;
  const SolverResult greedy = coverage.Solve(problem, SpecForK(2), ws);
  ASSERT_EQ(greedy.raw.items.size(), 2u);
  EXPECT_EQ(greedy.raw.items[0].id, 1u);
  EXPECT_EQ(greedy.raw.items[1].id, 3u);

  // The balanced default keeps the same diverse pick on this group.
  const SubmodularGreedySolver balanced;
  const SolverResult mixed = balanced.Solve(problem, SpecForK(2), ws);
  ASSERT_EQ(mixed.raw.items.size(), 2u);
  EXPECT_EQ(mixed.raw.items[0].id, 1u);
  EXPECT_EQ(mixed.raw.items[1].id, 3u);
}

TEST(SubmodularSolverTest, ScoresAreNonIncreasingMarginalGains) {
  Rng rng(17);
  GroupProblem problem = greca::testing::MakeRandomProblem(
      rng, 5, 80, 2, ConsensusSpec::AveragePreference(),
      AffinityModelSpec::Default());
  const SubmodularGreedySolver solver(0.3);
  QueryWorkspace ws;
  const SolverResult result = solver.Solve(problem, SpecForK(10), ws);
  ASSERT_EQ(result.raw.items.size(), 10u);
  EXPECT_EQ(result.raw.rounds, 10u);
  EXPECT_FALSE(result.raw.early_terminated);
  EXPECT_EQ(result.raw.accesses.random, 0u);
  for (std::size_t i = 1; i < result.raw.items.size(); ++i) {
    EXPECT_GE(result.raw.items[i - 1].score, result.raw.items[i].score);
  }
}

TEST(SubmodularSolverTest, RunsEndToEndThroughEngineAndBatch) {
  SyntheticRatingsConfig uc;
  uc.num_users = 160;
  uc.num_items = 260;
  uc.target_ratings = 10'000;
  uc.seed = 55;
  const SyntheticRatings universe = GenerateSyntheticRatings(uc);
  FacebookStudyConfig sc;
  sc.diversity_pool = 120;
  const FacebookStudy study = GenerateFacebookStudy(sc, universe);

  RecommenderOptions options;
  options.max_candidate_items = 220;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  const Engine engine(universe.dataset, study, options, engine_options);

  const Result<Query> query = QueryBuilder(engine)
                                  .Members({0, 4, 9})
                                  .TopK(5)
                                  .Using(std::string(kSubmodularSolverId))
                                  .CandidatePool(220)
                                  .Build();
  ASSERT_TRUE(query.ok());
  const Result<Recommendation> single = engine.Recommend(query.value());
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.value().items.size(), 5u);

  // A batch with duplicates and a solver mix: the planner shares problems
  // only within a solver id, and the batch stays bit-identical to
  // sequential Recommend calls on the same snapshot.
  std::vector<Query> batch;
  batch.push_back(query.value());
  batch.push_back(query.value());  // duplicate — one solve, fanned out
  Query naive_query = query.value();
  naive_query.spec.solver_id = std::string(kNaiveSolverId);
  batch.push_back(naive_query);
  const auto pin = engine.snapshot();
  BatchReport report;
  const auto planned_results = engine.RecommendBatch(batch, pin, &report);
  std::vector<Result<Recommendation>> reference_results;
  for (const Query& q : batch) {
    reference_results.push_back(engine.Recommend(q, pin));
  }
  EXPECT_EQ(report.num_buckets, 2u);
  EXPECT_EQ(report.duplicates_shared, 1u);
  ASSERT_EQ(planned_results.size(), reference_results.size());
  for (std::size_t i = 0; i < planned_results.size(); ++i) {
    ASSERT_TRUE(planned_results[i].ok());
    ASSERT_TRUE(reference_results[i].ok());
    EXPECT_EQ(planned_results[i].value().items,
              reference_results[i].value().items);
    EXPECT_EQ(planned_results[i].value().scores,
              reference_results[i].value().scores);
  }
  // The two submodular copies differ from the naive result on this group —
  // the solver id reached the solve (and the planner kept them apart).
  EXPECT_TRUE(planned_results[0].value().scores !=
              planned_results[2].value().scores);
}

}  // namespace
}  // namespace greca
