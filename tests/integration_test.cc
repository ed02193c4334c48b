// End-to-end integration tests: the full pipeline from synthetic data through
// the GroupRecommender facade, cross-checking all three algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/group_recommender.h"
#include "eval/experiments.h"
#include "solver/solver_registry.h"
#include "topk/naive.h"
#include "topk/ta.h"

namespace greca {
namespace {

class IntegrationTest : public ::testing::Test {
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
    RecommenderOptions options;
    options.max_candidate_items = 400;
    recommender_ = new GroupRecommender(*universe_, *study_, options);
  }
  static void TearDownTestSuite() {
    delete recommender_;
    delete study_;
    delete universe_;
    recommender_ = nullptr;
    study_ = nullptr;
    universe_ = nullptr;
  }

  static SyntheticRatings* universe_;
  static FacebookStudy* study_;
  static GroupRecommender* recommender_;
};

SyntheticRatings* IntegrationTest::universe_ = nullptr;
FacebookStudy* IntegrationTest::study_ = nullptr;
GroupRecommender* IntegrationTest::recommender_ = nullptr;

QuerySpec BaseSpec(std::size_t items = 400) {
  QuerySpec spec;
  spec.k = 8;
  spec.num_candidate_items = items;
  return spec;
}

TEST_F(IntegrationTest, GrecaMatchesNaiveThroughFacade) {
  const Group group{2, 7, 19, 30, 44, 61};
  for (const auto model :
       {AffinityModelSpec::Default(), AffinityModelSpec::Continuous(),
        AffinityModelSpec::TimeAgnostic(),
        AffinityModelSpec::AffinityAgnostic()}) {
    QuerySpec spec = BaseSpec();
    spec.model = model;
    spec.solver_id = std::string(kGrecaSolverId);
    const Recommendation greca = recommender_->Recommend(group, spec).value();
    spec.solver_id = std::string(kNaiveSolverId);
    const Recommendation naive = recommender_->Recommend(group, spec).value();
    ASSERT_EQ(greca.items.size(), naive.items.size()) << model.Name();
    const std::set<ItemId> gs(greca.items.begin(), greca.items.end());
    const std::set<ItemId> ns(naive.items.begin(), naive.items.end());
    EXPECT_EQ(gs, ns) << model.Name();
  }
}

TEST_F(IntegrationTest, TaMatchesNaiveThroughFacade) {
  const Group group{1, 5, 23};
  QuerySpec spec = BaseSpec();
  spec.solver_id = std::string(kTaSolverId);
  const Recommendation ta = recommender_->Recommend(group, spec).value();
  spec.solver_id = std::string(kNaiveSolverId);
  const Recommendation naive = recommender_->Recommend(group, spec).value();
  const std::set<ItemId> ts(ta.items.begin(), ta.items.end());
  const std::set<ItemId> ns(naive.items.begin(), naive.items.end());
  EXPECT_EQ(ts, ns);
}

TEST_F(IntegrationTest, ExcludesItemsRatedByMembers) {
  const Group group{0, 1};
  const Recommendation rec = recommender_->Recommend(group, BaseSpec()).value();
  for (const ItemId item : rec.items) {
    EXPECT_FALSE(study_->study_ratings.HasRating(0, item));
    EXPECT_FALSE(study_->study_ratings.HasRating(1, item));
  }
}

TEST_F(IntegrationTest, GrecaSavesAccesses) {
  PerformanceHarness perf(*recommender_, 7);
  QuerySpec spec = BaseSpec();
  const auto groups = perf.RandomGroups(5, 6);
  const auto m = perf.Measure(groups, spec);
  // The headline claim: substantial saveup vs the naive full scan.
  EXPECT_GT(m.mean_saveup_percent, 40.0);
}

TEST_F(IntegrationTest, EvalPeriodControlsPeriodListCount) {
  const Group group{3, 9, 15};
  QuerySpec spec = BaseSpec();
  spec.eval_period = 0;
  const GroupProblem p0 = recommender_->BuildProblem(group, spec).value();
  EXPECT_EQ(p0.num_periods(), 1u);
  spec.eval_period = std::nullopt;
  const GroupProblem pl = recommender_->BuildProblem(group, spec).value();
  EXPECT_EQ(pl.num_periods(), recommender_->num_periods());
  // Time-agnostic problems carry no period lists.
  spec.model = AffinityModelSpec::TimeAgnostic();
  const GroupProblem pt = recommender_->BuildProblem(group, spec).value();
  EXPECT_EQ(pt.num_periods(), 0u);
}

TEST_F(IntegrationTest, CandidatePoolSizeControlsProblemSize) {
  const Group group{3, 9, 15};
  QuerySpec spec = BaseSpec(100);
  std::vector<ItemId> candidates;
  const GroupProblem p = recommender_->BuildProblem(group, spec, &candidates).value();
  EXPECT_LE(p.num_items(), 100u);
  EXPECT_EQ(p.num_items(), candidates.size());
  // Tombstoning the group's rated items shrinks the live set, never the key
  // space.
  EXPECT_LE(p.num_candidates(), p.num_items());
  EXPECT_GT(p.num_candidates(), 0u);
  // Candidate keys map back to universe items.
  for (const ItemId item : candidates) {
    EXPECT_LT(item, universe_->dataset.num_items());
  }
}

TEST_F(IntegrationTest, RecommendationsDifferAcrossModels) {
  // Affinity must actually change outcomes for at least some groups.
  PerformanceHarness perf(*recommender_, 11);
  const auto groups = perf.RandomGroups(6, 5);
  std::size_t differing = 0;
  for (const Group& group : groups) {
    QuerySpec spec = BaseSpec();
    spec.solver_id = std::string(kNaiveSolverId);
    const auto with_affinity = recommender_->Recommend(group, spec).value().items;
    spec.model = AffinityModelSpec::AffinityAgnostic();
    const auto without = recommender_->Recommend(group, spec).value().items;
    if (std::set<ItemId>(with_affinity.begin(), with_affinity.end()) !=
        std::set<ItemId>(without.begin(), without.end())) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST_F(IntegrationTest, ModelAffinityInUnitInterval) {
  for (UserId a = 0; a < 10; ++a) {
    for (UserId b = a + 1; b < 10; ++b) {
      for (const auto model :
           {AffinityModelSpec::Default(), AffinityModelSpec::Continuous()}) {
        const double aff =
            recommender_->ModelAffinity(a, b, std::nullopt, model);
        EXPECT_GE(aff, 0.0);
        EXPECT_LE(aff, 1.0);
      }
    }
  }
}

TEST_F(IntegrationTest, PredictionsCoverEveryItem) {
  const auto snap = recommender_->snapshot();
  EXPECT_EQ(snap->predictions(0).size(), universe_->dataset.num_items());
}

// Also over a 40-member group: GRECA's seen-set spans more than one 32-bit
// word there, and no solver caps the group size.
TEST_F(IntegrationTest, GrecaMatchesNaiveForEveryConsensusThroughFacade) {
  Group forty;
  for (UserId u = 20; u < 60; ++u) forty.push_back(u);
  for (const Group& group : {Group{6, 14, 33, 50}, forty}) {
    for (const auto consensus :
         {ConsensusSpec::AveragePreference(), ConsensusSpec::LeastMisery(),
          ConsensusSpec::PairwiseDisagreement(0.8),
          ConsensusSpec::PairwiseDisagreement(0.2),
          ConsensusSpec::VarianceDisagreement(0.8)}) {
      QuerySpec spec = BaseSpec();
      spec.consensus = consensus;
      spec.solver_id = std::string(kGrecaSolverId);
      const Recommendation greca =
          recommender_->Recommend(group, spec).value();
      spec.solver_id = std::string(kNaiveSolverId);
      const Recommendation naive =
          recommender_->Recommend(group, spec).value();
      const std::set<ItemId> gs(greca.items.begin(), greca.items.end());
      const std::set<ItemId> ns(naive.items.begin(), naive.items.end());
      EXPECT_EQ(gs, ns) << consensus.Name() << " g=" << group.size();
    }
  }
}

// The §3.1 contract on served problems: each exact solver (GRECA under both
// termination policies, TA) returns a top-k whose exact-score multiset is
// the naive scan's. The itemset is exact; the order within it may be
// partial. The queries form a deterministic grid over group size, k, pool
// prefix, affinity model, consensus (random w1, disagreement scale in
// {0, 1, 5, 20}) and member weighting.
TEST_F(IntegrationTest, ExactSolversReturnTheNaiveExactScoreMultiset) {
  const AffinityModelSpec models[] = {
      AffinityModelSpec::Default(), AffinityModelSpec::Continuous(),
      AffinityModelSpec::TimeAgnostic(), AffinityModelSpec::AffinityAgnostic()};
  const double scales[] = {0.0, 1.0, 5.0, 20.0};
  const std::uint64_t participants = study_->num_participants();

  // Exact scores, best first, of what `solver_id` serves for the query.
  const auto served_exact_scores = [](const Group& group, QuerySpec spec,
                                      std::string_view solver_id) {
    spec.solver_id = std::string(solver_id);
    QueryWorkspace ws;
    GroupProblem problem =
        recommender_->BuildProblem(group, spec, nullptr, &ws).value();
    TopKResult solved;
    if (solver_id == kGrecaSolverId) {
      GrecaConfig config;
      config.k = spec.k;
      config.termination = spec.termination;
      solved = Greca(problem, config, nullptr, &ws.greca);
    } else if (solver_id == kTaSolverId) {
      solved = TaTopK(problem, spec.k);
    } else {
      solved = NaiveTopK(problem, spec.k);
    }
    std::vector<double> scores;
    for (const ListEntry& e : solved.items) {
      scores.push_back(problem.ExactScore(e.id));
    }
    std::sort(scores.begin(), scores.end(), std::greater<>());
    return scores;
  };

  Rng rng(20'150'324);
  std::size_t misses = 0;
  std::string first_misses;
  for (std::size_t i = 0; i < 504; ++i) {
    Group group;
    while (group.size() < 2 + i % 7) {
      const auto u = static_cast<UserId>(rng.NextBounded(participants));
      if (std::find(group.begin(), group.end(), u) == group.end()) {
        group.push_back(u);
      }
    }
    QuerySpec spec;
    spec.k = 1 + rng.NextBounded(15);
    spec.num_candidate_items = 1 + rng.NextBounded(420);
    spec.model = models[i % 4];
    const double w1 = rng.NextDouble();
    switch (i / 4 % 4) {
      case 0: spec.consensus = ConsensusSpec::AveragePreference(); break;
      case 1: spec.consensus = ConsensusSpec::LeastMisery(); break;
      case 2: spec.consensus = ConsensusSpec::PairwiseDisagreement(w1); break;
      default: spec.consensus = ConsensusSpec::VarianceDisagreement(w1);
    }
    spec.consensus.disagreement_scale = scales[i / 16 % 4];
    spec.weighting = i / 64 % 2 == 0 ? MemberWeighting::kUniform
                                     : MemberWeighting::kInfluence;

    const std::vector<double> naive =
        served_exact_scores(group, spec, kNaiveSolverId);
    const auto check = [&](const std::string& label,
                           const std::vector<double>& scores) {
      bool same = scores.size() == naive.size();
      for (std::size_t r = 0; same && r < scores.size(); ++r) {
        same = std::abs(scores[r] - naive[r]) <= 1e-9;
      }
      if (same) return;
      if (++misses <= 5) {
        first_misses += "\n  query " + std::to_string(i) + " " + label +
                        " g=" + std::to_string(group.size()) +
                        " k=" + std::to_string(spec.k) + " pool=" +
                        std::to_string(spec.num_candidate_items) + " " +
                        spec.consensus.Name() + "/" + spec.model.Name() +
                        (spec.weighting == MemberWeighting::kInfluence
                             ? " influence"
                             : " uniform");
      }
    };
    for (const TerminationPolicy policy :
         {TerminationPolicy::kBufferCondition,
          TerminationPolicy::kThresholdOnly}) {
      spec.termination = policy;
      check(policy == TerminationPolicy::kBufferCondition ? "greca"
                                                          : "greca-threshold",
            served_exact_scores(group, spec, kGrecaSolverId));
    }
    check("ta", served_exact_scores(group, spec, kTaSolverId));
  }
  EXPECT_EQ(misses, 0u) << "first misses:" << first_misses;
}

TEST_F(IntegrationTest, PairwiseConsensusCarriesAgreementList) {
  const Group group{2, 8, 21};
  QuerySpec spec = BaseSpec();
  spec.consensus = ConsensusSpec::PairwiseDisagreement(0.5);
  const GroupProblem problem = recommender_->BuildProblem(group, spec).value();
  // The facade pre-aggregates the pair components into one list covering
  // exactly the live (non-tombstoned) candidates.
  ASSERT_TRUE(problem.uses_agreement_list());
  EXPECT_EQ(problem.agreement_list().size(), problem.num_candidates());
  // Total entries include it (the %SA denominator is honest), counting live
  // entries only.
  EXPECT_EQ(problem.TotalEntries(),
            problem.num_candidates() * (group.size() + 1) +
                problem.num_pairs() * (1 + problem.num_periods()));
}

TEST_F(IntegrationTest, ResolvePeriodValidatesRange) {
  EXPECT_EQ(recommender_->ResolvePeriod(0).value(), 0u);
  EXPECT_EQ(recommender_->ResolvePeriod(std::nullopt).value(),
            recommender_->num_periods() - 1);
  // Out-of-range periods are rejected, not clamped.
  const auto bad = recommender_->ResolvePeriod(10'000);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST_F(IntegrationTest, ThresholdOnlyFacadePathStillCorrect) {
  const Group group{5, 12, 28};
  QuerySpec spec = BaseSpec();
  spec.termination = TerminationPolicy::kThresholdOnly;
  const Recommendation slow = recommender_->Recommend(group, spec).value();
  spec.termination = TerminationPolicy::kBufferCondition;
  const Recommendation fast = recommender_->Recommend(group, spec).value();
  const std::set<ItemId> ss(slow.items.begin(), slow.items.end());
  const std::set<ItemId> fs(fast.items.begin(), fast.items.end());
  EXPECT_EQ(ss, fs);
  EXPECT_LE(fast.raw.accesses.sequential, slow.raw.accesses.sequential);
}

}  // namespace
}  // namespace greca
