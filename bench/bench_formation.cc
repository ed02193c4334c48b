// Group formation as the serving runtime's first consumer: the end-to-end
// demo for src/groups/formation_pipeline.h.
//
// Over a synthetic SCALE population (dataset/synthetic.h), the bench
//   1. forms groups — sample a cohort, k-means taste clusters, greedy
//      builds cycling through the five formation strategies;
//   2. serves every formed group in ONE planned, parallel RecommendBatch
//      call on a ShardedEngine (the unified serving runtime,
//      serve/batch_executor.h);
//   3. scores each group's list with the ground-truth SatisfactionOracle
//      (the scale generator's latent preference model IS the truth).
//
// Reported per strategy: groups formed, mean/min/max satisfaction — the
// paper's formation question ("which grouping strategy yields groups the
// recommender can satisfy?") answered with the batch path, plus the batch
// planner's dedup/attribution stats for the formation workload shape.
//
// Output: a table plus BENCH_formation.json (override with
// GRECA_BENCH_FORMATION_JSON). Env knobs: GRECA_BENCH_SMALL=1 (smoke
// scale), GRECA_FORM_USERS, GRECA_FORM_ITEMS, GRECA_FORM_GROUPS,
// GRECA_FORM_COHORT, GRECA_FORM_SHARDS.
#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "groups/formation_pipeline.h"
#include "shard/sharded_engine.h"
#include "solver/solver_registry.h"

namespace {

using namespace greca;
using bench::EnvSize;

struct StrategyStats {
  std::size_t groups = 0;
  double sum_pct = 0.0;
  double min_pct = 0.0;
  double max_pct = 0.0;
};

}  // namespace

int main() {
  const bool small = std::getenv("GRECA_BENCH_SMALL") != nullptr;
  ScaleRatingsConfig sc;
  sc.num_users = EnvSize("GRECA_FORM_USERS", small ? 20'000 : 200'000);
  sc.num_items = EnvSize("GRECA_FORM_ITEMS", small ? 4'000 : 20'000);
  sc.seed = 29;

  FormationPipelineConfig fc;
  fc.num_groups = EnvSize("GRECA_FORM_GROUPS", small ? 40 : 200);
  fc.candidate_users = EnvSize("GRECA_FORM_COHORT", small ? 1'000 : 4'000);
  fc.group_size = 5;
  fc.num_clusters = small ? 4 : 8;
  fc.num_feature_items = small ? 32 : 48;
  fc.seed = 19;
  const std::size_t num_shards = EnvSize("GRECA_FORM_SHARDS", 4);
  const std::size_t pool_size = small ? 128 : 256;

  std::cout << "bench_formation: generating " << sc.num_users << " users x "
            << sc.num_items << " items (scale dataset)...\n";
  Stopwatch gen_watch;
  const SyntheticRatings scale = GenerateScaleRatings(sc);
  const RatingGroundTruth& truth = scale.truth;
  auto base = std::make_shared<const RatingsDataset>(scale.dataset);
  std::cout << "  " << base->num_ratings() << " ratings in "
            << gen_watch.ElapsedSeconds() << "s\n";

  // Same serving stack as bench_shard: truth-backed PoolPredictor (own
  // rating where one exists, latent preference everywhere else), constant
  // affinity (scale populations carry no social signal).
  const PoolPredictor predictor =
      [&truth](UserId u, std::span<const UserRatingEntry> merged,
               std::span<const ItemId> pool, std::span<Score> out) {
        for (std::size_t k = 0; k < pool.size(); ++k) {
          const ItemId item = pool[k];
          const auto it = std::lower_bound(
              merged.begin(), merged.end(), item,
              [](const UserRatingEntry& e, ItemId i) { return e.item < i; });
          out[k] = (it != merged.end() && it->item == item)
                       ? it->rating
                       : truth.TruePreference(u, item);
        }
      };
  ShardedEngineInputs inputs;
  inputs.ratings = base;
  inputs.affinity = std::make_shared<const ConstantAffinitySource>(
      sc.num_users, /*num_periods=*/1, /*static_value=*/1.0,
      /*periodic_value=*/1.0);
  inputs.predictor = predictor;
  inputs.pool = base->TopPopularItems(pool_size);
  inputs.num_universe_items = base->num_items();
  inputs.num_periods = 1;
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  Stopwatch build_watch;
  const ShardedEngine engine(std::move(inputs), options);
  std::cout << "built " << num_shards << "-shard engine in "
            << build_watch.ElapsedSeconds() << "s\n";

  // Stage 1-3: form.
  Stopwatch form_watch;
  const FormationPipeline pipeline(
      *base, [](UserId, UserId) { return 1.0; }, fc);
  const std::vector<FormedGroup> groups = pipeline.FormGroups();
  const double form_seconds = form_watch.ElapsedSeconds();
  std::cout << "formed " << groups.size() << " groups (cohort "
            << fc.candidate_users << ", " << fc.num_clusters
            << " clusters) in " << form_seconds << "s\n";

  // Stage 4: one planned parallel batch through the serving runtime.
  QuerySpec spec;
  spec.k = 10;
  spec.model = AffinityModelSpec::TimeAgnostic();
  spec.solver_id = std::string(kGrecaSolverId);
  spec.num_candidate_items = engine.pool().size();
  spec.eval_period = 0;
  const std::vector<Query> queries =
      FormationPipeline::MakeQueries(groups, spec);
  BatchReport report;
  Stopwatch serve_watch;
  const auto results = engine.RecommendBatch(queries, &report);
  const double serve_seconds = serve_watch.ElapsedSeconds();
  std::cout << "served " << queries.size() << " group queries in "
            << serve_seconds << "s (" << report.num_buckets
            << " buckets, planned=" << (report.planned ? "true" : "false")
            << ")\n";

  // Stage 5: ground-truth satisfaction.
  const SatisfactionOracle oracle(truth);
  const FormationScore score =
      ScoreFormedGroups(oracle, groups, results, /*period=*/0);

  constexpr std::size_t kNumStrategies = 5;
  std::array<StrategyStats, kNumStrategies> per_strategy{};
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const double pct = score.per_group_pct[i];
    if (pct < 0.0) continue;  // failed group
    StrategyStats& s =
        per_strategy[static_cast<std::size_t>(groups[i].strategy)];
    if (s.groups == 0) {
      s.min_pct = s.max_pct = pct;
    } else {
      s.min_pct = std::min(s.min_pct, pct);
      s.max_pct = std::max(s.max_pct, pct);
    }
    ++s.groups;
    s.sum_pct += pct;
  }

  TablePrinter table("Formation round trip: satisfaction by strategy (" +
                     std::to_string(groups.size()) + " groups, " +
                     std::to_string(sc.num_users) + " users)");
  table.SetColumns(
      {"strategy", "groups", "mean sat %", "min sat %", "max sat %"});
  for (std::size_t s = 0; s < kNumStrategies; ++s) {
    const StrategyStats& st = per_strategy[s];
    const double mean =
        st.groups > 0 ? st.sum_pct / static_cast<double>(st.groups) : 0.0;
    table.AddRow({FormationStrategyName(static_cast<FormationStrategy>(s)),
                  std::to_string(st.groups), TablePrinter::Cell(mean, 2),
                  TablePrinter::Cell(st.min_pct, 2),
                  TablePrinter::Cell(st.max_pct, 2)});
  }
  table.Print(std::cout);
  std::cout << "overall: mean=" << score.mean_satisfaction_pct
            << "% min=" << score.min_satisfaction_pct
            << "% max=" << score.max_satisfaction_pct << "% ("
            << score.groups_scored << " scored, " << score.groups_failed
            << " failed)\n";

  const char* json_env = std::getenv("GRECA_BENCH_FORMATION_JSON");
  const std::string path =
      json_env != nullptr ? json_env : "BENCH_formation.json";
  std::ofstream json(path);
  json << "{\n"
       << "  \"num_users\": " << sc.num_users << ",\n"
       << "  \"num_items\": " << sc.num_items << ",\n"
       << "  \"num_ratings\": " << base->num_ratings() << ",\n"
       << "  \"num_shards\": " << num_shards << ",\n"
       << "  \"cohort\": " << fc.candidate_users << ",\n"
       << "  \"num_clusters\": " << fc.num_clusters << ",\n"
       << "  \"group_size\": " << fc.group_size << ",\n"
       << "  \"groups_formed\": " << groups.size() << ",\n"
       << "  \"groups_scored\": " << score.groups_scored << ",\n"
       << "  \"groups_failed\": " << score.groups_failed << ",\n"
       << "  \"form_seconds\": " << form_seconds << ",\n"
       << "  \"serve_seconds\": " << serve_seconds << ",\n"
       << "  \"batch_planned\": " << (report.planned ? "true" : "false")
       << ",\n"
       << "  \"batch_buckets\": " << report.num_buckets << ",\n"
       << "  \"mean_satisfaction_pct\": " << score.mean_satisfaction_pct
       << ",\n"
       << "  \"min_satisfaction_pct\": " << score.min_satisfaction_pct
       << ",\n"
       << "  \"max_satisfaction_pct\": " << score.max_satisfaction_pct
       << ",\n"
       << "  \"strategies\": [\n";
  for (std::size_t s = 0; s < kNumStrategies; ++s) {
    const StrategyStats& st = per_strategy[s];
    const double mean =
        st.groups > 0 ? st.sum_pct / static_cast<double>(st.groups) : 0.0;
    json << "    {\"strategy\": \""
         << FormationStrategyName(static_cast<FormationStrategy>(s))
         << "\", \"groups\": " << st.groups << ", \"mean_pct\": " << mean
         << ", \"min_pct\": " << st.min_pct << ", \"max_pct\": " << st.max_pct
         << "}" << (s + 1 < kNumStrategies ? "," : "") << "\n";
  }
  json << "  ]\n"
       << "}\n";
  std::cout << "Wrote " << path << "\n";

  if (score.groups_failed > 0) {
    std::cerr << "ERROR: " << score.groups_failed
              << " formed groups failed to serve\n";
    return 1;
  }
  return 0;
}
