#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/stopwatch.h"

namespace greca::bench {

namespace {

BenchContext* BuildContext() {
  Stopwatch watch;
  auto* ctx = new BenchContext();

  SyntheticRatingsConfig uc;  // paper-scale defaults (Table 5)
  const char* small = std::getenv("GRECA_BENCH_SMALL");
  if (small != nullptr && small[0] == '1') {
    uc.num_users = 800;
    uc.num_items = 1'000;
    uc.target_ratings = 80'000;
  }
  ctx->universe = GenerateSyntheticRatings(uc);

  FacebookStudyConfig sc;
  ctx->study = GenerateFacebookStudy(sc, ctx->universe);

  ctx->options.max_candidate_items =
      std::min<std::size_t>(3'900, ctx->universe.dataset.num_items());
  ctx->recommender = std::make_unique<GroupRecommender>(
      ctx->universe, ctx->study, ctx->options);
  ctx->oracle = std::make_unique<SatisfactionOracle>(
      ctx->universe.truth, ctx->study.like_truth, ctx->study.universe_user,
      OracleWeights{});

  std::fprintf(stderr, "[bench_common] context built in %.1fs (%zu ratings)\n",
               watch.ElapsedSeconds(), ctx->universe.dataset.num_ratings());
  return ctx;
}

}  // namespace

const BenchContext& BenchContext::Get() {
  static const BenchContext* ctx = BuildContext();
  return *ctx;
}

std::size_t EnvSize(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
    std::cerr << "ignoring " << name << "='" << env
              << "' (expected a positive integer)\n";
  }
  return fallback;
}

}  // namespace greca::bench
