// Shared fixture for every bench harness: the paper-scale synthetic
// MovieLens twin (Table 5), the 72-participant Facebook study twin, the
// recommender and the satisfaction oracle — built once per binary.
#ifndef GRECA_BENCH_BENCH_COMMON_H_
#define GRECA_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "core/group_recommender.h"
#include "eval/experiments.h"
#include "eval/satisfaction.h"
#include "eval/study_groups.h"

namespace greca::bench {

struct BenchContext {
  SyntheticRatings universe;
  FacebookStudy study;
  /// What `recommender` was built with; benches that need their own Engine
  /// over the same datasets build it with these options.
  RecommenderOptions options;
  std::unique_ptr<GroupRecommender> recommender;
  std::unique_ptr<SatisfactionOracle> oracle;

  /// Lazily-built process-wide context at the paper's scale (6 040 users,
  /// 3 952 movies, ~1M ratings, 72 study participants, 6 two-month periods).
  /// Set GRECA_BENCH_SMALL=1 to shrink the universe for smoke runs.
  static const BenchContext& Get();
};

/// The positive integer in environment variable `name`, or `fallback` when
/// it is unset; any other value is reported on stderr and ignored.
std::size_t EnvSize(const char* name, std::size_t fallback);

/// Number of repetitions for group-sampled measurements (paper: 20 groups).
inline constexpr std::size_t kNumRandomGroups = 20;

}  // namespace greca::bench

#endif  // GRECA_BENCH_BENCH_COMMON_H_
