// Small statistics helpers used by generators, consensus functions and the
// experiment harness (means, variance, standard error, correlations).
#ifndef GRECA_COMMON_STATS_H_
#define GRECA_COMMON_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace greca {

/// Single-pass accumulator (Welford) for mean/variance/min/max.
class OnlineStats {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Population variance (divide by n). Zero for n < 2.
  double variance() const;
  /// Sample variance (divide by n-1). Zero for n < 2.
  double sample_variance() const;
  double stddev() const;
  /// Standard error of the mean: sample stddev / sqrt(n).
  double standard_error() const;
  double min() const { return min_; }
  double max() const { return max_; }

  /// Merges another accumulator into this one (parallel Welford).
  void Merge(const OnlineStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

double Mean(std::span<const double> xs);
/// Population variance.
double Variance(std::span<const double> xs);

/// Pearson correlation; returns 0 when either side has zero variance.
double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys);

/// p-th percentile (0..100) by linear interpolation on a copy of the data.
/// Returns 0 for empty input.
double Percentile(std::span<const double> xs, double p);

}  // namespace greca

#endif  // GRECA_COMMON_STATS_H_
