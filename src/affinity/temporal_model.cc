#include "affinity/temporal_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace greca {

std::string AffinityModelSpec::Name() const {
  if (!affinity_aware) return "affinity-agnostic";
  if (!time_aware) return "time-agnostic";
  return time_model == TimeModel::kDiscrete ? "discrete" : "continuous";
}

AffinityCombiner::AffinityCombiner(AffinityModelSpec spec,
                                   std::span<const double> period_averages)
    : spec_(spec), num_periods_(period_averages.size()) {
  for (const double a : period_averages) average_sum_ += a;
}

double AffinityCombiner::DriftOfSum(double period_sum) const {
  const double drift = (period_sum - average_sum_) /
                       static_cast<double>(num_periods_);
  return std::clamp(spec_.drift_gain * drift, -1.0, 1.0);
}

double AffinityCombiner::MeanDrift(std::span<const double> aff_p) const {
  assert(aff_p.size() == num_periods_);
  if (aff_p.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : aff_p) sum += v;
  return DriftOfSum(sum);
}

double AffinityCombiner::Combine(double aff_s,
                                 std::span<const double> aff_p) const {
  double sum = 0.0;
  for (const double v : aff_p) sum += v;
  return CombineSum(aff_s, sum);
}

double AffinityCombiner::CombineSum(double aff_s, double period_sum) const {
  if (!spec_.affinity_aware) return 0.0;
  if (!spec_.time_aware || num_periods_ == 0) {
    return std::clamp(aff_s, 0.0, 1.0);
  }
  const double drift = DriftOfSum(period_sum);
  double combined;
  if (spec_.time_model == TimeModel::kDiscrete) {
    combined = aff_s + drift;  // affD = affS + affV
  } else {
    combined = aff_s * std::exp(drift);  // affC = affS · e^{affV}
  }
  return std::clamp(combined, 0.0, 1.0);
}

Interval AffinityCombiner::CombineInterval(
    Interval aff_s, std::span<const Interval> aff_p) const {
  // Combine() is monotone non-decreasing in aff_s and every aff_p entry, so
  // evaluating at the interval endpoints yields sound bounds. Combine reads
  // the periodic values only through their sum, accumulated here in the
  // same order, so nothing is copied.
  double low_sum = 0.0;
  double high_sum = 0.0;
  for (const Interval& iv : aff_p) {
    assert(iv.lb <= iv.ub);
    low_sum += iv.lb;
    high_sum += iv.ub;
  }
  return {CombineSum(aff_s.lb, low_sum), CombineSum(aff_s.ub, high_sum)};
}

}  // namespace greca
