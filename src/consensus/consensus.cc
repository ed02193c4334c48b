#include "consensus/consensus.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace greca {

std::string ConsensusSpec::Name() const {
  if (disagreement == DisagreementKind::kNone) {
    return aggregator == GroupAggregator::kAverage ? "AP" : "MO";
  }
  const std::string base =
      disagreement == DisagreementKind::kPairwise ? "PD" : "VD";
  return base + "(w1=" + FormatDouble(w1, 1) + ")";
}

// Every function below has one signature; empty weights select the uniform
// branch, which is the historical unweighted code unchanged (bit-identical),
// and least misery ignores weights outright (the minimum is the minimum
// under any positive weighting).

namespace {

/// Population variance of g values `value(u)`: around the plain mean on
/// uniform weights, around the weighted mean otherwise.
template <typename Value>
double Variance(std::size_t g, const ConsensusWeights& weights, Value value) {
  if (weights.uniform()) {
    double mean = 0.0;
    for (std::size_t u = 0; u < g; ++u) mean += value(u);
    mean /= static_cast<double>(g);
    double var = 0.0;
    for (std::size_t u = 0; u < g; ++u) {
      var += (value(u) - mean) * (value(u) - mean);
    }
    return var / static_cast<double>(g);
  }
  assert(weights.member.size() == g);
  double mean = 0.0;
  for (std::size_t u = 0; u < g; ++u) mean += weights.member[u] * value(u);
  double var = 0.0;
  for (std::size_t u = 0; u < g; ++u) {
    var += weights.member[u] * (value(u) - mean) * (value(u) - mean);
  }
  return var;
}

}  // namespace

double GroupPreferenceScore(GroupAggregator aggregator,
                            std::span<const double> prefs,
                            const ConsensusWeights& weights) {
  assert(!prefs.empty());
  if (aggregator == GroupAggregator::kLeastMisery) {
    return *std::min_element(prefs.begin(), prefs.end());
  }
  if (weights.uniform()) {
    double sum = 0.0;
    for (const double p : prefs) sum += p;
    return sum / static_cast<double>(prefs.size());
  }
  assert(weights.member.size() == prefs.size());
  double sum = 0.0;
  for (std::size_t u = 0; u < prefs.size(); ++u) {
    sum += weights.member[u] * prefs[u];
  }
  return sum;  // member weights sum to 1
}

double DisagreementScore(DisagreementKind kind, std::span<const double> prefs,
                         const ConsensusWeights& weights) {
  const std::size_t g = prefs.size();
  if (kind == DisagreementKind::kNone || g < 2) return 0.0;
  if (kind == DisagreementKind::kVariance) {
    return Variance(g, weights, [&](std::size_t u) { return prefs[u]; });
  }
  if (weights.uniform()) {
    double sum = 0.0;
    for (std::size_t a = 0; a < g; ++a) {
      for (std::size_t b = a + 1; b < g; ++b) {
        sum += std::abs(prefs[a] - prefs[b]);
      }
    }
    return 2.0 * sum / (static_cast<double>(g) * static_cast<double>(g - 1));
  }
  assert(weights.pair.size() == g * (g - 1) / 2);
  double sum = 0.0;
  std::size_t q = 0;
  for (std::size_t a = 0; a < g; ++a) {
    for (std::size_t b = a + 1; b < g; ++b, ++q) {
      sum += weights.pair[q] * std::abs(prefs[a] - prefs[b]);
    }
  }
  return sum;  // pair weights sum to 1
}

double ConsensusScore(const ConsensusSpec& spec, std::span<const double> prefs,
                      const ConsensusWeights& weights) {
  const double gpref = GroupPreferenceScore(spec.aggregator, prefs, weights);
  if (spec.disagreement == DisagreementKind::kNone) {
    return spec.w1 * gpref + spec.w2;  // dis = 0
  }
  const double dis = DisagreementScore(spec.disagreement, prefs, weights);
  return spec.w1 * gpref + spec.w2 * (1.0 - dis);
}

Interval GroupPreferenceInterval(GroupAggregator aggregator,
                                 std::span<const Interval> prefs,
                                 const ConsensusWeights& weights) {
  assert(!prefs.empty());
  if (aggregator == GroupAggregator::kLeastMisery) {
    Interval result{1.0, 1.0};
    for (const Interval& p : prefs) result = Min(result, p);
    return result;
  }
  Interval sum{0.0, 0.0};
  if (weights.uniform()) {
    for (const Interval& p : prefs) sum = sum + p;
    const double inv = 1.0 / static_cast<double>(prefs.size());
    return inv * sum;
  }
  assert(weights.member.size() == prefs.size());
  for (std::size_t u = 0; u < prefs.size(); ++u) {
    sum = sum + weights.member[u] * prefs[u];
  }
  return sum;
}

Interval DisagreementInterval(DisagreementKind kind,
                              std::span<const Interval> prefs,
                              const ConsensusWeights& weights) {
  const std::size_t g = prefs.size();
  if (kind == DisagreementKind::kNone || g < 2) return Interval::Exact(0.0);
  if (kind == DisagreementKind::kPairwise) {
    Interval sum{0.0, 0.0};
    if (weights.uniform()) {
      for (std::size_t a = 0; a < g; ++a) {
        for (std::size_t b = a + 1; b < g; ++b) {
          sum = sum + AbsDifference(prefs[a], prefs[b]);
        }
      }
      const double norm =
          2.0 / (static_cast<double>(g) * static_cast<double>(g - 1));
      return norm * sum;
    }
    assert(weights.pair.size() == g * (g - 1) / 2);
    std::size_t q = 0;
    for (std::size_t a = 0; a < g; ++a) {
      for (std::size_t b = a + 1; b < g; ++b, ++q) {
        sum = sum + weights.pair[q] * AbsDifference(prefs[a], prefs[b]);
      }
    }
    return sum;
  }
  // Variance. Exact member values give the exact variance, so a fully seen
  // item's bounds close on its score. Otherwise the lower bound is 0 (always
  // sound, and tight whenever all member intervals share a point) and the
  // upper bound comes from the global envelope [min lb, max ub]: points
  // inside a range R have (weighted) variance at most (R/2)².
  if (std::all_of(prefs.begin(), prefs.end(),
                  [](const Interval& p) { return p.IsExact(); })) {
    return Interval::Exact(
        Variance(g, weights, [&](std::size_t u) { return prefs[u].lb; }));
  }
  double lo = 1.0, hi = 0.0;
  for (const Interval& p : prefs) {
    lo = std::min(lo, p.lb);
    hi = std::max(hi, p.ub);
  }
  const double half_range = std::max(0.0, (hi - lo) / 2.0);
  return {0.0, half_range * half_range};
}

Interval ConsensusInterval(const ConsensusSpec& spec,
                           std::span<const Interval> prefs,
                           const ConsensusWeights& weights) {
  const Interval gpref =
      GroupPreferenceInterval(spec.aggregator, prefs, weights);
  if (spec.disagreement == DisagreementKind::kNone) {
    return {spec.w1 * gpref.lb + spec.w2, spec.w1 * gpref.ub + spec.w2};
  }
  const Interval dis = DisagreementInterval(spec.disagreement, prefs, weights);
  return {spec.w1 * gpref.lb + spec.w2 * (1.0 - dis.ub),
          spec.w1 * gpref.ub + spec.w2 * (1.0 - dis.lb)};
}

double PairAgreement(double apref_a, double apref_b, double scale) {
  return 1.0 - scale * std::abs(apref_a - apref_b);
}

double ConsensusScoreWithAgreement(const ConsensusSpec& spec,
                                   std::span<const double> prefs,
                                   double agreement,
                                   const ConsensusWeights& weights) {
  const double gpref = GroupPreferenceScore(spec.aggregator, prefs, weights);
  return spec.w1 * gpref + spec.w2 * agreement;
}

Interval ConsensusIntervalWithAgreement(const ConsensusSpec& spec,
                                        std::span<const Interval> prefs,
                                        Interval agreement,
                                        const ConsensusWeights& weights) {
  assert(spec.disagreement == DisagreementKind::kPairwise);
  const Interval gpref =
      GroupPreferenceInterval(spec.aggregator, prefs, weights);
  return {spec.w1 * gpref.lb + spec.w2 * agreement.lb,
          spec.w1 * gpref.ub + spec.w2 * agreement.ub};
}

}  // namespace greca
