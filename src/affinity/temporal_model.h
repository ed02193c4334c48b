// The two dynamic affinity models of paper §2.1, plus the ablation switches
// used throughout the evaluation (affinity-agnostic, time-agnostic).
//
//   Discrete:    affD(u,u',p) = affS(u,u') + affV(u,u',p)
//   Continuous:  affC(u,u',p) = affS(u,u') · e^{λ·(f−s0)}, λ ≡ affV rate
//
// Implementation notes (documented deviations, see DESIGN.md §4):
//  * All inputs are on the normalized [0, 1] scale (the paper normalizes both
//    static and dynamic affinities to [0, 1], §4.1.2); the drift argument is
//    the *mean* per-period drift, which lies in [−1, 1].
//  * Model outputs are clamped to [0, 1]: the discrete model adds the drift
//    to affS, the continuous model multiplies affS by e^{drift}. Both are
//    monotone non-decreasing in affS and in every periodic affinity value,
//    which is what makes the consensus function monotone (Lemma 1) and GRECA
//    sound.
#ifndef GRECA_AFFINITY_TEMPORAL_MODEL_H_
#define GRECA_AFFINITY_TEMPORAL_MODEL_H_

#include <span>
#include <string>
#include <vector>

#include "topk/interval.h"

namespace greca {

enum class TimeModel {
  kDiscrete,
  kContinuous,
};

/// Which affinity signal the recommender uses — the four variants compared in
/// the paper's quality study (Figure 1 A–D).
struct AffinityModelSpec {
  /// false → aff ≡ 0 (recommendations ignore other members entirely).
  bool affinity_aware = true;
  /// false → aff = affS only (no temporal component).
  bool time_aware = true;
  TimeModel time_model = TimeModel::kDiscrete;
  /// Gain applied to the mean periodic drift before it enters the model.
  /// The paper leaves the scale of Equation 1's Δ-normalization open; on the
  /// max-normalized page-like scale raw drifts are small (|drift| ~ 0.1), so
  /// a gain recovers a temporal signal strong enough to re-rank pairs. The
  /// effective drift is clamp(gain·mean_drift, −1, 1); gain 1 reproduces the
  /// raw equation.
  double drift_gain = 4.0;

  static AffinityModelSpec Default() { return {}; }
  static AffinityModelSpec AffinityAgnostic() {
    return {.affinity_aware = false};
  }
  static AffinityModelSpec TimeAgnostic() { return {.time_aware = false}; }
  static AffinityModelSpec Continuous() {
    return {.time_model = TimeModel::kContinuous};
  }

  std::string Name() const;

  friend bool operator==(const AffinityModelSpec&,
                         const AffinityModelSpec&) = default;
};

/// Pure affinity computation for one evaluation horizon: given affS and the
/// normalized periodic affinities affP[0..T), produces the temporal affinity
/// aff(u, u', p) in [0, 1]. Also propagates intervals for GRECA's bounds
/// (valid because the combination is monotone in every argument).
class AffinityCombiner {
 public:
  /// `period_averages` are the normalized population averages AvgAffP(p') of
  /// the T periods covered by the evaluation horizon.
  AffinityCombiner(AffinityModelSpec spec, std::vector<double> period_averages);

  std::size_t num_periods() const { return period_averages_.size(); }
  const AffinityModelSpec& spec() const { return spec_; }

  /// aff(u, u') from exact components. `aff_p.size()` must equal
  /// num_periods().
  double Combine(double aff_s, std::span<const double> aff_p) const;

  /// Sound interval propagation (endpoint evaluation; valid by monotonicity).
  /// Allocation-free: GRECA calls it for every pair on each affinity read.
  Interval CombineInterval(Interval aff_s,
                           std::span<const Interval> aff_p) const;

  /// Mean per-period drift Σ(affP − avg)/T in [−1, 1]; 0 when T == 0.
  double MeanDrift(std::span<const double> aff_p) const;

  /// Largest value Combine can return (used for threshold initialization).
  double MaxAffinity() const { return spec_.affinity_aware ? 1.0 : 0.0; }

 private:
  /// Combine() given the sum of the periodic values (summed in index
  /// order).
  double CombineSum(double aff_s, double period_sum) const;
  /// Clamped, gained mean drift of periodic values summing to `period_sum`;
  /// requires num_periods() > 0.
  double DriftOfSum(double period_sum) const;

  AffinityModelSpec spec_;
  std::vector<double> period_averages_;
  double average_sum_ = 0.0;
};

}  // namespace greca

#endif  // GRECA_AFFINITY_TEMPORAL_MODEL_H_
