// Group consensus functions (paper §2.3).
//
// gpref(G, i, p): Average Preference or Least-Misery over the members'
//                 affinity-aware preferences pref(u, i, G, p).
// dis(G, i, p):   Average pair-wise disagreement or disagreement variance.
// F(G, i, p) = w1·gpref + w2·(1 − dis),  w1 + w2 = 1.
//
// All inputs are on the normalized [0, 1] preference scale, so F ∈ [0, 1].
// Every function also propagates score intervals; the interval versions are
// sound (exact ∈ [lb, ub]) which is what GRECA's early termination requires.
#ifndef GRECA_CONSENSUS_CONSENSUS_H_
#define GRECA_CONSENSUS_CONSENSUS_H_

#include <span>
#include <string>

#include "topk/interval.h"

namespace greca {

enum class GroupAggregator {
  kAverage,      // AP
  kLeastMisery,  // MO
};

enum class DisagreementKind {
  kNone,
  kPairwise,  // average |pref_u − pref_v| over member pairs
  kVariance,  // population variance of member preferences
};

struct ConsensusSpec {
  GroupAggregator aggregator = GroupAggregator::kAverage;
  DisagreementKind disagreement = DisagreementKind::kNone;
  double w1 = 1.0;  ///< weight of gpref
  double w2 = 0.0;  ///< weight of (1 − dis); w1 + w2 must equal 1
  /// Pairwise disagreement is measured on the original star scale: the
  /// paper's walk-through computes scores on raw ratings ("by ignoring
  /// normalization", §3.2), so a one-star prediction gap counts as 1.0 of
  /// disagreement rather than 0.2. With preferences normalized to [0, 1]
  /// this means dis = scale·|Δapref|; the 1..5 star scale gives 4... the
  /// conventional value 5 maps the full preference range onto [0, 5].
  double disagreement_scale = 5.0;

  /// AP — average of member preferences.
  static ConsensusSpec AveragePreference() { return {}; }
  /// MO — least misery (minimum member preference).
  static ConsensusSpec LeastMisery() {
    return {.aggregator = GroupAggregator::kLeastMisery};
  }
  /// PD — average preference combined with pair-wise disagreement.
  /// The paper's PD V1 uses w1 = 0.8, PD V2 uses w1 = 0.2 (§4.2.5).
  static ConsensusSpec PairwiseDisagreement(double w1_weight = 0.8) {
    return {.aggregator = GroupAggregator::kAverage,
            .disagreement = DisagreementKind::kPairwise,
            .w1 = w1_weight,
            .w2 = 1.0 - w1_weight};
  }
  /// Variance-based disagreement variant.
  static ConsensusSpec VarianceDisagreement(double w1_weight = 0.8) {
    return {.aggregator = GroupAggregator::kAverage,
            .disagreement = DisagreementKind::kVariance,
            .w1 = w1_weight,
            .w2 = 1.0 - w1_weight};
  }

  std::string Name() const;

  friend bool operator==(const ConsensusSpec&, const ConsensusSpec&) = default;
};

/// Per-member consensus weights (influence-aware aggregation). `member`
/// holds one weight per group member, normalized to sum 1; `pair` holds one
/// weight per local pair (LocalPairIndex order), normalized to sum 1, used
/// for pairwise disagreement. Both spans EMPTY (the default) means uniform
/// weighting: every function below then takes its uniform branch, which is
/// bit-identical to the historical unweighted code.
struct ConsensusWeights {
  std::span<const double> member;
  std::span<const double> pair;

  bool uniform() const { return member.empty(); }
};

/// gpref over exact member preferences. `prefs` must be non-empty. Weighted:
/// Σ w_u·pref_u for kAverage (weights sum to 1); least misery ignores
/// weights (the minimum is the minimum for any positive weighting).
double GroupPreferenceScore(GroupAggregator aggregator,
                            std::span<const double> prefs,
                            const ConsensusWeights& weights = {});

/// dis over exact member preferences; 0 for kNone or singleton groups.
/// Weighted: pairwise uses the per-pair weights (Σ pw_q·|Δpref_q|); variance
/// uses the weighted mean and weighted second moment.
double DisagreementScore(DisagreementKind kind, std::span<const double> prefs,
                         const ConsensusWeights& weights = {});

/// F(G, i, p) = w1·gpref + w2·(1 − dis).
double ConsensusScore(const ConsensusSpec& spec, std::span<const double> prefs,
                      const ConsensusWeights& weights = {});

/// Interval versions (sound bound propagation). Weighted intervals stay
/// sound: the weighted average of intervals is a convex combination
/// (weights >= 0, sum 1).
Interval GroupPreferenceInterval(GroupAggregator aggregator,
                                 std::span<const Interval> prefs,
                                 const ConsensusWeights& weights = {});
/// Variance: exact when every member interval is exact; otherwise
/// [0, (R/2)²] over the envelope of range R, which bounds the weighted
/// variance too (Bhatia–Davis: σ²_w <= (M−μ_w)(μ_w−m) <= (R/2)² for any
/// convex weights).
Interval DisagreementInterval(DisagreementKind kind,
                              std::span<const Interval> prefs,
                              const ConsensusWeights& weights = {});
Interval ConsensusInterval(const ConsensusSpec& spec,
                           std::span<const Interval> prefs,
                           const ConsensusWeights& weights = {});

/// List-decomposable pairwise disagreement (Lemma 1). The paper's index
/// splits group disagreement into one "pair-wise disagreement list" per
/// member pair, each storing the *agreement* ag_q(i) = 1 − |apref_u(i) −
/// apref_v(i)| so that every list is descending-is-better. Since the lists
/// are built per ad-hoc group anyway, a problem stores them aggregated: ONE
/// group-agreement list whose entry is the (pair-weighted) mean over pairs,
/// ag(i) = 1 − dis(G, i). The scores are identical and the bounds tighter.
///
///   F(G, i, p) = w1·gpref(prefs) + w2·ag(i)
///
/// `agreement` is the group-list value (already weighted on influence
/// queries, see GroupProblem::agreement_list()); `weights` apply to gpref
/// only. The score takes spec.disagreement == kPairwise; with agreement = 1
/// it is, for every kind, F's upper bound under dis >= 0 (TA's threshold).
/// The interval requires kPairwise.
///
/// Monotonicity: AP, MO and the list-decomposed PD are monotone in their
/// list scores, which is what the threshold and GRECA's Theorem 1 shortcut
/// ("an item was pruned, so the threshold is met") rely on. Variance
/// disagreement is not monotone in member preferences: TA and GRECA bound an
/// unseen item's VD score with dis >= 0, and GRECA's buffer condition checks
/// the threshold explicitly under VD.
double ConsensusScoreWithAgreement(const ConsensusSpec& spec,
                                   std::span<const double> prefs,
                                   double agreement,
                                   const ConsensusWeights& weights = {});
Interval ConsensusIntervalWithAgreement(const ConsensusSpec& spec,
                                        std::span<const Interval> prefs,
                                        Interval agreement,
                                        const ConsensusWeights& weights = {});

/// ag = 1 − scale·|a − b| for apref values a, b on the [0, 1] scale
/// (see ConsensusSpec::disagreement_scale). In [1 − scale, 1].
double PairAgreement(double apref_a, double apref_b, double scale);

}  // namespace greca

#endif  // GRECA_CONSENSUS_CONSENSUS_H_
