// Pluggable affinity backend — the one contract through which the core
// (GroupRecommender::BuildProblem, ModelAffinity) consumes affinities.
//
// The paper's deployment computes static affinity from common Facebook
// friends and periodic affinity from common page-like categories (§2.1,
// §4.1.2); StudyAffinitySource wraps exactly those precomputed tables plus
// the incremental drift index of Equation 1; ConstantAffinitySource serves
// populations with no social signal (the sharded scale harness).
//
// Contract invariants every implementation must keep:
//  * Periodic() and PeriodAverage() are on the normalized [0, 1] scale;
//  * Static() is raw (>= 0) and MaxStatic() bounds it over the population —
//    group- and population-level normalizations both derive from these;
//  * all values are monotone inputs to the temporal combiner, which is what
//    keeps the consensus bounds sound (Lemma 1);
//  * a source is fixed for its engine's lifetime. The paper builds its
//    affinities once from the study, so GroupRecommender and ShardedEngine
//    each bind one source at construction, next to an engine-owned
//    (group, period) list cache (PeriodListCache, api/snapshot.h) that
//    serves every rating generation; no cached list is ever invalidated;
//  * implementations are immutable and safe for concurrent const reads:
//    MaterializePeriodListInto is the cache's fill hook, which may run on
//    any batch worker.
#ifndef GRECA_AFFINITY_AFFINITY_SOURCE_H_
#define GRECA_AFFINITY_AFFINITY_SOURCE_H_

#include <memory>
#include <span>
#include <vector>

#include "affinity/dynamic_affinity.h"
#include "affinity/periodic_affinity.h"
#include "affinity/static_affinity.h"
#include "common/types.h"
#include "topk/sorted_list.h"

namespace greca {

class AffinitySource {
 public:
  virtual ~AffinitySource() = default;

  virtual std::size_t num_users() const = 0;
  /// Number of closed periods with periodic affinities available.
  virtual std::size_t num_periods() const = 0;

  /// Raw static affinity affS(u, v) on the population scale.
  virtual double Static(UserId u, UserId v) const = 0;
  /// Largest static pair value over the population (0 for empty tables).
  virtual double MaxStatic() const = 0;
  /// Periodic affinity affP(u, v, p), normalized to [0, 1] within period p.
  virtual double Periodic(UserId u, UserId v, PeriodId p) const = 0;
  /// Population average of the normalized periodic affinity in period p.
  virtual double PeriodAverage(PeriodId p) const = 0;

  /// Cumulative drift Σ_{p' ≤ p} (affP(u, v, p') − AvgAffP(p')) — the
  /// numerator of Equation 1. The default recomputes from Periodic() and
  /// PeriodAverage() in O(p); index-backed sources override with O(1).
  virtual double CumulativeDrift(UserId u, UserId v, PeriodId p) const;

  /// Static affinity normalized by the population max, in [0, 1].
  double NormalizedStatic(UserId u, UserId v) const;

  // --- List materialization (what BuildProblem consumes, paper §3.1) ---
  //
  // The *Into variants are the hot path: they rebuild `out` in place through
  // SortedList::AssignUnsorted, using `scratch` for the unsorted pair
  // entries, so a reused ProblemArena makes steady-state materialization
  // allocation-free. The by-value overloads are conveniences wrapping them.

  /// Static affinity list over the group's pairs, keyed by local pair index
  /// (LocalPairIndex order) and normalized within the group by the maximum
  /// pair value (§4.1.2; all zeros when the max is 0).
  virtual void MaterializeStaticListInto(std::span<const UserId> group,
                                         std::vector<ListEntry>& scratch,
                                         SortedList& out) const;

  /// Periodic affinity list for period p over the group's pairs, local pair
  /// key order, normalized scale.
  virtual void MaterializePeriodListInto(std::span<const UserId> group,
                                         PeriodId p,
                                         std::vector<ListEntry>& scratch,
                                         SortedList& out) const;

  SortedList MaterializeStaticList(std::span<const UserId> group) const;
  SortedList MaterializePeriodList(std::span<const UserId> group,
                                   PeriodId p) const;

  /// Normalized population averages for periods 0..horizon inclusive.
  virtual std::vector<double> PeriodAverages(PeriodId horizon) const;

  /// Raw per-member consensus weights for influence weighting
  /// (QuerySpec::weighting == kInfluence): fills `out` — one slot per group
  /// member, pre-sized by the caller — with each member's weight on any
  /// non-negative scale; assembly normalizes per group. The default is
  /// uniform 1.0, so sources with no social signal weight everyone equally
  /// and influence queries degrade gracefully to uniform scoring.
  virtual void MaterializeMemberWeightsInto(std::span<const UserId> group,
                                            std::span<double> out) const;
};

/// The study-backed source: common-friend counts (static), common page-like
/// category counts (periodic) and, when given, the incremental drift index
/// (dynamic, O(1) CumulativeDrift). All referenced tables must outlive the
/// source; the source itself is cheap to copy.
class StudyAffinitySource final : public AffinitySource {
 public:
  /// `influence`, when non-null, holds one raw influence weight per study
  /// participant (e.g. PropagationCentrality over the friendship graph) and
  /// backs MaterializeMemberWeightsInto; null keeps the uniform default.
  StudyAffinitySource(
      const PairTable& static_counts, const PeriodicAffinity& periodic,
      const DynamicAffinityIndex* dynamic = nullptr,
      std::shared_ptr<const std::vector<double>> influence = nullptr)
      : static_(&static_counts),
        periodic_(&periodic),
        dynamic_(dynamic),
        influence_(std::move(influence)) {}

  std::size_t num_users() const override { return periodic_->num_users(); }
  std::size_t num_periods() const override { return periodic_->num_periods(); }
  double Static(UserId u, UserId v) const override {
    return static_->Get(u, v);
  }
  double MaxStatic() const override { return static_->Max(); }
  double Periodic(UserId u, UserId v, PeriodId p) const override {
    return periodic_->Normalized(u, v, p);
  }
  double PeriodAverage(PeriodId p) const override {
    return periodic_->PopulationAverageNormalized(p);
  }
  double CumulativeDrift(UserId u, UserId v, PeriodId p) const override;
  void MaterializeMemberWeightsInto(std::span<const UserId> group,
                                    std::span<double> out) const override;

 private:
  const PairTable* static_;
  const PeriodicAffinity* periodic_;
  const DynamicAffinityIndex* dynamic_;  // optional O(1) drift backend
  std::shared_ptr<const std::vector<double>> influence_;  // per-user, raw
};

/// Degenerate source for populations with no social signal — the
/// million-user scale harness (src/shard/, bench/bench_shard.cc), where no
/// study exists and affinity-agnostic models run anyway. Every pair has the
/// same static and periodic affinity, so the period average equals the
/// periodic value and every drift is exactly 0; with the default 0/0 values
/// the affinity terms vanish and group scores are pure preference
/// aggregation.
class ConstantAffinitySource final : public AffinitySource {
 public:
  ConstantAffinitySource(std::size_t num_users, std::size_t num_periods,
                         double static_value = 0.0,
                         double periodic_value = 0.0)
      : num_users_(num_users),
        num_periods_(num_periods),
        static_value_(static_value),
        periodic_value_(periodic_value) {}

  std::size_t num_users() const override { return num_users_; }
  std::size_t num_periods() const override { return num_periods_; }
  double Static(UserId, UserId) const override { return static_value_; }
  double MaxStatic() const override { return static_value_; }
  double Periodic(UserId, UserId, PeriodId) const override {
    return periodic_value_;
  }
  double PeriodAverage(PeriodId) const override { return periodic_value_; }

 private:
  std::size_t num_users_;
  std::size_t num_periods_;
  double static_value_;
  double periodic_value_;
};

}  // namespace greca

#endif  // GRECA_AFFINITY_AFFINITY_SOURCE_H_
