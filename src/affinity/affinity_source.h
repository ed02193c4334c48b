// Pluggable affinity backend — the one contract through which the core
// (GroupRecommender::BuildProblem, ModelAffinity) consumes affinities.
//
// The paper's deployment computes static affinity from common Facebook
// friends and periodic affinity from common page-like categories (§2.1,
// §4.1.2); StudyAffinitySource owns exactly those tables, built once from
// the study by StudyAffinitySource::FromStudy; ConstantAffinitySource serves
// populations with no social signal (the sharded scale harness). Equation
// 1's drift needs no table of its own: AffinityCombiner::MeanDrift takes it
// from the period values assembly already holds.
//
// Contract invariants every implementation must keep:
//  * Periodic() and PeriodAverage() are on the normalized [0, 1] scale;
//  * Static() is raw (>= 0) and MaxStatic() bounds it over the population —
//    group- and population-level normalizations both derive from these;
//  * all values are monotone inputs to the temporal combiner, which is what
//    keeps the consensus bounds sound (Lemma 1);
//  * a source is fixed for its engine's lifetime. The paper builds its
//    affinities once from the study, so GroupRecommender and ShardedEngine
//    each bind one source at construction and every rating generation
//    reads it;
//  * implementations are immutable and safe for concurrent const reads:
//    problem assembly materializes each query's lists through them on any
//    batch worker.
#ifndef GRECA_AFFINITY_AFFINITY_SOURCE_H_
#define GRECA_AFFINITY_AFFINITY_SOURCE_H_

#include <memory>
#include <span>
#include <vector>

#include "affinity/periodic_affinity.h"
#include "affinity/static_affinity.h"
#include "common/types.h"
#include "topk/sorted_list.h"

namespace greca {

struct FacebookStudy;

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

  /// Raw per-member consensus weights for influence weighting
  /// (QuerySpec::weighting == kInfluence): fills `out` — one slot per group
  /// member, pre-sized by the caller — with each member's weight on any
  /// non-negative scale; assembly normalizes per group. The default is
  /// uniform 1.0, so sources with no social signal weight everyone equally
  /// and influence queries degrade gracefully to uniform scoring.
  virtual void MaterializeMemberWeightsInto(std::span<const UserId> group,
                                            std::span<double> out) const;
};

/// The study-backed source. It owns its tables: common-friend counts
/// (static), common page-like category counts (periodic) and one raw
/// influence weight per participant.
class StudyAffinitySource final : public AffinitySource {
 public:
  /// The paper's setup (§2.1): common-friend counts over the study's
  /// friendship graph, page-like periodic affinity over its timeline, and
  /// PropagationCentrality over the graph as the influence weights. Both
  /// engines build their source here.
  static std::shared_ptr<const StudyAffinitySource> FromStudy(
      const FacebookStudy& study);

  /// Takes the tables as given. `influence` holds one raw weight per user for
  /// MaterializeMemberWeightsInto; users past its end (all users, when it
  /// is empty) weigh 1.0.
  StudyAffinitySource(PairTable static_counts, PeriodicAffinity periodic,
                      std::vector<double> influence = {});

  std::size_t num_users() const override { return periodic_.num_users(); }
  std::size_t num_periods() const override { return periodic_.num_periods(); }
  double Static(UserId u, UserId v) const override {
    return static_.Get(u, v);
  }
  double MaxStatic() const override { return static_.Max(); }
  double Periodic(UserId u, UserId v, PeriodId p) const override {
    return periodic_.Normalized(u, v, p);
  }
  double PeriodAverage(PeriodId p) const override {
    return periodic_.PopulationAverageNormalized(p);
  }
  void MaterializeMemberWeightsInto(std::span<const UserId> group,
                                    std::span<double> out) const override;

  const PairTable& static_counts() const { return static_; }
  const PeriodicAffinity& periodic() const { return periodic_; }

 private:
  PairTable static_;  // raw common-friend counts
  PeriodicAffinity periodic_;
  std::vector<double> influence_;  // per-user, raw
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
