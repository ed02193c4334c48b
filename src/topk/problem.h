// The group top-k scoring problem instance shared by every algorithm
// (Naive, TA, GRECA).
//
// A problem bundles, for one ad-hoc group G and one evaluation period p:
//  * one absolute-preference list PL_u per member (scores in [0, 1]),
//  * one static affinity list over G's pairs (group-normalized, [0, 1]),
//  * one periodic affinity list per period p' ≼ p (normalized, [0, 1]),
//  * the temporal affinity combiner (discrete/continuous/ablations), and
//  * the consensus function F.
//
// The affinity-aware member preference (paper §2.2) is
//   pref(u,i,G,p) = (apref(u,i) + rpref(u,i,G,p)) / 2,
//   rpref(u,i,G,p) = Σ_{u'≠u} aff(u,u',p)·apref(u',i) / (|G|−1),
// the /2 and /(|G|−1) normalizations keep pref in [0, 1] (the paper computes
// un-normalized sums in its walk-through "by ignoring normalization", §3.2,
// but normalizes in the deployed system, §4.1.2).
//
// Storage model: algorithms consume every list through non-owning ListViews,
// and a problem has exactly one constructor, over views. Serving
// (core/problem_assembly.h) slices the preference views from the shared
// PreferenceIndex and keeps the small per-query affinity lists in a reusable
// ProblemArena, so steady-state assembly performs no allocation and no
// preference-list sort. Callers that hold their own SortedLists (tests, the
// paper-figure benches) adapt them with ListView(list) and keep them alive
// with PinLifetime. Pairwise-disagreement problems additionally carry one
// aggregated group-agreement list, which the constructor builds from the
// problem's own preference views into the arena.
//
// An assembled problem is read-only: every list it serves exists before a
// solver runs (paper §3.1), so any number of solvers may read one problem
// through const& at the same time, each on its own QueryWorkspace.
#ifndef GRECA_TOPK_PROBLEM_H_
#define GRECA_TOPK_PROBLEM_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "affinity/temporal_model.h"
#include "consensus/consensus.h"
#include "topk/list_view.h"
#include "topk/sorted_list.h"

namespace greca {

// Owner layers referenced (by pointer only) from the assembly descriptors
// below; topk never reads through them.
class PreferenceIndex;
class RatingsOverlay;

/// Where one group member's serving rows live — the unit of the sharded
/// scatter/gather assembly (core/problem_assembly.h): the preference index
/// holding the member's sorted row (`row` is the row id WITHIN that index —
/// a shard-local id on the sharded path) and the ratings overlay holding the
/// member's rated items (`ratings_user` is the id within that overlay). On
/// the single-index path every member shares one index/overlay and both ids
/// equal the member's user id.
struct MemberSlice {
  const PreferenceIndex* index = nullptr;
  UserId row = 0;
  const RatingsOverlay* ratings = nullptr;
  UserId ratings_user = 0;
  /// Raw (un-normalized) consensus weight of this member, stamped by the
  /// facade's scatter step (StampMemberWeights) when the query asks for
  /// influence weighting; 1.0 — uniform — otherwise. Assembly normalizes the
  /// group's raw weights to sum 1 before any solver sees them.
  double weight = 1.0;
};

/// Reusable backing store for one in-flight query's problem: the group's
/// tombstone bitmap, the assembled preference views, the materialized
/// affinity lists and the storage the problem builds its agreement list in.
/// One arena per worker amortizes every per-query buffer across a batch; an
/// arena must back at most one live GroupProblem at a time (rebuilding it
/// invalidates the previous problem's views).
struct ProblemArena {
  /// The group's §2.4 tombstone bitmap, 1 bit per candidate-pool key (set =
  /// excluded, a group-rated item), which the preference views alias.
  /// Rebuilt per query; the vector only grows.
  std::vector<std::uint64_t> tombstones;
  std::vector<ListView> preference_views;
  SortedList static_list;
  /// One periodic list per period 0..p, rebuilt in place per query (the
  /// vector only grows, so a reused arena reallocates nothing), plus the
  /// problem's views of the first p + 1 of them.
  std::vector<SortedList> period_lists;
  std::vector<ListView> period_views;
  /// The population averages AvgAffP(p') of periods 0..p (empty for models
  /// that read no periodic lists).
  std::vector<double> period_averages;
  /// The aggregated group-agreement list of the problem this arena backs
  /// (GroupProblem::agreement_list()).
  SortedList agreement_list;
  /// One member score per key, scratch of the agreement-list build.
  std::vector<double> agreement_scores;
  /// Unsorted-entry scratch shared by the list materializers.
  std::vector<ListEntry> entry_scratch;
  /// Per-member slice descriptors (scatter/gather assembly scratch).
  std::vector<MemberSlice> member_slices;
  /// Normalized consensus weights (member sums to 1; pair = normalized
  /// products, LocalPairIndex order). Empty on uniform-weight queries — the
  /// problem then carries empty spans and every scorer takes the historical
  /// bit-identical path.
  std::vector<double> member_weights;
  std::vector<double> pair_weights;
};

class GroupProblem {
 public:
  /// `preference_views` has one view per member keyed by candidate item (key
  /// space [0, num_items), `num_candidates` of them live, i.e. not
  /// tombstoned); `static_view` and each of `period_views` are keyed by
  /// local pair index (see LocalPairIndex), with one period view per
  /// combiner period. All views (and the spans' backing vectors) point into
  /// external storage that must outlive the problem (or be pinned on it, see
  /// PinLifetime).
  ///
  /// `weights` are the normalized consensus weights: `member` one weight
  /// per member summing to 1, `pair` one weight per local pair summing to 1
  /// (empty only for singleton groups); empty spans = uniform. Their backing
  /// storage must outlive the problem (the assembly arena).
  ///
  /// `arena` is where the constructor builds the aggregated group-agreement
  /// list (pairwise consensus over >= 2 members); it must outlive the
  /// problem and back no other live problem. When `backing` is non-null the
  /// problem owns it, and `arena` must be *backing (the facade's
  /// workspace-less path).
  GroupProblem(std::size_t num_items, std::size_t num_candidates,
               std::span<const ListView> preference_views,
               ListView static_view, std::span<const ListView> period_views,
               AffinityCombiner combiner, ConsensusSpec consensus,
               ProblemArena& arena, ConsensusWeights weights = {},
               std::unique_ptr<ProblemArena> backing = nullptr);

  // Views alias external storage: movable, not copyable.
  GroupProblem(GroupProblem&&) = default;
  GroupProblem& operator=(GroupProblem&&) = default;
  GroupProblem(const GroupProblem&) = delete;
  GroupProblem& operator=(const GroupProblem&) = delete;

  /// Shares ownership of external storage the views alias — on the
  /// snapshot-serving path BuildProblem pins the query's Snapshot here, so
  /// the problem's index rows stay valid even after the engine publishes a
  /// newer generation (type-erased: topk stays
  /// independent of the api layer).
  void PinLifetime(std::shared_ptr<const void> keep_alive) {
    pinned_ = std::move(keep_alive);
  }

  std::size_t group_size() const { return preference_views_.size(); }
  /// Key-space bound: candidate keys run in [0, num_items()). Some keys may
  /// be tombstoned; see num_candidates().
  std::size_t num_items() const { return num_items_; }
  /// Number of live candidate keys.
  std::size_t num_candidates() const { return num_candidates_; }
  std::size_t num_pairs() const { return NumUserPairs(group_size()); }
  std::size_t num_periods() const { return period_views_.size(); }

  /// True when `key` is a live candidate (not tombstoned by the group).
  bool IsCandidate(ListKey key) const {
    return !preference_views_[0].IsTombstoned(key);
  }

  std::span<const ListView> preference_lists() const {
    return preference_views_;
  }
  const ListView& static_affinity() const { return static_view_; }
  std::span<const ListView> period_affinity() const { return period_views_; }

  /// True when F reads the aggregated group-agreement list: pairwise
  /// disagreement over >= 2 members (Lemma 1, consensus/consensus.h).
  bool uses_agreement_list() const { return uses_agreement_; }
  /// The aggregated group-agreement list: one entry per live candidate,
  /// scored the mean over member pairs of PairAgreement(apref_a, apref_b,
  /// disagreement_scale) = 1 − dis(G, i), or the pair-weighted mean when
  /// the problem carries consensus weights. Requires uses_agreement_list().
  const ListView& agreement_list() const {
    assert(uses_agreement_);
    return agreement_view_;
  }
  /// Both equal uses_agreement_list(): the list is built at assembly and
  /// never deferred. Kept for perfbench's traced agreement counters.
  bool agreement_deferred() const { return uses_agreement_; }
  bool agreement_materialized() const { return uses_agreement_; }

  const AffinityCombiner& combiner() const { return combiner_; }
  const ConsensusSpec& consensus() const { return consensus_; }

  /// Per-member consensus weights of this problem (empty spans = uniform —
  /// the default). Solvers pass this straight into the consensus functions,
  /// whose uniform branch is the exact historical code, so weighting flows
  /// through every solver without per-solver code.
  const ConsensusWeights& consensus_weights() const { return weights_; }
  bool weighted() const { return !weights_.uniform(); }

  /// Total live entries across all input lists — the exhaustive-scan cost
  /// that normalizes the %SA metric.
  std::size_t TotalEntries() const;

  /// Exact temporal affinity of local pair `q` (uncounted accesses).
  double ExactPairAffinity(std::size_t q) const;

  /// All pair affinities, local pair order.
  std::vector<double> ExactPairAffinities() const;

  /// Member preferences pref(u, i) from exact components.
  /// `apref[u]` is member u's absolute preference for the item; `pair_aff[q]`
  /// the temporal affinity of local pair q. `out` must have group_size()
  /// entries.
  void MemberPreferences(std::span<const double> apref,
                         std::span<const double> pair_aff,
                         std::span<double> out) const;

  /// Expands `pair_aff` (local pair order) into a dense g×g zero-diagonal
  /// weight matrix for MemberPreferencesDense. `w` must have group_size()²
  /// entries. Exhaustive scorers expand once per problem and drop the
  /// per-candidate pair indexing from the scoring loop.
  void ExpandPairWeights(std::span<const double> pair_aff,
                         std::span<double> w) const;

  /// MemberPreferences against a pre-expanded weight matrix — bit-identical
  /// to the packed form (see preference_model.h).
  void MemberPreferencesDense(std::span<const double> apref,
                              std::span<const double> w,
                              std::span<double> out) const;

  /// Exact consensus score of candidate item `key` (uncounted accesses).
  double ExactScore(ListKey key) const;

  /// Local pair index of members (a, b), a < b.
  std::size_t PairIndex(std::size_t a, std::size_t b) const;

 private:
  void BuildAgreementList();

  std::size_t num_items_;
  std::size_t num_candidates_;
  AffinityCombiner combiner_;
  ConsensusSpec consensus_;
  ConsensusWeights weights_;  // empty spans = uniform
  bool uses_agreement_;

  std::unique_ptr<ProblemArena> owned_arena_;  // null unless `backing`
  ProblemArena* arena_;
  std::shared_ptr<const void> pinned_;  // snapshot keep-alive (may be null)

  // What the algorithms consume; spans point into external storage.
  std::span<const ListView> preference_views_;
  ListView static_view_;
  std::span<const ListView> period_views_;
  ListView agreement_view_;  // empty unless uses_agreement_
};

}  // namespace greca

#endif  // GRECA_TOPK_PROBLEM_H_
