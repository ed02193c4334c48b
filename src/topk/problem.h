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
// Storage model: algorithms consume every list through non-owning ListViews.
// Two assembly paths feed them:
//  * the owning path (tests/benches): vectors of SortedLists are moved into
//    the problem and adapted to views — the original seed composition style;
//  * the zero-copy path (GroupRecommender::BuildProblem): preference views
//    slice the shared PreferenceIndex directly and the small per-query
//    affinity/agreement lists live in a reusable ProblemArena, so steady-state
//    assembly performs no allocation and no preference-list sort.
#ifndef GRECA_TOPK_PROBLEM_H_
#define GRECA_TOPK_PROBLEM_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "affinity/temporal_model.h"
#include "consensus/consensus.h"
#include "topk/interval.h"
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
/// tombstone bitmap, the assembled preference views, and the materialized
/// affinity/agreement lists. One arena per worker amortizes every per-query
/// buffer across a batch; an arena must back at most one live GroupProblem
/// at a time (rebuilding it invalidates the previous problem's views).
struct ProblemArena {
  /// Keep-alive for the cached tombstone bitmap (1 bit per candidate-pool
  /// key; set = excluded, group-rated item) the preference views alias
  /// (api/snapshot.h's TombstoneCache; type-erased so topk stays independent
  /// of the api layer).
  std::shared_ptr<const void> tombstone_pin;
  std::vector<ListView> preference_views;
  SortedList static_list;
  /// Periodic lists themselves live in the engine's (group, period) cache;
  /// the arena holds the per-query views plus one shared_ptr pin per
  /// list, so a problem survives the bounded cache evicting its lists.
  std::vector<ListView> period_views;
  std::vector<std::shared_ptr<const SortedList>> period_pins;
  SortedList agreement_list;
  std::vector<ListView> agreement_views;
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
  /// Owning path. `preference_lists` has one list per member keyed by
  /// candidate item (key space [0, num_items)); `static_affinity` and each
  /// `period_affinity` list are keyed by local pair index (see
  /// LocalPairIndex). The number of period lists must equal
  /// combiner.num_periods().
  ///
  /// `agreement_lists` carry the agreement components consumed by the
  /// pairwise-disagreement consensus (Lemma 1's "pair-wise disagreement
  /// lists"): item-keyed lists whose mean equals 1 − dis(G, i). Two layouts
  /// are supported — one list per pair (ag_q(i) = 1 − |Δapref|, local pair
  /// order) or a single pre-aggregated group list (mean over pairs); both
  /// encode the same score and the aggregated form yields tighter bounds.
  /// Must be non-empty exactly when consensus.disagreement == kPairwise and
  /// the group has >= 2 members.
  GroupProblem(std::size_t num_items,
               std::vector<SortedList> preference_lists,
               SortedList static_affinity,
               std::vector<SortedList> period_affinity,
               AffinityCombiner combiner, ConsensusSpec consensus,
               std::vector<SortedList> agreement_lists = {});

  /// Zero-copy path. All views (and the spans' backing vectors) point into
  /// external storage — the shared PreferenceIndex plus a ProblemArena. When
  /// `backing` is non-null the problem owns that arena (the facade's
  /// workspace-less path); otherwise the arena must outlive the problem.
  /// `num_candidates` is the number of live (non-tombstoned) keys.
  GroupProblem(std::size_t num_items, std::size_t num_candidates,
               std::span<const ListView> preference_views,
               ListView static_view, std::span<const ListView> period_views,
               AffinityCombiner combiner, ConsensusSpec consensus,
               std::span<const ListView> agreement_views = {},
               std::unique_ptr<ProblemArena> backing = nullptr);

  // Views alias internal storage: movable, not copyable.
  GroupProblem(GroupProblem&&) = default;
  GroupProblem& operator=(GroupProblem&&) = default;
  GroupProblem(const GroupProblem&) = delete;
  GroupProblem& operator=(const GroupProblem&) = delete;

  /// Shares ownership of external storage the views alias — on the
  /// snapshot-serving path BuildProblem pins the query's Snapshot here, so
  /// the problem's index rows and cached period lists stay valid even after
  /// the engine publishes a newer generation (type-erased: topk stays
  /// independent of the api layer).
  void PinLifetime(std::shared_ptr<const void> keep_alive) {
    pinned_ = std::move(keep_alive);
  }

  std::size_t group_size() const { return preference_views_.size(); }
  /// Key-space bound: candidate keys run in [0, num_items()). On the
  /// zero-copy path this is the candidate-pool prefix size and some keys may
  /// be tombstoned; see num_candidates().
  std::size_t num_items() const { return num_items_; }
  /// Number of live candidate keys (== num_items() on the owning path).
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
  /// The agreement views the pairwise-disagreement consensus walks. On the
  /// deferred path (DeferAgreementLists) the FIRST call pays the O(C log C)
  /// aggregated-list build; algorithms that never walk the lists (threshold
  /// math sizes its buffers via num_agreement_lists()) never pay it.
  /// Materialization mutates cached state, so it follows the problem's
  /// existing single-consumer contract (one algorithm at a time).
  std::span<const ListView> agreement_lists() const {
    if (agreement_builder_) {
      agreement_views_ = agreement_builder_();
      agreement_builder_ = nullptr;
    }
    return agreement_views_;
  }
  /// How many agreement lists agreement_lists() would yield — WITHOUT
  /// forcing a deferred materialization (the deferred path always builds
  /// the single aggregated group list).
  std::size_t num_agreement_lists() const {
    return agreement_builder_ ? 1 : agreement_views_.size();
  }
  bool uses_agreement_lists() const {
    return agreement_builder_ != nullptr || !agreement_views_.empty();
  }

  /// Installs a lazy agreement-list builder instead of eagerly built views:
  /// `build` materializes the single aggregated group-agreement list (into
  /// storage that outlives this problem) on the first agreement_lists()
  /// call. `live_entries` must equal the built list's live size (the
  /// problem's candidate count) so TotalEntries() stays exact without
  /// materializing. Only valid on pairwise-consensus problems constructed
  /// with no agreement views.
  void DeferAgreementLists(std::function<std::span<const ListView>()> build,
                           std::size_t live_entries) {
    assert(consensus_.disagreement == DisagreementKind::kPairwise &&
           group_size() >= 2);
    assert(agreement_views_.empty());
    agreement_builder_ = std::move(build);
    deferred_agreement_entries_ = live_entries;
    agreement_deferred_ = true;
  }
  /// True when this problem was assembled with a deferred agreement list.
  bool agreement_deferred() const { return agreement_deferred_; }
  /// True once agreement views exist (eagerly built, or deferred-and-walked).
  bool agreement_materialized() const { return !agreement_views_.empty(); }

  const AffinityCombiner& combiner() const { return combiner_; }
  const ConsensusSpec& consensus() const { return consensus_; }

  /// Per-member consensus weights of this problem (empty spans = uniform —
  /// the default). Solvers pass this straight into the weighted consensus
  /// overloads, which delegate to the exact historical code when uniform, so
  /// weighting flows through every solver without per-solver code.
  const ConsensusWeights& consensus_weights() const { return weights_; }
  bool weighted() const { return !weights_.uniform(); }

  /// Installs normalized consensus weights: `member` one weight per member
  /// summing to 1, `pair` one weight per local pair summing to 1 (empty only
  /// for singleton groups). Backing storage must outlive the problem (the
  /// assembly arena, or a caller-owned vector on the owning path). Must be
  /// set before any solver reads the problem and before a deferred
  /// agreement list materializes.
  void SetConsensusWeights(std::span<const double> member,
                           std::span<const double> pair) {
    assert(member.size() == group_size());
    assert(pair.size() == num_pairs());
    weights_.member = member;
    weights_.pair = pair;
  }

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

  /// Interval version used for GRECA's bounds.
  void MemberPreferenceIntervals(std::span<const Interval> apref,
                                 std::span<const Interval> pair_aff,
                                 std::span<Interval> out) const;

  /// Exact consensus score of candidate item `key` (uncounted accesses).
  double ExactScore(ListKey key) const;

  /// Local pair index of members (a, b), a < b.
  std::size_t PairIndex(std::size_t a, std::size_t b) const;

 private:
  std::size_t num_items_;
  std::size_t num_candidates_;
  AffinityCombiner combiner_;
  ConsensusSpec consensus_;
  ConsensusWeights weights_;  // empty spans = uniform

  // Owning backing for the adapter path (empty on the zero-copy path); views
  // point into these lists' heap buffers, which move with the problem.
  std::vector<SortedList> owned_preference_;
  SortedList owned_static_;
  std::vector<SortedList> owned_period_;
  std::vector<SortedList> owned_agreement_;
  std::vector<ListView> view_storage_;
  std::unique_ptr<ProblemArena> owned_arena_;
  std::shared_ptr<const void> pinned_;  // snapshot keep-alive (may be null)

  // What the algorithms consume. Spans point into view_storage_ or into the
  // (owned or external) arena.
  std::span<const ListView> preference_views_;
  ListView static_view_;
  std::span<const ListView> period_views_;
  // mutable: the deferred agreement build is a cached const-path
  // materialization (single-consumer contract, see agreement_lists()).
  mutable std::span<const ListView> agreement_views_;
  mutable std::function<std::span<const ListView>()> agreement_builder_;
  std::size_t deferred_agreement_entries_ = 0;
  bool agreement_deferred_ = false;
};

/// Builds the per-pair agreement lists from the members' preference lists:
/// for pair (a, b), entry score = 1 − |apref_a(i) − apref_b(i)|, over every
/// non-tombstoned item key.
std::vector<SortedList> BuildAgreementLists(
    std::span<const ListView> preference_lists, std::size_t num_items,
    double disagreement_scale);

/// Builds the single aggregated group-agreement list: entry score =
/// mean over pairs of (1 − |Δapref|) = 1 − dis(G, i).
SortedList BuildGroupAgreementList(std::span<const ListView> preference_lists,
                                   std::size_t num_items,
                                   double disagreement_scale);

/// Hot-path variant: rebuilds `out` in place (capacities reused) using
/// `scratch` for the unsorted entries. `pair_weights`, when non-empty, holds
/// one normalized weight per local pair and the aggregated entry becomes the
/// WEIGHTED mean Σ pw_q·ag_q(i); empty = uniform mean (the historical
/// bit-identical path).
void BuildGroupAgreementListInto(std::span<const ListView> preference_lists,
                                 std::size_t num_items,
                                 double disagreement_scale,
                                 std::vector<ListEntry>& scratch,
                                 SortedList& out,
                                 std::span<const double> pair_weights = {});

/// Owning-list conveniences for tests/benches that hold SortedLists.
std::vector<SortedList> BuildAgreementLists(
    const std::vector<SortedList>& preference_lists, std::size_t num_items,
    double disagreement_scale);
SortedList BuildGroupAgreementList(
    const std::vector<SortedList>& preference_lists, std::size_t num_items,
    double disagreement_scale);

}  // namespace greca

#endif  // GRECA_TOPK_PROBLEM_H_
