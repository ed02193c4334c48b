// GRECA — Group Recommendation with Temporal Affinities (paper §3, Alg. 1).
//
// An NRA-style instance-optimal top-k algorithm that consumes, via sequential
// accesses only, the group's absolute-preference lists, its static affinity
// list and one periodic affinity list per time period. It maintains a buffer
// of candidate items with lower/upper consensus-score bounds, a global
// threshold bounding every unseen item, and terminates through the paper's
// novel *buffer condition*: once the buffer holds k' > k items where the k-th
// best lower bound dominates the upper bound of the other k'−k items, those
// items are pruned and the remaining k returned (Theorem 1 shows this implies
// the classical threshold condition).
//
// The returned itemset is guaranteed to be a correct top-k set (Lemma 2); the
// order within it is the partial order induced by lower bounds at
// termination.
//
// Stop checks run after every round, as in Algorithm 1, but recompute only
// what that round can have changed:
//  * Pair intervals (static + periodic affinity per member pair) are rebuilt
//    only in rounds that moved the static or a periodic cursor.
//  * For a monotone F (AP, MO, and PD through its agreement list) an item's
//    lower bound reads only lower endpoints: its seen values, 0 for unseen
//    preferences, the agreement floor and the pair lower bounds. A cached
//    lower bound is therefore recomputed only when its item gets a new seen
//    value or a pair lower bound changes; each check recomputes just the
//    upper bounds, which read the moving cursor bounds.
//  * Variance disagreement mixes endpoints and recomputes both bounds.
// Every recomputed endpoint uses the same arithmetic in the same order as a
// full interval evaluation, so bounds, rounds, accesses and the returned
// items are bit-identical to recomputing everything on every check
// (tests/greca_golden_test.cc pins this).
#ifndef GRECA_CORE_GRECA_H_
#define GRECA_CORE_GRECA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topk/interval.h"
#include "topk/problem.h"
#include "topk/result.h"
#include "topk/sorted_list.h"

namespace greca {

/// Termination ablation (paper §3.2 "Stopping Condition"):
///  * kBufferCondition — full GRECA: prune dominated buffer items and stop as
///    soon as exactly k undominated candidates remain.
///  * kThresholdOnly — classical threshold stopping only: may terminate only
///    when the buffer holds exactly k items with the threshold dominated,
///    which in practice means scanning to exhaustion (this is the paper's
///    argument for the buffer condition's necessity).
enum class TerminationPolicy {
  kBufferCondition,
  kThresholdOnly,
};

struct GrecaConfig {
  std::size_t k = 10;
  TerminationPolicy termination = TerminationPolicy::kBufferCondition;
};

/// Execution statistics beyond the common TopKResult fields.
struct GrecaStats {
  std::size_t peak_buffer_size = 0;
  std::size_t pruned_items = 0;
  std::size_t stop_checks = 0;
  /// True when the buffer condition (not the plain threshold) fired.
  bool stopped_by_buffer_condition = false;
  /// Global threshold value at termination.
  double final_threshold = 0.0;
};

/// Reusable buffers of one GRECA run: cursors, seen values, candidate-bound
/// buffers, cached lower bounds and interval scratch. Passing the same
/// workspace to consecutive Greca() calls amortizes the hot-path
/// allocations across a batch of queries (each run re-initializes the
/// contents, never the capacity). A workspace may be reused across problems
/// of any shape but must not be shared by concurrent runs.
struct GrecaWorkspace {
  // Cursors and last-read bounds per list.
  std::vector<std::size_t> pref_pos;
  std::vector<double> pref_bound;
  std::vector<std::size_t> period_pos;
  std::vector<double> period_bound;

  // Seen affinity components.
  std::vector<double> static_val;
  std::vector<std::uint8_t> static_seen;
  std::vector<double> period_val;
  std::vector<std::uint8_t> period_seen;

  // Seen absolute preferences per (item, member), the seen-set (⌈g/64⌉
  // words of member bits per item, so groups of any size) and the candidate
  // buffer.
  std::vector<double> apref_val;
  std::vector<std::uint64_t> apref_seen;
  std::vector<std::uint8_t> item_state;
  std::vector<ListKey> active_items;

  // Seen group-agreement values per item (pairwise-disagreement consensus
  // only).
  std::vector<double> ag_val;
  std::vector<std::uint8_t> ag_seen;

  // Lower-bound epoch each item's cached bound was computed in (0 = stale).
  std::vector<std::uint32_t> lb_epoch;

  // Pair interval endpoints (local pair order) and their dense
  // member×member expansions.
  std::vector<double> pair_lb;
  std::vector<double> pair_ub;
  std::vector<double> pair_lb_dense;
  std::vector<double> pair_ub_dense;

  // Interval and bound scratch.
  std::vector<Interval> aff_p_iv;
  std::vector<double> apref_lb;
  std::vector<double> apref_ub;
  std::vector<double> pref_lb;
  std::vector<double> pref_ub;
  std::vector<Interval> pref_iv;
  std::vector<double> item_lb;
  std::vector<double> item_ub;
  std::vector<double> scratch_lbs;
};

/// Runs GRECA. Every preference list must cover the full candidate key space
/// and every affinity list all group pairs (zero-score entries included).
/// `workspace`, when non-null, provides reusable buffers (see
/// GrecaWorkspace); when null a run-local workspace is used.
TopKResult Greca(const GroupProblem& problem, const GrecaConfig& config,
                 GrecaStats* stats = nullptr,
                 GrecaWorkspace* workspace = nullptr);

}  // namespace greca

#endif  // GRECA_CORE_GRECA_H_
