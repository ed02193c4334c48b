#include "topk/naive.h"

#include <algorithm>
#include <span>
#include <vector>

namespace greca {

TopKResult NaiveTopK(const GroupProblem& problem, std::size_t k) {
  TopKResult result;
  result.total_entries = problem.TotalEntries();

  // The naive algorithm scans every live entry of every list end to end.
  const auto scan = [&result](const ListView& list) {
    std::size_t cursor = 0;
    while (list.SkipToLive(cursor)) {
      list.ReadSequential(cursor, result.accesses);
    }
  };
  const std::size_t g = problem.group_size();
  for (const ListView& list : problem.preference_lists()) scan(list);
  scan(problem.static_affinity());
  for (const ListView& list : problem.period_affinity()) scan(list);
  if (problem.uses_agreement_list()) scan(problem.agreement_list());

  // Score every candidate item exactly. The pair affinities are problem
  // constants, so expand them into a dense weight matrix once and score each
  // candidate with the branchless mat-vec (bit-identical to the packed form).
  const std::vector<double> pair_aff = problem.ExactPairAffinities();
  std::vector<double> pair_weights(g * g);
  problem.ExpandPairWeights(pair_aff, pair_weights);
  const std::span<const ListView> preference_lists =
      problem.preference_lists();
  const ListView* agreement =
      problem.uses_agreement_list() ? &problem.agreement_list() : nullptr;
  std::vector<double> apref(g);
  std::vector<double> prefs(g);
  std::vector<ListEntry> scored;
  scored.reserve(problem.num_candidates());
  for (ListKey key = 0; key < problem.num_items(); ++key) {
    if (!problem.IsCandidate(key)) continue;
    for (std::size_t u = 0; u < g; ++u) {
      apref[u] = preference_lists[u].ScoreOfKey(key);
    }
    problem.MemberPreferencesDense(apref, pair_weights, prefs);
    const double score =
        agreement != nullptr
            ? ConsensusScoreWithAgreement(problem.consensus(), prefs,
                                          agreement->ScoreOfKey(key),
                                          problem.consensus_weights())
            : ConsensusScore(problem.consensus(), prefs,
                             problem.consensus_weights());
    scored.push_back({key, score});
  }
  std::sort(scored.begin(), scored.end(),
            [](const ListEntry& a, const ListEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  if (scored.size() > k) scored.resize(k);
  result.items = std::move(scored);
  result.early_terminated = false;
  return result;
}

}  // namespace greca
