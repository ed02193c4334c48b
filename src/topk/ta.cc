#include "topk/ta.h"

#include <algorithm>
#include <vector>

namespace greca {

TopKResult TaTopK(const GroupProblem& problem, std::size_t k) {
  TopKResult result;
  result.total_entries = problem.TotalEntries();

  const std::size_t g = problem.group_size();
  const std::size_t num_periods = problem.num_periods();
  const auto lists = problem.preference_lists();

  std::vector<bool> scored(problem.num_items(), false);
  std::vector<ListEntry> best;  // maintained sorted descending, size <= k

  // One shared skip pass per list seeds the threshold bound (the first live
  // score) AND leaves the cursor on that entry for round 1, so the dead
  // prefix ahead of it is walked once, not again by the main loop.
  std::vector<std::size_t> cursor(g, 0);
  std::vector<double> cursor_score(g);
  for (std::size_t u = 0; u < g; ++u) {
    cursor_score[u] =
        lists[u].SkipToLive(cursor[u]) ? lists[u].PeekScore(cursor[u]) : 0.0;
  }

  std::vector<double> apref(g);
  std::vector<double> prefs(g);
  std::vector<double> pair_aff(problem.num_pairs());
  std::vector<double> aff_p(num_periods);

  // Exact affinity of one pair, charging one RA per list entry touched.
  const auto fetch_pair_affinity = [&](std::size_t q) {
    const auto key = static_cast<ListKey>(q);
    const double aff_s =
        problem.static_affinity().RandomAccess(key, result.accesses);
    for (std::size_t t = 0; t < num_periods; ++t) {
      aff_p[t] =
          problem.period_affinity()[t].RandomAccess(key, result.accesses);
    }
    return problem.combiner().Combine(aff_s, aff_p);
  };

  const auto score_item = [&](ListKey key, std::size_t seen_in_list) {
    // Random-access the other members' absolute preferences...
    for (std::size_t u = 0; u < g; ++u) {
      if (u == seen_in_list) {
        apref[u] = lists[u].ScoreOfKey(key);
      } else {
        apref[u] = lists[u].RandomAccess(key, result.accesses);
      }
    }
    // ... and, per the paper's TA accounting, every member's affinity
    // entries: each member contributes (g-1)·(T+1) RAs.
    for (std::size_t u = 0; u < g; ++u) {
      for (std::size_t v = 0; v < g; ++v) {
        if (v == u) continue;
        const std::size_t q =
            problem.PairIndex(std::min(u, v), std::max(u, v));
        pair_aff[q] = fetch_pair_affinity(q);
      }
    }
    problem.MemberPreferences(apref, pair_aff, prefs);
    if (problem.uses_agreement_list()) {
      return ConsensusScoreWithAgreement(
          problem.consensus(), prefs,
          problem.agreement_list().RandomAccess(key, result.accesses),
          problem.consensus_weights());
    }
    return ConsensusScore(problem.consensus(), prefs,
                          problem.consensus_weights());
  };

  // The exact pair affinities are a problem constant, hoisted out of the
  // per-round threshold.
  const std::vector<double> exact_aff = problem.ExactPairAffinities();
  const ConsensusSpec& spec = problem.consensus();
  const auto threshold = [&] {
    // Best score an unseen item could have: every member's absolute
    // preference at its cursor, affinities exact (uncounted here — they were
    // already charged while scoring items) and 1 − dis bounded by 1. That
    // bound is the agreement list's maximum under PD, and the only sound one
    // under VD: an unseen item with lower but closer member preferences can
    // have less variance than the cursor scores (VD is not monotone).
    problem.MemberPreferences(cursor_score, exact_aff, prefs);
    return ConsensusScoreWithAgreement(spec, prefs, /*agreement=*/1.0,
                                       problem.consensus_weights());
  };

  // Round-robin over the lists' live entries via the per-list cursors the
  // init pass already positioned (the view layer skips tombstoned entries
  // transparently).
  bool any_read = true;
  while (any_read) {
    any_read = false;
    for (std::size_t u = 0; u < g; ++u) {
      if (!lists[u].SkipToLive(cursor[u])) continue;
      const ListEntry& e = lists[u].ReadSequential(cursor[u], result.accesses);
      any_read = true;
      cursor_score[u] = e.score;
      if (scored[e.id]) continue;
      scored[e.id] = true;
      const double s = score_item(e.id, u);
      const ListEntry entry{e.id, s};
      const auto it = std::lower_bound(
          best.begin(), best.end(), entry,
          [](const ListEntry& a, const ListEntry& b) {
            if (a.score != b.score) return a.score > b.score;
            return a.id < b.id;
          });
      best.insert(it, entry);
      if (best.size() > k) best.pop_back();
    }
    if (!any_read) break;
    ++result.rounds;
    if (best.size() >= k && best.back().score >= threshold()) {
      result.early_terminated = true;
      break;
    }
  }
  result.items = std::move(best);
  return result;
}

}  // namespace greca
