#include "solver/submodular_solver.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace greca {

TopKResult SubmodularGreedyTopK(const GroupProblem& problem, std::size_t k,
                                double relevance_weight) {
  assert(relevance_weight >= 0.0 && relevance_weight <= 1.0);
  TopKResult out;
  out.total_entries = problem.TotalEntries();

  // Phase 1 — exhaustive scan, identical accounting to the naive baseline:
  // every live entry of every list is read sequentially once. This is what
  // materializing apref(u, ·) for the coverage term costs on the paper's
  // access model.
  const auto scan = [&out](const ListView& list) {
    std::size_t cursor = 0;
    while (list.SkipToLive(cursor)) {
      list.ReadSequential(cursor, out.accesses);
    }
  };
  for (const ListView& list : problem.preference_lists()) scan(list);
  scan(problem.static_affinity());
  for (const ListView& list : problem.period_affinity()) scan(list);
  if (problem.uses_agreement_list()) scan(problem.agreement_list());

  const std::size_t g = problem.group_size();
  const std::size_t m = problem.num_items();
  const std::span<const ListView> preference_lists =
      problem.preference_lists();
  const ConsensusWeights& weights = problem.consensus_weights();

  // Materialize the candidate set, the apref matrix (coverage input) and
  // each candidate's exact consensus score (relevance input) — the same
  // dense-scoring recipe as the naive scan.
  const std::vector<double> pair_aff = problem.ExactPairAffinities();
  std::vector<double> pair_weights(g * g);
  problem.ExpandPairWeights(pair_aff, pair_weights);
  const ListView* agreement =
      problem.uses_agreement_list() ? &problem.agreement_list() : nullptr;

  std::vector<ListKey> candidates;
  candidates.reserve(problem.num_candidates());
  std::vector<double> apref_matrix;  // candidate-major, g entries each
  apref_matrix.reserve(problem.num_candidates() * g);
  std::vector<double> relevance;
  relevance.reserve(problem.num_candidates());

  std::vector<double> apref(g);
  std::vector<double> prefs(g);
  for (ListKey key = 0; key < m; ++key) {
    if (!problem.IsCandidate(key)) continue;
    for (std::size_t u = 0; u < g; ++u) {
      apref[u] = preference_lists[u].ScoreOfKey(key);
    }
    problem.MemberPreferencesDense(apref, pair_weights, prefs);
    const double rel =
        agreement != nullptr
            ? ConsensusScoreWithAgreement(problem.consensus(), prefs,
                                          agreement->ScoreOfKey(key), weights)
            : ConsensusScore(problem.consensus(), prefs, weights);
    candidates.push_back(key);
    apref_matrix.insert(apref_matrix.end(), apref.begin(), apref.end());
    relevance.push_back(rel);
  }

  // Phase 2 — greedy set construction: k rounds, each re-evaluating every
  // remaining candidate's marginal gain against the current coverage vector.
  // Uniform weights use 1/g so λ = 1 exactly reproduces the consensus
  // ranking and λ = 0 a [0, 1]-scaled coverage objective.
  const double lambda = relevance_weight;
  const double uniform_w = g > 0 ? 1.0 / static_cast<double>(g) : 0.0;
  std::vector<double> coverage(g, 0.0);
  std::vector<bool> picked(candidates.size(), false);
  const std::size_t rounds = std::min(k, candidates.size());
  out.items.reserve(rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    std::ptrdiff_t best = -1;
    double best_gain = 0.0;
    ListKey best_key = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (picked[c]) continue;
      double gain = lambda * relevance[c];
      const double* row = &apref_matrix[c * g];
      for (std::size_t u = 0; u < g; ++u) {
        const double lift = row[u] - coverage[u];
        if (lift > 0.0) {
          const double w = weights.uniform() ? uniform_w : weights.member[u];
          gain += (1.0 - lambda) * w * lift;
        }
      }
      // Deterministic tie-break towards the smaller key, matching every
      // other solver's ordering convention.
      if (best < 0 || gain > best_gain ||
          (gain == best_gain && candidates[c] < best_key)) {
        best = static_cast<std::ptrdiff_t>(c);
        best_gain = gain;
        best_key = candidates[c];
      }
    }
    if (best < 0) break;
    picked[static_cast<std::size_t>(best)] = true;
    const double* row = &apref_matrix[static_cast<std::size_t>(best) * g];
    for (std::size_t u = 0; u < g; ++u) {
      coverage[u] = std::max(coverage[u], row[u]);
    }
    out.items.push_back({best_key, best_gain});
    ++out.rounds;
  }
  out.early_terminated = false;
  return out;
}

}  // namespace greca
