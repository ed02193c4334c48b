// SAGA-style submodular-greedy group top-k (PAPERS.md: "SAGA: A Submodular
// Greedy Algorithm For Group Recommendation"), served under solver id
// "submodular".
//
// Where GRECA/TA/Naive rank items independently by consensus score F, this
// solver selects a SET: greedy maximization of the monotone submodular
// objective
//
//   Obj(S) = λ·Σ_{i∈S} rel(i)  +  (1−λ)·Σ_u w_u·cov_u(S),
//   cov_u(S) = max_{i∈S} apref_u(i)       (facility-location coverage),
//
// with rel(i) the exact consensus score and w_u the problem's per-member
// consensus weights (uniform 1/|G| by default). The coverage term rewards a
// list in which EVERY member has at least one item they love, so the greedy
// list trades a little relevance for taste diversity — a genuinely different
// index access pattern (k rounds of marginal-gain re-evaluation over the
// candidate pool) that the quality-vs-speed frontier in bench_batch's
// GRECA_BATCH_ALGO sweep measures against the exact rankers.
//
// Cost model: one exhaustive scan of every list (the same sequential-access
// accounting as the naive baseline — accesses equal naive's) to materialize
// apref and rel, then k greedy rounds of O(candidates·|G|) marginal-gain
// re-evaluation — O(scan + k·C·g) total, no random accesses. The classical
// 1−1/e approximation guarantee of greedy on monotone submodular objectives
// applies.
//
// Reported scores are each item's marginal gain at selection time —
// non-increasing down the list (submodularity), so results stay
// descending-sorted like every other solver; they are NOT consensus scores.
#ifndef GRECA_SOLVER_SUBMODULAR_SOLVER_H_
#define GRECA_SOLVER_SUBMODULAR_SOLVER_H_

#include <cstddef>

#include "topk/problem.h"
#include "topk/result.h"

namespace greca {

/// Greedy top-k set over `problem`'s candidates. `relevance_weight` is
/// λ ∈ [0, 1]: 1 reduces to the exact consensus ranking (same items and
/// order as the naive scan), 0 ranks by pure coverage of member tastes. The
/// served solver uses the default.
TopKResult SubmodularGreedyTopK(const GroupProblem& problem, std::size_t k,
                                double relevance_weight = 0.5);

}  // namespace greca

#endif  // GRECA_SOLVER_SUBMODULAR_SOLVER_H_
