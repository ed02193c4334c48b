// The built-in solver ids: the paper's GRECA, its two baselines (the naive
// scan and TA) and the submodular-coverage objective. QuerySpec::solver_id
// selects one of them; ValidateGroupQuery rejects any other id, and
// SolveGroupProblem (core/problem_assembly.h) dispatches on the id to the
// solver's free function. Adding a solver is an id constant here, an entry
// in kSolverIds and one branch in SolveGroupProblem.
#ifndef GRECA_SOLVER_SOLVER_REGISTRY_H_
#define GRECA_SOLVER_SOLVER_REGISTRY_H_

#include <algorithm>
#include <array>
#include <string_view>

namespace greca {

/// kGrecaSolverId is QuerySpec::solver_id's default.
inline constexpr std::string_view kGrecaSolverId = "greca";
inline constexpr std::string_view kNaiveSolverId = "naive";
inline constexpr std::string_view kTaSolverId = "ta";
inline constexpr std::string_view kSubmodularSolverId = "submodular";

/// Every built-in id, sorted (stable iteration for sweeps and listings).
inline constexpr std::array<std::string_view, 4> kSolverIds = {
    kGrecaSolverId, kNaiveSolverId, kSubmodularSolverId, kTaSolverId};
static_assert(std::is_sorted(kSolverIds.begin(), kSolverIds.end()),
              "kSolverIds must stay sorted");

/// True when `id` names a built-in solver.
constexpr bool IsSolverId(std::string_view id) {
  return std::find(kSolverIds.begin(), kSolverIds.end(), id) !=
         kSolverIds.end();
}

}  // namespace greca

#endif  // GRECA_SOLVER_SOLVER_REGISTRY_H_
