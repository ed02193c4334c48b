// Registry adapters for the three original algorithms. Each wraps the
// existing free-function implementation (core/greca.h, topk/naive.h,
// topk/ta.h) unchanged — with uniform weights the registry-dispatched path
// is bit-identical (items, scores, access counts) to calling those functions
// directly, which tests/solver_registry_test.cc pins on both engines.
#ifndef GRECA_SOLVER_BUILTIN_SOLVERS_H_
#define GRECA_SOLVER_BUILTIN_SOLVERS_H_

#include "solver/solver.h"
#include "solver/solver_registry.h"

namespace greca {

/// GRECA (paper Alg. 1). Rejects groups beyond 32 members — its seen-bitmask
/// caps runtime state — through the ValidateQuery hook, keeping the
/// historical error message byte-identical.
class GrecaSolver final : public GroupSolver {
 public:
  std::string_view id() const override { return kGrecaSolverId; }
  Status ValidateQuery(std::span<const UserId> group,
                       const QuerySpec& spec) const override;
  SolverResult Solve(const GroupProblem& problem, const QuerySpec& spec,
                     QueryWorkspace& workspace) const override;
};

/// Exhaustive scan + exact scoring — the equivalence baseline.
class NaiveSolver final : public GroupSolver {
 public:
  std::string_view id() const override { return kNaiveSolverId; }
  SolverResult Solve(const GroupProblem& problem, const QuerySpec& spec,
                     QueryWorkspace& workspace) const override;
};

/// Fagin's Threshold Algorithm with the paper's access accounting.
class TaSolver final : public GroupSolver {
 public:
  std::string_view id() const override { return kTaSolverId; }
  SolverResult Solve(const GroupProblem& problem, const QuerySpec& spec,
                     QueryWorkspace& workspace) const override;
};

}  // namespace greca

#endif  // GRECA_SOLVER_BUILTIN_SOLVERS_H_
