#include "solver/builtin_solvers.h"

#include <string>

#include "topk/naive.h"
#include "topk/ta.h"

namespace greca {

Status GrecaSolver::ValidateQuery(std::span<const UserId> group,
                                  const QuerySpec& spec) const {
  (void)spec;
  // The seen-bitmask in GRECA's runtime state caps its groups at 32
  // members; the naive scan and TA have no such limit.
  if (group.size() > 32) {
    return Status::InvalidArgument(
        "GRECA is limited to 32-member groups (got " +
        std::to_string(group.size()) + "); use solver \"naive\" or \"ta\"");
  }
  return Status::Ok();
}

SolverResult GrecaSolver::Solve(const GroupProblem& problem,
                                const QuerySpec& spec,
                                QueryWorkspace& workspace) const {
  SolverResult result;
  GrecaConfig config;
  config.k = spec.k;
  config.termination = spec.termination;
  result.raw = Greca(problem, config, &result.greca_stats, &workspace.greca);
  return result;
}

SolverResult NaiveSolver::Solve(const GroupProblem& problem,
                                const QuerySpec& spec,
                                QueryWorkspace& workspace) const {
  (void)workspace;
  SolverResult result;
  result.raw = NaiveTopK(problem, spec.k);
  return result;
}

SolverResult TaSolver::Solve(const GroupProblem& problem,
                             const QuerySpec& spec,
                             QueryWorkspace& workspace) const {
  (void)workspace;
  SolverResult result;
  result.raw = TaTopK(problem, spec.k);
  return result;
}

}  // namespace greca
