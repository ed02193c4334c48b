#include "solver/solver_registry.h"

#include "solver/builtin_solvers.h"
#include "solver/submodular_solver.h"

namespace greca {

static_assert(kGrecaSolverId < kNaiveSolverId &&
                  kNaiveSolverId < kSubmodularSolverId &&
                  kSubmodularSolverId < kTaSolverId,
              "the built-in table below must stay sorted by id");

const SolverRegistry& SolverRegistry::Global() {
  // Function-local statics: thread-safe per the magic-static rules.
  static const GrecaSolver greca;
  static const NaiveSolver naive;
  static const SubmodularGreedySolver submodular;
  static const TaSolver ta;
  static const SolverRegistry registry({&greca, &naive, &submodular, &ta});
  return registry;
}

const GroupSolver* SolverRegistry::Find(std::string_view id) const {
  for (const GroupSolver* solver : solvers_) {
    if (solver->id() == id) return solver;
  }
  return nullptr;
}

std::vector<std::string> SolverRegistry::RegisteredIds() const {
  std::vector<std::string> ids;
  ids.reserve(solvers_.size());
  for (const GroupSolver* solver : solvers_) ids.emplace_back(solver->id());
  return ids;
}

}  // namespace greca
