// Registry of GroupSolvers keyed by stable solver id.
//
// The registry is a fixed table of the four built-ins — GRECA, TA, the naive
// scan and the submodular-coverage solver — sorted by id and built on first
// use of Global() (which survives static-archive linking, where file-scope
// registrar objects get dropped). It never changes after that, so lookups
// take no lock and any number of threads may read it at once.
#ifndef GRECA_SOLVER_SOLVER_REGISTRY_H_
#define GRECA_SOLVER_SOLVER_REGISTRY_H_

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "solver/solver.h"

namespace greca {

/// Built-in solver ids: the paper's GRECA, its two baselines and the
/// submodular objective. kGrecaSolverId is QuerySpec::solver_id's default.
inline constexpr std::string_view kGrecaSolverId = "greca";
inline constexpr std::string_view kNaiveSolverId = "naive";
inline constexpr std::string_view kTaSolverId = "ta";
inline constexpr std::string_view kSubmodularSolverId = "submodular";

class SolverRegistry {
 public:
  /// The process-wide registry of the built-ins.
  static const SolverRegistry& Global();

  /// The solver registered under `id`, or null.
  const GroupSolver* Find(std::string_view id) const;

  /// All registered ids, sorted (stable iteration for sweeps and listings).
  std::vector<std::string> RegisteredIds() const;

 private:
  explicit SolverRegistry(std::array<const GroupSolver*, 4> solvers)
      : solvers_(solvers) {}

  std::array<const GroupSolver*, 4> solvers_;  // sorted by id()
};

}  // namespace greca

#endif  // GRECA_SOLVER_SOLVER_REGISTRY_H_
