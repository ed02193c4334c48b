// Registry of GroupSolvers keyed by stable solver id.
//
// The process-wide registry (Global()) self-registers the built-ins on first
// use — GRECA, TA, the naive scan and the submodular-coverage solver — so
// lookup works without any static-initializer ceremony (and survives static
// archive linking, where file-scope registrar objects get dropped). Clients
// add solvers at startup with Register(); ids are first-come-first-served
// and never overwritten, so a typo'd duplicate fails loudly instead of
// silently replacing a built-in.
//
// Thread safety: Register() and Find() may race arbitrarily — lookups take a
// shared lock. Registered solvers are immutable and live for the process.
#ifndef GRECA_SOLVER_SOLVER_REGISTRY_H_
#define GRECA_SOLVER_SOLVER_REGISTRY_H_

#include <map>
#include <memory>
#include <shared_mutex>
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
  /// The process-wide registry, with the built-ins already registered.
  static SolverRegistry& Global();

  /// Adds `solver` under its id(). Fails with kInvalidArgument on a null
  /// solver, an empty id, or an id already taken (the existing registration
  /// is kept either way).
  Status Register(std::unique_ptr<const GroupSolver> solver);

  /// The solver registered under `id`, or null.
  const GroupSolver* Find(std::string_view id) const;

  /// All registered ids, sorted (stable iteration for sweeps and listings).
  std::vector<std::string> RegisteredIds() const;

 private:
  SolverRegistry() = default;

  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<const GroupSolver>, std::less<>>
      solvers_;
};

}  // namespace greca

#endif  // GRECA_SOLVER_SOLVER_REGISTRY_H_
