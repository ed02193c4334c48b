#include "solver/solver_registry.h"

#include <mutex>
#include <utility>

#include "solver/builtin_solvers.h"
#include "solver/submodular_solver.h"

namespace greca {

SolverRegistry& SolverRegistry::Global() {
  // Function-local static: built-ins are registered on first use, which
  // survives static-archive linking (no file-scope registrar objects to get
  // dropped by the linker) and is thread-safe per the magic-static rules.
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    (void)r->Register(std::make_unique<GrecaSolver>());
    (void)r->Register(std::make_unique<NaiveSolver>());
    (void)r->Register(std::make_unique<TaSolver>());
    (void)r->Register(std::make_unique<SubmodularGreedySolver>());
    return r;
  }();
  return *registry;
}

Status SolverRegistry::Register(std::unique_ptr<const GroupSolver> solver) {
  if (!solver) {
    return Status::InvalidArgument("cannot register a null solver");
  }
  const std::string id(solver->id());
  if (id.empty()) {
    return Status::InvalidArgument("cannot register a solver with empty id");
  }
  std::unique_lock lock(mu_);
  const auto [it, inserted] = solvers_.try_emplace(id, std::move(solver));
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("solver id already registered: " + id);
  }
  return Status::Ok();
}

const GroupSolver* SolverRegistry::Find(std::string_view id) const {
  std::shared_lock lock(mu_);
  const auto it = solvers_.find(id);
  return it == solvers_.end() ? nullptr : it->second.get();
}

std::vector<std::string> SolverRegistry::RegisteredIds() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(solvers_.size());
  for (const auto& [id, solver] : solvers_) ids.push_back(id);
  return ids;  // std::map iterates sorted
}

}  // namespace greca
