// The pluggable solver seam: every aggregation objective — GRECA's
// bound-based early termination, TA, the exhaustive scan and submodular
// coverage — implements this one interface and is dispatched by stable
// string id through SolverRegistry (solver_registry.h). The serving layers
// (SolveGroupProblem, the batch planner, both engines' RecommendBatch) know
// nothing about individual algorithms; adding an objective is one class and
// one registry table entry, not a nine-layer edit.
//
// A solver reads a fully assembled, immutable GroupProblem (zero-copy
// ListViews, consensus spec, per-member weights, the agreement list) through
// const& and produces a TopKResult over POOL KEYS plus its access
// statistics; the caller maps keys back to universe items. Solvers must be
// stateless and safe for concurrent const use — all per-run mutable state
// belongs in the caller-provided QueryWorkspace or on the stack, because one
// registered instance serves every batch worker, and several solvers may
// read one problem at once.
#ifndef GRECA_SOLVER_SOLVER_H_
#define GRECA_SOLVER_SOLVER_H_

#include <span>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "core/greca.h"
#include "core/group_recommender.h"
#include "topk/problem.h"
#include "topk/result.h"

namespace greca {

/// What one solve produces: the raw pool-key result with access counts, plus
/// GRECA's extended statistics (zeroed by every other solver).
struct SolverResult {
  TopKResult raw;
  GrecaStats greca_stats;
};

class GroupSolver {
 public:
  virtual ~GroupSolver() = default;

  /// Stable registry id ("greca", "naive", "ta" or "submodular"). Unique
  /// across the registry and stable across versions — it is the batch
  /// planner's bucketing key and the public selection handle
  /// (QuerySpec::solver_id).
  virtual std::string_view id() const = 0;

  /// Solver-specific validation hook, called from the shared
  /// ValidateGroupQuery after the group-shape checks. Lets a solver reject
  /// queries it cannot serve (e.g. GRECA's 32-member seen-bitmask cap)
  /// before any assembly happens. Default: everything this far is fine.
  virtual Status ValidateQuery(std::span<const UserId> group,
                               const QuerySpec& spec) const {
    (void)group;
    (void)spec;
    return Status::Ok();
  }

  /// Solves the assembled problem for spec.k items. Result keys are pool
  /// positions; access counts follow each algorithm's published accounting.
  /// `workspace` offers reusable buffers (arena, GRECA bound state) — using
  /// them is optional, mutating shared solver state is not.
  virtual SolverResult Solve(const GroupProblem& problem,
                             const QuerySpec& spec,
                             QueryWorkspace& workspace) const = 0;
};

}  // namespace greca

#endif  // GRECA_SOLVER_SOLVER_H_
