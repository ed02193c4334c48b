// Shared zero-copy problem assembly — the one implementation behind both
// serving facades.
//
// GroupRecommender::BuildProblem (single index) and the sharded engine's
// scatter/gather path (src/shard/) assemble EXACTLY the same GroupProblem:
// tombstoned pool-prefix candidates, one ListView per member sliced from a
// PreferenceIndex, the group-normalized static affinity list, one periodic
// list per period and the optional aggregated agreement list. This header
// extracts that assembly into free functions parameterized by WHERE each
// member's rows live (MemberSlice, topk/problem.h): the single-index path
// passes the snapshot's index/overlay for every member, the sharded path
// passes each member's own shard — and because every per-member input is
// identical either way, the assembled problems (and therefore
// recommendations and access counts) are bit-identical. That equivalence is
// the foundation of sharded_equivalence_test.
//
// All candidate keys are POOL POSITIONS of a shared popularity pool: every
// index participating in one assembly must have been built over the same
// pool (the sharded engine builds all shards from one pool vector), and
// `AssemblyContext::key_index` is any of them — used only for the pool and
// the item→key map.
#ifndef GRECA_CORE_PROBLEM_ASSEMBLY_H_
#define GRECA_CORE_PROBLEM_ASSEMBLY_H_

#include <optional>
#include <span>
#include <vector>

#include "affinity/affinity_source.h"
#include "api/snapshot.h"
#include "common/status.h"
#include "core/group_recommender.h"
#include "index/preference_index.h"
#include "topk/problem.h"

namespace greca {

/// The query-independent serving state one assembly reads (all non-owning;
/// the caller pins lifetimes — a Snapshot, a ShardedSnapshotSet — on the
/// returned problem).
struct AssemblyContext {
  /// Pool / item→key authority. Any index built over the shared pool.
  const PreferenceIndex* key_index = nullptr;
  /// Source of the static and periodic affinity lists, which assembly
  /// materializes into the query's arena.
  const AffinitySource* affinity = nullptr;
  /// Kept for perfbench until ROADMAP item 1: never read (see
  /// TombstoneCache).
  const TombstoneCache* tombstone_cache = nullptr;
};

/// The single resolution point for the last-period convention: nullopt
/// resolves to the last period, explicit in-range indices to themselves,
/// anything else to kOutOfRange. `num_periods` must be >= 1.
Result<PeriodId> ResolveEvalPeriod(std::optional<PeriodId> requested,
                                   std::size_t num_periods);

/// Validation shared by every facade: non-empty group of known, distinct
/// members, a built-in solver id (IsSolverId; any other
/// QuerySpec::solver_id is rejected with kInvalidArgument), k >= 1, a
/// non-empty candidate pool, finite non-negative consensus weights and
/// disagreement scale, a finite drift gain, an in-range evaluation period
/// and (for time+affinity aware models) an affinity source covering it.
Status ValidateGroupQuery(std::span<const UserId> group, const QuerySpec& spec,
                          std::size_t num_users, std::size_t num_periods,
                          std::size_t affinity_num_periods);

/// Scatter step for per-member consensus weights: when the query asks for
/// influence weighting, materializes the group's raw weights from the bound
/// AffinitySource into the slices' `weight` fields (uniform 1.0 otherwise —
/// including resetting slices reused from a previous weighted query). Call
/// after locating each member's rows, before AssembleGroupProblem; assembly
/// normalizes the raw weights to sum 1.
void StampMemberWeights(const AffinitySource& source,
                        std::span<const UserId> group, const QuerySpec& spec,
                        std::span<MemberSlice> slices);

/// Assembles the zero-copy GroupProblem for `group` at `eval_period`.
/// `members` is parallel to `group` (members[m] locates group[m]'s rows);
/// inputs must already be validated (ValidateGroupQuery) and the period
/// resolved. When `workspace` is non-null the problem's views point into its
/// arena (the workspace must outlive the problem and not be reused before
/// the problem is dropped); when null the problem owns a fresh arena, and
/// `members` only needs to live for the duration of this call either way.
/// `candidates_out`, when non-null, receives the candidate pool in key
/// order. The caller pins whatever owns the index rows on the result
/// (GroupProblem::PinLifetime); the tombstone bitmap and the affinity lists
/// are built per query into the arena, whose vectors only grow, so assembly
/// on a reused workspace allocates nothing.
GroupProblem AssembleGroupProblem(const AssemblyContext& ctx,
                                  std::span<const UserId> group,
                                  std::span<const MemberSlice> members,
                                  const QuerySpec& spec, PeriodId eval_period,
                                  std::vector<ItemId>* candidates_out,
                                  QueryWorkspace* workspace);

/// The one solver dispatch: calls the free function of the spec's solver id
/// (solver/solver_registry.h) — Greca, NaiveTopK, TaTopK or
/// SubmodularGreedyTopK — on an assembled problem and maps the result keys
/// back to universe items through `pool_items` (the shared pool, key order).
/// `workspace` provides GRECA's reusable buffers. The spec must have passed
/// ValidateGroupQuery — that is where unknown solver ids are rejected.
Recommendation SolveGroupProblem(const GroupProblem& problem,
                                 const QuerySpec& spec,
                                 std::span<const ItemId> pool_items,
                                 QueryWorkspace& workspace);

}  // namespace greca

#endif  // GRECA_CORE_PROBLEM_ASSEMBLY_H_
