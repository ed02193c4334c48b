// Batch query planning: plan-then-solve cross-query sharing.
//
// Production batch traffic at millions-of-users scale is highly redundant —
// popular groups recur, dashboards re-issue identical queries, and group
// sessions page through the same (group, spec) repeatedly. The snapshot
// caches (period lists, tombstone bitmaps) already share SUB-problem state
// across such repeats; the planner shares the WHOLE problem: before a batch
// executes, queries are bucketed by their execution signature — the ordered
// group plus every solve-relevant QuerySpec field: k, the affinity model,
// the consensus spec, the termination policy, the pool size, the weighting
// mode, and the solver id, with the evaluation period stored RESOLVED rather
// than as written (so "nullopt" and an explicit last period land in one
// bucket). Any new QuerySpec field that can change a result MUST be added to
// both HashSignature and SameSignature — tests/planner_equivalence_test.cc
// pins this by flipping every field and asserting the bucket splits. Each
// bucket assembles and solves one GroupProblem (one arena slot, one
// tombstone bitmap, one affinity/agreement build, one top-k run) and the
// result fans back out to every duplicate; per-query attribution (which
// bucket, who solved) is reported so callers can audit the sharing.
//
// Equivalence contract: the algorithms are deterministic functions of
// (snapshot, group, spec), so a fanned-out copy is bit-identical — items,
// scores, access counts — to solving the duplicate query itself, and invalid
// queries receive exactly the Status a single Recommend call returns
// (planning validates with the same shared ValidateGroupQuery). Enforced by
// tests/planner_equivalence_test.cc on both Engine and ShardedEngine, against
// sequential Recommend calls on the same pin.
//
// Cost model: planning is O(total group ids) hashing + one hash-map probe
// per query, a few hundred ns per query — negligible against a solve (tens
// of µs to ms). With duplicate factor d (queries per distinct signature),
// solve work drops by ~d while plan + fan-out cost stays linear, so batch
// throughput approaches d× on duplicate-heavy batches, and on unique traffic
// (d = 1) planning is a rounding error of the batch (perfbench adhoc_unique,
// plan.plan_us). Every batch is planned; there is no per-query bypass.
#ifndef GRECA_PLAN_BATCH_PLANNER_H_
#define GRECA_PLAN_BATCH_PLANNER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/group_recommender.h"

namespace greca {

/// Where one query of a planned batch landed — enough to audit the sharing:
/// queries with the same bucket id shared one assembled + solved problem,
/// and exactly one of them (the representative) did the work.
struct BatchQueryAttribution {
  /// Bucket ordinal in BatchPlan::buckets, or kInvalid for rejected queries.
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;
  std::uint32_t bucket = kInvalid;
  /// True for the one query per bucket whose problem was actually solved.
  bool representative = false;
};

/// Execution stats of one batch: what the planner shared and what the
/// snapshot caches did while the batch ran. Filled by Engine::RecommendBatch /
/// ShardedEngine::RecommendBatch when the caller passes one.
struct BatchReport {
  std::size_t num_queries = 0;
  /// Queries rejected by validation (non-OK Result, no bucket).
  std::size_t num_invalid = 0;
  /// Distinct execution signatures among the valid queries == problems
  /// assembled and solved.
  std::size_t num_buckets = 0;
  /// Valid queries served by another query's solve (num_valid −
  /// num_buckets).
  std::size_t duplicates_shared = 0;
  /// valid / buckets — the batch's duplicate factor (1.0 when nothing
  /// repeats or the batch is empty).
  double dedup_ratio = 1.0;

  /// Cache counter deltas across the batch: the engine's period cache on
  /// both engines, plus the tombstone memo of the pinned view (monolithic:
  /// the Snapshot's; sharded: the pinned set's).
  std::uint64_t period_cache_hits = 0;
  std::uint64_t period_cache_misses = 0;
  std::uint64_t tombstone_cache_hits = 0;
  std::uint64_t tombstone_cache_misses = 0;
  std::uint64_t tombstone_cache_evictions = 0;

  /// Per input query, parallel to the batch (empty when not requested via
  /// RecommendBatch's report parameter being null — callers always get it
  /// when they get the report).
  std::vector<BatchQueryAttribution> per_query;
};

/// The execution plan of one batch against one pinned snapshot: per-query
/// validation statuses plus the duplicate buckets over the valid queries.
struct BatchPlan {
  struct Bucket {
    /// Input indices sharing one execution signature; queries[0] is the
    /// representative whose problem gets assembled and solved.
    std::vector<std::uint32_t> queries;
  };
  /// One entry per distinct signature, in first-appearance order (so the
  /// planned execution order is deterministic).
  std::vector<Bucket> buckets;
  /// One entry per input query: Ok() for bucketed queries, the validation
  /// error otherwise — exactly what a single Recommend call would return.
  std::vector<Status> statuses;
  /// Parallel to the input: each valid query's bucket ordinal
  /// (BatchQueryAttribution::kInvalid for rejected queries).
  std::vector<std::uint32_t> bucket_of;
  std::size_t num_valid = 0;

  double DedupRatio() const {
    return buckets.empty()
               ? 1.0
               : static_cast<double>(num_valid) /
                     static_cast<double>(buckets.size());
  }
};

class BatchPlanner {
 public:
  /// Per-query validation hook — the engine passes its own ValidateQuery so
  /// rejected queries carry byte-identical Status messages to a single
  /// Recommend call.
  using Validator = std::function<Status(const Query&)>;

  /// Plans `queries`: validates each through `validate`, resolves the
  /// evaluation period against `num_periods`, and buckets the valid ones by
  /// (group order-significant, k, model, consensus, resolved period,
  /// solver id, weighting, termination, pool size). Deterministic:
  /// bucket order is first-appearance order, duplicates keep input order.
  static BatchPlan Plan(std::span<const Query> queries,
                        const Validator& validate, std::size_t num_periods);
};

}  // namespace greca

#endif  // GRECA_PLAN_BATCH_PLANNER_H_
