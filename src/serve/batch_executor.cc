#include "serve/batch_executor.h"

#include <cstdint>
#include <optional>
#include <thread>

#include "core/problem_assembly.h"
#include "shard/sharded_engine.h"

namespace greca {

std::size_t ResolveBatchThreads(std::size_t requested) {
  if (requested > 0) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw > 2 ? hw : 2;
}

namespace {

/// Runs fn(workspace, index) for every index in [0, n): over `pool` with one
/// leased workspace per worker, or inline with a single lease when `pool` is
/// null or there is nothing to parallelize.
template <typename Fn>
void RunUnits(std::size_t n, ThreadPool* pool, WorkspacePool& workspaces,
              Fn&& fn) {
  if (n == 0) return;
  if (pool == nullptr || n == 1) {
    WorkspacePool::Lease lease = workspaces.Acquire();
    for (std::size_t i = 0; i < n; ++i) fn(*lease, i);
    return;
  }
  std::vector<WorkspacePool::Lease> leases;
  leases.reserve(pool->size());
  for (std::size_t w = 0; w < pool->size(); ++w) {
    leases.push_back(workspaces.Acquire());
  }
  pool->ParallelFor(
      n, [&](std::size_t worker, std::size_t i) { fn(*leases[worker], i); });
}

// The two pin types' pool (key order) and null-pin error.
std::span<const ItemId> PoolOf(const Snapshot& snap) {
  return snap.index().pool();
}
std::span<const ItemId> PoolOf(const ShardedSnapshotSet& set) {
  return set.shard(0).index->pool();
}
const char* NullPinError(const Snapshot*) {
  return "snapshot must not be null";
}
const char* NullPinError(const ShardedSnapshotSet*) {
  return "snapshot set must not be null";
}

}  // namespace

template <typename Engine, typename Pin>
std::vector<Result<Recommendation>> BatchExecutor::Execute(
    const Engine& engine, const std::shared_ptr<const Pin>& pin,
    std::span<const Query> queries, ThreadPool* pool,
    WorkspacePool& workspaces, BatchReport* report) {
  if (pin == nullptr) {
    return std::vector<Result<Recommendation>>(
        queries.size(), Result<Recommendation>(Status::InvalidArgument(
                            NullPinError(pin.get()))));
  }
  BatchPlan plan = BatchPlanner::Plan(
      queries,
      [&](const Query& q) { return engine.ValidateQuery(q.group, q.spec); },
      engine.num_periods());

  // Solve one representative problem per bucket. Buckets are independent
  // (distinct execution signatures against one immutable pinned view), so
  // they run over the pool; every fanned-out copy below is bit-identical to
  // solving its query directly.
  std::vector<std::optional<Result<Recommendation>>> solved(
      plan.buckets.size());
  const std::span<const ItemId> pool_items = PoolOf(*pin);
  RunUnits(plan.buckets.size(), pool, workspaces,
           [&](QueryWorkspace& ws, std::size_t b) {
             const Query& q = queries[plan.buckets[b].queries.front()];
             Result<GroupProblem> problem =
                 engine.BuildProblem(pin, q.group, q.spec, nullptr, &ws);
             if (!problem.ok()) {
               solved[b].emplace(problem.status());
               return;
             }
             solved[b].emplace(
                 SolveGroupProblem(problem.value(), q.spec, pool_items, ws));
           });

  // Fan the solved results back out to every duplicate, in input order.
  std::vector<Result<Recommendation>> results;
  results.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint32_t b = plan.bucket_of[i];
    if (b == BatchQueryAttribution::kInvalid) {
      results.emplace_back(plan.statuses[i]);
    } else {
      results.push_back(*solved[b]);
    }
  }

  if (report != nullptr) {
    *report = BatchReport{};
    report->num_queries = queries.size();
    report->num_invalid = queries.size() - plan.num_valid;
    report->num_buckets = plan.buckets.size();
    report->duplicates_shared = plan.num_valid - plan.buckets.size();
    report->dedup_ratio = plan.DedupRatio();
    report->per_query.resize(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::uint32_t b = plan.bucket_of[i];
      report->per_query[i] = {
          b, b != BatchQueryAttribution::kInvalid &&
                 plan.buckets[b].queries.front() ==
                     static_cast<std::uint32_t>(i)};
    }
  }
  return results;
}

template std::vector<Result<Recommendation>> BatchExecutor::Execute(
    const GroupRecommender&, const std::shared_ptr<const Snapshot>&,
    std::span<const Query>, ThreadPool*, WorkspacePool&, BatchReport*);
template std::vector<Result<Recommendation>> BatchExecutor::Execute(
    const ShardedEngine&, const std::shared_ptr<const ShardedSnapshotSet>&,
    std::span<const Query>, ThreadPool*, WorkspacePool&, BatchReport*);

}  // namespace greca
