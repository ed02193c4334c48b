#include "serve/batch_executor.h"

#include <cstdint>
#include <optional>
#include <thread>

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

}  // namespace

std::vector<Result<Recommendation>> BatchExecutor::Execute(
    const ServingBackend& backend, std::span<const Query> queries,
    ThreadPool* pool, WorkspacePool& workspaces, BatchReport* report) {
  const ServingCacheCounters before = backend.Counters();
  BatchPlan plan = BatchPlanner::Plan(
      queries, [&](const Query& q) { return backend.Validate(q); },
      backend.num_periods());

  // Solve one representative problem per bucket. Buckets are independent
  // (distinct execution signatures against one immutable pinned view), so
  // they run over the pool; every fanned-out copy below is bit-identical to
  // solving its query directly.
  struct BucketOutcome {
    std::optional<Result<Recommendation>> result;
    SolveOutcome agreement;
  };
  std::vector<BucketOutcome> solved(plan.buckets.size());
  RunUnits(plan.buckets.size(), pool, workspaces,
           [&](QueryWorkspace& ws, std::size_t b) {
             const Query& q = queries[plan.buckets[b].queries.front()];
             solved[b].result.emplace(
                 backend.SolveOne(q, ws, &solved[b].agreement));
           });

  // Fan the solved results back out to every duplicate, in input order.
  std::vector<Result<Recommendation>> results;
  results.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint32_t b = plan.bucket_of[i];
    if (b == BatchQueryAttribution::kInvalid) {
      results.emplace_back(plan.statuses[i]);
    } else {
      results.push_back(*solved[b].result);
    }
  }

  if (report != nullptr) {
    *report = BatchReport{};
    report->num_queries = queries.size();
    report->num_invalid = queries.size() - plan.num_valid;
    report->num_buckets = plan.buckets.size();
    report->duplicates_shared = plan.num_valid - plan.buckets.size();
    report->dedup_ratio = plan.DedupRatio();
    for (const BucketOutcome& o : solved) {
      if (!o.agreement.agreement_deferred) continue;
      ++(o.agreement.agreement_materialized
             ? report->agreement_lists_materialized
             : report->agreement_lists_skipped);
    }
    report->per_query.resize(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::uint32_t b = plan.bucket_of[i];
      report->per_query[i] = {
          b, b != BatchQueryAttribution::kInvalid &&
                 plan.buckets[b].queries.front() ==
                     static_cast<std::uint32_t>(i)};
    }
    backend.Counters().DeltaInto(before, *report);
  }
  return results;
}

}  // namespace greca
