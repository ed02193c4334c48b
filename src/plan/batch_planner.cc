#include "plan/batch_planner.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "core/problem_assembly.h"

namespace greca {

namespace {

/// The execution signature of one valid query: everything Recommend's result
/// depends on besides the snapshot. Group order is significant (member slot
/// order decides pair indexing in the solve), and the period is stored
/// RESOLVED so nullopt and an explicit last period share a bucket.
struct Signature {
  const Query* query;
  PeriodId resolved_period;
};

std::uint64_t HashSignature(const Signature& s) {
  // FNV-1a over the group ids and every result-relevant spec field; doubles
  // go in by bit pattern (bucketing wants exact equality, not numeric fuzz),
  // with -0.0 folded onto +0.0 because SameSignature compares with ==.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_double = [&mix](double v) {
    mix(std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
  };
  const QuerySpec& spec = s.query->spec;
  for (const UserId u : s.query->group) mix(u);
  mix(0x5EEDull);
  mix(spec.k);
  mix(static_cast<std::uint64_t>(spec.model.affinity_aware) << 1 |
      static_cast<std::uint64_t>(spec.model.time_aware));
  mix(static_cast<std::uint64_t>(spec.model.time_model));
  mix_double(spec.model.drift_gain);
  mix(static_cast<std::uint64_t>(spec.consensus.aggregator));
  mix(static_cast<std::uint64_t>(spec.consensus.disagreement));
  mix_double(spec.consensus.w1);
  mix_double(spec.consensus.w2);
  mix_double(spec.consensus.disagreement_scale);
  mix(s.resolved_period);
  for (const char c : spec.solver_id) {
    mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  mix(static_cast<std::uint64_t>(spec.weighting));
  mix(static_cast<std::uint64_t>(spec.termination));
  mix(spec.num_candidate_items);
  return h;
}

bool SameSignature(const Signature& a, const Signature& b) {
  const QuerySpec& x = a.query->spec;
  const QuerySpec& y = b.query->spec;
  return a.resolved_period == b.resolved_period && x.k == y.k &&
         x.model == y.model && x.consensus == y.consensus &&
         x.solver_id == y.solver_id &&
         x.weighting == y.weighting && x.termination == y.termination &&
         x.num_candidate_items == y.num_candidate_items &&
         std::ranges::equal(a.query->group, b.query->group);
}

struct SignatureHash {
  std::size_t operator()(const Signature& s) const {
    return static_cast<std::size_t>(HashSignature(s));
  }
};
struct SignatureEqual {
  bool operator()(const Signature& a, const Signature& b) const {
    return SameSignature(a, b);
  }
};

}  // namespace

BatchPlan BatchPlanner::Plan(std::span<const Query> queries,
                             const Validator& validate,
                             std::size_t num_periods) {
  BatchPlan plan;
  plan.statuses.reserve(queries.size());
  plan.bucket_of.assign(queries.size(), BatchQueryAttribution::kInvalid);
  std::unordered_map<Signature, std::uint32_t, SignatureHash, SignatureEqual>
      bucket_index;
  bucket_index.reserve(queries.size());
  for (std::uint32_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    Status status = validate(q);
    if (!status.ok()) {
      plan.statuses.push_back(std::move(status));
      continue;
    }
    plan.statuses.push_back(Status::Ok());
    ++plan.num_valid;
    // Validation guarantees the period resolves.
    const Signature sig{&q,
                        ResolveEvalPeriod(q.spec.eval_period, num_periods)
                            .value()};
    const auto [it, inserted] = bucket_index.try_emplace(
        sig, static_cast<std::uint32_t>(plan.buckets.size()));
    if (inserted) plan.buckets.emplace_back();
    plan.buckets[it->second].queries.push_back(i);
    plan.bucket_of[i] = it->second;
  }
  return plan;
}

}  // namespace greca
