#include "api/query_builder.h"

#include <cstddef>
#include <utility>

namespace greca {

QueryBuilder& QueryBuilder::Members(std::vector<UserId> members) {
  query_.group = std::move(members);
  return *this;
}

QueryBuilder& QueryBuilder::AddMember(UserId user) {
  query_.group.push_back(user);
  return *this;
}

QueryBuilder& QueryBuilder::TopK(std::size_t k) {
  query_.spec.k = k;
  return *this;
}

QueryBuilder& QueryBuilder::Model(const AffinityModelSpec& model) {
  query_.spec.model = model;
  return *this;
}

QueryBuilder& QueryBuilder::Consensus(const ConsensusSpec& consensus) {
  query_.spec.consensus = consensus;
  return *this;
}

QueryBuilder& QueryBuilder::AtPeriod(PeriodId period) {
  query_.spec.eval_period = period;
  return *this;
}

QueryBuilder& QueryBuilder::AtLastPeriod() {
  query_.spec.eval_period = std::nullopt;
  return *this;
}

QueryBuilder& QueryBuilder::Using(std::string solver_id) {
  query_.spec.solver_id = std::move(solver_id);
  return *this;
}

QueryBuilder& QueryBuilder::Weighting(MemberWeighting weighting) {
  query_.spec.weighting = weighting;
  return *this;
}

QueryBuilder& QueryBuilder::Termination(TerminationPolicy policy) {
  query_.spec.termination = policy;
  return *this;
}

QueryBuilder& QueryBuilder::CandidatePool(std::size_t num_items) {
  query_.spec.num_candidate_items = num_items;
  return *this;
}

Result<Query> QueryBuilder::Build() const {
  Query query = query_;
  // Dedupe to first occurrences, preserving order: a duplicate would
  // double-weight that member in every consensus function. O(g²) on a group
  // capped at tens of members.
  auto& group = query.group;
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (group[j] == group[i]) {
        group.erase(group.begin() + static_cast<std::ptrdiff_t>(i));
        --i;
        break;
      }
    }
  }
  if (Status s = recommender_->ValidateQuery(query.group, query.spec);
      !s.ok()) {
    return s;
  }
  return query;
}

}  // namespace greca
