// Fluent construction of validated queries.
//
// QueryBuilder front-loads validation: Build() checks the group, k, the
// candidate pool and the evaluation period against the engine's datasets and
// returns either a ready-to-run Query or the first greca::Status error —
// before any per-query work happens. Validation reads only what is fixed at
// engine construction (the study population, its periods and the affinity
// source's coverage), so a query that Build() returned OK cannot fail
// validation at Recommend time on any snapshot generation.
//
// Duplicate members: a repeated UserId in a group would double-weight that
// member in every consensus function (their preference list would be counted
// twice), so duplicates are never executed. The builder DEDUPES — Build()
// keeps the first occurrence of each member, preserving order — because
// callers assembling groups from event streams or invitation lists hit
// benign repeats constantly. Hand-built Query structs that bypass the
// builder are REJECTED instead (ValidateQuery returns kInvalidArgument):
// code constructing raw groups is expected to know its membership.
//
//   const Result<Query> query = QueryBuilder(engine)
//                                   .Members({4, 17, 29})
//                                   .TopK(5)
//                                   .Consensus(ConsensusSpec::AveragePreference())
//                                   .AtLastPeriod()
//                                   .Build();
//   if (!query.ok()) { /* bad k / empty group / unknown user / bad period */ }
#ifndef GRECA_API_QUERY_BUILDER_H_
#define GRECA_API_QUERY_BUILDER_H_

#include <string>
#include <vector>

#include "api/engine.h"

namespace greca {

class QueryBuilder {
 public:
  explicit QueryBuilder(const Engine& engine)
      : QueryBuilder(engine.recommender()) {}
  explicit QueryBuilder(const GroupRecommender& recommender)
      : recommender_(&recommender) {}

  /// Replaces the group (study participant ids). Repeats are allowed here;
  /// Build() dedupes to first occurrences (see file comment).
  QueryBuilder& Members(std::vector<UserId> members);
  /// Appends one member (repeats allowed; deduped at Build()).
  QueryBuilder& AddMember(UserId user);
  QueryBuilder& TopK(std::size_t k);
  QueryBuilder& Model(const AffinityModelSpec& model);
  QueryBuilder& Consensus(const ConsensusSpec& consensus);
  /// Evaluates at an explicit period (must be in range at Build() time).
  QueryBuilder& AtPeriod(PeriodId period);
  /// Evaluates at the last study period (the default).
  QueryBuilder& AtLastPeriod();
  /// Selects a built-in solver by id (solver/solver_registry.h). Unknown
  /// ids fail at Build() with kInvalidArgument.
  QueryBuilder& Using(std::string solver_id);
  /// Per-member consensus weighting (kUniform default; kInfluence derives
  /// weights from social-graph centrality through the engine's AffinitySource).
  QueryBuilder& Weighting(MemberWeighting weighting);
  QueryBuilder& Termination(TerminationPolicy policy);
  QueryBuilder& CandidatePool(std::size_t num_items);

  /// Dedupes the group (first occurrence wins, order preserved), validates
  /// against the engine's datasets and returns the query or the first
  /// validation error.
  Result<Query> Build() const;

 private:
  const GroupRecommender* recommender_;
  Query query_;
};

}  // namespace greca

#endif  // GRECA_API_QUERY_BUILDER_H_
