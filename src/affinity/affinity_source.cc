#include "affinity/affinity_source.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "dataset/facebook_study.h"
#include "dataset/social_graph.h"

namespace greca {

double AffinitySource::NormalizedStatic(UserId u, UserId v) const {
  const double max = MaxStatic();
  return max > 0.0 ? Static(u, v) / max : 0.0;
}

void AffinitySource::MaterializeStaticListInto(std::span<const UserId> group,
                                               std::vector<ListEntry>& scratch,
                                               SortedList& out) const {
  const std::size_t g = group.size();
  const auto num_pairs = static_cast<ListKey>(NumUserPairs(g));
  scratch.clear();
  scratch.reserve(num_pairs);
  double group_max = 0.0;
  for (std::size_t a = 0; a < g; ++a) {
    for (std::size_t b = a + 1; b < g; ++b) {
      const auto q = static_cast<ListKey>(LocalPairIndex(a, b, g));
      const double raw = Static(group[a], group[b]);
      group_max = std::max(group_max, raw);
      scratch.push_back({q, raw});
    }
  }
  if (group_max > 0.0) {
    for (ListEntry& e : scratch) e.score /= group_max;
  }
  out.AssignUnsorted(scratch, num_pairs);
}

void AffinitySource::MaterializePeriodListInto(std::span<const UserId> group,
                                               PeriodId p,
                                               std::vector<ListEntry>& scratch,
                                               SortedList& out) const {
  const std::size_t g = group.size();
  const auto num_pairs = static_cast<ListKey>(NumUserPairs(g));
  scratch.clear();
  scratch.reserve(num_pairs);
  for (std::size_t a = 0; a < g; ++a) {
    for (std::size_t b = a + 1; b < g; ++b) {
      const auto q = static_cast<ListKey>(LocalPairIndex(a, b, g));
      scratch.push_back({q, Periodic(group[a], group[b], p)});
    }
  }
  out.AssignUnsorted(scratch, num_pairs);
}

SortedList AffinitySource::MaterializeStaticList(
    std::span<const UserId> group) const {
  SortedList out;
  std::vector<ListEntry> scratch;
  MaterializeStaticListInto(group, scratch, out);
  return out;
}

SortedList AffinitySource::MaterializePeriodList(std::span<const UserId> group,
                                                 PeriodId p) const {
  SortedList out;
  std::vector<ListEntry> scratch;
  MaterializePeriodListInto(group, p, scratch, out);
  return out;
}

void AffinitySource::MaterializeMemberWeightsInto(std::span<const UserId> group,
                                                  std::span<double> out) const {
  assert(out.size() == group.size());
  (void)group;
  std::fill(out.begin(), out.end(), 1.0);
}

std::shared_ptr<const StudyAffinitySource> StudyAffinitySource::FromStudy(
    const FacebookStudy& study) {
  return std::make_shared<const StudyAffinitySource>(
      ComputeCommonFriendCounts(study.graph),
      PeriodicAffinity::Compute(study.likes, study.periods),
      PropagationCentrality(study.graph));
}

StudyAffinitySource::StudyAffinitySource(PairTable static_counts,
                                         PeriodicAffinity periodic,
                                         std::vector<double> influence)
    : static_(std::move(static_counts)),
      periodic_(std::move(periodic)),
      influence_(std::move(influence)) {}

void StudyAffinitySource::MaterializeMemberWeightsInto(
    std::span<const UserId> group, std::span<double> out) const {
  assert(out.size() == group.size());
  for (std::size_t m = 0; m < group.size(); ++m) {
    out[m] = group[m] < influence_.size() ? influence_[group[m]] : 1.0;
  }
}

}  // namespace greca
