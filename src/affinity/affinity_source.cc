#include "affinity/affinity_source.h"

#include <algorithm>
#include <cassert>

namespace greca {

double AffinitySource::CumulativeDrift(UserId u, UserId v, PeriodId p) const {
  double sum = 0.0;
  for (PeriodId q = 0; q <= p; ++q) {
    sum += Periodic(u, v, q) - PeriodAverage(q);
  }
  return sum;
}

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

std::vector<double> AffinitySource::PeriodAverages(PeriodId horizon) const {
  std::vector<double> averages;
  averages.reserve(horizon + 1);
  for (PeriodId p = 0; p <= horizon; ++p) {
    averages.push_back(PeriodAverage(p));
  }
  return averages;
}

void AffinitySource::MaterializeMemberWeightsInto(std::span<const UserId> group,
                                                  std::span<double> out) const {
  assert(out.size() == group.size());
  (void)group;
  std::fill(out.begin(), out.end(), 1.0);
}

void StudyAffinitySource::MaterializeMemberWeightsInto(
    std::span<const UserId> group, std::span<double> out) const {
  if (influence_ == nullptr) {
    AffinitySource::MaterializeMemberWeightsInto(group, out);
    return;
  }
  assert(out.size() == group.size());
  for (std::size_t m = 0; m < group.size(); ++m) {
    out[m] = group[m] < influence_->size() ? (*influence_)[group[m]] : 1.0;
  }
}

double StudyAffinitySource::CumulativeDrift(UserId u, UserId v,
                                            PeriodId p) const {
  if (dynamic_ != nullptr && p < dynamic_->num_periods()) {
    return dynamic_->CumulativeDrift(u, v, p);
  }
  return AffinitySource::CumulativeDrift(u, v, p);
}

}  // namespace greca
