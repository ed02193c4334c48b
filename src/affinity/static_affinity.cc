#include "affinity/static_affinity.h"

#include <algorithm>
#include <cassert>

namespace greca {

std::size_t PairTable::PairIndex(UserId u, UserId v) const {
  assert(u != v);
  assert(u < num_users_ && v < num_users_);
  const UserPair p(u, v);
  // Row-major packed upper triangle: row a occupies (n-1) + (n-2) + ... down
  // to (n-a) slots before it: a*n - a*(a+1)/2; column offset is b - a - 1.
  const std::size_t a = p.first;
  const std::size_t b = p.second;
  return a * num_users_ - a * (a + 1) / 2 + (b - a - 1);
}

double PairTable::Max() const {
  double best = 0.0;
  for (const double v : values_) best = std::max(best, v);
  return best;
}

double PairTable::MeanOverPairs() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

PairTable ComputeCommonFriendCounts(const SocialGraph& graph) {
  const std::size_t n = graph.num_users();
  PairTable table(n);
  for (UserId u = 0; u < n; ++u) {
    for (UserId v = u + 1; v < n; ++v) {
      table.Set(u, v, static_cast<double>(graph.CommonFriends(u, v)));
    }
  }
  return table;
}

std::vector<double> NormalizeWithinGroup(const PairTable& table,
                                         std::span<const UserId> group) {
  const std::size_t s = group.size();
  std::vector<double> values(NumUserPairs(s), 0.0);
  double max_value = 0.0;
  for (std::size_t a = 0; a < s; ++a) {
    for (std::size_t b = a + 1; b < s; ++b) {
      const double v = table.Get(group[a], group[b]);
      values[LocalPairIndex(a, b, s)] = v;
      max_value = std::max(max_value, v);
    }
  }
  if (max_value > 0.0) {
    for (auto& v : values) v /= max_value;
  }
  return values;
}

}  // namespace greca
