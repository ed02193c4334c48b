// Static (time-agnostic) affinity affS(u, u') — paper §2.1, §4.1.2.
//
// In the paper's deployment static affinity is the number of common Facebook
// friends, normalized within a group by the maximum pair-wise value so group
// values land in [0, 1]. This table precomputes raw common-friend counts for
// all user pairs of a (study-sized) population.
#ifndef GRECA_AFFINITY_STATIC_AFFINITY_H_
#define GRECA_AFFINITY_STATIC_AFFINITY_H_

#include <cassert>
#include <span>
#include <vector>

#include "common/types.h"
#include "dataset/social_graph.h"

namespace greca {

/// Symmetric pair table over `n` users stored as a packed upper triangle.
class PairTable {
 public:
  PairTable() = default;
  explicit PairTable(std::size_t num_users)
      : num_users_(num_users),
        values_(NumUserPairs(num_users), 0.0) {}

  std::size_t num_users() const { return num_users_; }
  std::size_t num_pairs() const { return values_.size(); }

  double Get(UserId u, UserId v) const { return values_[PairIndex(u, v)]; }
  void Set(UserId u, UserId v, double value) {
    values_[PairIndex(u, v)] = value;
  }

  /// Largest value in the table (0 for empty tables).
  double Max() const;
  /// Mean over all pairs (0 when there are no pairs).
  double MeanOverPairs() const;

  /// Packed index of the unordered pair {u, v}, u != v.
  std::size_t PairIndex(UserId u, UserId v) const;

 private:
  std::size_t num_users_ = 0;
  std::vector<double> values_;
};

/// Raw static affinity: |friends(u) ∩ friends(v)| for every pair.
PairTable ComputeCommonFriendCounts(const SocialGraph& graph);

/// The paper's group normalization: each pair value divided by the maximum
/// pair value within `group` (all zeros when the max is 0). Returns values
/// indexed by local pair order: (0,1), (0,2), ..., (1,2), ... over the group.
std::vector<double> NormalizeWithinGroup(const PairTable& table,
                                         std::span<const UserId> group);

/// Local pair enumeration order used by NormalizeWithinGroup and the top-k
/// problem encoding: for members g0..g_{s-1}, pair index of (a, b), a < b, is
/// a*(2s-a-1)/2 + (b-a-1). Inline: the member-preference scorers call it
/// once per pair term.
constexpr std::size_t LocalPairIndex(std::size_t a, std::size_t b,
                                     std::size_t group_size) {
  assert(a < b && b < group_size);
  return a * group_size - a * (a + 1) / 2 + (b - a - 1);
}

}  // namespace greca

#endif  // GRECA_AFFINITY_STATIC_AFFINITY_H_
