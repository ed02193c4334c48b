// Closed-interval arithmetic for NRA-style score bounds. An Interval [lb, ub]
// encloses the unknown exact value of a score component; sound bound
// propagation through monotone score functions keeps exact ∈ [lb, ub],
// which is what GRECA's termination conditions rely on.
#ifndef GRECA_TOPK_INTERVAL_H_
#define GRECA_TOPK_INTERVAL_H_

#include <algorithm>
#include <cassert>

namespace greca {

struct Interval {
  double lb = 0.0;
  double ub = 0.0;

  constexpr Interval() = default;
  constexpr Interval(double lower, double upper) : lb(lower), ub(upper) {}

  /// Degenerate interval holding an exactly-known value.
  static constexpr Interval Exact(double v) { return {v, v}; }

  constexpr bool IsExact() const { return lb == ub; }
  constexpr double width() const { return ub - lb; }

  constexpr bool Contains(double v) const { return lb <= v && v <= ub; }

  /// True when every value of *this is <= every value of `other`.
  constexpr bool CertainlyLeq(const Interval& other) const {
    return ub <= other.lb;
  }

  friend constexpr Interval operator+(const Interval& a, const Interval& b) {
    return {a.lb + b.lb, a.ub + b.ub};
  }
  friend constexpr Interval operator-(const Interval& a, const Interval& b) {
    return {a.lb - b.ub, a.ub - b.lb};
  }
  /// Scaling by a non-negative constant.
  friend constexpr Interval operator*(double c, const Interval& a) {
    assert(c >= 0.0);
    return {c * a.lb, c * a.ub};
  }

  friend constexpr bool operator==(const Interval&, const Interval&) = default;
};

/// Interval of |x − y| with x ∈ a, y ∈ b: 0 when the intervals overlap,
/// otherwise the gap; the upper end is the widest spread.
constexpr Interval AbsDifference(const Interval& a, const Interval& b) {
  const double gap = std::max({a.lb - b.ub, b.lb - a.ub, 0.0});
  const double spread = std::max(a.ub - b.lb, b.ub - a.lb);
  return {gap, std::max(gap, spread)};
}

/// Interval of min(x, y).
constexpr Interval Min(const Interval& a, const Interval& b) {
  return {std::min(a.lb, b.lb), std::min(a.ub, b.ub)};
}

}  // namespace greca

#endif  // GRECA_TOPK_INTERVAL_H_
