// Affinity-aware user-item preference (paper §2.2).
//
//   rpref(u, i, G, p) = Σ_{u'≠u∈G} aff(u, u', p) · apref(u', i) / (|G|−1)
//   pref(u, i, G, p)  = (apref(u, i) + rpref(u, i, G, p)) / 2
//
// All quantities live on the normalized [0, 1] scale (see
// topk/problem.h for the normalization note). Member preferences are
// functions of the members' absolute preferences for one item and the
// group's pair-wise temporal affinities (local pair indexing, see
// LocalPairIndex in affinity/static_affinity.h).
#ifndef GRECA_PREFERENCE_PREFERENCE_MODEL_H_
#define GRECA_PREFERENCE_PREFERENCE_MODEL_H_

#include <cassert>
#include <cstddef>
#include <span>

namespace greca {

/// rpref of member `member` given all members' absolute preferences for one
/// item and the group's pair affinities. Returns 0 for singleton groups.
double RelativePreference(std::span<const double> apref,
                          std::span<const double> pair_aff, std::size_t member);

/// pref(u, i, G, p) = (apref + rpref) / 2.
double MemberPreference(std::span<const double> apref,
                        std::span<const double> pair_aff, std::size_t member);

/// Fills `out[u]` with every member's preference. `out.size()` must equal
/// `apref.size()`; `pair_aff.size()` must be g(g−1)/2.
void AllMemberPreferences(std::span<const double> apref,
                          std::span<const double> pair_aff,
                          std::span<double> out);

/// Expands the packed upper-triangular pair affinities into a dense row-major
/// g×g weight matrix with a zero diagonal: `w[u*g + v] = pair_aff[q(u, v)]`
/// for u ≠ v. Exhaustive scorers call AllMemberPreferences once per candidate
/// item with the same pair affinities; pre-expanding turns the per-item pair
/// indexing into a straight-line mat-vec. `w.size()` must be g·g.
void ExpandPairWeights(std::span<const double> pair_aff, std::size_t g,
                       std::span<double> w);

/// AllMemberPreferences against a pre-expanded dense weight matrix. The inner
/// loop is branchless: the zero diagonal contributes an exact `0.0 · apref[u]`
/// term, so results are bit-identical to the packed form for the model's
/// finite non-negative inputs (the summation order is unchanged).
void AllMemberPreferencesDense(std::span<const double> apref,
                               std::span<const double> w,
                               std::span<double> out);

/// One endpoint of every member's preference interval — GRECA's bounds.
/// All components are non-negative, so the lower (upper) endpoint of pref
/// is the formula at the lower (upper) endpoints of the absolute
/// preferences `apref` and of the pair affinities, given as a dense g×g
/// matrix `w` (ExpandPairWeights layout; the diagonal is not read). rpref
/// is scaled by the reciprocal `pair_norm` = 1/(g−1) (0 for g = 1), so an
/// endpoint is not bit-identical to AllMemberPreferencesDense's division.
/// Inline: GRECA evaluates it for every buffered item on every stop check.
inline void MemberPreferenceEndpoints(std::span<const double> apref,
                                      std::span<const double> w,
                                      double pair_norm,
                                      std::span<double> out) {
  const std::size_t g = apref.size();
  assert(out.size() == g);
  assert(w.size() == g * g);
  for (std::size_t u = 0; u < g; ++u) {
    const double* row = w.data() + u * g;
    double sum = 0.0;
    for (std::size_t v = 0; v < u; ++v) sum += row[v] * apref[v];
    for (std::size_t v = u + 1; v < g; ++v) sum += row[v] * apref[v];
    out[u] = (apref[u] + sum * pair_norm) / 2.0;
  }
}

}  // namespace greca

#endif  // GRECA_PREFERENCE_PREFERENCE_MODEL_H_
