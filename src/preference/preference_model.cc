#include "preference/preference_model.h"

#include <algorithm>
#include <cassert>

#include "affinity/static_affinity.h"
#include "common/types.h"

namespace greca {

double RelativePreference(std::span<const double> apref,
                          std::span<const double> pair_aff,
                          std::size_t member) {
  const std::size_t g = apref.size();
  assert(member < g);
  assert(pair_aff.size() == NumUserPairs(g));
  if (g < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t v = 0; v < g; ++v) {
    if (v == member) continue;
    const std::size_t q =
        LocalPairIndex(std::min(member, v), std::max(member, v), g);
    sum += pair_aff[q] * apref[v];
  }
  return sum / static_cast<double>(g - 1);
}

double MemberPreference(std::span<const double> apref,
                        std::span<const double> pair_aff,
                        std::size_t member) {
  return (apref[member] + RelativePreference(apref, pair_aff, member)) / 2.0;
}

void AllMemberPreferences(std::span<const double> apref,
                          std::span<const double> pair_aff,
                          std::span<double> out) {
  const std::size_t g = apref.size();
  assert(out.size() == g);
  for (std::size_t u = 0; u < g; ++u) {
    out[u] = MemberPreference(apref, pair_aff, u);
  }
}

void ExpandPairWeights(std::span<const double> pair_aff, std::size_t g,
                       std::span<double> w) {
  assert(pair_aff.size() == NumUserPairs(g));
  assert(w.size() == g * g);
  std::fill(w.begin(), w.end(), 0.0);
  for (std::size_t a = 0; a < g; ++a) {
    for (std::size_t b = a + 1; b < g; ++b) {
      const double aff = pair_aff[LocalPairIndex(a, b, g)];
      w[a * g + b] = aff;
      w[b * g + a] = aff;
    }
  }
}

void AllMemberPreferencesDense(std::span<const double> apref,
                               std::span<const double> w,
                               std::span<double> out) {
  const std::size_t g = apref.size();
  assert(out.size() == g);
  assert(w.size() == g * g);
  if (g < 2) {
    if (g == 1) out[0] = apref[0] / 2.0;
    return;
  }
  // rpref divides by (g − 1) exactly as the packed form does — multiplying by
  // a precomputed reciprocal would drift by an ulp when g − 1 is not a power
  // of two, breaking the bit-identity contract.
  const double pair_count = static_cast<double>(g - 1);
  for (std::size_t u = 0; u < g; ++u) {
    const double* row = w.data() + u * g;
    double sum = 0.0;
    for (std::size_t v = 0; v < g; ++v) sum += row[v] * apref[v];
    out[u] = (apref[u] + sum / pair_count) / 2.0;
  }
}

}  // namespace greca
