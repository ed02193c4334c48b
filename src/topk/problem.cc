#include "topk/problem.h"

#include <cassert>
#include <utility>
#include <vector>

#include "affinity/static_affinity.h"
#include "preference/preference_model.h"

namespace greca {

GroupProblem::GroupProblem(std::size_t num_items, std::size_t num_candidates,
                           std::span<const ListView> preference_views,
                           ListView static_view,
                           std::span<const ListView> period_views,
                           AffinityCombiner combiner, ConsensusSpec consensus,
                           ProblemArena& arena, ConsensusWeights weights,
                           std::unique_ptr<ProblemArena> backing)
    : num_items_(num_items),
      num_candidates_(num_candidates),
      combiner_(std::move(combiner)),
      consensus_(std::move(consensus)),
      weights_(weights),
      uses_agreement_(consensus_.disagreement == DisagreementKind::kPairwise &&
                      preference_views.size() >= 2),
      owned_arena_(std::move(backing)),
      arena_(&arena),
      preference_views_(preference_views),
      static_view_(static_view),
      period_views_(period_views) {
  assert(!preference_views_.empty());
  assert(num_candidates_ <= num_items_);
  assert(period_views_.size() == combiner_.num_periods());
  assert(owned_arena_ == nullptr || owned_arena_.get() == arena_);
  assert(weights_.uniform() || weights_.member.size() == group_size());
  assert(weights_.uniform() || weights_.pair.size() == num_pairs());
  if (uses_agreement_) BuildAgreementList();
}

void GroupProblem::BuildAgreementList() {
  const std::size_t g = group_size();
  const double num_pairs = static_cast<double>(NumUserPairs(g));
  const bool weighted = !weights_.pair.empty();
  std::vector<ListEntry>& scratch = arena_->entry_scratch;
  scratch.clear();
  scratch.reserve(num_items_);
  // Each member's score is looked up once per key, then every pair reads it.
  std::vector<double>& scores = arena_->agreement_scores;
  scores.assign(g, 0.0);
  for (ListKey key = 0; key < num_items_; ++key) {
    if (!IsCandidate(key)) continue;
    for (std::size_t u = 0; u < g; ++u) {
      scores[u] = preference_views_[u].ScoreOfKey(key);
    }
    double sum = 0.0;
    std::size_t q = 0;
    for (std::size_t a = 0; a < g; ++a) {
      for (std::size_t b = a + 1; b < g; ++b, ++q) {
        const double ag = PairAgreement(scores[a], scores[b],
                                        consensus_.disagreement_scale);
        sum += weighted ? weights_.pair[q] * ag : ag;
      }
    }
    // Weighted pair weights already sum to 1; the uniform path divides.
    scratch.push_back({key, weighted ? sum : sum / num_pairs});
  }
  arena_->agreement_list.AssignUnsorted(scratch,
                                        static_cast<ListKey>(num_items_));
  agreement_view_ = ListView(arena_->agreement_list);
}

std::size_t GroupProblem::TotalEntries() const {
  std::size_t total = static_view_.size();
  for (const ListView& list : preference_views_) total += list.size();
  for (const ListView& list : period_views_) total += list.size();
  // The agreement list holds one entry per live candidate.
  if (uses_agreement_) total += num_candidates_;
  return total;
}

std::size_t GroupProblem::PairIndex(std::size_t a, std::size_t b) const {
  return LocalPairIndex(a, b, group_size());
}

double GroupProblem::ExactPairAffinity(std::size_t q) const {
  const auto key = static_cast<ListKey>(q);
  const double aff_s = static_view_.ScoreOfKey(key);
  std::vector<double> aff_p;
  aff_p.reserve(period_views_.size());
  for (const ListView& list : period_views_) {
    aff_p.push_back(list.ScoreOfKey(key));
  }
  return combiner_.Combine(aff_s, aff_p);
}

std::vector<double> GroupProblem::ExactPairAffinities() const {
  std::vector<double> out(num_pairs());
  for (std::size_t q = 0; q < out.size(); ++q) {
    out[q] = ExactPairAffinity(q);
  }
  return out;
}

void GroupProblem::MemberPreferences(std::span<const double> apref,
                                     std::span<const double> pair_aff,
                                     std::span<double> out) const {
  assert(apref.size() == group_size());
  assert(pair_aff.size() == num_pairs());
  AllMemberPreferences(apref, pair_aff, out);
}

void GroupProblem::ExpandPairWeights(std::span<const double> pair_aff,
                                     std::span<double> w) const {
  assert(pair_aff.size() == num_pairs());
  assert(w.size() == group_size() * group_size());
  greca::ExpandPairWeights(pair_aff, group_size(), w);
}

void GroupProblem::MemberPreferencesDense(std::span<const double> apref,
                                          std::span<const double> w,
                                          std::span<double> out) const {
  assert(apref.size() == group_size());
  assert(w.size() == group_size() * group_size());
  AllMemberPreferencesDense(apref, w, out);
}

double GroupProblem::ExactScore(ListKey key) const {
  const std::size_t g = group_size();
  std::vector<double> apref(g);
  for (std::size_t u = 0; u < g; ++u) {
    apref[u] = preference_views_[u].ScoreOfKey(key);
  }
  const std::vector<double> pair_aff = ExactPairAffinities();
  std::vector<double> prefs(g);
  MemberPreferences(apref, pair_aff, prefs);
  if (uses_agreement_) {
    return ConsensusScoreWithAgreement(
        consensus_, prefs, agreement_list().ScoreOfKey(key), weights_);
  }
  return ConsensusScore(consensus_, prefs, weights_);
}

}  // namespace greca
