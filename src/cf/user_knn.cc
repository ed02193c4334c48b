#include "cf/user_knn.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace greca {

namespace {

// A rating for which every product and partial sum of the dot walk is exact
// (UserKnnStates' precondition).
bool OnHalfGrid(Score r) {
  return std::abs(r) <= 1024.0 && 2.0 * r == std::trunc(2.0 * r);
}

bool OnHalfGrid(std::span<const UserRatingEntry> profile) {
  return std::all_of(
      profile.begin(), profile.end(),
      [](const UserRatingEntry& e) { return OnHalfGrid(e.rating); });
}

}  // namespace

UserKnn::UserKnn(const RatingsDataset& dataset, UserKnnConfig config)
    : dataset_(&dataset), config_(config) {
  const std::size_t n = dataset.num_users();
  user_norms_.resize(n);
  exact_dots_ = dataset.num_items() <= (std::size_t{1} << 29);
  for (UserId u = 0; u < n; ++u) {
    double sum = 0.0;
    for (const auto& e : dataset.RatingsOfUser(u)) {
      sum += e.rating * e.rating;
      exact_dots_ = exact_dots_ && OnHalfGrid(e.rating);
    }
    user_norms_[u] = std::sqrt(sum);
  }
  global_mean_ = dataset.Stats().mean_rating;
  item_means_.resize(dataset.num_items());
  // Shrink sparse item means toward the global mean (10 pseudo-ratings).
  constexpr double kItemMeanPrior = 10.0;
  for (ItemId i = 0; i < dataset.num_items(); ++i) {
    const auto ratings = dataset.RatingsOfItem(i);
    double sum = 0.0;
    for (const auto& e : ratings) sum += e.rating;
    item_means_[i] =
        (sum + kItemMeanPrior * global_mean_) /
        (static_cast<double>(ratings.size()) + kItemMeanPrior);
  }
}

void UserKnn::AddDots(std::span<const UserRatingEntry> weights,
                      std::span<double> dots) const {
  // Sparse dot products with every dataset user via the item index: for
  // each weighted item, walk that item's rater list.
  for (const auto& w : weights) {
    for (const auto& ie : dataset_->RatingsOfItem(w.item)) {
      dots[ie.user] += w.rating * ie.rating;
    }
  }
}

std::vector<ScoredUser> UserKnn::SelectNeighbors(
    std::span<const UserRatingEntry> profile,
    std::span<const double> dots) const {
  double profile_norm_sq = 0.0;
  for (const auto& pe : profile) profile_norm_sq += pe.rating * pe.rating;
  const double profile_norm = std::sqrt(profile_norm_sq);
  if (profile_norm == 0.0) return {};

  // Bounded heap of the best K so far under (score desc, id asc), a total
  // order, so the kept set and its sorted order are unique; the front is
  // the worst kept neighbor.
  const std::size_t k = config_.num_neighbors;
  if (k == 0) return {};
  const auto better = [](const ScoredUser& a, const ScoredUser& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  };
  std::vector<ScoredUser> top;
  top.reserve(k);
  for (UserId u = 0; u < dataset_->num_users(); ++u) {
    if (dots[u] <= 0.0 || user_norms_[u] == 0.0) continue;
    const double sim = dots[u] / (profile_norm * user_norms_[u]);
    if (!(sim >= config_.min_similarity)) continue;
    const ScoredUser candidate{u, sim};
    if (top.size() < k) {
      top.push_back(candidate);
      std::push_heap(top.begin(), top.end(), better);
    } else if (better(candidate, top.front())) {
      std::pop_heap(top.begin(), top.end(), better);
      top.back() = candidate;
      std::push_heap(top.begin(), top.end(), better);
    }
  }
  std::sort_heap(top.begin(), top.end(), better);
  return top;
}

std::vector<Score> UserKnn::PredictFromDots(
    std::span<const UserRatingEntry> profile,
    std::span<const double> dots) const {
  const auto neighbors = SelectNeighbors(profile, dots);
  std::vector<double> weighted(dataset_->num_items(), 0.0);
  std::vector<double> weights(dataset_->num_items(), 0.0);
  for (const auto& nb : neighbors) {
    for (const auto& e : dataset_->RatingsOfUser(nb.id)) {
      weighted[e.item] += nb.score * e.rating;
      weights[e.item] += nb.score;
    }
  }
  std::vector<Score> predictions(dataset_->num_items());
  for (ItemId i = 0; i < dataset_->num_items(); ++i) {
    predictions[i] =
        (weighted[i] + config_.shrinkage * item_means_[i]) /
        (weights[i] + config_.shrinkage);
  }
  return predictions;
}

std::vector<ScoredUser> UserKnn::Neighbors(
    std::span<const UserRatingEntry> profile) const {
  std::vector<double> dots(dataset_->num_users(), 0.0);
  AddDots(profile, dots);
  return SelectNeighbors(profile, dots);
}

std::vector<Score> UserKnn::PredictAll(
    std::span<const UserRatingEntry> profile) const {
  std::vector<double> dots(dataset_->num_users(), 0.0);
  AddDots(profile, dots);
  return PredictFromDots(profile, dots);
}

UserKnnStates::UserKnnStates(const UserKnn& knn, std::size_t num_users)
    : knn_(&knn), states_(num_users) {}

std::vector<Score> UserKnnStates::Predict(
    UserId user, std::span<const UserRatingEntry> profile) {
  assert(user < states_.size());
  State& state = states_[user];
  const bool exact = knn_->exact_dots_ && OnHalfGrid(profile);
  if (exact && state.exact) {
    // Merge-diff the stored profile against the new one (both ascending by
    // item): an item only in the old profile weighs −old, only in the new
    // one +new, in both with a changed rating new − old.
    std::vector<UserRatingEntry> changed;
    const std::span<const UserRatingEntry> old = state.profile;
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < old.size() || b < profile.size()) {
      if (b == profile.size() ||
          (a < old.size() && old[a].item < profile[b].item)) {
        changed.push_back({old[a].item, -old[a].rating, 0});
        ++a;
      } else if (a == old.size() || profile[b].item < old[a].item) {
        changed.push_back({profile[b].item, profile[b].rating, 0});
        ++b;
      } else {
        if (profile[b].rating != old[a].rating) {
          changed.push_back(
              {profile[b].item, profile[b].rating - old[a].rating, 0});
        }
        ++a;
        ++b;
      }
    }
    knn_->AddDots(changed, state.dots);
  } else {
    state.dots.assign(knn_->dataset_->num_users(), 0.0);
    knn_->AddDots(profile, state.dots);
  }
  state.profile.assign(profile.begin(), profile.end());
  state.exact = exact;
  return knn_->PredictFromDots(profile, state.dots);
}

}  // namespace greca
