// User-based k-nearest-neighbor collaborative filtering.
//
// The paper computes absolute preferences apref(u, i) with collaborative
// filtering over MovieLens using cosine similarity (§4). This engine scores a
// query profile (any sparse rating vector — a dataset user or an external
// study participant) against the whole dataset, picks the top-K most similar
// users, and predicts each item's rating as the similarity-weighted mean of
// neighbor ratings with a Bayesian fallback to the item mean.
//
// A prediction is two steps: a rater-list walk that accumulates the
// profile's dot product with every dataset user, dots[v] += w · r(v, i) for
// each profile item i of weight w, and a tail that turns the dots into
// cosines, keeps the top K and aggregates the neighbors' ratings.
// UserKnn::PredictAll walks the whole profile into zeroed dots;
// UserKnnStates (below) keeps a user's dots and walks only what changed.
#ifndef GRECA_CF_USER_KNN_H_
#define GRECA_CF_USER_KNN_H_

#include <span>
#include <vector>

#include "common/types.h"
#include "dataset/ratings.h"

namespace greca {

struct UserKnnConfig {
  /// Neighborhood size (top similar users kept per query).
  std::size_t num_neighbors = 40;
  /// Neighbors below this cosine are dropped.
  double min_similarity = 0.01;
  /// Shrinkage toward the item mean when few neighbors rated an item:
  /// pred = (Σ sim·r + shrinkage·item_mean) / (Σ sim + shrinkage).
  double shrinkage = 0.25;
};

class UserKnn {
 public:
  /// Keeps a reference to `dataset`; it must outlive this object.
  UserKnn(const RatingsDataset& dataset, UserKnnConfig config);

  /// Top-K most similar dataset users to the profile, descending similarity.
  /// The profile must be sorted ascending by item (RatingsOfUser format).
  std::vector<ScoredUser> Neighbors(
      std::span<const UserRatingEntry> profile) const;

  /// Predicted rating of every item, on the dataset's rating scale.
  /// Items rated by no neighbor fall back to their (shrunk) item mean.
  std::vector<Score> PredictAll(
      std::span<const UserRatingEntry> profile) const;

  const RatingsDataset& dataset() const { return *dataset_; }

 private:
  friend class UserKnnStates;

  /// The rater-list walk: dots[v] += w · r(v, i) for every entry (i, w) of
  /// `weights` (read as item, rating) and every rater v of item i.
  void AddDots(std::span<const UserRatingEntry> weights,
               std::span<double> dots) const;
  /// The top-K selection over a profile's dots with every dataset user.
  std::vector<ScoredUser> SelectNeighbors(
      std::span<const UserRatingEntry> profile,
      std::span<const double> dots) const;
  /// The shared tail: selection, then the neighbors' weighted mean per item.
  std::vector<Score> PredictFromDots(std::span<const UserRatingEntry> profile,
                                     std::span<const double> dots) const;

  const RatingsDataset* dataset_;
  UserKnnConfig config_;
  std::vector<double> user_norms_;   // ‖ratings(u)‖ for all dataset users
  std::vector<double> item_means_;   // global-mean-shrunk item means
  double global_mean_ = 0.0;
  // The dataset meets UserKnnStates' exactness precondition, so dot
  // products updated by differences are exact.
  bool exact_dots_ = false;
};

/// Writer-side re-predict state: for each of `num_users` query users, the
/// profile last predicted and its dot product with every dataset user.
///
/// Predict(u, profile) returns exactly PredictAll(profile), bit for bit.
/// When the stored dots are exact it merge-diffs the stored profile against
/// the new one and walks only the changed items' rater lists, adding
/// (new − old) · r; otherwise it walks the whole profile into zeroed dots.
///
/// Exactness precondition: every rating in the dataset and in both profiles
/// is a multiple of 0.5 with |r| ≤ 1024, and the dataset has at most 2^29
/// items. Every product is then a multiple of 0.25 of at most 2^21 and every
/// partial sum a multiple of 0.25 below 2^51, so each addition is exact in
/// double and the updated dots equal a fresh walk's in every bit. The
/// UserKnn constructor checks the dataset; Predict checks each profile.
/// MovieLens star ratings meet it; a profile that does not (a rating of
/// 3.7, or 1500) is walked from zero, and the user's next call is too.
///
/// Memory: a user holds no state until its first Predict, then
/// num_dataset_users doubles plus its profile: 6 040 × 8 B ≈ 47 KB per user
/// over MovieLens 1M, at most 72 × 47 KB ≈ 3.5 MB for the paper's study.
///
/// Every user's slot exists from construction on, so concurrent calls on
/// distinct users are safe; calls on one user must be serialized.
class UserKnnStates {
 public:
  /// Keeps a reference to `knn`; it must outlive this object.
  UserKnnStates(const UserKnn& knn, std::size_t num_users);

  /// PredictAll(profile), reusing and then replacing `user`'s state.
  /// `user` < num_users; the profile is sorted ascending by item.
  std::vector<Score> Predict(UserId user,
                             std::span<const UserRatingEntry> profile);

 private:
  struct State {
    std::vector<UserRatingEntry> profile;
    std::vector<double> dots;
    // dots hold the exact dot products of `profile`.
    bool exact = false;
  };

  const UserKnn* knn_;
  std::vector<State> states_;
};

}  // namespace greca

#endif  // GRECA_CF_USER_KNN_H_
