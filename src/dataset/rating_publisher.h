// The one rating write path behind every publisher in the system: the
// monolithic GroupRecommender and each Shard of the ShardedEngine. It owns
// group commit (common/group_commit.h), the per-batch delta-log fold, the
// all-stale "publish nothing" rule, the compaction trigger, the build lock
// and the generation counter; the owner supplies only its rebuild step.
// Nothing here references a generation between publishes.
#ifndef GRECA_DATASET_RATING_PUBLISHER_H_
#define GRECA_DATASET_RATING_PUBLISHER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>

#include "api/update.h"
#include "common/group_commit.h"
#include "common/status.h"
#include "common/types.h"
#include "dataset/ratings_overlay.h"

namespace greca {

/// All-or-nothing validation of a rating batch: every event must name a
/// user below `num_users`, an item below `num_items` and carry a finite
/// rating. Returns the first violation; OK for an empty batch.
Status ValidateRatingEvents(std::span<const RatingEvent> events,
                            std::size_t num_users, std::size_t num_items);

class RatingPublisher {
 public:
  /// What the write path reads from the owner's currently published view.
  struct Published {
    std::uint64_t generation = 0;
    std::shared_ptr<const RatingsOverlay> ratings;
  };
  /// Builds the next view over `ratings` (folded, possibly compacted) with
  /// the rows of `touched` (ascending, distinct, non-empty) rebuilt, stamps
  /// it `generation` and swaps it in. Called under the build lock.
  using Rebuild = std::function<void(
      std::shared_ptr<const RatingsOverlay> ratings,
      std::span<const UserId> touched, std::uint64_t generation)>;

  /// Compaction runs once the log exceeds `compact_delta_fraction` of the
  /// base (0 disables it). The owner's initial view is generation 1.
  RatingPublisher(std::function<Published()> published, Rebuild rebuild,
                  double compact_delta_fraction);

  /// Folds one PRE-VALIDATED batch and publishes it (group-committed with
  /// concurrent callers). `report` receives this batch's attribution; an
  /// empty batch publishes nothing and reports the current state.
  Status Apply(std::span<const RatingEvent> events, UpdateReport* report);

 private:
  /// One Apply call waiting in the group-commit queue.
  struct PendingUpdate {
    std::span<const RatingEvent> events;
    UpdateReport report;
    Status status;
    bool done = false;
  };

  void PublishRound(std::span<PendingUpdate* const> round);

  const std::function<Published()> published_;
  const Rebuild rebuild_;
  const double compact_delta_fraction_;

  std::mutex build_mu_;  // serializes every publish of the owner
  std::uint64_t next_generation_ = 2;  // guarded by build_mu_
  GroupCommitQueue<PendingUpdate> commit_;
};

}  // namespace greca

#endif  // GRECA_DATASET_RATING_PUBLISHER_H_
