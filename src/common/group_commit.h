// Reusable group-commit queue for coalescing concurrent writers.
//
// The commit stage of RatingPublisher (dataset/rating_publisher.h), the one
// write path behind the single-index recommender and each Shard of the
// sharded engine. It implements the leader/follower protocol:
//
//  * every caller enqueues its batch and the first caller to find no active
//    leader becomes one;
//  * the leader drains the queue in whole rounds, handing each round to the
//    caller-supplied publish function (one rebuild per round, however many
//    batches coalesced into it);
//  * followers block until their batch's round lands and then return its
//    per-batch status;
//  * when the publish function throws, the leader fails the in-flight round
//    AND every batch still queued (no leader remains to serve them), hands
//    leadership back, and lets the exception reach its own caller — the same
//    visibility a pre-group-commit writer had. Followers see a non-OK
//    status instead of the exception.
//
// The queue guards only its own bookkeeping; the publish function runs with
// no queue lock held, so readers of whatever state it publishes are never
// blocked by the protocol itself.
#ifndef GRECA_COMMON_GROUP_COMMIT_H_
#define GRECA_COMMON_GROUP_COMMIT_H_

#include <condition_variable>
#include <mutex>
#include <span>
#include <vector>

#include "common/status.h"

namespace greca {

/// `Batch` is the caller's per-call record, owned on the caller's stack for
/// the duration of Commit. It must expose two members the protocol drives:
///   Status status;   // non-OK when the batch's round failed
///   bool done;       // flipped (under the queue lock) when the round lands
/// plus whatever payload the publish function reads. The publish function
/// receives one coalesced round (`std::span<Batch* const>`) and must fill
/// each batch's result fields before returning; it may throw, see above.
template <typename Batch>
class GroupCommitQueue {
 public:
  GroupCommitQueue() = default;
  GroupCommitQueue(const GroupCommitQueue&) = delete;
  GroupCommitQueue& operator=(const GroupCommitQueue&) = delete;

  /// Enqueues `batch` and blocks until its round has been published (by this
  /// caller as leader or by a concurrent one). Returns batch.status.
  template <typename PublishRound>
  Status Commit(Batch& batch, const PublishRound& publish_round) {
    {
      std::unique_lock<std::mutex> qlock(mu_);
      queue_.push_back(&batch);
      if (leader_active_) {
        cv_.wait(qlock, [&] { return batch.done; });
        return batch.status;
      }
      leader_active_ = true;
    }
    for (;;) {
      std::vector<Batch*> round;
      {
        std::lock_guard<std::mutex> qlock(mu_);
        round.swap(queue_);
        if (round.empty()) {
          leader_active_ = false;
          break;
        }
      }
      try {
        publish_round(std::span<Batch* const>(round));
      } catch (...) {
        // The leader must never wedge the queue: fail this round AND every
        // batch still queued, hand leadership back, then rethrow to our own
        // caller.
        {
          std::lock_guard<std::mutex> qlock(mu_);
          round.insert(round.end(), queue_.begin(), queue_.end());
          queue_.clear();
          for (Batch* failed : round) {
            failed->status = Status::FailedPrecondition(
                "group-commit publish failed mid-round; retry the batch");
            failed->done = true;
          }
          leader_active_ = false;
        }
        cv_.notify_all();
        throw;
      }
      {
        std::lock_guard<std::mutex> qlock(mu_);
        for (Batch* landed : round) landed->done = true;
      }
      cv_.notify_all();
    }
    return batch.status;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Batch*> queue_;
  bool leader_active_ = false;
};

}  // namespace greca

#endif  // GRECA_COMMON_GROUP_COMMIT_H_
