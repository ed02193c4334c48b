#include "dataset/rating_publisher.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace greca {

Status ValidateRatingEvents(std::span<const RatingEvent> events,
                            std::size_t num_users, std::size_t num_items) {
  for (const RatingEvent& e : events) {
    if (e.user >= num_users) {
      return Status::NotFound("rating event for unknown user " +
                              std::to_string(e.user) + " (population has " +
                              std::to_string(num_users) + ")");
    }
    if (e.item >= num_items) {
      return Status::NotFound("rating event for unknown universe item " +
                              std::to_string(e.item) + " (universe has " +
                              std::to_string(num_items) + ")");
    }
    // A non-finite rating would poison the folded state permanently (CF
    // norms and similarities all turn NaN), so gate it with the rest.
    if (!std::isfinite(e.rating)) {
      return Status::InvalidArgument("rating event with non-finite rating");
    }
  }
  return Status::Ok();
}

RatingPublisher::RatingPublisher(std::function<Published()> published,
                                 Rebuild rebuild,
                                 double compact_delta_fraction)
    : published_(std::move(published)),
      rebuild_(std::move(rebuild)),
      compact_delta_fraction_(compact_delta_fraction) {}

Status RatingPublisher::Apply(std::span<const RatingEvent> events,
                              UpdateReport* report) {
  if (events.empty()) {
    // The report still carries the real current state: a zeroed generation
    // would read as "never published", a zeroed log size as "just
    // compacted".
    if (report != nullptr) {
      const Published cur = published_();
      *report = UpdateReport{};
      report->published_generation = cur.generation;
      report->batches_coalesced = 1;
      report->delta_log_ratings = cur.ratings->delta_ratings();
    }
    return Status::Ok();
  }
  PendingUpdate self;
  self.events = events;
  const Status status = commit_.Commit(
      self, [this](std::span<PendingUpdate* const> round) {
        PublishRound(round);
      });
  if (report != nullptr) *report = self.report;
  return status;
}

void RatingPublisher::PublishRound(std::span<PendingUpdate* const> round) {
  std::lock_guard<std::mutex> lock(build_mu_);
  Published cur = published_();

  // Fold each batch in arrival order; per-batch attribution (applied vs
  // stale) falls out of folding batch by batch.
  std::shared_ptr<const RatingsOverlay> overlay = std::move(cur.ratings);
  std::vector<UserId> touched;
  std::vector<RatingRecord> records;  // the overlay speaks dataset records
  std::size_t round_applied = 0;
  for (PendingUpdate* batch : round) {
    records.clear();
    records.reserve(batch->events.size());
    for (const RatingEvent& e : batch->events) {
      records.push_back({e.user, e.item, e.rating, e.timestamp});
    }
    RatingsOverlay::ApplyStats stats;
    overlay = overlay->WithEvents(records, &stats);
    batch->report = UpdateReport{};
    batch->report.events_applied = stats.applied;
    batch->report.events_ignored_stale = stats.ignored_stale;
    batch->report.batches_coalesced = round.size();
    touched.insert(touched.end(), stats.touched_users.begin(),
                   stats.touched_users.end());
    round_applied += stats.applied;
  }
  if (round_applied == 0) {
    for (PendingUpdate* batch : round) {
      batch->report.published_generation = cur.generation;
      batch->report.delta_log_ratings = overlay->delta_ratings();
    }
    return;
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Compaction stays off the serving path and is amortized across the
  // publishes since the last fold.
  const bool compacted =
      compact_delta_fraction_ > 0.0 &&
      static_cast<double>(overlay->delta_ratings()) >
          compact_delta_fraction_ *
              static_cast<double>(overlay->base().num_ratings());
  if (compacted) {
    overlay = std::make_shared<const RatingsOverlay>(
        std::make_shared<const RatingsDataset>(overlay->Compact()));
  }

  const std::size_t delta_after = overlay->delta_ratings();
  const std::uint64_t generation = next_generation_;
  rebuild_(std::move(overlay), touched, generation);
  ++next_generation_;
  for (PendingUpdate* batch : round) {
    batch->report.published_generation = generation;
    batch->report.users_rebuilt = touched.size();
    batch->report.compacted = compacted;
    batch->report.delta_log_ratings = delta_after;
  }
}

}  // namespace greca
