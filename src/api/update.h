// The mutation surface of the snapshot-centric serving API.
//
// The paper's GRECA assumes a frozen ratings matrix and a frozen affinity
// study; a serving system does not get that luxury — members keep rating
// items while queries are in flight. Updates enter the engine as batches of
// RatingEvents through Engine::ApplyUpdates (or
// GroupRecommender::ApplyRatingUpdates); the writer folds the batch into the
// per-user delta log (dataset/ratings_overlay.h — O(delta), never a full
// re-fold), rebuilds the affected per-user CF predictions and index rows OFF
// the serving path and publishes the result as a brand-new immutable
// Snapshot (snapshot.h). Queries that pinned the previous snapshot keep it
// until they finish — reads never block on writes, writes never corrupt
// reads. Batches that arrive while a publish is in flight coalesce into ONE
// next generation (group commit): every caller still blocks until its events
// are live, but under write pressure the expensive rebuild is paid once per
// coalesced round, not once per caller.
#ifndef GRECA_API_UPDATE_H_
#define GRECA_API_UPDATE_H_

#include <cstdint>

#include "common/types.h"

namespace greca {

/// One live rating by a study participant on a universe item. Matches the
/// dataset semantics of RatingsDataset::FromRecords: a (user, item) pair
/// keeps its latest-(timestamp, rating) rating, so an event no newer than
/// the stored rating of the same pair — exact redelivered duplicates
/// included — is ignored (and counted as stale).
struct RatingEvent {
  /// Study participant id (NOT a universe user id).
  UserId user = kInvalidUser;
  /// Universe item id.
  ItemId item = kInvalidItem;
  /// Rating on the universe's star scale.
  Score rating = 0.0;
  Timestamp timestamp = 0;

  friend bool operator==(const RatingEvent&, const RatingEvent&) = default;
};

/// What one ApplyUpdates call did — filled for observability and benches.
struct UpdateReport {
  /// Generation id of the snapshot that carries this call's events. When the
  /// call published nothing (empty batch, or every event stale), this is the
  /// CURRENT generation at return — never 0 after a successful call, so it
  /// is always distinguishable from "never published".
  std::uint64_t published_generation = 0;
  /// Distinct study users whose CF predictions + index rows were rebuilt by
  /// the publish that carried this call's events. Under group commit this is
  /// the coalesced round's union, shared by every coalesced caller.
  std::size_t users_rebuilt = 0;
  /// Events from THIS batch that took effect (new (user, item) pair, or won
  /// latest-(timestamp, rating)-wins against the stored rating).
  std::size_t events_applied = 0;
  /// Events from THIS batch that changed nothing: no newer than the stored
  /// rating for the same (user, item) — exact duplicates included.
  /// events_applied + events_ignored_stale == batch size once validation
  /// passed.
  std::size_t events_ignored_stale = 0;
  /// ApplyUpdates calls whose events this call's publish carried (>= 1; > 1
  /// means group commit coalesced concurrent callers into one generation).
  std::size_t batches_coalesced = 0;
  /// True when this publish folded the delta log back into a fresh immutable
  /// base (see RecommenderOptions::compact_delta_fraction).
  bool compacted = false;
  /// Delta-log entries resident after this call (0 right after compaction).
  std::size_t delta_log_ratings = 0;
};

}  // namespace greca

#endif  // GRECA_API_UPDATE_H_
