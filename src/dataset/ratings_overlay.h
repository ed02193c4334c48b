// Per-user delta log over an immutable RatingsDataset base.
//
// The live-update path used to re-fold the ENTIRE study-ratings dataset into
// a fresh CSR on every publish, so publish latency grew linearly as live
// ratings accumulated. RatingsOverlay keeps the base immutable and overlays a
// compact per-user delta log instead: each touched user owns one small row of
// live ratings (sorted by item, latest-(timestamp, rating)-wins already
// applied), and every read merges base + delta on the fly. Applying a batch
// of events is O(delta) — it rebuilds only the touched users' delta rows and
// shares everything else — and a periodic Compact() folds the log back into a
// fresh immutable base off the serving path (see the compaction policy knobs
// in RecommenderOptions).
//
// Merge semantics are EXACTLY RatingsDataset::FromRecords: per (user, item)
// the winner is the lexicographic max of (timestamp, rating), so replaying
// any event sequence through overlays — with or without intermediate
// compactions — yields bit-identical state to one full re-fold
// (tests/delta_log_test.cc enforces this, recommendations included). An
// event EQUAL to the stored rating is a no-op and counts as stale (the
// folded value is identical either way), so redelivered duplicate batches
// change nothing and publish nothing.
//
// Instances are immutable after construction; WithEvents() returns a new
// overlay that shares the base and all untouched delta rows (shared_ptr per
// row), which is what lets snapshot generations stay cheap. The row
// pointers live in pages of kPageUsers users, so publishing a batch copies
// one pointer per page plus the pages holding touched users, not one
// pointer per user: at 50 000 users with live rows on most of them,
// per-user pointers make the refcount traffic of that copy, and of freeing
// the retired overlay, the bulk of a publish.
#ifndef GRECA_DATASET_RATINGS_OVERLAY_H_
#define GRECA_DATASET_RATINGS_OVERLAY_H_

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "dataset/ratings.h"

namespace greca {

class RatingsOverlay {
 public:
  /// What one WithEvents() fold did, per input batch.
  struct ApplyStats {
    /// Events that took effect (new (user, item) pair, or strictly won
    /// latest-wins against the stored rating).
    std::size_t applied = 0;
    /// Events silently superseded: a (timestamp, rating) no newer than the
    /// stored rating of the same (user, item) pair — including exact
    /// duplicates, which change nothing.
    std::size_t ignored_stale = 0;
    /// Distinct users with at least one applied event, ascending. Users all
    /// of whose events were stale are NOT listed — nothing about them
    /// changed, so nothing needs rebuilding.
    std::vector<UserId> touched_users;
  };

  /// An empty delta log over `base` (must be non-null).
  explicit RatingsOverlay(std::shared_ptr<const RatingsDataset> base);

  /// A new overlay with `events` folded in, latest-(timestamp, rating) wins
  /// per (user, item) — the RatingsDataset::FromRecords rule, applied
  /// sequentially in event order (deterministic for coalesced batches).
  /// Only the touched users' delta rows are rebuilt; the base and every
  /// other row are shared with this overlay. Event ids must be in range
  /// (callers validate; asserts in debug builds).
  std::shared_ptr<const RatingsOverlay> WithEvents(
      std::span<const RatingRecord> events, ApplyStats* stats = nullptr) const;

  /// Folds base + delta into one fresh immutable dataset — the compaction
  /// step. Bit-identical to FromRecords over the base records plus every
  /// winning live event.
  RatingsDataset Compact() const;

  const RatingsDataset& base() const { return *base_; }
  const std::shared_ptr<const RatingsDataset>& base_ptr() const {
    return base_;
  }

  std::size_t num_users() const { return base_->num_users(); }
  std::size_t num_items() const { return base_->num_items(); }

  /// Total delta-row entries (the resident size of the log).
  std::size_t delta_ratings() const { return delta_entries_; }
  /// Merged rating count: base plus delta entries for pairs new to the base.
  std::size_t num_ratings() const {
    return base_->num_ratings() + delta_only_entries_;
  }

  /// User `u`'s live delta row (sorted ascending by item; empty when the
  /// user has no live ratings). Every entry wins latest-(timestamp, rating)
  /// against its base counterpart by construction.
  std::span<const UserRatingEntry> DeltaOfUser(UserId u) const {
    const auto& page = pages_[u / kPageUsers];
    if (page == nullptr) return {};
    const Row& row = (*page)[u % kPageUsers];
    return row == nullptr ? std::span<const UserRatingEntry>()      // empty
                          : std::span<const UserRatingEntry>(*row);
  }

  /// User `u`'s merged ratings (base with delta overrides), sorted ascending
  /// by item — identical to RatingsOfUser on the compacted dataset. Returns
  /// the base row directly when the user has no delta (no copy); otherwise
  /// materializes into `scratch` and returns a span over it.
  std::span<const UserRatingEntry> MergedRatingsOfUser(
      UserId u, std::vector<UserRatingEntry>& scratch) const;

  /// Merged O(log) lookup: the delta row first, then the base.
  std::optional<Score> GetRating(UserId u, ItemId i) const;
  bool HasRating(UserId u, ItemId i) const {
    return GetRating(u, i).has_value();
  }

 private:
  /// One user's live delta row: sorted ascending by item and deduplicated
  /// (one entry per item); null = no live ratings.
  using Row = std::shared_ptr<const std::vector<UserRatingEntry>>;
  static constexpr std::size_t kPageUsers = 64;
  using Page = std::array<Row, kPageUsers>;

  std::shared_ptr<const RatingsDataset> base_;  // never null
  /// User u's row is (*pages_[u / kPageUsers])[u % kPageUsers]; a null page
  /// holds no live rows. Pages are immutable once the overlay is built and
  /// shared with the overlays folded from it.
  std::vector<std::shared_ptr<const Page>> pages_;
  std::size_t delta_entries_ = 0;       // Σ row sizes
  std::size_t delta_only_entries_ = 0;  // Σ entries whose item is not in base
};

}  // namespace greca

#endif  // GRECA_DATASET_RATINGS_OVERLAY_H_
