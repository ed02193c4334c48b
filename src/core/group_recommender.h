// High-level facade: builds group top-k problems from the datasets and runs
// the recommendation algorithms. Downstream applications normally reach it
// through the batch-first `Engine` in src/api/ (see examples/quickstart.cc);
// this layer stays usable directly for tests and benches.
//
// Pipeline per query (ad-hoc group G, evaluation period p):
//  1. candidate items = the top-C prefix of the popular-item pool, with
//     items any member already rated tombstoned (the problem definition
//     excludes individually known items, §2.4);
//  2. absolute preferences apref(u, ·) from user-based CF, precomputed per
//     study participant and held pre-sorted over the pool in one shared
//     PreferenceIndex — per query each member's list is a ListView slice of
//     the index (no sort, no copy);
//  3. static affinities from common friends, normalized within the group;
//  4. periodic affinities from common page-like categories per period,
//     built per query like the static list;
//  5. the chosen temporal model + consensus function form a GroupProblem
//     solved by GRECA / TA / the naive scan.
//
// Serving state that changes with ratings lives in an immutable Snapshot
// (src/api/snapshot.h): the preference index, the CF predictions and the
// study ratings (immutable base + per-user delta log,
// dataset/ratings_overlay.h), all under one generation id. Every query pins
// the current snapshot at entry, so the live-update path —
// ApplyRatingUpdates — can rebuild the affected state off the serving path
// and publish a new generation with an atomic pointer swap (RCU-style)
// without ever blocking or corrupting in-flight queries. The affinity
// source (StudyAffinitySource::FromStudy, the same setup ShardedEngine
// uses) never changes after construction and is owned here (affinity()).
//
// A query is BuildProblem then SolveGroupProblem (core/problem_assembly.h),
// whether it arrives alone (Recommend) or in a batch (Engine::RecommendBatch
// through serve/batch_executor.h).
//
// Update cost is O(delta), not O(dataset): a batch folds into the delta log
// (touched users' rows only), and a compaction policy (RecommenderOptions)
// periodically folds the log back into a fresh immutable base so the overlay
// stays compact. Concurrent ApplyRatingUpdates callers group-commit: batches
// arriving while a publish is in flight coalesce into one next generation,
// each caller blocking only until the coalesced publish lands.
//
// Error handling: invalid queries (empty group, k = 0, unknown member,
// out-of-range period, oversized group) are reported through
// `greca::Status` — Recommend/BuildProblem return Result<> and never assert
// on bad query input.
#ifndef GRECA_CORE_GROUP_RECOMMENDER_H_
#define GRECA_CORE_GROUP_RECOMMENDER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "affinity/affinity_source.h"
#include "affinity/periodic_affinity.h"
#include "affinity/static_affinity.h"
#include "affinity/temporal_model.h"
#include "api/snapshot.h"
#include "api/update.h"
#include "cf/user_knn.h"
#include "common/status.h"
#include "consensus/consensus.h"
#include "core/greca.h"
#include "dataset/facebook_study.h"
#include "dataset/rating_publisher.h"
#include "dataset/ratings_overlay.h"
#include "dataset/synthetic.h"
#include "index/preference_index.h"
#include "topk/problem.h"
#include "topk/result.h"

namespace greca {

/// How member preferences are weighted inside the consensus functions.
enum class MemberWeighting {
  /// Every member counts equally — the historical, bit-identical default.
  kUniform,
  /// Per-member weights from social-graph influence (propagation
  /// centrality over the study's friendship graph), materialized by the
  /// engine's AffinitySource and normalized per group. Flows through every
  /// built-in solver without per-solver code.
  kInfluence,
};

struct RecommenderOptions {
  UserKnnConfig knn;
  /// Candidate pool = the top-N most popular universe items (the paper's
  /// scalability experiments sweep 900..3900 items).
  std::size_t max_candidate_items = 3'900;

  /// Delta-log compaction policy (live updates). Live ratings accumulate in
  /// a per-user delta log (keeping publishes O(delta)); compaction folds the
  /// log back into a fresh immutable base — an O(dataset) step paid rarely
  /// instead of on every publish. A rating publish compacts when the delta
  /// log exceeds this fraction of the base's rating count (0 = never). The
  /// default bounds the overlay — and the per-query merge overhead — to a
  /// quarter of the base. Compaction changes no observable state
  /// (recommendations and reports stay identical — tests/delta_log_test.cc).
  double compact_delta_fraction = 0.25;
};

struct QuerySpec {
  std::size_t k = 10;
  AffinityModelSpec model;
  ConsensusSpec consensus;
  /// Evaluation period index into the study timeline; recommendations use
  /// periods 0..eval_period inclusive. `std::nullopt` means "the last study
  /// period"; explicit indices must be in range — ResolvePeriod rejects
  /// out-of-range values with kOutOfRange instead of clamping.
  std::optional<PeriodId> eval_period;
  /// Built-in solver id (solver/solver_registry.h): "greca", "naive", "ta"
  /// or "submodular". Unknown ids — the empty one included — are rejected
  /// at validation with kInvalidArgument.
  std::string solver_id = "greca";
  /// Per-member consensus weighting (see MemberWeighting). kUniform keeps
  /// the historical bit-identical scoring path.
  MemberWeighting weighting = MemberWeighting::kUniform;
  TerminationPolicy termination = TerminationPolicy::kBufferCondition;
  /// Candidate pool size for this query (<= RecommenderOptions limit).
  std::size_t num_candidate_items = 3'900;

  /// Field-wise equality. Note the batch planner (plan/batch_planner.h)
  /// buckets on RESOLVED periods, so specs differing only in "nullopt vs
  /// explicit last period" compare unequal here but still share a bucket.
  friend bool operator==(const QuerySpec&, const QuerySpec&) = default;
};

/// One group recommendation request: an ad-hoc group of study participants
/// plus the full query configuration. The unit of Engine::RecommendBatch and
/// of the batch planner's bucketing.
struct Query {
  std::vector<UserId> group;
  QuerySpec spec;
};

struct Recommendation {
  /// Universe item ids, best first.
  std::vector<ItemId> items;
  /// Matching (lower-bound) consensus scores.
  std::vector<double> scores;
  /// Raw algorithm output with access statistics.
  TopKResult raw;
  /// GRECA-only execution statistics (zeros for other algorithms).
  GrecaStats greca_stats;
};

/// Reusable per-query buffers: the problem-assembly arena (tombstones,
/// preference views, materialized affinity/agreement lists) plus GRECA's
/// bound buffers. One workspace per worker thread amortizes hot-path
/// allocations across a batch of queries; a workspace must never be shared
/// by concurrent queries, and a problem built into a workspace is
/// invalidated by the workspace's next BuildProblem.
struct QueryWorkspace {
  ProblemArena arena;
  GrecaWorkspace greca;
};

class GroupRecommender {
 public:
  /// Both references must outlive this object (and every snapshot pinned
  /// from it). Construction precomputes CF predictions for every study
  /// participant, builds the affinity source from the study
  /// (StudyAffinitySource::FromStudy) for the recommender's lifetime, and
  /// publishes generation 1.
  /// `universe` may be any collaborative rating dataset — the synthetic twin
  /// or a parsed real MovieLens file.
  GroupRecommender(const RatingsDataset& universe, const FacebookStudy& study,
                   RecommenderOptions options);

  /// Convenience overload for the synthetic universe.
  GroupRecommender(const SyntheticRatings& universe,
                   const FacebookStudy& study, RecommenderOptions options)
      : GroupRecommender(universe.dataset, study, options) {}

  GroupRecommender(const GroupRecommender&) = delete;
  GroupRecommender& operator=(const GroupRecommender&) = delete;

  // --- Snapshot lifecycle (the RCU-style serving contract) ---

  /// The currently published serving state. Queries made through the
  /// parameterless Recommend/BuildProblem pin it implicitly; callers that
  /// need cross-call stability (a batch, a paginated session) pin it once
  /// and pass it to the snapshot-explicit overloads. Never null.
  ///
  /// Pinning is a constant-time pointer copy under a light mutex — the
  /// publication point. Rebuild work always happens outside it, so readers
  /// never wait on a refresh (std::atomic<shared_ptr> would express the
  /// same contract, but libstdc++'s embedded-spinlock implementation is
  /// opaque to ThreadSanitizer, and the TSan CI job is part of this
  /// contract's regression suite).
  std::shared_ptr<const Snapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// Applies a batch of live ratings: validates every event (known study
  /// participant, known universe item), folds them into the per-user delta
  /// log (latest (timestamp, rating) wins per (user, item), matching
  /// RatingsDataset::FromRecords — stale events are counted, not applied),
  /// recomputes the affected users' CF predictions and index rows, and
  /// publishes the result as a new snapshot generation. The fold is
  /// O(delta): the base ratings are never re-folded on the publish path;
  /// the compaction policy in RecommenderOptions periodically folds the log
  /// back into a fresh base. In-flight queries keep their pinned snapshot;
  /// no event is applied when any event is invalid; a batch that changes
  /// nothing (empty, or all events stale) publishes nothing, so every
  /// generation increment still means a real state change.
  ///
  /// Concurrent callers group-commit: batches arriving while a publish is
  /// in flight coalesce into the next generation (one rebuild for the whole
  /// round) and every caller returns once its events are live. Readers are
  /// never blocked. `report`, when non-null, receives what was rebuilt —
  /// per-batch applied/stale counts, the round's coalesced batch count and
  /// the published generation.
  Status ApplyRatingUpdates(std::span<const RatingEvent> events,
                            UpdateReport* report = nullptr);

  // --- Queries ---

  /// Recommends spec.k items to `group` (study participant ids) against the
  /// currently published snapshot. Returns a non-OK status for invalid
  /// queries (see ValidateQuery). `workspace`, when non-null, provides
  /// reusable buffers for batch execution.
  Result<Recommendation> Recommend(std::span<const UserId> group,
                                   const QuerySpec& spec,
                                   QueryWorkspace* workspace = nullptr) const;

  /// Snapshot-explicit variant: runs entirely against `snap`, regardless of
  /// how many generations publish meanwhile — results are bit-identical for
  /// the same (snap, group, spec).
  Result<Recommendation> Recommend(const std::shared_ptr<const Snapshot>& snap,
                                   std::span<const UserId> group,
                                   const QuerySpec& spec,
                                   QueryWorkspace* workspace = nullptr) const;

  /// Builds the underlying top-k problem (exposed for tests and benches)
  /// against the currently published snapshot.
  /// Zero-copy hot path: member preference lists are ListView slices of the
  /// snapshot's PreferenceIndex (pool-prefix keys, group-rated items
  /// tombstoned) — no per-query sort or copy; only the small static,
  /// periodic and agreement lists are materialized into the arena.
  ///
  /// `candidates_out`, when non-null, receives the candidate-pool items in
  /// key order (problem key k ↔ candidates_out[k]; tombstoned keys never
  /// appear in results). When `workspace` is non-null the problem's views
  /// point into its arena — the workspace must outlive the problem and not
  /// be reused before the problem is dropped; when null the problem owns its
  /// arena. Either way the problem shares ownership of the snapshot it was
  /// built from, so its views outlive any subsequent publish.
  Result<GroupProblem> BuildProblem(
      std::span<const UserId> group, const QuerySpec& spec,
      std::vector<ItemId>* candidates_out = nullptr,
      QueryWorkspace* workspace = nullptr) const;

  /// Snapshot-explicit variant of BuildProblem.
  Result<GroupProblem> BuildProblem(
      const std::shared_ptr<const Snapshot>& snap,
      std::span<const UserId> group, const QuerySpec& spec,
      std::vector<ItemId>* candidates_out = nullptr,
      QueryWorkspace* workspace = nullptr) const;

  /// Validates a query without running it: non-empty group of known,
  /// distinct participants (any number, for every solver), a built-in
  /// solver id, k ≥ 1, a non-empty candidate pool and an in-range
  /// evaluation period. Nothing validated depends on the rating
  /// generation, so no snapshot is read.
  Status ValidateQuery(std::span<const UserId> group,
                       const QuerySpec& spec) const;
  /// Same as above: `snap` is unused. The overload stays only because the
  /// perfbench adapter (perfbench/src/serving.cc) still calls it.
  Status ValidateQuery(const Snapshot& snap, std::span<const UserId> group,
                       const QuerySpec& spec) const;

  /// Group cohesiveness signal: overlap-cosine of two participants' own
  /// study ratings (§4.1.3). Reads the immutable as-generated study ratings,
  /// not live updates — it feeds evaluation-group formation, which is
  /// defined on the study artifacts.
  double RatingSimilarity(UserId a, UserId b) const;

  /// Model affinity of a pair at a period (used to form high/low affinity
  /// groups; the 0.4 cut of §4.1.3 applies to this value). `period` follows
  /// the QuerySpec convention (nullopt = last period) and must resolve — this
  /// is an evaluation helper, not a query path, so an out-of-range period is
  /// a programming error (returns 0 in release builds).
  double ModelAffinity(UserId a, UserId b, std::optional<PeriodId> period,
                       const AffinityModelSpec& spec) const;

  /// The affinity backend, fixed at construction.
  const AffinitySource& affinity() const { return *affinity_; }

  /// The study tables behind affinity().
  const PeriodicAffinity& periodic_affinity() const {
    return affinity_->periodic();
  }
  const PairTable& static_affinity() const {
    return affinity_->static_counts();
  }
  const FacebookStudy& study() const { return *study_; }
  std::size_t num_periods() const { return study_->periods.num_periods(); }

  /// The single resolution point for the last-period convention: nullopt
  /// resolves to the last study period, explicit in-range indices to
  /// themselves, and anything else to kOutOfRange.
  Result<PeriodId> ResolvePeriod(std::optional<PeriodId> requested) const;

 private:
  /// The publisher's rebuild step (see RatingPublisher::Rebuild).
  void RebuildRatings(std::shared_ptr<const RatingsOverlay> ratings,
                      std::span<const UserId> touched,
                      std::uint64_t generation);

  const RatingsDataset* universe_;
  const FacebookStudy* study_;
  UserKnn knn_;
  // Publish-side CF state per study participant (RebuildRatings only; the
  // publisher serializes rebuilds).
  UserKnnStates knn_states_;
  std::shared_ptr<const StudyAffinitySource> affinity_;

  // The RCU publication point: queries copy the pointer, the publisher
  // (serialized by its build lock) swaps in a freshly built snapshot.
  // snapshot_mu_ guards only the pointer itself — never held while
  // rebuilding. Never null after construction.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;
  // The write path: owns the build lock and the generation counter.
  RatingPublisher publisher_;
};

}  // namespace greca

#endif  // GRECA_CORE_GROUP_RECOMMENDER_H_
