// Shard-per-core serving engine: N row partitions, one publication point,
// one scatter/gather query path.
//
// ShardedEngine partitions the user population across N Shards with a
// ShardRouter (hash or range). Each shard builds its slice's
// PreferenceIndex rows; the engine owns everything population-global — the
// popularity pool, the AffinitySource (StudyAffinitySource::FromStudy on
// the study path, the same setup the monolithic GroupRecommender uses), the
// prediction backend behind the shards' PoolPredictor — and the write path,
// which is the monolithic one: one RatingsOverlay over the shared base, one
// RatingPublisher (group commit, build lock, generation counter, compaction
// trigger) and one published ShardedSnapshotSet.
//
// Queries scatter/gather at problem-assembly time, zero-copy: for each
// group member the engine asks the router for the owning shard and slices
// that shard's entry of the pinned set into a MemberSlice; the shared
// assembly (core/problem_assembly.h) then builds EXACTLY the problem a
// monolithic engine would build — every shard speaks the same pool-position
// key space and every row is bit-identical to its monolithic counterpart,
// so recommendations and access counts are bit-identical at any shard count
// (tests/sharded_equivalence_test.cc). Like the monolithic engine, a query
// is BuildProblem on the pinned set then SolveGroupProblem, alone
// (Recommend) or in a batch (RecommendBatch through serve/batch_executor.h).
//
// Updates publish atomically across shards: ApplyUpdates validates the
// whole batch up front (all-or-nothing), folds it into the one overlay,
// re-predicts each touched shard's users and clones that shard's index
// (copy-on-write: only the pages holding touched rows are copied), then
// swaps the next set in once. Every entry of the new set carries the new
// generation and overlay; untouched shards share their index with the old
// set. A reader therefore sees a publish in every shard or in none.
#ifndef GRECA_SHARD_SHARDED_ENGINE_H_
#define GRECA_SHARD_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "affinity/affinity_source.h"
#include "api/snapshot.h"
#include "api/update.h"
#include "cf/user_knn.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/group_recommender.h"
#include "dataset/facebook_study.h"
#include "dataset/rating_publisher.h"
#include "plan/batch_planner.h"
#include "serve/workspace_pool.h"
#include "shard/shard.h"
#include "shard/shard_router.h"

namespace greca {

struct ShardedEngineOptions {
  /// 0 reads as 1 (one shard holding every user).
  std::size_t num_shards = 4;
  ShardStrategy strategy = ShardStrategy::kHash;
  /// As on the monolithic engine (the compaction trigger reads the engine's
  /// one overlay, so its cadence does not depend on the shard count);
  /// `knn` and `max_candidate_items` apply to study-backed construction
  /// only.
  RecommenderOptions recommender;
  /// Worker threads fanning out the initial per-row index fills at
  /// construction (0 = serial; results are bit-identical either way).
  std::size_t build_threads = 0;
  /// Worker threads for RecommendBatch's planner buckets. 0 picks
  /// max(2, hardware_concurrency); 1 runs every bucket inline on the calling
  /// thread — the serial reference the parallel path is bit-identical to.
  std::size_t batch_threads = 0;
};

/// The generic (study-free) construction inputs — the million-user scale
/// path, where predictions come from a caller-supplied PoolPredictor
/// instead of a CF model over a study.
struct ShardedEngineInputs {
  /// The population's own ratings (delta-log base; must cover every user).
  std::shared_ptr<const RatingsDataset> ratings;
  /// Population-global affinity backend (ConstantAffinitySource for
  /// populations with no social signal). Must cover num_users.
  std::shared_ptr<const AffinitySource> affinity;
  PoolPredictor predictor;
  /// Raw predictor scores are divided by this before clamping to [0, 1]
  /// (the star-scale max).
  double prediction_scale_max = 5.0;
  /// The shared popularity pool (universe items, popularity order). Items
  /// >= num_universe_items and repeats are dropped (the first occurrence
  /// of an item keeps its place); pool() reports what remains.
  std::vector<ItemId> pool;
  std::size_t num_universe_items = 0;
  std::size_t num_periods = 1;
};

/// One published generation of the engine: one entry per shard, all
/// stamped with the same generation and overlay. What Pin() hands out and a
/// query holds to keep every shard's rows alive and stable. Immutable: it
/// has no mutable member and no lock, so any number of queries may read one
/// set at once.
class ShardedSnapshotSet {
 public:
  explicit ShardedSnapshotSet(
      std::vector<std::shared_ptr<const ShardSnapshot>> shards)
      : shards_(std::move(shards)) {}

  std::size_t num_shards() const { return shards_.size(); }
  const ShardSnapshot& shard(std::size_t s) const { return *shards_[s]; }
  const std::shared_ptr<const ShardSnapshot>& shard_ptr(std::size_t s) const {
    return shards_[s];
  }

  /// Kept for perfbench until ROADMAP item 1: a no-op (see
  /// TombstoneCache); assembly builds the tombstone bitmap per query.
  const TombstoneCache& tombstone_cache() const {
    static constexpr TombstoneCache kNone;
    return kNone;
  }

 private:
  std::vector<std::shared_ptr<const ShardSnapshot>> shards_;
};

/// What one ApplyUpdates call did, engine-wide and per shard.
struct ShardedUpdateReport {
  /// The publish's report, field for field what the monolithic
  /// ApplyRatingUpdates reports for the same events.
  UpdateReport total;
  /// One report per shard, indexed by shard id. Every shard's entry of a
  /// set carries the set's generation, so each carries the publish's
  /// published_generation, compacted, delta_log_ratings and
  /// batches_coalesced; the fold is engine-wide, so events_applied,
  /// events_ignored_stale and users_rebuilt stay zero (read them off
  /// `total`).
  std::vector<UpdateReport> per_shard;
  /// Shards owning at least one event's user.
  std::size_t shards_touched = 0;
};

class ShardedEngine {
 public:
  /// Study-backed construction: same inputs as GroupRecommender/Engine —
  /// builds the UserKnn CF backend, the affinity source
  /// (StudyAffinitySource::FromStudy) and one shard per router slot over the
  /// study participants. Both references must outlive the engine;
  /// recommendations are bit-identical to a monolithic Engine built from the
  /// same inputs, at any shard count.
  ShardedEngine(const RatingsDataset& universe, const FacebookStudy& study,
                ShardedEngineOptions options);

  /// Generic construction for populations without a study (the scale
  /// harness): ratings + predictor + pool are taken as-is. The engine must
  /// outlive every problem built from it (the affinity source is
  /// engine-owned).
  ShardedEngine(ShardedEngineInputs inputs, ShardedEngineOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t num_users() const { return router_.num_users(); }
  const ShardRouter& router() const { return router_; }
  const Shard& shard(std::size_t s) const { return *shards_[s]; }

  /// The currently published set (queries pin implicitly; explicit pins
  /// give cross-call stability). A constant-time pointer copy under a light
  /// mutex, for the TSan reason GroupRecommender::snapshot() gives. Repeat
  /// pins return the SAME set until the next publish. Never null.
  std::shared_ptr<const ShardedSnapshotSet> Pin() const {
    std::lock_guard<std::mutex> lock(published_mu_);
    return published_;
  }

  /// Validates the whole batch (all-or-nothing) and publishes it through
  /// the engine's one RatingPublisher, group-committed with concurrent
  /// callers: one fold, the touched shards' rows rebuilt, one set swap. The
  /// report's `total` is identical to the monolithic ApplyRatingUpdates
  /// report for the same events (tests/sharded_equivalence_test.cc).
  Status ApplyUpdates(std::span<const RatingEvent> events,
                      ShardedUpdateReport* report = nullptr);

  /// Scatter/gather recommendation against a freshly pinned set.
  Result<Recommendation> Recommend(std::span<const UserId> group,
                                   const QuerySpec& spec,
                                   QueryWorkspace* workspace = nullptr) const;

  /// Snapshot-set-explicit variant: runs entirely against `set`.
  Result<Recommendation> Recommend(
      const std::shared_ptr<const ShardedSnapshotSet>& set,
      std::span<const UserId> group, const QuerySpec& spec,
      QueryWorkspace* workspace = nullptr) const;

  /// Builds the query's problem against `set`, mirroring
  /// GroupRecommender::BuildProblem(snap, …): a null set or an invalid
  /// query yields a non-OK status. Scatter: one zero-copy MemberSlice per
  /// member into its owning shard's pinned generation; the shared assembly
  /// (core/problem_assembly.h) gathers them into exactly the problem the
  /// monolithic engine builds. `candidates_out` and `workspace` behave as
  /// on GroupRecommender::BuildProblem; the problem shares ownership of the
  /// whole set, so its views survive any concurrent publish.
  Result<GroupProblem> BuildProblem(
      const std::shared_ptr<const ShardedSnapshotSet>& set,
      std::span<const UserId> group, const QuerySpec& spec,
      std::vector<ItemId>* candidates_out = nullptr,
      QueryWorkspace* workspace = nullptr) const;

  /// Batch execution against one pinned set (pinned internally; every query
  /// sees the same generation), planned: duplicate queries share one
  /// assembled + solved problem. Buckets run in parallel over the
  /// batch pool (ShardedEngineOptions::batch_threads) through the shared
  /// batch executor (serve/batch_executor.h), bit-identical to serial
  /// execution and to sequential Recommend calls on the same set.
  /// `report`, when non-null, receives planner stats + attribution.
  std::vector<Result<Recommendation>> RecommendBatch(
      std::span<const Query> queries, BatchReport* report = nullptr) const;

  /// Set-explicit variant, e.g. to replay a batch on an older pin. A null
  /// `set` yields one kInvalidArgument per query (`report` is left
  /// untouched).
  std::vector<Result<Recommendation>> RecommendBatch(
      const std::shared_ptr<const ShardedSnapshotSet>& set,
      std::span<const Query> queries, BatchReport* report = nullptr) const;

  Status ValidateQuery(std::span<const UserId> group,
                       const QuerySpec& spec) const;

  std::size_t num_periods() const { return num_periods_; }

  /// Distinct shards owning at least one member of `group` — the scatter
  /// width of a query (bench/bench_shard.cc reports its average per
  /// workload).
  std::size_t ShardsTouched(std::span<const UserId> group) const;

  /// The affinity backend, fixed at construction.
  const AffinitySource& affinity() const { return *affinity_; }
  /// The shared popularity pool (identical in every shard's index).
  std::span<const ItemId> pool() const;

 private:
  void BuildShards(std::shared_ptr<const RatingsDataset> base,
                   double scale_max, std::vector<ItemId> pool,
                   std::size_t num_universe_items);
  /// The publisher's rebuild step (see RatingPublisher::Rebuild): groups
  /// `touched` by shard, rebuilds each touched shard's rows, swaps the next
  /// set in once.
  void PublishSet(std::shared_ptr<const RatingsOverlay> ratings,
                  std::span<const UserId> touched, std::uint64_t generation);

  ShardedEngineOptions options_;
  ShardRouter router_;
  std::size_t num_universe_items_ = 0;
  std::size_t num_periods_ = 1;

  // The study path's CF backend and its per-user state (both null on the
  // generic path). They back predictor_, so they must outlive every publish
  // (declaration order).
  std::unique_ptr<UserKnn> knn_;
  std::unique_ptr<UserKnnStates> knn_states_;

  std::shared_ptr<const AffinitySource> affinity_;
  PoolPredictor predictor_;
  /// Engine-owned copy of the shared pool (pool() stays valid without
  /// pinning a set).
  std::vector<ItemId> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Batch parallelism (null when batch_threads == 1) + the workspace pool
  // concurrent batches lease their per-worker scratch from.
  std::unique_ptr<ThreadPool> batch_pool_;
  mutable WorkspacePool workspace_pool_;

  // The RCU publication point: Pin() copies the pointer, the publisher
  // (serialized by its build lock) swaps in a freshly built set.
  // published_mu_ guards only the pointer — never held while rebuilding.
  // Never null after construction.
  mutable std::mutex published_mu_;
  std::shared_ptr<const ShardedSnapshotSet> published_;
  // The write path: owns the build lock and the generation counter.
  RatingPublisher publisher_{
      [this] {
        // Every entry of a set carries the set's generation and overlay.
        const std::shared_ptr<const ShardedSnapshotSet> cur = Pin();
        return RatingPublisher::Published{cur->shard(0).generation,
                                          cur->shard(0).ratings};
      },
      std::bind_front(&ShardedEngine::PublishSet, this),
      options_.recommender.compact_delta_fraction};
};

}  // namespace greca

#endif  // GRECA_SHARD_SHARDED_ENGINE_H_
