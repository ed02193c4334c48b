// Shard-per-core serving engine: N independent publishers, one scatter/
// gather query path.
//
// ShardedEngine partitions the user population across N Shards with a
// ShardRouter (hash or range). Each shard owns its slice's PreferenceIndex
// rows, RatingsOverlay delta log and RCU publish cadence; the engine owns
// everything population-global — the popularity pool, the AffinitySource,
// the (group, period) list cache, and the prediction backend behind the
// shards' shared PoolPredictor.
//
// Queries scatter/gather at problem-assembly time, zero-copy: for each
// group member the engine asks the router for the owning shard and slices
// that shard's pinned index/overlay into a MemberSlice; the shared assembly
// (core/problem_assembly.h) then builds EXACTLY the problem a monolithic
// engine would build — every shard speaks the same pool-position key space
// and every row is bit-identical to its monolithic counterpart, so
// recommendations and access counts are bit-identical at any shard count
// (tests/sharded_equivalence_test.cc). A query pins one generation per
// touched shard in a ShardedSnapshotSet; shards publishing mid-query cannot
// perturb it.
//
// Updates scatter by ownership: ApplyUpdates validates the whole batch
// up front (all-or-nothing, like the monolithic path), splits it per shard
// preserving arrival order, and applies the sub-batches shard by shard —
// each touched shard publishes independently, under its own build lock.
// The index clone is copy-on-write (only the pages holding touched rows are
// copied) at any shard count, so sharding buys publish parallelism and
// narrower pins, not cheaper copies; bench/bench_shard.cc measures both.
//
// Sub-batches publish in shard order, so a concurrent reader can observe
// shard A post-batch while shard B is still pre-batch; each shard's
// snapshot is individually consistent, and per-user ordering is preserved
// (a user's events all land on one shard). Callers needing a cross-shard
// fence pin a set AFTER ApplyUpdates returns.
#ifndef GRECA_SHARD_SHARDED_ENGINE_H_
#define GRECA_SHARD_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "affinity/affinity_source.h"
#include "affinity/dynamic_affinity.h"
#include "affinity/periodic_affinity.h"
#include "affinity/static_affinity.h"
#include "api/snapshot.h"
#include "api/update.h"
#include "cf/user_knn.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/group_recommender.h"
#include "dataset/facebook_study.h"
#include "plan/batch_planner.h"
#include "serve/serving_backend.h"
#include "serve/workspace_pool.h"
#include "shard/shard.h"
#include "shard/shard_router.h"

namespace greca {

struct ShardedEngineOptions {
  std::size_t num_shards = 4;
  ShardStrategy strategy = ShardStrategy::kHash;
  /// As on the monolithic engine (compaction triggers per shard); `knn` and
  /// `max_candidate_items` apply to study-backed construction only.
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

/// One pinned generation per shard — what a query (or an explicit caller
/// fence) holds to keep every touched shard's rows alive and stable.
/// Individual ShardSnapshots are immutable; the set itself is a plain
/// vector pinned via shared_ptr.
///
/// Each set also carries its own (group, pool) tombstone-bitmap memo. A
/// bitmap depends on every member's rated items, i.e. on the WHOLE per-shard
/// generation vector — which is exactly what a set pins and never changes —
/// so scoping the memo to the set makes it correct by construction: queries
/// running on the same set (ShardedEngine::Pin reuses one set object while
/// no shard publishes) share bitmaps, while sets pinned across a publish get
/// a fresh memo. This closes the sharded path's bitmap-per-query gap — the
/// monolithic engine has had a generation-scoped memo since the Snapshot
/// grew one.
class ShardedSnapshotSet {
 public:
  explicit ShardedSnapshotSet(
      std::vector<std::shared_ptr<const ShardSnapshot>> shards,
      std::size_t tombstone_cache_max_entries =
          TombstoneCache::kDefaultMaxEntries)
      : shards_(std::move(shards)),
        tombstone_cache_(tombstone_cache_max_entries) {}

  std::size_t num_shards() const { return shards_.size(); }
  const ShardSnapshot& shard(std::size_t s) const { return *shards_[s]; }
  const std::shared_ptr<const ShardSnapshot>& shard_ptr(std::size_t s) const {
    return shards_[s];
  }

  /// The set-scoped (group, pool) tombstone memo (internally synchronized;
  /// hit/miss/eviction counters like the monolithic caches). Mutable state
  /// on an otherwise-immutable pin, hence the const accessor.
  TombstoneCache& tombstone_cache() const { return tombstone_cache_; }

 private:
  std::vector<std::shared_ptr<const ShardSnapshot>> shards_;
  mutable TombstoneCache tombstone_cache_;
};

/// Cross-shard aggregation of one ApplyUpdates call plus the per-shard
/// attribution behind it.
struct ShardedUpdateReport {
  /// Sums of the per-shard counters (events_applied, events_ignored_stale,
  /// users_rebuilt, delta_log_ratings); published_generation is the max
  /// over touched shards, compacted is true when ANY shard compacted,
  /// batches_coalesced the max over touched shards.
  UpdateReport total;
  /// One report per shard, indexed by shard id (untouched shards carry
  /// their current generation and zero counters).
  std::vector<UpdateReport> per_shard;
  /// Shards that received at least one event of this batch.
  std::size_t shards_touched = 0;
};

class ShardedEngine {
 public:
  /// Study-backed construction: same inputs as GroupRecommender/Engine —
  /// builds the UserKnn CF backend, the affinity tables and one shard per
  /// router slot over the study participants. Both references must outlive
  /// the engine; recommendations are bit-identical to a monolithic Engine
  /// built from the same inputs, at any shard count.
  ShardedEngine(const RatingsDataset& universe, const FacebookStudy& study,
                ShardedEngineOptions options);

  /// Generic construction for populations without a study (the scale
  /// harness): ratings + predictor + pool are taken as-is. The engine must
  /// outlive every problem built from it (the affinity source and period
  /// cache are engine-owned).
  ShardedEngine(ShardedEngineInputs inputs, ShardedEngineOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t num_users() const { return router_.num_users(); }
  const ShardRouter& router() const { return router_; }
  const Shard& shard(std::size_t s) const { return *shards_[s]; }

  /// Pins the current generation of EVERY shard (queries pin implicitly;
  /// explicit pins give cross-call stability). Shards publishing while the
  /// set is assembled yield a mix of generations — each individually
  /// consistent, see the header comment.
  ///
  /// While no shard publishes, repeated pins return the SAME set object, so
  /// successive queries share its tombstone memo; any publish makes the next
  /// Pin build a fresh set (and fresh memo). Sets pinned before the publish
  /// keep theirs — still correct for the generations they hold.
  std::shared_ptr<const ShardedSnapshotSet> Pin() const;

  /// Validates the whole batch (all-or-nothing), splits it by owning shard
  /// preserving arrival order, and applies each non-empty sub-batch to its
  /// shard (group-committed per shard). Counter semantics match the
  /// monolithic ApplyRatingUpdates: summed over shards, applied + stale ==
  /// batch size and users_rebuilt counts distinct users with applied
  /// events — the partition is by user, so totals are identical to the
  /// single-engine report for the same events
  /// (tests/sharded_equivalence_test.cc).
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

  /// Batch execution against one pinned set (pinned internally; every query
  /// sees the same per-shard generation vector), planned: duplicate queries
  /// share one assembled + solved problem. Buckets run in parallel over the
  /// batch pool (ShardedEngineOptions::batch_threads) through the unified
  /// serving runtime (serve/batch_executor.h), bit-identical to serial
  /// execution and to sequential Recommend calls on the same set.
  /// `report`, when non-null, receives planner stats + attribution.
  std::vector<Result<Recommendation>> RecommendBatch(
      std::span<const Query> queries, BatchReport* report = nullptr) const;

  /// Set-explicit variant, e.g. to replay a batch on an older pin.
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
  /// The (group, period) list cache shared by every shard generation
  /// (internally synchronized; bounded like GroupRecommender::period_cache).
  PeriodListCache& period_cache() const { return period_cache_; }
  /// The shared popularity pool (identical in every shard's index).
  std::span<const ItemId> pool() const;

 private:
  // The sharded backend of the unified serving runtime forwards to
  // RecommendOnSet.
  friend class ShardedSetServingBackend;

  void BuildShards(std::shared_ptr<const RatingsDataset> base,
                   double scale_max, std::vector<ItemId> pool,
                   std::size_t num_universe_items);

  /// The assemble + solve core shared by Recommend and the batch executor's
  /// backend; `outcome`, when non-null, receives the lazy-agreement flags.
  Result<Recommendation> RecommendOnSet(
      const std::shared_ptr<const ShardedSnapshotSet>& set,
      std::span<const UserId> group, const QuerySpec& spec,
      QueryWorkspace& workspace, SolveOutcome* outcome) const;

  ShardedEngineOptions options_;
  ShardRouter router_;
  std::size_t num_universe_items_ = 0;
  std::size_t num_periods_ = 1;

  // Study-backed state (null/empty on the generic path). knn_ backs the
  // shards' PoolPredictor, so it must outlive them (declaration order).
  std::unique_ptr<UserKnn> knn_;
  PairTable static_;
  std::unique_ptr<PeriodicAffinity> periodic_;
  std::unique_ptr<DynamicAffinityIndex> dynamic_;

  std::shared_ptr<const AffinitySource> affinity_;
  mutable PeriodListCache period_cache_;
  PoolPredictor predictor_;
  /// Engine-owned copy of the shared pool (pool() stays valid without
  /// pinning any shard generation).
  std::vector<ItemId> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Batch parallelism (null when batch_threads == 1) + the workspace pool
  // concurrent batches lease their per-worker scratch from.
  std::unique_ptr<ThreadPool> batch_pool_;
  mutable WorkspacePool workspace_pool_;

  // Pin() reuse: the last set handed out, returned again while every shard's
  // snapshot pointer is unchanged so repeat pins share its tombstone memo.
  // Guarded by pin_mu_ (the per-shard snapshot reads take each shard's own
  // publication mutex, exactly like an un-reused pin).
  mutable std::mutex pin_mu_;
  mutable std::shared_ptr<const ShardedSnapshotSet> last_pin_;
};

}  // namespace greca

#endif  // GRECA_SHARD_SHARDED_ENGINE_H_
