#include "serving.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "api/engine.h"
#include "cf/user_knn.h"
#include "core/problem_assembly.h"
#include "dataset/facebook_study.h"
#include "dataset/synthetic.h"
#include "eval/satisfaction.h"
#include "shard/sharded_engine.h"

namespace greca::perfbench {

namespace {

std::vector<RatingRecord> ToRecords(std::span<const RatingEvent> events) {
  std::vector<RatingRecord> records;
  records.reserve(events.size());
  for (const RatingEvent& e : events) {
    records.push_back({e.user, e.item, e.rating, e.timestamp});
  }
  return records;
}

bool SameRow(const PreferenceIndex& a, UserId row_a, const PreferenceIndex& b,
             UserId row_b) {
  return std::ranges::equal(a.UserKeys(row_a), b.UserKeys(row_b)) &&
         std::ranges::equal(a.UserScores(row_a), b.UserScores(row_b));
}

class PaperEngine final : public ServingTarget {
 public:
  explicit PaperEngine(std::size_t threads)
      : universe_(GenerateSyntheticRatings(SyntheticRatingsConfig{})),
        study_(GenerateFacebookStudy(FacebookStudyConfig{}, universe_)) {
    EngineOptions engine_options;
    engine_options.num_threads = threads;
    engine_ = std::make_unique<Engine>(universe_, study_, RecommenderOptions{},
                                       engine_options);
    oracle_ = std::make_unique<SatisfactionOracle>(
        universe_.truth, study_.like_truth, study_.universe_user,
        OracleWeights{});
  }

  Result<Recommendation> Recommend(const Query& query) const override {
    return engine_->Recommend(query);
  }
  std::vector<Result<Recommendation>> RecommendBatch(
      std::span<const Query> queries, BatchReport* report) const override {
    return engine_->RecommendBatch(queries, report);
  }
  Status ApplyUpdates(std::span<const RatingEvent> events,
                      UpdateReport* report) override {
    return engine_->ApplyUpdates(events, report);
  }

  Pin PinView() const override { return engine_->snapshot(); }
  Result<Recommendation> RecommendOn(const Pin& pin,
                                     const Query& query) const override {
    return engine_->Recommend(query, Snap(pin));
  }
  std::vector<Result<Recommendation>> RecommendBatchOn(
      const Pin& pin, std::span<const Query> queries,
      BatchReport* report) const override {
    return engine_->RecommendBatch(queries, Snap(pin), report);
  }

  Status Validate(const Pin& pin, const Query& query) const override {
    return engine_->recommender().ValidateQuery(*Snap(pin), query.group,
                                                query.spec);
  }
  Result<GroupProblem> Assemble(const Pin& pin, const Query& query,
                                QueryWorkspace& ws) const override {
    return engine_->recommender().BuildProblem(Snap(pin), query.group,
                                               query.spec, nullptr, &ws);
  }
  std::span<const ItemId> Pool(const Pin& pin) const override {
    return Snap(pin)->index().pool();
  }
  std::size_t NumPeriods() const override {
    return engine_->recommender().num_periods();
  }

  Status TracedApplyUpdates(std::span<const RatingEvent> events, SpanLog* log,
                            std::uint64_t op, bool publish_first,
                            UpdateReport* report, bool* rows_match) override {
    if (knn_ == nullptr) {
      // The shadow re-predict needs its own CF model over the same universe
      // (the engine's is private); same default config, same predictions.
      knn_ = std::make_unique<UserKnn>(universe_.dataset,
                                       RecommenderOptions{}.knn);
    }
    const std::shared_ptr<const Snapshot> cur = engine_->snapshot();
    Status status;
    const auto publish = [&] {
      ScopedSpan span(log, "api.publish", op);
      status = engine_->ApplyUpdates(events, report);
    };
    if (publish_first) publish();
    const std::vector<RatingRecord> records = ToRecords(events);
    RatingsOverlay::ApplyStats stats;
    std::shared_ptr<const RatingsOverlay> overlay;
    {
      ScopedSpan span(log, "dataset.fold", op);
      overlay = cur->ratings().WithEvents(records, &stats);
    }
    const std::vector<UserId>& touched = stats.touched_users;
    std::vector<std::vector<Score>> preds(touched.size());
    {
      ScopedSpan span(log, "cf.predict", op);
      std::vector<UserRatingEntry> scratch;
      for (std::size_t i = 0; i < touched.size(); ++i) {
        preds[i] =
            knn_->PredictAll(overlay->MergedRatingsOfUser(touched[i], scratch));
      }
    }
    const std::vector<std::span<const Score>> pred_views(preds.begin(),
                                                         preds.end());
    std::optional<PreferenceIndex> clone;
    {
      ScopedSpan span(log, "index.clone", op);
      clone.emplace(cur->index().CloneWithUpdatedRows(touched, pred_views));
    }
    if (!publish_first) publish();
    if (!status.ok()) return status;
    if (report->compacted) {
      ScopedSpan span(log, "dataset.compact", op);
      const RatingsDataset compacted = overlay->Compact();
    }
    const std::shared_ptr<const Snapshot> after = engine_->snapshot();
    bool match = after->generation() == report->published_generation;
    for (std::size_t i = 0; match && i < touched.size(); ++i) {
      match = SameRow(after->index(), touched[i], *clone, touched[i]) &&
              std::ranges::equal(after->predictions(touched[i]), preds[i]);
    }
    *rows_match = match;
    return status;
  }

  std::size_t NumUsers() const override { return study_.num_participants(); }
  std::size_t NumShards() const override { return 1; }
  std::size_t ShardOf(UserId) const override { return 0; }
  std::size_t IndexBytes() const override {
    return engine_->snapshot()->index().MemoryBytes();
  }
  std::size_t BatchThreads() const override { return engine_->num_threads(); }
  double SatisfactionPercent(std::span<const UserId> group,
                             std::span<const ItemId> items) const override {
    return oracle_->GroupSatisfactionPercent(
        group, items, static_cast<PeriodId>(NumPeriods() - 1));
  }

 private:
  static std::shared_ptr<const Snapshot> Snap(const Pin& pin) {
    return std::static_pointer_cast<const Snapshot>(pin);
  }

  SyntheticRatings universe_;
  FacebookStudy study_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<SatisfactionOracle> oracle_;
  std::unique_ptr<UserKnn> knn_;  // traced writes only
};

class ScaleEngine final : public ServingTarget {
 public:
  static constexpr std::size_t kNumItems = 50'000;
  static constexpr std::size_t kPoolSize = 256;
  static constexpr std::size_t kNumShards = 4;

  ScaleEngine(std::size_t num_users, std::size_t threads) : threads_(threads) {
    ScaleRatingsConfig config;
    config.num_users = num_users;
    config.num_items = kNumItems;
    SyntheticRatings scale = GenerateScaleRatings(config);
    truth_ = std::move(scale.truth);
    auto base =
        std::make_shared<const RatingsDataset>(std::move(scale.dataset));
    // The user's own (live) rating where one exists, the latent truth
    // everywhere else — so rating events really move the touched rows.
    predictor_ = [this](UserId u, std::span<const UserRatingEntry> merged,
                        std::span<const ItemId> pool, std::span<Score> out) {
      for (std::size_t k = 0; k < pool.size(); ++k) {
        const auto it = std::ranges::lower_bound(merged, pool[k], {},
                                                 &UserRatingEntry::item);
        out[k] = it != merged.end() && it->item == pool[k]
                     ? it->rating
                     : truth_.TruePreference(u, pool[k]);
      }
    };
    ShardedEngineInputs inputs;
    inputs.ratings = base;
    inputs.affinity = std::make_shared<const ConstantAffinitySource>(
        num_users, /*num_periods=*/1, /*static_value=*/1.0,
        /*periodic_value=*/1.0);
    inputs.predictor = predictor_;
    inputs.pool = base->TopPopularItems(kPoolSize);
    inputs.num_universe_items = base->num_items();
    inputs.num_periods = 1;
    ShardedEngineOptions options;
    options.num_shards = kNumShards;
    options.strategy = ShardStrategy::kHash;
    options.build_threads = threads;
    options.batch_threads = threads;
    engine_ = std::make_unique<ShardedEngine>(std::move(inputs), options);
    oracle_ = std::make_unique<SatisfactionOracle>(truth_);
  }

  Result<Recommendation> Recommend(const Query& query) const override {
    return engine_->Recommend(query.group, query.spec);
  }
  std::vector<Result<Recommendation>> RecommendBatch(
      std::span<const Query> queries, BatchReport* report) const override {
    return engine_->RecommendBatch(queries, report);
  }
  Status ApplyUpdates(std::span<const RatingEvent> events,
                      UpdateReport* report) override {
    ShardedUpdateReport sharded;
    const Status status = engine_->ApplyUpdates(events, &sharded);
    *report = sharded.total;
    return status;
  }

  Pin PinView() const override { return engine_->Pin(); }
  Result<Recommendation> RecommendOn(const Pin& pin,
                                     const Query& query) const override {
    return engine_->Recommend(Set(pin), query.group, query.spec);
  }
  std::vector<Result<Recommendation>> RecommendBatchOn(
      const Pin& pin, std::span<const Query> queries,
      BatchReport* report) const override {
    return engine_->RecommendBatch(Set(pin), queries, report);
  }

  Status Validate(const Pin&, const Query& query) const override {
    return engine_->ValidateQuery(query.group, query.spec);
  }
  Result<GroupProblem> Assemble(const Pin& pin, const Query& query,
                                QueryWorkspace& ws) const override {
    // The ShardedEngine's scatter/gather assembly, step for step. The
    // engine's period-list cache is private, so only models that read no
    // period lists can be assembled here; the scale workload's are
    // time-agnostic.
    if (query.spec.model.time_aware && query.spec.model.affinity_aware) {
      return Status::InvalidArgument(
          "traced sharded assembly needs a time-agnostic model");
    }
    const std::shared_ptr<const ShardedSnapshotSet> set = Set(pin);
    Result<PeriodId> period =
        ResolveEvalPeriod(query.spec.eval_period, engine_->num_periods());
    if (!period.ok()) return period.status();
    std::vector<MemberSlice>& slices = ws.arena.member_slices;
    slices.clear();
    for (const UserId u : query.group) {
      const std::size_t s = engine_->router().ShardOf(u);
      const ShardSnapshot& snap = set->shard(s);
      slices.push_back({snap.index.get(), engine_->shard(s).LocalRowOf(u),
                        snap.ratings.get(), u});
    }
    StampMemberWeights(engine_->affinity(), query.group, query.spec, slices);
    AssemblyContext ctx;
    ctx.key_index = set->shard(0).index.get();
    ctx.affinity = &engine_->affinity();
    ctx.tombstone_cache = &set->tombstone_cache();
    GroupProblem problem =
        AssembleGroupProblem(ctx, query.group, slices, query.spec,
                             period.value(), nullptr, &ws);
    problem.PinLifetime(set);
    return problem;
  }
  std::span<const ItemId> Pool(const Pin&) const override {
    return engine_->pool();
  }
  std::size_t NumPeriods() const override { return engine_->num_periods(); }

  Status TracedApplyUpdates(std::span<const RatingEvent> events, SpanLog* log,
                            std::uint64_t op, bool publish_first,
                            UpdateReport* report, bool* rows_match) override {
    // Per touched shard: the shadow fold, predict and clone of that shard's
    // sub-batch on the pre-publish shard snapshot, exactly as
    // Shard::PublishRound does them.
    struct Shadow {
      std::size_t shard = 0;
      std::shared_ptr<const ShardSnapshot> cur;
      std::vector<RatingRecord> records;
      std::shared_ptr<const RatingsOverlay> overlay;
      std::vector<UserId> touched;
      std::vector<std::uint32_t> rows;
      std::vector<Score> scores;
      std::optional<PreferenceIndex> clone;
    };
    std::vector<Shadow> shadows;
    for (std::size_t s = 0; s < engine_->num_shards(); ++s) {
      Shadow shadow;
      shadow.shard = s;
      for (const RatingEvent& e : events) {
        if (engine_->router().ShardOf(e.user) == s) {
          shadow.records.push_back({e.user, e.item, e.rating, e.timestamp});
        }
      }
      if (!shadow.records.empty()) {
        shadow.cur = engine_->shard(s).snapshot();
        shadows.push_back(std::move(shadow));
      }
    }
    ShardedUpdateReport sharded;
    Status status;
    const auto publish = [&] {
      ScopedSpan span(log, "api.publish", op);
      status = engine_->ApplyUpdates(events, &sharded);
    };
    if (publish_first) publish();
    {
      ScopedSpan span(log, "dataset.fold", op);
      for (Shadow& sh : shadows) {
        RatingsOverlay::ApplyStats stats;
        sh.overlay = sh.cur->ratings->WithEvents(sh.records, &stats);
        sh.touched = std::move(stats.touched_users);
      }
    }
    {
      ScopedSpan span(log, "cf.predict", op);
      std::vector<UserRatingEntry> scratch;
      for (Shadow& sh : shadows) {
        const std::size_t pool_size = sh.cur->index->pool_size();
        sh.scores.resize(sh.touched.size() * pool_size);
        for (std::size_t i = 0; i < sh.touched.size(); ++i) {
          predictor_(sh.touched[i],
                     sh.overlay->MergedRatingsOfUser(sh.touched[i], scratch),
                     sh.cur->index->pool(),
                     std::span<Score>(sh.scores).subspan(i * pool_size,
                                                         pool_size));
        }
      }
    }
    {
      ScopedSpan span(log, "index.clone", op);
      for (Shadow& sh : shadows) {
        const std::size_t pool_size = sh.cur->index->pool_size();
        std::vector<std::span<const Score>> views;
        for (std::size_t i = 0; i < sh.touched.size(); ++i) {
          sh.rows.push_back(engine_->shard(sh.shard).LocalRowOf(sh.touched[i]));
          views.push_back(std::span<const Score>(sh.scores).subspan(
              i * pool_size, pool_size));
        }
        sh.clone.emplace(
            sh.cur->index->CloneWithUpdatedPoolRows(sh.rows, views));
      }
    }
    if (!publish_first) publish();
    *report = sharded.total;
    if (!status.ok()) return status;
    if (sharded.total.compacted) {
      ScopedSpan span(log, "dataset.compact", op);
      for (const Shadow& sh : shadows) {
        if (sharded.per_shard[sh.shard].compacted) {
          const RatingsDataset compacted = sh.overlay->Compact();
        }
      }
    }
    bool match = true;
    for (const Shadow& sh : shadows) {
      const std::shared_ptr<const ShardSnapshot> after =
          engine_->shard(sh.shard).snapshot();
      match = match && after->generation ==
                           sharded.per_shard[sh.shard].published_generation;
      for (const std::uint32_t row : sh.rows) {
        match = match && SameRow(*after->index, row, *sh.clone, row);
      }
    }
    *rows_match = match;
    return status;
  }

  std::size_t NumUsers() const override { return engine_->num_users(); }
  std::size_t NumShards() const override { return engine_->num_shards(); }
  std::size_t ShardOf(UserId user) const override {
    return engine_->router().ShardOf(user);
  }
  std::size_t IndexBytes() const override {
    std::size_t bytes = 0;
    for (std::size_t s = 0; s < engine_->num_shards(); ++s) {
      bytes += engine_->shard(s).snapshot()->index->MemoryBytes();
    }
    return bytes;
  }
  std::size_t BatchThreads() const override { return threads_; }
  double SatisfactionPercent(std::span<const UserId> group,
                             std::span<const ItemId> items) const override {
    return oracle_->GroupSatisfactionPercent(group, items, /*p=*/0);
  }

 private:
  static std::shared_ptr<const ShardedSnapshotSet> Set(const Pin& pin) {
    return std::static_pointer_cast<const ShardedSnapshotSet>(pin);
  }

  const std::size_t threads_;
  RatingGroundTruth truth_;
  PoolPredictor predictor_;
  std::unique_ptr<ShardedEngine> engine_;
  std::unique_ptr<SatisfactionOracle> oracle_;
};

}  // namespace

std::unique_ptr<ServingTarget> BuildPaperEngine(std::size_t threads) {
  return std::make_unique<PaperEngine>(threads);
}

std::unique_ptr<ServingTarget> BuildScaleEngine(std::size_t num_users,
                                                std::size_t threads) {
  return std::make_unique<ScaleEngine>(num_users, threads);
}

}  // namespace greca::perfbench
