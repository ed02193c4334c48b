#include "core/problem_assembly.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "dataset/ratings_overlay.h"
#include "solver/solver_registry.h"
#include "solver/submodular_solver.h"
#include "topk/naive.h"
#include "topk/ta.h"

namespace greca {

Result<PeriodId> ResolveEvalPeriod(std::optional<PeriodId> requested,
                                   std::size_t num_periods) {
  const auto last = static_cast<PeriodId>(num_periods - 1);
  if (!requested.has_value()) return last;
  if (*requested > last) {
    return Status::OutOfRange("eval_period " + std::to_string(*requested) +
                              " out of range [0, " + std::to_string(last) +
                              "]");
  }
  return *requested;
}

Status ValidateGroupQuery(std::span<const UserId> group, const QuerySpec& spec,
                          std::size_t num_users, std::size_t num_periods,
                          std::size_t affinity_num_periods) {
  if (group.empty()) {
    return Status::InvalidArgument("group must not be empty");
  }
  if (!IsSolverId(spec.solver_id)) {
    return Status::InvalidArgument("unknown solver id \"" + spec.solver_id +
                                   "\"");
  }
  if (spec.k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (spec.num_candidate_items == 0) {
    return Status::InvalidArgument("candidate pool must not be empty");
  }
  // Negative weights make the consensus non-monotone in member preferences,
  // which voids GRECA's exact-itemset guarantee (§3.1) and the greedy
  // solver's (1-1/e) premise; NaN or inf would poison every score.
  const auto finite_non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  if (!finite_non_negative(spec.consensus.w1) ||
      !finite_non_negative(spec.consensus.w2)) {
    return Status::InvalidArgument(
        "consensus weights w1 and w2 must be finite and >= 0");
  }
  if (!finite_non_negative(spec.consensus.disagreement_scale)) {
    return Status::InvalidArgument(
        "consensus disagreement_scale must be finite and >= 0");
  }
  if (!std::isfinite(spec.model.drift_gain)) {
    return Status::InvalidArgument("model drift_gain must be finite");
  }
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (group[i] >= num_users) {
      return Status::NotFound("unknown study participant " +
                              std::to_string(group[i]) + " (study has " +
                              std::to_string(num_users) + ")");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (group[j] == group[i]) {
        return Status::InvalidArgument("duplicate group member " +
                                       std::to_string(group[i]));
      }
    }
  }
  const Result<PeriodId> period =
      ResolveEvalPeriod(spec.eval_period, num_periods);
  if (!period.ok()) return period.status();
  if (spec.model.affinity_aware && spec.model.time_aware &&
      period.value() >= affinity_num_periods) {
    return Status::FailedPrecondition(
        "affinity source covers only " +
        std::to_string(affinity_num_periods) + " periods");
  }
  return Status::Ok();
}

GroupProblem AssembleGroupProblem(const AssemblyContext& ctx,
                                  std::span<const UserId> group,
                                  std::span<const MemberSlice> members,
                                  const QuerySpec& spec, PeriodId eval_period,
                                  std::vector<ItemId>* candidates_out,
                                  QueryWorkspace* workspace) {
  assert(members.size() == group.size());
  assert(ctx.tombstone_cache != nullptr);
  const PreferenceIndex& key_index = *ctx.key_index;
  const AffinitySource& source = *ctx.affinity;

  // The problem's views point into an arena: the caller's workspace when
  // given (reused across a batch), otherwise one the problem itself owns.
  std::unique_ptr<ProblemArena> owned_arena;
  if (workspace == nullptr) owned_arena = std::make_unique<ProblemArena>();
  ProblemArena& arena = workspace != nullptr ? workspace->arena : *owned_arena;

  // Candidate pool = keys [0, pool) of the shared popularity pool; the
  // group's already-rated items are tombstoned, not re-keyed (§2.4
  // exclusion), so no preference list is sorted or copied per query.
  const std::size_t pool =
      std::min(spec.num_candidate_items, key_index.pool_size());
  // Bitmaps depend only on (group, pool) within one snapshot generation, so
  // they are memoized: repeated groups skip the per-member rated-item walk
  // entirely. A member's rated items = the immutable base row plus the live
  // delta row of the overlay that SERVES that member (on the sharded path
  // the member's shard entry, which holds the engine's one overlay). The
  // pin keeps an evicted bitmap alive for the problem's lifetime (the arena
  // outlives the problem by contract).
  std::shared_ptr<const TombstoneSet> tombstones =
      ctx.tombstone_cache->GetShared(
          group, pool, [&]() -> std::shared_ptr<const TombstoneSet> {
            auto fresh = std::make_shared<TombstoneSet>();
            fresh->words.assign((pool + 63) / 64, 0);
            const auto mark = [&](ItemId item) {
              const std::uint32_t key = key_index.PoolPositionOf(item);
              if (key < pool) fresh->words[key >> 6] |= 1ull << (key & 63u);
            };
            for (const MemberSlice& m : members) {
              const RatingsOverlay& ratings = *m.ratings;
              for (const auto& e :
                   ratings.base().RatingsOfUser(m.ratings_user)) {
                mark(e.item);
              }
              for (const auto& e : ratings.DeltaOfUser(m.ratings_user)) {
                mark(e.item);
              }
            }
            std::size_t tombstoned = 0;
            for (const std::uint64_t word : fresh->words) {
              tombstoned += static_cast<std::size_t>(std::popcount(word));
            }
            fresh->live = pool - tombstoned;
            return fresh;
          });
  const std::span<const std::uint64_t> words = tombstones->words;
  const std::size_t live = tombstones->live;
  arena.tombstone_pin = std::move(tombstones);

  arena.preference_views.clear();
  arena.preference_views.reserve(members.size());
  for (const MemberSlice& m : members) {
    arena.preference_views.push_back(
        m.index->UserView(m.row, pool, words, live));
  }

  // Affinity lists come only from the engine's source: the static list is
  // group-normalized (paper §4.1.2) and materialized into the arena, plus
  // one periodic list per period 0..eval_period served from the shared
  // (group, period) cache — repeated groups in a batch rebuild nothing, and
  // each list is pinned so the bounded cache evicting it mid-flight cannot
  // invalidate this problem. Time- or affinity-agnostic variants read no
  // periodic lists at all.
  source.MaterializeStaticListInto(group, arena.entry_scratch,
                                   arena.static_list);
  arena.period_views.clear();
  arena.period_pins.clear();
  std::vector<double> averages;
  if (spec.model.time_aware && spec.model.affinity_aware) {
    assert(ctx.period_cache != nullptr);
    const std::size_t periods = static_cast<std::size_t>(eval_period) + 1;
    arena.period_views.reserve(periods);
    arena.period_pins.reserve(periods);
    for (PeriodId p = 0; p <= eval_period; ++p) {
      arena.period_pins.push_back(
          ctx.period_cache->GetShared(group, p, source));
      arena.period_views.emplace_back(*arena.period_pins.back());
    }
    averages = source.PeriodAverages(eval_period);
  }

  // Per-member consensus weights: influence queries normalize the raw
  // weights stamped on the slices (StampMemberWeights) to sum 1; the weight
  // of pair (a, b) is the normalized product w_a·w_b. Uniform queries clear
  // the arena vectors so the problem carries empty spans — the bit-identical
  // historical scoring path (and no stale weights survive from a previous
  // weighted query in a reused workspace). Degenerate raw weights (zero sum,
  // negatives, non-finite) also fall back to uniform.
  arena.member_weights.clear();
  arena.pair_weights.clear();
  if (spec.weighting == MemberWeighting::kInfluence) {
    const std::size_t g = members.size();
    double sum = 0.0;
    bool sane = true;
    for (const MemberSlice& m : members) {
      sane = sane && std::isfinite(m.weight) && m.weight >= 0.0;
      sum += m.weight;
    }
    if (sane && sum > 0.0) {
      arena.member_weights.reserve(g);
      for (const MemberSlice& m : members) {
        arena.member_weights.push_back(m.weight / sum);
      }
      if (g >= 2) {
        double pair_sum = 0.0;
        arena.pair_weights.reserve(NumUserPairs(g));
        for (std::size_t a = 0; a < g; ++a) {
          for (std::size_t b = a + 1; b < g; ++b) {
            const double w =
                arena.member_weights[a] * arena.member_weights[b];
            arena.pair_weights.push_back(w);
            pair_sum += w;
          }
        }
        if (pair_sum > 0.0) {
          for (double& w : arena.pair_weights) w /= pair_sum;
        } else {
          const double uniform =
              1.0 / static_cast<double>(arena.pair_weights.size());
          for (double& w : arena.pair_weights) w = uniform;
        }
      }
    }
  }

  AffinityCombiner combiner(spec.model, std::move(averages));
  if (candidates_out != nullptr) {
    const std::span<const ItemId> items = key_index.pool();
    candidates_out->assign(items.begin(), items.begin() + pool);
  }
  // Pair-wise disagreement problems build their aggregated agreement list
  // into this arena here (GroupProblem::agreement_list).
  return GroupProblem(pool, live, arena.preference_views,
                      ListView(arena.static_list), arena.period_views,
                      std::move(combiner), spec.consensus, arena,
                      {arena.member_weights, arena.pair_weights},
                      std::move(owned_arena));
}

void StampMemberWeights(const AffinitySource& source,
                        std::span<const UserId> group, const QuerySpec& spec,
                        std::span<MemberSlice> slices) {
  assert(slices.size() == group.size());
  if (spec.weighting != MemberWeighting::kInfluence) {
    for (MemberSlice& s : slices) s.weight = 1.0;
    return;
  }
  std::vector<double> weights(group.size(), 1.0);
  source.MaterializeMemberWeightsInto(group, weights);
  for (std::size_t m = 0; m < slices.size(); ++m) {
    slices[m].weight = weights[m];
  }
}

Recommendation SolveGroupProblem(const GroupProblem& problem,
                                 const QuerySpec& spec,
                                 std::span<const ItemId> pool_items,
                                 QueryWorkspace& workspace) {
  Recommendation rec;
  const std::string_view id = spec.solver_id;
  if (id == kGrecaSolverId) {
    GrecaConfig config;
    config.k = spec.k;
    config.termination = spec.termination;
    rec.raw = Greca(problem, config, &rec.greca_stats, &workspace.greca);
  } else if (id == kNaiveSolverId) {
    rec.raw = NaiveTopK(problem, spec.k);
  } else if (id == kTaSolverId) {
    rec.raw = TaTopK(problem, spec.k);
  } else if (id == kSubmodularSolverId) {
    rec.raw = SubmodularGreedyTopK(problem, spec.k);
  } else {
    // ValidateGroupQuery rejects unknown ids before any assembly happens;
    // reaching this branch means a caller skipped validation.
    assert(false && "unknown solver id");
    return rec;
  }
  rec.items.reserve(rec.raw.items.size());
  rec.scores.reserve(rec.raw.items.size());
  for (const ListEntry& e : rec.raw.items) {
    rec.items.push_back(pool_items[e.id]);  // problem keys are pool positions
    rec.scores.push_back(e.score);
  }
  return rec;
}

}  // namespace greca
