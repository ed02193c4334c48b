// google-benchmark microbenchmarks for the core building blocks: end-to-end
// top-k latency per algorithm, GRECA on an engine's served problems, CF
// prediction (fresh and one-event re-predict), affinity table construction and
// incremental maintenance, the periodic-affinity closed form, the index
// row-layout primitive (SoA-vs-AoS tombstone-skip scan), and the paged
// index's publish clone and row lookup.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "affinity/dynamic_affinity.h"
#include "api/engine.h"
#include "bench_common.h"
#include "core/greca.h"
#include "core/problem_assembly.h"
#include "index/preference_index.h"
#include "topk/list_view.h"
#include "topk/naive.h"
#include "topk/sorted_list.h"
#include "topk/ta.h"

namespace {

using namespace greca;
using bench::BenchContext;

const Group& SampleGroup() {
  static const Group group = [] {
    const PerformanceHarness perf(*BenchContext::Get().recommender, 99);
    return perf.RandomGroups(1, 6)[0];
  }();
  return group;
}

// The top-k benches' consensus argument: 0 = AP, 1 = PD (which walks the
// aggregated agreement list), 2 = VD (variance bounds).
QuerySpec TopKSpec(std::int64_t consensus) {
  QuerySpec spec = PerformanceHarness::DefaultSpec();
  spec.consensus = consensus == 0   ? ConsensusSpec::AveragePreference()
                   : consensus == 1 ? ConsensusSpec::PairwiseDisagreement()
                                    : ConsensusSpec::VarianceDisagreement();
  return spec;
}

void BM_GrecaTopK(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  QuerySpec spec = TopKSpec(state.range(1));
  spec.k = static_cast<std::size_t>(state.range(0));
  const GroupProblem problem =
      ctx.recommender->BuildProblem(SampleGroup(), spec).value();
  GrecaConfig config;
  config.k = spec.k;
  TopKResult result;
  GrecaStats stats;
  for (auto _ : state) {
    stats = GrecaStats{};
    result = Greca(problem, config, &stats);
    benchmark::DoNotOptimize(result.items.data());
  }
  // The run's shape: equal before and after any change that only speeds up
  // the bound evaluation.
  state.counters["sa_percent"] = result.SequentialAccessPercent();
  state.counters["rounds"] = static_cast<double>(result.rounds);
  state.counters["stop_checks"] = static_cast<double>(stats.stop_checks);
  state.counters["peak_buffer"] = static_cast<double>(stats.peak_buffer_size);
  state.SetLabel(spec.consensus.Name());
}
BENCHMARK(BM_GrecaTopK)
    ->ArgsProduct({{5, 10, 20}, {0, 1, 2}})
    ->ArgNames({"k", "consensus"});

// GRECA as a served query runs it: problems built by
// Engine::recommender().BuildProblem on the engine's pinned snapshot (real
// PreferenceIndex rows, ListViews tombstoned by each group's rated items),
// solved through SolveGroupProblem with one reused workspace, as a batch
// worker does. Eight 6-member groups per iteration, k = 10; `rounds` is
// GRECA's round count summed over the eight.
void BM_ServedGrecaTopK(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  static const Engine engine(ctx.universe.dataset, ctx.study, ctx.options,
                             EngineOptions{.num_threads = 1});
  const QuerySpec spec = TopKSpec(state.range(0));
  const auto snap = engine.snapshot();
  std::vector<GroupProblem> problems;
  for (const Group& group :
       PerformanceHarness(engine.recommender(), 41).RandomGroups(8, 6)) {
    problems.push_back(
        engine.recommender().BuildProblem(snap, group, spec).value());
  }
  QueryWorkspace workspace;
  std::size_t rounds = 0;
  for (auto _ : state) {
    rounds = 0;
    for (GroupProblem& problem : problems) {
      const Recommendation rec =
          SolveGroupProblem(problem, spec, snap->index().pool(), workspace);
      rounds += rec.raw.rounds;
      benchmark::DoNotOptimize(rec.items.data());
    }
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.SetLabel(spec.consensus.Name());
}
BENCHMARK(BM_ServedGrecaTopK)->DenseRange(0, 1)->ArgName("consensus");

void BM_NaiveTopK(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  const QuerySpec spec = TopKSpec(state.range(0));
  const GroupProblem problem =
      ctx.recommender->BuildProblem(SampleGroup(), spec).value();
  for (auto _ : state) {
    const TopKResult result = NaiveTopK(problem, 10);
    benchmark::DoNotOptimize(result.items.data());
  }
  state.SetLabel(spec.consensus.Name());
}
BENCHMARK(BM_NaiveTopK)->DenseRange(0, 2)->ArgName("consensus");

void BM_TaTopK(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  const QuerySpec spec = TopKSpec(state.range(0));
  const GroupProblem problem =
      ctx.recommender->BuildProblem(SampleGroup(), spec).value();
  for (auto _ : state) {
    const TopKResult result = TaTopK(problem, 10);
    benchmark::DoNotOptimize(result.items.data());
  }
  state.SetLabel(spec.consensus.Name());
}
BENCHMARK(BM_TaTopK)->DenseRange(0, 2)->ArgName("consensus");

void BM_BuildProblem(benchmark::State& state) {
  // Workspace-less assembly: zero-copy preference views plus one
  // problem-owned arena allocation per call.
  const auto& ctx = BenchContext::Get();
  const QuerySpec spec = PerformanceHarness::DefaultSpec();
  for (auto _ : state) {
    const GroupProblem problem =
        ctx.recommender->BuildProblem(SampleGroup(), spec).value();
    benchmark::DoNotOptimize(&problem);
  }
}
BENCHMARK(BM_BuildProblem);

// `count` distinct sorted 6-member groups of the study, drawn once per count.
const std::vector<Group>& DistinctGroups(std::size_t count) {
  static std::map<std::size_t, std::vector<Group>> by_count;
  std::vector<Group>& groups = by_count[count];
  std::set<Group> seen;
  for (std::uint64_t seed = 7; groups.size() < count; ++seed) {
    const PerformanceHarness perf(*BenchContext::Get().recommender, seed);
    for (Group& g : perf.RandomGroups(count, 6)) {
      if (groups.size() < count && seen.insert(g).second) {
        groups.push_back(std::move(g));
      }
    }
  }
  return groups;
}

void BM_ProblemAssembly(benchmark::State& state) {
  // Steady-state batch-worker assembly on one reused workspace. Queries
  // cycle over `groups` distinct 6-member groups, so the time stays flat in
  // `groups` unless assembly keeps per-group state that stops fitting. PD
  // adds the agreement-list build to AP's tombstones, views and affinity
  // lists.
  const auto& ctx = BenchContext::Get();
  const QuerySpec spec = TopKSpec(state.range(0));
  const std::vector<Group>& groups =
      DistinctGroups(static_cast<std::size_t>(state.range(1)));
  QueryWorkspace workspace;
  std::size_t next = 0;
  for (auto _ : state) {
    const GroupProblem problem =
        ctx.recommender->BuildProblem(groups[next], spec, nullptr, &workspace)
            .value();
    benchmark::DoNotOptimize(&problem);
    next = next + 1 == groups.size() ? 0 : next + 1;
  }
  state.SetLabel(spec.consensus.Name());
}
BENCHMARK(BM_ProblemAssembly)
    ->ArgsProduct({{0, 1}, {64, 4'096}})
    ->ArgNames({"consensus", "groups"});

void BM_CfPredictAll(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  const UserKnn knn(ctx.universe.dataset, {});
  const auto profile = ctx.study.study_ratings.RatingsOfUser(0);
  for (auto _ : state) {
    const auto predictions = knn.PredictAll(profile);
    benchmark::DoNotOptimize(predictions.data());
  }
}
BENCHMARK(BM_CfPredictAll);

void BM_CfRepredictOneEvent(benchmark::State& state) {
  // The publish path's re-predict of study user 0 after one rating change:
  // each iteration moves the first profile item's rating by half a star and
  // back, so the per-user state walks one rater list and then runs the tail
  // BM_CfPredictAll runs.
  const auto& ctx = BenchContext::Get();
  const UserKnn knn(ctx.universe.dataset, {});
  UserKnnStates states(knn, 1);
  const auto row = ctx.study.study_ratings.RatingsOfUser(0);
  std::vector<UserRatingEntry> profiles[2] = {{row.begin(), row.end()},
                                              {row.begin(), row.end()}};
  Score& rerated = profiles[1].front().rating;
  rerated += rerated < 5.0 ? 0.5 : -0.5;
  benchmark::DoNotOptimize(states.Predict(0, profiles[0]).data());
  std::size_t next = 1;
  for (auto _ : state) {
    const auto predictions = states.Predict(0, profiles[next]);
    benchmark::DoNotOptimize(predictions.data());
    next ^= 1;
  }
}
BENCHMARK(BM_CfRepredictOneEvent);

void BM_PeriodicAffinityCompute(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  for (auto _ : state) {
    const PeriodicAffinity pa =
        PeriodicAffinity::Compute(ctx.study.likes, ctx.study.periods);
    benchmark::DoNotOptimize(&pa);
  }
}
BENCHMARK(BM_PeriodicAffinityCompute);

void BM_DynamicIndexAppendPeriod(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  const PeriodicAffinity& pa = ctx.recommender->periodic_affinity();
  for (auto _ : state) {
    state.PauseTiming();
    DynamicAffinityIndex index(pa.num_users());
    for (PeriodId p = 0; p + 1 < pa.num_periods(); ++p) {
      index.AppendPeriod(pa, p);
    }
    state.ResumeTiming();
    // Measure only the marginal cost of appending the newest period.
    index.AppendPeriod(pa, static_cast<PeriodId>(pa.num_periods() - 1));
    benchmark::DoNotOptimize(&index);
  }
}
BENCHMARK(BM_DynamicIndexAppendPeriod);

void BM_ClosedFormPopulationAverage(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  const Period period = ctx.study.periods.period(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SumPairwiseCommonCategories(ctx.study.likes, period));
  }
}
BENCHMARK(BM_ClosedFormPopulationAverage);

// ---- Row-layout primitive: SoA-vs-AoS scan --------------------------------
// Synthetic rows isolate the SoA storage from the rest of the serving
// stack. The row length is deliberately not a
// multiple of the 8-lane vector width (the SIMD scan's scalar tail stays on
// the measured path) and large enough that the scan is bandwidth-bound like
// a real index row — in-L1 rows would hide the 4-vs-16 bytes/entry gap the
// key-only liveness scan exists for.

constexpr std::size_t kLayoutRowLength = 65573;

struct SyntheticRow {
  std::vector<ListKey> keys;
  std::vector<Score> scores;
  std::vector<std::uint32_t> positions;
  std::vector<ListEntry> entries;  // AoS mirror, identical order
  std::vector<std::uint64_t> tombstones;
  std::size_t live = 0;
};

SyntheticRow MakeSyntheticRow(std::size_t n, unsigned tombstone_percent) {
  SyntheticRow row;
  std::mt19937 rng(
      static_cast<unsigned>(2015 + n + 131 + tombstone_percent * 65537));
  std::uniform_real_distribution<double> score(0.0, 1.0);
  std::vector<ListEntry> entries(n);
  for (std::size_t i = 0; i < n; ++i) {
    entries[i] = {static_cast<ListKey>(i), score(rng)};
  }
  std::sort(entries.begin(), entries.end(), ListEntryOrder{});
  row.entries = entries;
  row.keys.resize(n);
  row.scores.resize(n);
  row.positions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    row.keys[i] = entries[i].id;
    row.scores[i] = entries[i].score;
    row.positions[entries[i].id] = static_cast<std::uint32_t>(i);
  }
  row.tombstones.assign((n + 63) / 64, 0);
  std::uniform_int_distribution<unsigned> pct(0, 99);
  std::size_t dead = 0;
  for (std::size_t key = 0; key < n; ++key) {
    if (pct(rng) < tombstone_percent) {
      row.tombstones[key >> 6] |= 1ull << (key & 63u);
      ++dead;
    }
  }
  row.live = n - dead;
  return row;
}

double ExhaustView(const ListView& view) {
  AccessCounter counter;
  std::size_t cursor = 0;
  double sum = 0.0;
  while (view.SkipToLive(cursor)) {
    sum += view.ReadSequential(cursor, counter).score;
  }
  return sum;
}

// The pre-SoA flat ListView scan, reconstructed: interleaved ListEntry
// storage with the per-entry liveness test loading the full 16-byte entry,
// behind the same cursor/counter interface — so the A/B isolates the storage
// layout, not the call structure around it.
class AosRefView {
 public:
  AosRefView(std::span<const ListEntry> entries, std::size_t key_space,
             std::span<const std::uint64_t> tombstones)
      : entries_(entries), key_space_(key_space), tombstones_(tombstones) {}

  bool SkipToLive(std::size_t& cursor) const {
    while (cursor < entries_.size() && Dead(entries_[cursor].id)) ++cursor;
    return cursor < entries_.size();
  }

  ListEntry ReadSequential(std::size_t& cursor, AccessCounter& counter) const {
    ++counter.sequential;
    return entries_[cursor++];
  }

 private:
  bool Dead(ListKey key) const {
    if (key >= key_space_) return true;
    return (tombstones_[key >> 6] >> (key & 63u)) & 1u;
  }

  std::span<const ListEntry> entries_;
  std::size_t key_space_;
  std::span<const std::uint64_t> tombstones_;
};

// Arg = tombstone density in percent. The SoA path scans the 4-byte key
// array (vectorized under GRECA_SIMD) and touches scores only for live
// entries; the AoS reference below walks the interleaved 16-byte entries.
void BM_TombstoneSkipScanSoA(benchmark::State& state) {
  const SyntheticRow row = MakeSyntheticRow(
      kLayoutRowLength, static_cast<unsigned>(state.range(0)));
  const ListView view(row.keys, row.scores, row.positions, row.keys.size(),
                      row.live, row.tombstones);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExhaustView(view));
  }
  state.counters["live_entries"] = static_cast<double>(row.live);
}
BENCHMARK(BM_TombstoneSkipScanSoA)->Arg(0)->Arg(25)->Arg(75);

void BM_TombstoneSkipScanAoS(benchmark::State& state) {
  // The pre-SoA layout: liveness testing loads each full ListEntry, so one
  // cache line covers 4 entries instead of 16 and nothing vectorizes.
  const SyntheticRow row = MakeSyntheticRow(
      kLayoutRowLength, static_cast<unsigned>(state.range(0)));
  const AosRefView view(row.entries, row.entries.size(), row.tombstones);
  for (auto _ : state) {
    AccessCounter counter;
    std::size_t cursor = 0;
    double sum = 0.0;
    while (view.SkipToLive(cursor)) {
      sum += view.ReadSequential(cursor, counter).score;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.counters["live_entries"] = static_cast<double>(row.live);
}
BENCHMARK(BM_TombstoneSkipScanAoS)->Arg(0)->Arg(25)->Arg(75);

// ---- Copy-on-write index pages: publish clone and paged row lookup -------
// The scale harness's shard shape: pool 256 (4 KiB per row, 16 rows per
// 64 KiB page), with synthetic scores so the timings cover the index alone. Indexes are built once per (row
// count, pool) and shared by the benches below.

constexpr std::size_t kPagedPool = 256;
// The paper's geometry: 72 study participants over the 3 900-item pool
// (~61 KiB per row, one row per page).
constexpr std::size_t kPaperRows = 72;
constexpr std::size_t kPaperPool = 3'900;

double SyntheticScore(UserId row, std::size_t key) {
  // splitmix64 of (row, key) onto the 0..5 star scale.
  std::uint64_t z = (static_cast<std::uint64_t>(row) << 32 | key) +
                    0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return 5.0 * static_cast<double>(z >> 11) * 0x1.0p-53;
}

const PreferenceIndex& PagedIndex(std::size_t rows,
                                  std::size_t pool_size = kPagedPool) {
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::unique_ptr<const PreferenceIndex>>
      cache;
  auto& slot = cache[{rows, pool_size}];
  if (slot == nullptr) {
    std::vector<ItemId> pool(pool_size);
    std::iota(pool.begin(), pool.end(), ItemId{0});
    slot = std::make_unique<const PreferenceIndex>(
        PreferenceIndex::BuildStreaming(
            rows,
            [](UserId row, std::span<const ItemId>, std::span<Score> out) {
              for (std::size_t k = 0; k < out.size(); ++k) {
                out[k] = SyntheticScore(row, k);
              }
            },
            /*scale_max=*/5.0, std::move(pool), pool_size));
  }
  return *slot;
}

// Clones `index` with `touched` rows spread evenly over the population, so
// each lands on its own page (the clone's worst case).
void RunClone(benchmark::State& state, const PreferenceIndex& index,
              std::size_t touched) {
  const std::size_t rows = index.num_users();
  const std::size_t pool = index.pool_size();
  std::vector<UserId> users;
  std::vector<std::vector<Score>> scores;
  for (std::size_t i = 0; i < touched; ++i) {
    const auto u = static_cast<UserId>(i * rows / touched);
    users.push_back(u);
    std::vector<Score>& row = scores.emplace_back(pool);
    for (std::size_t k = 0; k < pool; ++k) {
      row[k] = SyntheticScore(u + 1, k);
    }
  }
  const std::vector<std::span<const Score>> views(scores.begin(),
                                                  scores.end());
  for (auto _ : state) {
    const PreferenceIndex clone =
        index.CloneWithUpdatedPoolRows(users, views);
    benchmark::DoNotOptimize(clone.UserKeys(users[0]).data());
  }
  state.counters["index_mb"] =
      static_cast<double>(index.MemoryBytes()) / (1024.0 * 1024.0);
  state.counters["pages"] = static_cast<double>(
      (rows + index.rows_per_page() - 1) / index.rows_per_page());
}

// Args = (rows, touched rows) at pool 256. A publish costs a page-table
// copy plus, per touched row, one page copy and a linear-time row rebuild,
// so time tracks touched rows far more than population.
void BM_CloneWithUpdatedPoolRows(benchmark::State& state) {
  RunClone(state, PagedIndex(static_cast<std::size_t>(state.range(0))),
           static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_CloneWithUpdatedPoolRows)
    ->ArgsProduct({{1'250, 12'500, 125'000}, {1, 16}})
    ->Unit(benchmark::kMicrosecond);

// Arg = touched rows at the paper's geometry. Every touched page is fully
// rewritten (one row per page), so the clone skips the page copy and the
// time is the row rebuild: scaling, the radix sort and the row write.
void BM_CloneWithUpdatedPoolRowsPaper(benchmark::State& state) {
  RunClone(state, PagedIndex(kPaperRows, kPaperPool),
           static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_CloneWithUpdatedPoolRowsPaper)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// Arg = rows. One UserView per member lookup over a random row sequence at
// the full pool prefix: the page-table load, the record offset and the
// view set-up a query pays per member, with one random access so the row
// itself is touched.
void BM_UserViewLookup(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const PreferenceIndex& index = PagedIndex(rows);
  std::mt19937 rng(2015);
  std::uniform_int_distribution<UserId> any_row(
      0, static_cast<UserId>(rows - 1));
  std::vector<UserId> members(4096);
  for (UserId& u : members) u = any_row(rng);
  std::size_t next = 0;
  for (auto _ : state) {
    const UserId u = members[next++ & (members.size() - 1)];
    const ListView view = index.UserView(u, kPagedPool, {}, kPagedPool);
    benchmark::DoNotOptimize(view.ScoreOfKey(static_cast<ListKey>(u & 255)));
  }
}
BENCHMARK(BM_UserViewLookup)->Arg(1'250)->Arg(12'500)->Arg(125'000);

void BM_NaivePopulationAverage(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  const Period period = ctx.study.periods.period(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SumPairwiseCommonCategoriesNaive(ctx.study.likes, period));
  }
}
BENCHMARK(BM_NaivePopulationAverage);

}  // namespace

BENCHMARK_MAIN();
