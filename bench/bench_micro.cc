// google-benchmark microbenchmarks for the core building blocks: end-to-end
// top-k latency per algorithm, CF prediction, affinity table construction and
// incremental maintenance, the periodic-affinity closed form, the index
// row-layout primitives (SoA-vs-AoS tombstone-skip scan, loser-tree-vs-argmin
// band merge), and the paged index's publish clone and row lookup.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "affinity/dynamic_affinity.h"
#include "bench_common.h"
#include "core/greca.h"
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

void BM_GrecaTopK(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  QuerySpec spec = PerformanceHarness::DefaultSpec();
  spec.k = static_cast<std::size_t>(state.range(0));
  const GroupProblem problem =
      ctx.recommender->BuildProblem(SampleGroup(), spec).value();
  GrecaConfig config;
  config.k = spec.k;
  double sa_percent = 0.0;
  for (auto _ : state) {
    const TopKResult result = Greca(problem, config);
    sa_percent = result.SequentialAccessPercent();
    benchmark::DoNotOptimize(result.items.data());
  }
  state.counters["sa_percent"] = sa_percent;
}
BENCHMARK(BM_GrecaTopK)->Arg(5)->Arg(10)->Arg(20);

void BM_NaiveTopK(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  const GroupProblem problem =
      ctx.recommender
          ->BuildProblem(SampleGroup(), PerformanceHarness::DefaultSpec())
          .value();
  for (auto _ : state) {
    const TopKResult result = NaiveTopK(problem, 10);
    benchmark::DoNotOptimize(result.items.data());
  }
}
BENCHMARK(BM_NaiveTopK);

void BM_TaTopK(benchmark::State& state) {
  const auto& ctx = BenchContext::Get();
  const GroupProblem problem =
      ctx.recommender
          ->BuildProblem(SampleGroup(), PerformanceHarness::DefaultSpec())
          .value();
  for (auto _ : state) {
    const TopKResult result = TaTopK(problem, 10);
    benchmark::DoNotOptimize(result.items.data());
  }
}
BENCHMARK(BM_TaTopK);

void ExhaustPreferenceLists(const GroupProblem& problem,
                            AccessCounter& counter) {
  for (const ListView& list : problem.preference_lists()) {
    std::size_t cursor = 0;
    while (list.SkipToLive(cursor)) list.ReadSequential(cursor, counter);
  }
}

const GroupRecommender& FlatRecommender() {
  // Same datasets as the shared context, flat (globally sorted) index rows:
  // the pre-banding baseline for the prefix-scan comparison.
  static const GroupRecommender* rec = [] {
    const auto& ctx = BenchContext::Get();
    RecommenderOptions options;
    options.max_candidate_items =
        ctx.recommender->preference_index().pool_size();
    options.index_layout = IndexLayout::kFlat;
    return new GroupRecommender(ctx.universe, ctx.study, options);
  }();
  return *rec;
}

void PrefixScan(benchmark::State& state, const GroupRecommender& rec) {
  // Exhaustive sequential scan of the group's preference views at the given
  // candidate-pool prefix — the access pattern the banded layout exists for.
  QuerySpec spec = PerformanceHarness::DefaultSpec();
  spec.num_candidate_items = static_cast<std::size_t>(state.range(0));
  const GroupProblem problem = rec.BuildProblem(SampleGroup(), spec).value();
  for (auto _ : state) {
    AccessCounter counter;
    ExhaustPreferenceLists(problem, counter);
    benchmark::DoNotOptimize(counter.sequential);
  }
  state.counters["entries_walked_per_scan"] = static_cast<double>(
      problem.preference_lists()[0].scan_footprint());
}

// Pool args span row/16 .. full row at paper scale; GRECA_BENCH_SMALL runs
// clamp to the shrunken pool (larger args then all hit the flat fast path).
void BM_PrefixScanBanded(benchmark::State& state) {
  PrefixScan(state, *BenchContext::Get().recommender);
}
BENCHMARK(BM_PrefixScanBanded)->Arg(244)->Arg(975)->Arg(1950)->Arg(3900);

void BM_PrefixScanFlat(benchmark::State& state) {
  PrefixScan(state, FlatRecommender());
}
BENCHMARK(BM_PrefixScanFlat)->Arg(244)->Arg(975)->Arg(1950)->Arg(3900);

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

void BM_ProblemAssembly(benchmark::State& state) {
  // Steady-state batch-worker assembly: the reused workspace arena makes
  // BuildProblem sort- and allocation-free (the perf target of the
  // PreferenceIndex + ListView refactor).
  const auto& ctx = BenchContext::Get();
  const QuerySpec spec = PerformanceHarness::DefaultSpec();
  QueryWorkspace workspace;
  for (auto _ : state) {
    const GroupProblem problem =
        ctx.recommender->BuildProblem(SampleGroup(), spec, nullptr, &workspace)
            .value();
    benchmark::DoNotOptimize(&problem);
  }
}
BENCHMARK(BM_ProblemAssembly);

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

// ---- Row-layout primitives: SoA-vs-AoS scan, loser-tree-vs-argmin merge ---
// Synthetic rows isolate the two data-structure changes of the SoA rewrite
// from the rest of the serving stack. The row length is deliberately not a
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
  std::vector<std::uint32_t> band_begin;
  std::vector<std::uint64_t> tombstones;
  std::size_t live = 0;
};

SyntheticRow MakeSyntheticRow(std::size_t n, std::size_t num_bands,
                              unsigned tombstone_percent) {
  SyntheticRow row;
  std::mt19937 rng(static_cast<unsigned>(2015 + n + num_bands * 131 +
                                         tombstone_percent * 65537));
  std::uniform_real_distribution<double> score(0.0, 1.0);
  std::vector<ListEntry> entries(n);
  for (std::size_t i = 0; i < n; ++i) {
    entries[i] = {static_cast<ListKey>(i), score(rng)};
  }
  // Bands = contiguous key ranges (the popularity-band contract), each
  // independently score-sorted; num_bands == 1 yields a flat sorted row.
  row.band_begin.push_back(0);
  for (std::size_t b = 0; b < num_bands; ++b) {
    const std::size_t begin = b * n / num_bands;
    const std::size_t end = (b + 1) * n / num_bands;
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(begin),
              entries.begin() + static_cast<std::ptrdiff_t>(end),
              ListEntryOrder{});
    row.band_begin.push_back(static_cast<std::uint32_t>(end));
  }
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
      kLayoutRowLength, 1, static_cast<unsigned>(state.range(0)));
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
      kLayoutRowLength, 1, static_cast<unsigned>(state.range(0)));
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

// Arg = band count. Each iteration rewinds the cursor, so the loser-tree
// timing includes the per-query merge reset — the cost a real query pays.
void BM_BandMergeLoserTree(benchmark::State& state) {
  const SyntheticRow row = MakeSyntheticRow(
      kLayoutRowLength, static_cast<std::size_t>(state.range(0)), 25);
  const ListView view(row.keys, row.scores, row.positions, row.keys.size(),
                      row.live, row.tombstones, row.band_begin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExhaustView(view));
  }
}
BENCHMARK(BM_BandMergeLoserTree)->Arg(4)->Arg(8)->Arg(16);

void BM_BandMergeArgmin(benchmark::State& state) {
  // The pre-loser-tree merge: one linear argmin over every band head per
  // consumed entry, same (score desc, key asc) order and tombstone skipping.
  const std::size_t nb = static_cast<std::size_t>(state.range(0));
  const SyntheticRow row = MakeSyntheticRow(kLayoutRowLength, nb, 25);
  const auto live_at = [&](std::uint32_t pos) {
    const ListKey key = row.keys[pos];
    return ((row.tombstones[key >> 6] >> (key & 63u)) & 1u) == 0;
  };
  for (auto _ : state) {
    std::array<std::uint32_t, ListView::kMaxBands> head{};
    for (std::size_t b = 0; b < nb; ++b) {
      std::uint32_t h = row.band_begin[b];
      while (h < row.band_begin[b + 1] && !live_at(h)) ++h;
      head[b] = h;
    }
    double sum = 0.0;
    for (;;) {
      std::size_t best = nb;
      for (std::size_t b = 0; b < nb; ++b) {
        if (head[b] == row.band_begin[b + 1]) continue;
        if (best == nb) {
          best = b;
          continue;
        }
        const double sb = row.scores[head[b]];
        const double sw = row.scores[head[best]];
        if (sb > sw ||
            (sb == sw && row.keys[head[b]] < row.keys[head[best]])) {
          best = b;
        }
      }
      if (best == nb) break;
      sum += row.scores[head[best]];
      std::uint32_t h = head[best] + 1;
      while (h < row.band_begin[best + 1] && !live_at(h)) ++h;
      head[best] = h;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BandMergeArgmin)->Arg(4)->Arg(8)->Arg(16);

// ---- Copy-on-write index pages: publish clone and paged row lookup -------
// The scale harness's shard shape: pool 256 over geometric bands plus the
// flat twin (8 KiB per row, 8 rows per 64 KiB page), with synthetic scores
// so the timings cover the index alone. Indexes are built once per row
// count and shared by both benches.

constexpr std::size_t kPagedPool = 256;

double SyntheticScore(UserId row, std::size_t key) {
  // splitmix64 of (row, key) onto the 0..5 star scale.
  std::uint64_t z = (static_cast<std::uint64_t>(row) << 32 | key) +
                    0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return 5.0 * static_cast<double>(z >> 11) * 0x1.0p-53;
}

const PreferenceIndex& PagedIndex(std::size_t rows) {
  static std::map<std::size_t, std::unique_ptr<const PreferenceIndex>> cache;
  auto& slot = cache[rows];
  if (slot == nullptr) {
    std::vector<ItemId> pool(kPagedPool);
    std::iota(pool.begin(), pool.end(), ItemId{0});
    slot = std::make_unique<const PreferenceIndex>(
        PreferenceIndex::BuildStreaming(
            rows,
            [](UserId row, std::span<const ItemId>, std::span<Score> out) {
              for (std::size_t k = 0; k < out.size(); ++k) {
                out[k] = SyntheticScore(row, k);
              }
            },
            /*scale_max=*/5.0, std::move(pool), kPagedPool,
            PreferenceIndex::GeometricBandBreakpoints(kPagedPool)));
  }
  return *slot;
}

// Args = (rows, touched rows). The touched rows are spread evenly over the
// population, so each lands on its own page (the clone's worst case). A
// publish costs a page-table copy plus one page copy and row re-sort per
// touched row, so time tracks touched rows far more than population.
void BM_CloneWithUpdatedPoolRows(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t touched = static_cast<std::size_t>(state.range(1));
  const PreferenceIndex& index = PagedIndex(rows);
  std::vector<UserId> users;
  std::vector<std::vector<Score>> scores;
  for (std::size_t i = 0; i < touched; ++i) {
    const auto u = static_cast<UserId>(i * rows / touched);
    users.push_back(u);
    std::vector<Score>& row = scores.emplace_back(kPagedPool);
    for (std::size_t k = 0; k < kPagedPool; ++k) {
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
BENCHMARK(BM_CloneWithUpdatedPoolRows)
    ->ArgsProduct({{1'250, 12'500, 125'000}, {1, 16}})
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
