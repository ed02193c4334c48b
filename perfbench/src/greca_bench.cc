// greca_bench: one benchmark for the serving system.
//
//   greca_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--trace-file <chrome.json>] [--out <result.json>]
//               [--git-sha <sha>]
//
// Every workload serves reads and rating updates for --seconds. A
// closed-loop client issues a fixed cycle: one update batch, then single
// Recommend calls, then one RecommendBatch. live_rw instead runs two
// closed-loop readers beside an open-loop writer that applies an update
// batch every 100 ms (its latency is timed from the moment each publish was
// due). The seed generates the traffic — groups, Zipf draws, events; the
// engines never see it. The datasets are fixed (see serving.h).
//
// --trace 0 reports the end-to-end metrics, each timing taken over every
// call of the run and divided by a host factor: the host's speed, measured
// on the clients' own threads between their calls (HostSpeed), over the
// run, or for a publish over the second around it.
// --trace 1 runs the same inputs but replaces each engine call by the same
// work done stage by stage through the layers' public functions, with a
// span around each stage, checks every traced result bit for bit against
// the engine call on the same pin, and reports per-layer metrics (see
// README.md for which end-to-end metric each should move, and where).
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/distributions.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/problem_assembly.h"
#include "dataset/synthetic.h"
#include "eval/experiments.h"
#include "serving.h"
#include "solver/solver_registry.h"
#include "trace.h"

namespace greca::perfbench {
namespace {

constexpr std::size_t kSetupRepetitions = 3;
/// Update batches applied before the window: enough that every shard of the
/// scale engine has published a few times.
constexpr std::size_t kWarmupPublishes = 16;
/// The open-loop writer publishes one update batch per period.
constexpr std::chrono::milliseconds kWritePeriod{100};
/// The reference time of HostSpeed's work, in CPU milliseconds. It only sets
/// the scale: a scaled timing is the time the call would take on a host
/// that does the work in this time. The baselines in results/ were recorded
/// on a 4-vCPU Intel Xeon VM (2.0 GHz) that took 0.45-0.75 ms.
constexpr double kReferenceCalibrationMs = 0.5;
/// A publish is divided by the host factor of the HostSpeed measurements
/// within this window of it, not the run's: its tail follows the host's
/// slow seconds. In 50 runs on the VM above, the spread over ten runs of
/// the publish p50 and p90 (mean and widest over the workloads) fell from
/// 0.06 and 0.20 with the run's factor to 0.04 and 0.10 with a 1 s window.
/// The reads did not gain from it.
constexpr std::chrono::seconds kLocalHostWindow{1};
// At 50 000 users every array of a shard's index stays under glibc's 32 MB
// mmap threshold, so a publish measures the clone itself; at 100 000 each
// publish also page-faults fresh mappings and its p50 swung +-20% between
// runs.
constexpr std::size_t kScaleUsers = 50'000;
/// Inputs that are the same for every seed: the probe (satisfaction score
/// and pinned replay), so that satisfaction_pct is a deterministic score of
/// the code's answers, batch_zipf's base queries and live_rw's groups.
constexpr std::uint64_t kFixedSeed = 2015;

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = seed ^ (tag * 0xD1B54A32D192ED03ULL);
  return SplitMix64(state);
}

// ---------------------------------------------------------------------------
// Workloads

/// What one workload sends. The generators are called concurrently from the
/// reader threads, each with its own Rng, so they only read captured state.
struct Traffic {
  std::function<Query(Rng&)> single;
  std::function<std::vector<Query>(Rng&)> batch;
  /// One update batch; the writer stamps the timestamps.
  std::function<std::vector<RatingEvent>(Rng&)> events;
  /// Queries for the satisfaction score and the pinned replay, generated
  /// from kFixedSeed.
  std::vector<Query> probe;
};

struct Workload {
  std::string name;
  /// Off: one client applies an update batch at the start of each cycle,
  /// so publishes and reads never overlap and each is timed alone. On:
  /// `readers` closed loops beside an open-loop writer thread.
  bool open_loop_writer = false;
  std::size_t readers = 1;
  /// Each reader issues this many single queries, then one batch, and
  /// repeats.
  std::size_t singles_per_batch = 16;
  /// Single queries assembled before the window to fill the caches.
  std::size_t warmup_assemblies = 256;
  /// Replays the probe on the pre-window pin after the window. Off at
  /// scale: that pin would keep every pre-window shard index resident.
  bool replay_initial_pin = true;
  /// How the reads' times follow the host factor f: a read takes f^e times
  /// its time at the reference speed (a publish and a set-up take f times
  /// theirs). Fitted on the shared VM kReferenceCalibrationMs names, where f
  /// moved by up to 1.6x between runs, over 40-60 runs per workload: warm
  /// reads slowed by f^0.8 to f^1.7, most near f^1.3; adhoc_unique's cold
  /// reads, which miss every cache, by f^1.2 to f^2.1, most near f^1.7;
  /// publishes and set-up, which mostly build and copy memory, by f^0.3 to
  /// f^1.3, most near f.
  double read_elasticity = 1.25;
  std::function<std::unique_ptr<ServingTarget>(std::size_t threads)> build;
  std::function<Traffic(const ServingTarget&, std::uint64_t)> traffic;
};

std::vector<UserId> RandomGroup(Rng& rng, std::size_t num_users,
                                std::size_t size) {
  std::vector<UserId> group;
  for (const std::size_t u : SampleDistinct(rng, num_users, size)) {
    group.push_back(static_cast<UserId>(u));
  }
  return group;
}

std::vector<ItemId> PoolOf(const ServingTarget& target) {
  const std::span<const ItemId> pool = target.Pool(target.PinView());
  return {pool.begin(), pool.end()};
}

/// `count` events by users drawn by `user`, on pool items, 1..5 stars.
template <typename UserFn>
std::vector<RatingEvent> PoolEvents(Rng& rng, std::size_t count,
                                    const std::vector<ItemId>& pool,
                                    UserFn&& user) {
  std::vector<RatingEvent> events(count);
  for (RatingEvent& e : events) {
    e.user = user(rng);
    e.item = pool[rng.NextBounded(pool.size())];
    e.rating = static_cast<Score>(1 + rng.NextBounded(5));
  }
  return events;
}

std::vector<Query> Repeat(Rng& rng, std::size_t n,
                          const std::function<Query(Rng&)>& single) {
  std::vector<Query> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) queries.push_back(single(rng));
  return queries;
}

/// Mono-engine updates: `count` events by random study participants.
std::function<std::vector<RatingEvent>(Rng&)> StudyEvents(
    const ServingTarget& target, std::size_t count) {
  const std::size_t n = target.NumUsers();
  return [n, count, pool = PoolOf(target)](Rng& rng) {
    return PoolEvents(rng, count, pool, [n](Rng& r) {
      return static_cast<UserId>(r.NextBounded(n));
    });
  };
}

Traffic AdhocUnique(const ServingTarget& target, std::uint64_t /*seed*/) {
  const std::size_t n = target.NumUsers();
  Traffic t;
  t.single = [n](Rng& rng) {
    return Query{RandomGroup(rng, n, 6), PerformanceHarness::DefaultSpec()};
  };
  t.batch = [single = t.single](Rng& rng) { return Repeat(rng, 16, single); };
  t.events = StudyEvents(target, 8);
  Rng probe_rng(kFixedSeed);
  t.probe = Repeat(probe_rng, 256, t.single);
  return t;
}

Traffic BatchZipf(const ServingTarget& target, std::uint64_t /*seed*/) {
  // 256 base queries; base i pairs a random group with the solver x
  // consensus combination i % 12. GRECA with pairwise disagreement, ~10x
  // the cost of the rest, takes the ranks with the least mass (11, 23, ...).
  // The base is the same for every seed, which draws the batches and the
  // singles from it: with a base drawn per seed, the singles' p50 and p90
  // over its 256 groups moved by ~12% between seeds.
  const auto ap = ConsensusSpec::AveragePreference();
  const auto lm = ConsensusSpec::LeastMisery();
  const auto pd = ConsensusSpec::PairwiseDisagreement();
  const std::pair<std::string_view, ConsensusSpec> combos[12] = {
      {kGrecaSolverId, ap}, {kNaiveSolverId, ap}, {kTaSolverId, ap},
      {kSubmodularSolverId, ap}, {kGrecaSolverId, lm}, {kNaiveSolverId, lm},
      {kTaSolverId, lm}, {kSubmodularSolverId, lm}, {kNaiveSolverId, pd},
      {kTaSolverId, pd}, {kSubmodularSolverId, pd}, {kGrecaSolverId, pd}};
  const auto make_queries = [&](Rng rng, std::size_t count) {
    std::vector<Query> queries;
    for (std::size_t i = 0; i < count; ++i) {
      Query q{RandomGroup(rng, target.NumUsers(), 6),
              PerformanceHarness::DefaultSpec()};
      q.spec.solver_id = std::string(combos[i % 12].first);
      q.spec.consensus = combos[i % 12].second;
      queries.push_back(std::move(q));
    }
    return queries;
  };
  auto base = std::make_shared<const std::vector<Query>>(
      make_queries(Rng(DeriveSeed(kFixedSeed, 11)), 256));
  auto zipf = std::make_shared<const ZipfSampler>(base->size(), 1.0);
  Traffic t;
  // Singles are the paper's default query over the batches' groups, drawn
  // uniformly: the warm-cache single path (latency percentiles over a mix
  // of solvers would sit on the gaps between their costs, and Zipf draws
  // would let the seed's top few groups set them).
  t.single = [base](Rng& r) {
    return Query{(*base)[r.NextBounded(base->size())].group,
                 PerformanceHarness::DefaultSpec()};
  };
  t.batch = [base, zipf](Rng& r) {
    std::vector<Query> batch;
    for (std::size_t i = 0; i < base->size(); ++i) {
      batch.push_back((*base)[zipf->Sample(r)]);
    }
    return batch;
  };
  t.events = StudyEvents(target, 8);
  t.probe = make_queries(Rng(kFixedSeed), 192);
  return t;
}

Traffic LiveRw(const ServingTarget& target, std::uint64_t /*seed*/) {
  // The 64 groups are the same for every seed, which draws the reads and
  // the updates over them: with groups drawn per seed, the two run sets'
  // query p90 and batch p90 followed the seed (correlation 0.5-0.7).
  Rng rng(DeriveSeed(kFixedSeed, 12));
  auto groups = std::make_shared<std::vector<std::vector<UserId>>>();
  for (std::size_t i = 0; i < 64; ++i) {
    groups->push_back(RandomGroup(rng, target.NumUsers(), 6));
  }
  Traffic t;
  t.single = [groups](Rng& r) {
    return Query{(*groups)[r.NextBounded(groups->size())],
                 PerformanceHarness::DefaultSpec()};
  };
  t.batch = [single = t.single](Rng& r) { return Repeat(r, 16, single); };
  t.events = StudyEvents(target, 32);
  Rng probe_rng(kFixedSeed);
  for (std::size_t i = 0; i < 64; ++i) {
    t.probe.push_back({RandomGroup(probe_rng, target.NumUsers(), 6),
                       PerformanceHarness::DefaultSpec()});
  }
  return t;
}

Traffic ScaleRw(const ServingTarget& target, std::uint64_t seed) {
  const auto shard_of = [&target](UserId u) { return target.ShardOf(u); };
  ScaleGroupsConfig query_groups;
  query_groups.num_groups = 1'024;
  query_groups.locality = 0.0;
  query_groups.seed = DeriveSeed(seed, 13);
  auto groups = std::make_shared<const std::vector<std::vector<UserId>>>(
      GenerateScaleGroups(query_groups, target.NumUsers(), target.NumShards(),
                          shard_of));
  // Updates land on one group's members, drawn with locality 1, so every
  // update batch publishes exactly one shard.
  ScaleGroupsConfig write_groups = query_groups;
  write_groups.locality = 1.0;
  write_groups.seed = DeriveSeed(seed, 14);
  auto writers = std::make_shared<const std::vector<std::vector<UserId>>>(
      GenerateScaleGroups(write_groups, target.NumUsers(), target.NumShards(),
                          shard_of));
  const std::vector<ItemId> pool = PoolOf(target);
  QuerySpec spec;
  spec.k = 10;
  spec.model = AffinityModelSpec::TimeAgnostic();
  spec.solver_id = std::string(kGrecaSolverId);
  spec.num_candidate_items = pool.size();
  spec.eval_period = 0;

  Traffic t;
  t.single = [groups, spec](Rng& r) {
    return Query{(*groups)[r.NextBounded(groups->size())], spec};
  };
  t.batch = [single = t.single](Rng& r) { return Repeat(r, 64, single); };
  t.events = [writers, pool](Rng& r) {
    const std::vector<UserId>& members =
        (*writers)[r.NextBounded(writers->size())];
    return PoolEvents(r, 64, pool, [&members](Rng& rr) {
      return members[rr.NextBounded(members.size())];
    });
  };
  ScaleGroupsConfig probe_groups = query_groups;
  probe_groups.num_groups = 256;
  probe_groups.seed = kFixedSeed;
  for (auto& group : GenerateScaleGroups(probe_groups, target.NumUsers(),
                                         target.NumShards(), shard_of)) {
    t.probe.push_back({std::move(group), spec});
  }
  return t;
}

std::vector<Workload> Workloads() {
  const auto paper = [](std::size_t threads) {
    return BuildPaperEngine(threads);
  };
  std::vector<Workload> w(4);
  w[0].name = "adhoc_unique";
  // Unique groups never hit, so the period cache's steady state is full:
  // PeriodListCache::kDefaultMaxEntries lists, one per group and period
  // (six periods), and every miss evicts.
  w[0].warmup_assemblies = PeriodListCache::kDefaultMaxEntries / 4;
  w[0].read_elasticity = 1.75;
  w[0].build = paper;
  w[0].traffic = AdhocUnique;
  w[1].name = "batch_zipf";
  // A 256-query batch takes ~40x a single: with 8 singles per cycle a 25 s
  // run still holds over 100 batches, ten of them beyond the p90.
  w[1].singles_per_batch = 8;
  w[1].build = paper;
  w[1].traffic = BatchZipf;
  w[2].name = "live_rw";
  w[2].open_loop_writer = true;
  w[2].readers = 2;
  w[2].singles_per_batch = 15;
  w[2].build = paper;
  w[2].traffic = LiveRw;
  w[3].name = "scale_rw";
  w[3].replay_initial_pin = false;
  w[3].build = [](std::size_t threads) {
    return BuildScaleEngine(kScaleUsers, threads);
  };
  w[3].traffic = ScaleRw;
  return w;
}

// ---------------------------------------------------------------------------
// Result checks

bool SameRecommendation(const Recommendation& a, const Recommendation& b) {
  const auto same_entries = [](const std::vector<ListEntry>& x,
                               const std::vector<ListEntry>& y) {
    return std::ranges::equal(x, y, [](const ListEntry& l, const ListEntry& r) {
      return l.id == r.id && l.score == r.score;
    });
  };
  return a.items == b.items && a.scores == b.scores &&
         same_entries(a.raw.items, b.raw.items) &&
         a.raw.accesses.sequential == b.raw.accesses.sequential &&
         a.raw.accesses.random == b.raw.accesses.random &&
         a.raw.total_entries == b.raw.total_entries &&
         a.raw.rounds == b.raw.rounds &&
         a.raw.early_terminated == b.raw.early_terminated &&
         a.greca_stats.peak_buffer_size == b.greca_stats.peak_buffer_size &&
         a.greca_stats.pruned_items == b.greca_stats.pruned_items &&
         a.greca_stats.stop_checks == b.greca_stats.stop_checks &&
         a.greca_stats.final_threshold == b.greca_stats.final_threshold;
}

bool SameResult(const Result<Recommendation>& a,
                const Result<Recommendation>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().ToString() == b.status().ToString();
  return SameRecommendation(a.value(), b.value());
}

bool SameResults(const std::vector<Result<Recommendation>>& a,
                 const std::vector<Result<Recommendation>>& b) {
  return std::ranges::equal(a, b, SameResult);
}

/// A served answer: OK, 1..k distinct items with one score each.
bool WellFormed(const Result<Recommendation>& r, const Query& q) {
  if (!r.ok()) return false;
  const Recommendation& rec = r.value();
  std::vector<ItemId> items = rec.items;
  std::ranges::sort(items);
  return !items.empty() && items.size() <= q.spec.k &&
         rec.scores.size() == items.size() &&
         std::ranges::adjacent_find(items) == items.end();
}

/// GRECA's item set equals the exhaustive scan's top-k (paper §3.1: the
/// set is exact, the order may be partial), ties at the k-th score allowed.
bool MatchesNaive(const ServingTarget& target, const Pin& pin,
                  const Query& q) {
  const Result<Recommendation> greca = target.RecommendOn(pin, q);
  Query wide = q;
  wide.spec.solver_id = std::string(kNaiveSolverId);
  wide.spec.k = q.spec.k + 20;
  const Result<Recommendation> naive = target.RecommendOn(pin, wide);
  if (!greca.ok() || !naive.ok()) return false;
  const Recommendation& n = naive.value();
  const std::size_t k = std::min(q.spec.k, n.items.size());
  if (greca.value().items.size() != k || k == 0) return false;
  const double kth = n.scores[k - 1];
  constexpr double kEps = 1e-9;
  for (const ItemId item : greca.value().items) {
    const auto it = std::ranges::find(n.items, item);
    if (it == n.items.end()) return false;
    if (n.scores[it - n.items.begin()] < kth - kEps) return false;
  }
  for (std::size_t i = 0; i < k; ++i) {
    if (n.scores[i] > kth + kEps &&
        std::ranges::find(greca.value().items, n.items[i]) ==
            greca.value().items.end()) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// The measured window

const char* SolveSpanName(const std::string& solver_id) {
  if (solver_id == kGrecaSolverId) return "solver.solve.greca";
  if (solver_id == kNaiveSolverId) return "solver.solve.naive";
  if (solver_id == kTaSolverId) return "solver.solve.ta";
  if (solver_id == kSubmodularSolverId) return "solver.solve.submodular";
  return "solver.solve.other";
}

/// Counts only the traced run needs.
struct TraceCounts {
  std::uint64_t pins = 0, pin_reuses = 0;
  std::uint64_t queries = 0, shards_touched = 0;
  std::uint64_t greca_solves = 0, greca_rounds = 0;
  double greca_sa_pct = 0.0;
  std::uint64_t batch_valid = 0, batch_buckets = 0;
  std::uint64_t agreement_deferred = 0, agreement_skipped = 0;
  std::uint64_t period_hits = 0, period_misses = 0;
  std::uint64_t tomb_hits = 0, tomb_misses = 0;
  double traced_batch_ns = 0.0, untraced_batch_ns = 0.0;
  double untraced_single_ns = 0.0;
  std::uint64_t untraced_singles = 0;

  void Merge(const TraceCounts& o) {
    pins += o.pins;
    pin_reuses += o.pin_reuses;
    queries += o.queries;
    shards_touched += o.shards_touched;
    greca_solves += o.greca_solves;
    greca_rounds += o.greca_rounds;
    greca_sa_pct += o.greca_sa_pct;
    batch_valid += o.batch_valid;
    batch_buckets += o.batch_buckets;
    agreement_deferred += o.agreement_deferred;
    agreement_skipped += o.agreement_skipped;
    period_hits += o.period_hits;
    period_misses += o.period_misses;
    tomb_hits += o.tomb_hits;
    tomb_misses += o.tomb_misses;
    traced_batch_ns += o.traced_batch_ns;
    untraced_batch_ns += o.untraced_batch_ns;
    untraced_single_ns += o.untraced_single_ns;
    untraced_singles += o.untraced_singles;
  }
};

/// One timed call: how long it took (a publish: from when it was due), how
/// many queries it answered, and when it started (a publish: was due).
struct Sample {
  double ms = 0.0;
  std::size_t queries = 0;
  std::int64_t at_ns = 0;
};

/// One HostSpeed measurement: when it started and how long the work took.
struct HostSample {
  std::int64_t at_ns = 0;
  double ms = 0.0;
};

/// One thread's share of the measured window: its samples, host speed
/// measurements, counts and spans.
struct ThreadLog {
  explicit ThreadLog(std::uint32_t tid) : spans(tid) {}
  std::vector<Sample> singles, batches, publishes;
  /// HostSpeed's work on this thread: its input copy, and its times.
  std::vector<float> host_scratch;
  std::vector<HostSample> host;
  std::vector<double> writer_late_ms;
  std::uint64_t queries = 0, attempted = 0, failed = 0;
  std::vector<UpdateReport> reports;
  TraceCounts counts;
  SpanLog spans;
  Pin last_pin;
};

/// Issues the workload's calls to the target and records them.
class Client {
 public:
  Client(ServingTarget& target, const Traffic& traffic, bool traced)
      : target_(target), traffic_(traffic), traced_(traced) {}

  void Single(Rng& rng, ThreadLog& log) {
    const Query q = traffic_.single(rng);
    ++log.attempted;
    ++log.queries;
    if (!traced_) {
      const std::int64_t start = NowNs();
      const Result<Recommendation> r = target_.Recommend(q);
      log.singles.push_back(
          {static_cast<double>(NowNs() - start) / 1e6, 1});
      if (!WellFormed(r, q)) ++log.failed;
      return;
    }
    // Traced: the stage-by-stage path, and the engine call as the timing
    // reference, in alternating order so neither always finds the caches
    // warm. The traced result must equal the engine's on the traced pin.
    const std::uint64_t op = next_op_++;
    CountScatter(q, log);
    const auto untraced_on = [&](const Pin& pin) {
      const std::int64_t start = NowNs();
      Result<Recommendation> r = target_.RecommendOn(pin, q);
      log.counts.untraced_single_ns += static_cast<double>(NowNs() - start);
      ++log.counts.untraced_singles;
      return r;
    };
    Pin traced_pin;
    bool same = false;
    std::optional<Result<Recommendation>> traced;
    if (op % 2 == 0) {
      traced.emplace(TracedSingle(q, op, log, traced_pin));
      same = SameResult(*traced, untraced_on(traced_pin));
    } else {
      const Pin pin = target_.PinView();
      const Result<Recommendation> reference = untraced_on(pin);
      traced.emplace(TracedSingle(q, op, log, traced_pin));
      same = SameResult(*traced, traced_pin == pin
                                     ? reference
                                     : target_.RecommendOn(traced_pin, q));
    }
    if (!WellFormed(*traced, q) || !same) ++log.failed;
  }

  void Batch(Rng& rng, ThreadLog& log) {
    const std::vector<Query> qs = traffic_.batch(rng);
    ++log.attempted;
    log.queries += qs.size();
    std::vector<Result<Recommendation>> results;
    if (!traced_) {
      const std::int64_t start = NowNs();
      results = target_.RecommendBatch(qs, nullptr);
      log.batches.push_back(
          {static_cast<double>(NowNs() - start) / 1e6, qs.size()});
    } else {
      // Same protocol as Single; the engine's parallel batch is the timing
      // reference for serve.parallel_efficiency.
      const std::uint64_t op = next_op_++;
      for (const Query& q : qs) CountScatter(q, log);
      // The cache counters count only when the engine saw the batch before
      // the traced path did, which would have filled the caches for it.
      const auto untraced_on = [&](const Pin& pin, bool first) {
        BatchReport report;
        const std::int64_t start = NowNs();
        std::vector<Result<Recommendation>> r =
            target_.RecommendBatchOn(pin, qs, &report);
        log.counts.untraced_batch_ns += static_cast<double>(NowNs() - start);
        if (first) {
          log.counts.period_hits += report.period_cache_hits;
          log.counts.period_misses += report.period_cache_misses;
          log.counts.tomb_hits += report.tombstone_cache_hits;
          log.counts.tomb_misses += report.tombstone_cache_misses;
        }
        return r;
      };
      Pin traced_pin;
      const auto traced_batch = [&] {
        const std::int64_t start = NowNs();
        results = TracedBatch(qs, op, log, traced_pin);
        log.counts.traced_batch_ns += static_cast<double>(NowNs() - start);
      };
      bool same = false;
      if (op % 2 == 0) {
        traced_batch();
        same = SameResults(results, untraced_on(traced_pin, false));
      } else {
        const Pin pin = target_.PinView();
        const std::vector<Result<Recommendation>> reference =
            untraced_on(pin, true);
        traced_batch();
        same = SameResults(results,
                           traced_pin == pin
                               ? reference
                               : target_.RecommendBatchOn(traced_pin, qs,
                                                          nullptr));
      }
      if (!same) ++log.failed;
    }
    bool ok = results.size() == qs.size();
    for (std::size_t i = 0; ok && i < qs.size(); ++i) {
      ok = WellFormed(results[i], qs[i]);
    }
    if (!ok) ++log.failed;
  }

  /// One publish of the open-loop writer, due at `due_ns`.
  void Publish(Rng& rng, std::int64_t due_ns, ThreadLog& log) {
    std::vector<RatingEvent> events = traffic_.events(rng);
    for (RatingEvent& e : events) e.timestamp = next_timestamp_++;
    ++log.attempted;
    const std::int64_t start = NowNs();
    log.writer_late_ms.push_back(static_cast<double>(start - due_ns) / 1e6);
    UpdateReport report;
    bool rows_match = true;
    const Status status =
        traced_ ? target_.TracedApplyUpdates(
                      events, &log.spans, next_op_++,
                      /*publish_first=*/log.reports.size() % 2 == 1,
                      &report, &rows_match)
                : target_.ApplyUpdates(events, &report);
    log.publishes.push_back(
        {static_cast<double>(NowNs() - due_ns) / 1e6, 0, due_ns});
    if (!status.ok() || !rows_match ||
        report.events_applied + report.events_ignored_stale != events.size()) {
      ++log.failed;
    }
    log.reports.push_back(report);
  }

 private:
  void CountScatter(const Query& q, ThreadLog& log) {
    std::vector<std::size_t> shards;
    for (const UserId u : q.group) shards.push_back(target_.ShardOf(u));
    std::ranges::sort(shards);
    ++log.counts.queries;
    log.counts.shards_touched += static_cast<std::uint64_t>(
        std::unique(shards.begin(), shards.end()) - shards.begin());
  }

  Pin TracedPin(std::uint64_t op, ThreadLog& log) {
    Pin pin;
    {
      ScopedSpan span(&log.spans, "api.pin", op);
      pin = target_.PinView();
    }
    ++log.counts.pins;
    if (pin == log.last_pin) ++log.counts.pin_reuses;
    log.last_pin = pin;
    return pin;
  }

  /// Assemble + solve of one query on `ws`, as the engines' SolveOne does.
  Result<Recommendation> TracedSolve(const Pin& pin, const Query& q,
                                     std::uint64_t op, QueryWorkspace& ws,
                                     ThreadLog& log) {
    std::optional<Result<GroupProblem>> problem;
    {
      ScopedSpan span(&log.spans, "core.assemble", op);
      problem.emplace(target_.Assemble(pin, q, ws));
    }
    if (!problem->ok()) return problem->status();
    std::optional<Recommendation> rec;
    {
      ScopedSpan span(&log.spans, SolveSpanName(q.spec.solver_id), op);
      rec.emplace(SolveGroupProblem(problem->value(), q.spec,
                                    target_.Pool(pin), ws));
    }
    const GroupProblem& p = problem->value();
    if (p.agreement_deferred()) {
      ++log.counts.agreement_deferred;
      if (!p.agreement_materialized()) ++log.counts.agreement_skipped;
    }
    if (q.spec.solver_id == kGrecaSolverId) {
      ++log.counts.greca_solves;
      log.counts.greca_rounds += rec->raw.rounds;
      log.counts.greca_sa_pct += rec->raw.SequentialAccessPercent();
    }
    return std::move(*rec);
  }

  /// The read path of Recommend: pin (returned in `pin`), validate,
  /// assemble, solve.
  Result<Recommendation> TracedSingle(const Query& q, std::uint64_t op,
                                      ThreadLog& log, Pin& pin) {
    ScopedSpan root(&log.spans, "query", op);
    pin = TracedPin(op, log);
    Status status;
    {
      ScopedSpan span(&log.spans, "core.validate", op);
      status = target_.Validate(pin, q);
    }
    if (!status.ok()) return status;
    QueryWorkspace ws;  // Recommend solves on a fresh workspace too
    return TracedSolve(pin, q, op, ws, log);
  }

  /// The read path of RecommendBatch, serially: pin (returned in `pin`),
  /// plan, one assemble + solve per bucket, fan-out in input order.
  std::vector<Result<Recommendation>> TracedBatch(
      const std::vector<Query>& qs, std::uint64_t op, ThreadLog& log,
      Pin& pin) {
    ScopedSpan root(&log.spans, "batch", op);
    pin = TracedPin(op, log);
    std::optional<BatchPlan> plan;
    {
      ScopedSpan span(&log.spans, "plan.plan", op);
      plan.emplace(BatchPlanner::Plan(
          qs, [&](const Query& q) { return target_.Validate(pin, q); },
          target_.NumPeriods()));
    }
    log.counts.batch_valid += plan->num_valid;
    log.counts.batch_buckets += plan->buckets.size();
    std::vector<std::optional<Result<Recommendation>>> solved(
        plan->buckets.size());
    QueryWorkspace ws;
    for (std::size_t b = 0; b < plan->buckets.size(); ++b) {
      solved[b].emplace(
          TracedSolve(pin, qs[plan->buckets[b].queries.front()], op, ws, log));
    }
    ScopedSpan span(&log.spans, "serve.fanout", op);
    std::vector<Result<Recommendation>> results;
    results.reserve(qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const std::uint32_t b = plan->bucket_of[i];
      if (b == BatchQueryAttribution::kInvalid) {
        results.emplace_back(plan->statuses[i]);
      } else {
        results.push_back(*solved[b]);
      }
    }
    return results;
  }

  ServingTarget& target_;
  const Traffic& traffic_;
  const bool traced_;
  std::atomic<std::uint64_t> next_op_{0};
  std::atomic<Timestamp> next_timestamp_{4'000'000'000};
};

// ---------------------------------------------------------------------------
// Output

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The value after "key:" in a /proc text file, or "".
std::string ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::size_t begin = line.find_first_not_of(" \t", colon + 1);
    return begin == std::string::npos ? "" : line.substr(begin);
  }
  return "";
}

/// The process's resident-set high-water mark (Linux reports kB).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

double Median(std::vector<double> xs) { return Percentile(xs, 50.0); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// The host's speed, from a fixed piece of work that runs no library code:
/// copy a fixed 256 KB array, select its top hundred and sort them, timed
/// in thread CPU time. It runs on the clients' own threads, once per cycle
/// of calls (the open-loop writer: after each publish), so it meets the
/// same cores and the same neighbours as the calls around it (see
/// Workload::read_elasticity for how the calls follow it).
class HostSpeed {
 public:
  HostSpeed() : data_(std::size_t{1} << 16) {
    std::uint64_t state = 1;
    for (float& x : data_) x = static_cast<float>(SplitMix64(state) >> 40);
  }

  /// Does the work once on the calling thread and records its time in
  /// `log`.
  void Measure(ThreadLog& log) const {
    std::vector<float>& v = log.host_scratch;
    v.resize(data_.size());
    const std::int64_t at_ns = NowNs();
    const double start = ThreadCpuMs();
    std::ranges::copy(data_, v.begin());
    const auto top = v.begin() + 100;
    std::nth_element(v.begin(), top, v.end(), std::greater<>());
    std::sort(v.begin(), top, std::greater<>());
    log.host.push_back({at_ns, ThreadCpuMs() - start});
  }

 private:
  std::vector<float> data_;
};

/// `publishes` at the reference host speed: each divided by the host factor
/// around it, from the measurements in `host` (sorted by time) that started
/// within kLocalHostWindow of when it was due, or by `run_factor` if none
/// did.
std::vector<Sample> PublishesAtReference(std::span<const Sample> publishes,
                                         std::span<const HostSample> host,
                                         double run_factor) {
  const std::int64_t window =
      std::chrono::nanoseconds(kLocalHostWindow).count();
  std::vector<Sample> scaled;
  for (const Sample& s : publishes) {
    const auto begin = std::ranges::lower_bound(host, s.at_ns - window, {},
                                                &HostSample::at_ns);
    const auto end = std::ranges::upper_bound(host, s.at_ns + window, {},
                                              &HostSample::at_ns);
    std::vector<double> ms;
    for (auto it = begin; it != end; ++it) ms.push_back(it->ms);
    const double f =
        ms.empty() ? run_factor : Median(ms) / kReferenceCalibrationMs;
    scaled.push_back({s.ms / f, s.queries, s.at_ns});
  }
  return scaled;
}

double PercentileMs(std::span<const Sample> samples, double p) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const Sample& s : samples) ms.push_back(s.ms);
  return Percentile(ms, p);
}

/// The throughput of `clients` closed loops: the queries their calls
/// answered per second of call time.
double Throughput(std::span<const Sample> samples, std::size_t clients) {
  double queries = 0.0, busy_s = 0.0;
  for (const Sample& s : samples) {
    queries += static_cast<double>(s.queries);
    busy_s += s.ms / 1e3;
  }
  return Ratio(static_cast<double>(clients) * queries, busy_s);
}

/// The measured window, until `deadline`. `logs` holds one log per reader,
/// then the open-loop writer's. Reader 0 runs on the calling thread, so
/// that where it also publishes, the index clones come from glibc's main
/// arena (see FixAllocatorPolicy).
void MeasureWindow(Client& client, const Workload& workload,
                   const HostSpeed& host, std::int64_t deadline,
                   std::vector<std::unique_ptr<ThreadLog>>& logs,
                   std::uint64_t seed) {
  const auto reader = [&](std::size_t r) {
    ThreadLog& log = *logs[r];
    Rng rng(DeriveSeed(seed, 100 + r));
    Rng write_rng(DeriveSeed(seed, 99));
    for (std::size_t i = 0; NowNs() < deadline; ++i) {
      const std::size_t step = i % (workload.singles_per_batch + 1);
      if (step == 0) {
        host.Measure(log);
        if (!workload.open_loop_writer) {
          client.Publish(write_rng, NowNs(), log);
        }
      }
      if (step == workload.singles_per_batch) {
        client.Batch(rng, log);
      } else {
        client.Single(rng, log);
      }
    }
    log.last_pin.reset();
  };
  std::vector<std::thread> workers;
  for (std::size_t r = 1; r < workload.readers; ++r) {
    workers.emplace_back(reader, r);
  }
  if (workload.open_loop_writer) {
    workers.emplace_back([&] {
      Rng rng(DeriveSeed(seed, 99));
      ThreadLog& log = *logs.back();
      const std::int64_t period =
          std::chrono::nanoseconds(kWritePeriod).count();
      for (std::int64_t due = NowNs() + period; due < deadline;
           due += period) {
        while (NowNs() < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
        }
        client.Publish(rng, due, log);
        host.Measure(log);
      }
    });
  }
  reader(0);
  for (std::thread& t : workers) t.join();
}

// ---------------------------------------------------------------------------
// main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file, out_file, git_sha = "unknown";
};

int Usage(const char* why) {
  std::cerr << "greca_bench: " << why
            << "\nusage: greca_bench --workload <adhoc_unique|batch_zipf|"
               "live_rw|scale_rw> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>] [--out <path>] [--git-sha <sha>]\n";
  return 2;
}

int Run(const Options& opt, const Workload& workload) {
  // Batch workers: min(2, nproc). On a few shared cores, more threads than
  // the host gives the program at once measure its scheduler: live_rw's two
  // readers, one in a batch, and its writer already keep four busy.
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 2);

  // Set-up, repeated; the last engine serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<ServingTarget> target;
  for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    target.reset();
    const std::int64_t start = NowNs();
    target = workload.build(threads);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  const Traffic traffic = workload.traffic(*target, opt.seed);
  std::uint64_t attempted = 0, failed = 0;

  // The probe on the pre-window pin: satisfaction, and the replay reference.
  Pin initial = target->PinView();
  std::vector<Result<Recommendation>> probe_before;
  double satisfaction = 0.0;
  for (const Query& q : traffic.probe) {
    probe_before.push_back(target->RecommendOn(initial, q));
    ++attempted;
    if (!WellFormed(probe_before.back(), q)) {
      ++failed;
      continue;
    }
    satisfaction +=
        target->SatisfactionPercent(q.group, probe_before.back().value().items);
  }
  satisfaction /= static_cast<double>(traffic.probe.size());
  if (!workload.replay_initial_pin) initial.reset();

  // Warm-up outside the window: publish until the allocator holds the
  // memory a publish reuses (the first publish to each shard page-faults
  // fresh memory and takes ~4x as long), assemble enough of the traffic's
  // queries to bring the period-list cache to its steady state (full and
  // evicting, on unique traffic), then one engine single and batch.
  Client client(*target, traffic, opt.trace);
  {
    Rng rng(DeriveSeed(opt.seed, 20));
    ThreadLog log(0);
    for (std::size_t i = 0; i < kWarmupPublishes; ++i) {
      client.Publish(rng, NowNs(), log);
    }
    attempted += log.attempted;
    failed += log.failed;
    const Pin pin = target->PinView();
    QueryWorkspace ws;
    for (std::size_t i = 0; i < workload.warmup_assemblies; ++i) {
      ++attempted;
      if (!target->Assemble(pin, traffic.single(rng), ws).ok()) ++failed;
    }
    const Query q = traffic.single(rng);
    const std::vector<Query> batch = traffic.batch(rng);
    ++attempted;
    if (!WellFormed(target->Recommend(q), q) ||
        target->RecommendBatch(batch, nullptr).size() != batch.size()) {
      ++failed;
    }
  }

  // The measured --seconds.
  std::vector<std::unique_ptr<ThreadLog>> logs;
  const std::size_t num_logs =
      workload.readers + (workload.open_loop_writer ? 1 : 0);
  for (std::size_t r = 0; r < num_logs; ++r) {
    logs.push_back(std::make_unique<ThreadLog>(static_cast<std::uint32_t>(r)));
  }
  MeasureWindow(client, workload, HostSpeed(),
                NowNs() + static_cast<std::int64_t>(opt.seconds * 1e9), logs,
                opt.seed);

  // Merge the threads' logs.
  std::vector<Sample> singles, batches, publish_times;
  std::vector<double> late_ms;
  std::vector<HostSample> host;
  std::vector<UpdateReport> reports;
  TraceCounts counts;
  std::uint64_t queries = 0;
  std::vector<const SpanLog*> span_logs;
  const auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const auto& log : logs) {
    queries += log->queries;
    append(singles, log->singles);
    append(batches, log->batches);
    append(publish_times, log->publishes);
    append(late_ms, log->writer_late_ms);
    append(host, log->host);
    append(reports, log->reports);
    attempted += log->attempted;
    failed += log->failed;
    counts.Merge(log->counts);
    span_logs.push_back(&log->spans);
  }

  // Checks after the window.
  Rng check_rng(DeriveSeed(opt.seed, 30));
  if (initial != nullptr) {
    // Publishes must never have changed what the pre-window pin serves.
    for (std::size_t i = 0; i < traffic.probe.size(); ++i) {
      ++attempted;
      if (!SameResult(probe_before[i],
                      target->RecommendOn(initial, traffic.probe[i]))) {
        ++failed;
      }
    }
    initial.reset();
  }
  {
    // A batch equals sequential Recommend on the same pin, bit for bit.
    const std::vector<Query> batch = traffic.batch(check_rng);
    const Pin pin = target->PinView();
    const auto batched = target->RecommendBatchOn(pin, batch, nullptr);
    std::vector<Result<Recommendation>> sequential;
    for (const Query& q : batch) sequential.push_back(target->RecommendOn(pin, q));
    ++attempted;
    if (!SameResults(batched, sequential)) ++failed;
  }
  {
    // GRECA's item sets equal the exhaustive scan's.
    const Pin pin = target->PinView();
    for (std::size_t checked = 0, tries = 0; checked < 16 && tries < 1'000;
         ++tries) {
      const Query q = traffic.single(check_rng);
      if (q.spec.solver_id != kGrecaSolverId) continue;
      ++checked;
      ++attempted;
      if (!MatchesNaive(*target, pin, q)) ++failed;
    }
  }

  // The end-to-end timings at the reference host speed: each is divided by
  // the run's host factor f, a read's time by f^read_elasticity, a
  // publish's by the factor around it (PublishesAtReference). The per-layer
  // times are reported as measured.
  std::ranges::sort(host, {}, &HostSample::at_ns);
  std::vector<double> host_ms;
  for (const HostSample& h : host) host_ms.push_back(h.ms);
  const double host_factor = Median(host_ms) / kReferenceCalibrationMs;
  std::vector<Sample> reads = singles;
  append(reads, batches);
  const auto timings = [&](double f, std::span<const Sample> publishes) {
    const double read = std::pow(f, workload.read_elasticity);
    return std::vector<Metric>{
        {"setup_s", Median(setup_s) / f, "s"},
        {"qps", Throughput(reads, workload.readers) * read, "1/s"},
        {"query_p50_ms", PercentileMs(singles, 50) / read, "ms"},
        {"query_p90_ms", PercentileMs(singles, 90) / read, "ms"},
        {"batch_p50_ms", PercentileMs(batches, 50) / read, "ms"},
        {"batch_p90_ms", PercentileMs(batches, 90) / read, "ms"},
        {"publish_p50_ms", PercentileMs(publishes, 50), "ms"},
        {"publish_p90_ms", PercentileMs(publishes, 90), "ms"},
    };
  };
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = timings(host_factor, PublishesAtReference(publish_times, host,
                                                        host_factor));
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    metrics.push_back({"satisfaction_pct", satisfaction, "%"});
  } else {
    const SpanTotals spans = Aggregate(span_logs);
    const auto us = [&](const char* name) { return spans.MeanNs(name) / 1e3; };
    const auto ms = [&](const char* name) { return spans.MeanNs(name) / 1e6; };
    double compact_ns = 0.0, delta_log = 0.0;
    std::size_t compactions = 0;
    if (const auto it = spans.by_name.find("dataset.compact");
        it != spans.by_name.end()) {
      compact_ns = it->second.sum_ns;
    }
    for (const UpdateReport& r : reports) {
      compactions += r.compacted ? 1 : 0;
      delta_log += static_cast<double>(r.delta_log_ratings);
    }
    const double n_publishes = static_cast<double>(reports.size());
    const double untraced_single_ns =
        Ratio(counts.untraced_single_ns,
              static_cast<double>(counts.untraced_singles));
    metrics = {
        {"api.pin_us", us("api.pin"), "us"},
        {"api.pin_reuse_ratio",
         Ratio(static_cast<double>(counts.pin_reuses),
               static_cast<double>(counts.pins)),
         "ratio"},
        {"core.validate_us", us("core.validate"), "us"},
        {"plan.plan_us", us("plan.plan"), "us"},
        {"plan.dedup_ratio",
         Ratio(static_cast<double>(counts.batch_valid),
               static_cast<double>(counts.batch_buckets)),
         "ratio"},
        {"core.assemble_us", us("core.assemble"), "us"},
        {"solver.solve_us", spans.MeanNsWithPrefix("solver.solve.") / 1e3,
         "us"},
        {"solver.greca_solve_us", us("solver.solve.greca"), "us"},
        {"solver.greca_sa_pct",
         Ratio(counts.greca_sa_pct, static_cast<double>(counts.greca_solves)),
         "%"},
        {"solver.greca_rounds",
         Ratio(static_cast<double>(counts.greca_rounds),
               static_cast<double>(counts.greca_solves)),
         "count"},
        {"serve.fanout_us", us("serve.fanout"), "us"},
        {"serve.parallel_efficiency",
         Ratio(counts.traced_batch_ns,
               static_cast<double>(target->BatchThreads()) *
                   counts.untraced_batch_ns),
         "ratio"},
        {"serve.agreement_skipped_ratio",
         Ratio(static_cast<double>(counts.agreement_skipped),
               static_cast<double>(counts.agreement_deferred)),
         "ratio"},
        {"affinity.period_cache_hit_ratio",
         Ratio(static_cast<double>(counts.period_hits),
               static_cast<double>(counts.period_hits + counts.period_misses)),
         "ratio"},
        {"core.tombstone_cache_hit_ratio",
         Ratio(static_cast<double>(counts.tomb_hits),
               static_cast<double>(counts.tomb_hits + counts.tomb_misses)),
         "ratio"},
        {"shard.scatter_width",
         Ratio(static_cast<double>(counts.shards_touched),
               static_cast<double>(counts.queries)),
         "count"},
        {"dataset.fold_ms", ms("dataset.fold"), "ms"},
        {"cf.predict_ms", ms("cf.predict"), "ms"},
        {"index.clone_ms", ms("index.clone"), "ms"},
        {"api.publish_other_ms",
         ms("api.publish") - ms("dataset.fold") - ms("cf.predict") -
             ms("index.clone") - Ratio(compact_ns, n_publishes) / 1e6,
         "ms"},
        {"dataset.compactions", static_cast<double>(compactions), "count"},
        {"dataset.delta_log_ratings", Ratio(delta_log, n_publishes), "count"},
        {"index.resident_mb", static_cast<double>(target->IndexBytes()) / 1e6,
         "MB"},
        {"bench.writer_late_p90_ms", Percentile(late_ms, 90), "ms"},
        {"bench.trace_overhead_pct",
         100.0 * Ratio(spans.MeanNs("query") - untraced_single_ns,
                       untraced_single_ns),
         "%"},
    };
    if (!opt.trace_file.empty() &&
        !WriteChromeTrace(opt.trace_file, span_logs)) {
      std::cerr << "greca_bench: cannot write " << opt.trace_file << "\n";
      return 1;
    }
  }

  std::ostringstream header;
  header << "{\"workload\": " << JsonString(workload.name)
         << ", \"seed\": " << opt.seed
         << ", \"seconds\": " << FormatNumber(opt.seconds)
         << ", \"trace\": " << (opt.trace ? 1 : 0)
         << ", \"setup_repetitions\": " << kSetupRepetitions
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"threads\": " << threads << ", \"cpu\": "
         << JsonString(ProcField("/proc/cpuinfo", "model name"))
         << ", \"build_type\": " << JsonString(GRECA_BENCH_BUILD_TYPE)
#ifdef GRECA_SIMD
         << ", \"simd\": true"
#else
         << ", \"simd\": false"
#endif
         << ", \"git_sha\": " << JsonString(opt.git_sha)
         << ", \"queries\": " << queries << ", \"singles\": " << singles.size()
         << ", \"batches\": " << batches.size()
         << ", \"publishes\": " << reports.size()
         << ", \"host_measurements\": " << host_ms.size()
         << ", \"host_factor\": " << FormatNumber(host_factor)
         << ", \"read_elasticity\": " << FormatNumber(workload.read_elasticity);
  if (!opt.trace) {
    header << ", \"unscaled\": " << MetricsJson(timings(1.0, publish_times));
  }
  header << "}";
  std::ostringstream result;
  result << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": " << MetricsJson(metrics) << "}";
  if (!opt.out_file.empty()) {
    std::ofstream out(opt.out_file);
    out << "{\"header\": " << header.str() << ", \"result\": " << result.str()
        << "}\n";
    if (!out) {
      std::cerr << "greca_bench: cannot write " << opt.out_file << "\n";
      return 1;
    }
  }
  std::cout << "{\"header\": " << header.str() << "}\n"
            << result.str() << std::endl;
  return 0;
}

/// glibc malloc maps only blocks above 32 MB, and its main arena never
/// returns memory to the system. With the defaults, a publish's index clone
/// (two 13 MB arrays at scale) reused freed memory or page-faulted a fresh
/// mapping depending on the allocator's state: one publish in ten took
/// twice as long, right at the p90. The clones that publishes on the
/// calling thread make now reuse the main arena's memory.
void FixAllocatorPolicy() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
}

}  // namespace
}  // namespace greca::perfbench

int main(int argc, char** argv) {
  using namespace greca::perfbench;
  FixAllocatorPolicy();
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && opt.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (arg == "--trace-file") {
      opt.trace_file = value;
    } else if (arg == "--out") {
      opt.out_file = value;
    } else if (arg == "--git-sha") {
      opt.git_sha = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  for (const Workload& w : Workloads()) {
    if (w.name == opt.workload) return Run(opt, w);
  }
  return Usage(("unknown workload '" + opt.workload + "'").c_str());
}
