// Online serving under live updates: the acceptance bench for the
// snapshot-centric (RCU-style) API.
//
// Phase 1 (baseline): reader threads hammer Engine::Recommend for a fixed
// wall-clock window with no writer — queries/second plus per-query p50/p99.
// Phase 2 (live): the same reader load while a writer thread applies a
// RatingEvent batch every --update-interval, each publish building a new
// snapshot generation off the serving path. Because readers pin snapshots
// and the writer publishes with an atomic pointer swap, reads never block on
// writes: throughput under the writer should track the baseline (the gap is
// CPU time the writer consumes, not lock waits — on a single-core host the
// writer's rebuild share is the expected gap).
//
// Phase 3 (publish-latency curve): back-to-back update batches, recording
// per-publish latency against the number of live ratings accumulated so far
// — the delta-log acceptance. Publishes fold O(batch) into the per-user
// delta log instead of re-folding the whole dataset, so p99 publish latency
// must stay flat (within ~1.5x) while accumulated live ratings grow 10x;
// the old full re-fold grew linearly. Compaction publishes (the periodic
// fold of the log back into a fresh base) are flagged and reported
// separately from the steady-state curve.
//
// The bench also replays a query batch pinned to a pre-writer snapshot after
// all phases — dozens of generations and at least the curve's compactions
// later — and fails hard if any result changed: the serving-immutability
// contract, cheap enough to enforce every run.
//
// Output: a human-readable table plus a machine-readable JSON file
// (BENCH_online.json by default; override with GRECA_BENCH_ONLINE_JSON).
// Env knobs: GRECA_BENCH_SMALL=1 (smoke scale), GRECA_ONLINE_SECONDS,
// GRECA_ONLINE_READERS, GRECA_ONLINE_UPDATE_MS, GRECA_ONLINE_EVENTS,
// GRECA_ONLINE_CURVE_PUBLISHES, GRECA_ONLINE_CURVE_EVENTS.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace {

using namespace greca;
using bench::EnvSize;

struct PhaseResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t queries = 0;
};

/// Runs `readers` threads issuing queries round-robin for `seconds`.
PhaseResult RunReaders(const Engine& engine, std::span<const Query> queries,
                       std::size_t readers, double seconds) {
  std::vector<std::vector<double>> latencies(readers);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(readers);
  Stopwatch phase_watch;
  for (std::size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto& lat = latencies[r];
      lat.reserve(1 << 14);
      std::size_t i = r;  // stride so readers spread over the query mix
      while (!stop.load(std::memory_order_relaxed)) {
        const Query& q = queries[i % queries.size()];
        i += readers;
        Stopwatch watch;
        const auto result = engine.Recommend(q);
        lat.push_back(watch.ElapsedSeconds() * 1e6);
        if (!result.ok()) {
          std::cerr << "ERROR: query failed: " << result.status().ToString()
                    << "\n";
          std::abort();
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double elapsed = phase_watch.ElapsedSeconds();

  std::vector<double> all;
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  PhaseResult result;
  result.queries = all.size();
  result.qps = static_cast<double>(all.size()) / elapsed;
  result.p50_us = Percentile(all, 50);
  result.p99_us = Percentile(all, 99);
  return result;
}

std::vector<RatingEvent> RandomEvents(Rng& rng, std::size_t count,
                                      UserId participants, ItemId items,
                                      Timestamp base_ts) {
  std::vector<RatingEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RatingEvent e;
    e.user = static_cast<UserId>(rng.NextInt(0, participants - 1));
    e.item = static_cast<ItemId>(rng.NextInt(0, items - 1));
    e.rating = static_cast<Score>(rng.NextInt(1, 5));
    e.timestamp = base_ts + static_cast<Timestamp>(i);
    events.push_back(e);
  }
  return events;
}

}  // namespace

int main() {
  const auto& ctx = bench::BenchContext::Get();
  Engine engine(ctx.universe, ctx.study, ctx.options);
  const GroupRecommender& recommender = engine.recommender();

  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t readers = EnvSize(
      "GRECA_ONLINE_READERS",
      std::clamp<std::size_t>(hw > 2 ? hw - 2 : 2, 2, 4));
  const double seconds =
      static_cast<double>(EnvSize("GRECA_ONLINE_SECONDS", 3));
  const std::size_t update_ms = EnvSize("GRECA_ONLINE_UPDATE_MS", 100);
  const std::size_t events_per_batch = EnvSize("GRECA_ONLINE_EVENTS", 8);

  // The paper's scalability mix: random groups of 6, k = 10, AP, discrete
  // model — 20 distinct groups cycled by the readers, so the snapshot's
  // (group, period) cache sees the repetition a real batch workload has.
  const PerformanceHarness perf(recommender, /*seed=*/2015);
  const QuerySpec spec = PerformanceHarness::DefaultSpec();
  std::vector<Query> queries;
  for (const Group& group : perf.RandomGroups(bench::kNumRandomGroups, 6)) {
    queries.push_back(Query{group, spec});
  }

  const auto participants =
      static_cast<UserId>(recommender.study().num_participants());
  const auto num_items =
      static_cast<ItemId>(ctx.universe.dataset.num_items());

  // Pin a pre-writer snapshot and record its answers: replayed at the end to
  // enforce that publishes never mutate a pinned generation.
  const auto pinned = engine.snapshot();
  const auto pinned_before = engine.RecommendBatch(queries, pinned);

  // Warm-up: touch every query once outside the measurement windows so the
  // baseline phase is not charged the process's cold-start (allocator,
  // period-cache fill for generation 1).
  for (const Query& q : queries) {
    if (!engine.Recommend(q).ok()) std::abort();
  }

  std::cout << "bench_online: " << readers << " readers, " << seconds
            << "s per phase, writer batch " << events_per_batch
            << " events every " << update_ms << "ms (" << hw
            << " hardware threads)\n";

  const PhaseResult baseline = RunReaders(engine, queries, readers, seconds);

  // Phase 2: same reader load + a writer publishing at a fixed arrival rate.
  std::atomic<bool> writer_stop{false};
  std::vector<double> publish_ms;
  std::size_t updates_applied = 0;
  std::thread writer([&] {
    Rng rng(77);
    Timestamp ts = 1'000'000'000;
    while (!writer_stop.load(std::memory_order_relaxed)) {
      const auto events =
          RandomEvents(rng, events_per_batch, participants, num_items, ts);
      ts += static_cast<Timestamp>(events_per_batch);
      Stopwatch watch;
      const Status status = engine.ApplyUpdates(events);
      publish_ms.push_back(watch.ElapsedMillis());
      if (!status.ok()) {
        std::cerr << "ERROR: update failed: " << status.ToString() << "\n";
        std::abort();
      }
      updates_applied += events.size();
      std::this_thread::sleep_for(std::chrono::milliseconds(update_ms));
    }
  });
  const PhaseResult live = RunReaders(engine, queries, readers, seconds);
  writer_stop.store(true);
  writer.join();

  // Phase 3: the publish-latency curve. Apply update batches back to back
  // and bucket per-publish latency into deciles by accumulated live
  // ratings; with the per-user delta log, the steady-state p99 must not
  // grow with the accumulated volume.
  const bool small_scale = std::getenv("GRECA_BENCH_SMALL") != nullptr;
  const std::size_t curve_publishes =
      EnvSize("GRECA_ONLINE_CURVE_PUBLISHES", small_scale ? 120 : 400);
  const std::size_t curve_events = EnvSize("GRECA_ONLINE_CURVE_EVENTS", 32);
  struct PublishSample {
    std::size_t accumulated = 0;  // live ratings before this publish
    double ms = 0.0;
    bool compacted = false;
  };
  std::vector<PublishSample> curve;
  curve.reserve(curve_publishes);
  {
    Rng rng(4242);
    Timestamp ts = 3'000'000'000;
    std::size_t accumulated = updates_applied;  // phase-2 events carry over
    for (std::size_t i = 0; i < curve_publishes; ++i) {
      const auto events =
          RandomEvents(rng, curve_events, participants, num_items, ts);
      ts += static_cast<Timestamp>(curve_events);
      UpdateReport report;
      Stopwatch watch;
      const Status status = engine.ApplyUpdates(events, &report);
      const double ms = watch.ElapsedMillis();
      if (!status.ok()) {
        std::cerr << "ERROR: curve update failed: " << status.ToString()
                  << "\n";
        std::abort();
      }
      curve.push_back({accumulated, ms, report.compacted});
      accumulated += report.events_applied;
    }
  }

  struct CurveBucket {
    std::size_t accumulated_mid = 0;
    std::size_t publishes = 0;
    std::size_t compactions = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;  // steady-state (compaction publishes excluded)
  };
  constexpr std::size_t kCurveBuckets = 10;
  std::vector<CurveBucket> buckets(kCurveBuckets);
  for (std::size_t b = 0; b < kCurveBuckets; ++b) {
    const std::size_t lo = b * curve.size() / kCurveBuckets;
    const std::size_t hi = (b + 1) * curve.size() / kCurveBuckets;
    std::vector<double> steady;
    for (std::size_t i = lo; i < hi; ++i) {
      if (curve[i].compacted) {
        ++buckets[b].compactions;
      } else {
        steady.push_back(curve[i].ms);
      }
    }
    buckets[b].publishes = hi - lo;
    buckets[b].accumulated_mid = curve[(lo + hi) / 2].accumulated;
    buckets[b].p50_ms = Percentile(steady, 50);
    buckets[b].p99_ms = Percentile(steady, 99);
  }
  const double curve_p99_first = buckets.front().p99_ms;
  const double curve_p99_last = buckets.back().p99_ms;
  // A decile with no steady (non-compaction) publishes has no p99; don't
  // let the flat-latency check silently pass as "ratio 0 = flat".
  const bool curve_valid = curve_p99_first > 0.0 && curve_p99_last > 0.0;
  const double curve_p99_ratio =
      curve_valid ? curve_p99_last / curve_p99_first : 0.0;
  std::size_t curve_compactions = 0;
  double compaction_ms_sum = 0.0;
  for (const PublishSample& s : curve) {
    if (s.compacted) {
      ++curve_compactions;
      compaction_ms_sum += s.ms;
    }
  }
  const double compaction_mean_ms =
      curve_compactions > 0
          ? compaction_ms_sum / static_cast<double>(curve_compactions)
          : 0.0;
  const std::size_t delta_log_final =
      engine.snapshot()->ratings().delta_ratings();

  const std::uint64_t final_generation = engine.snapshot()->generation();

  // Immutability check: the pinned pre-writer generation must replay
  // bit-identically after every publish above.
  const auto pinned_after = engine.RecommendBatch(queries, pinned);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!pinned_after[i].ok() || !pinned_before[i].ok() ||
        pinned_after[i].value().items != pinned_before[i].value().items ||
        pinned_after[i].value().scores != pinned_before[i].value().scores) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::cerr << "ERROR: " << mismatches << "/" << queries.size()
              << " pinned-snapshot results changed across publishes\n";
    return 1;
  }

  const double ratio = live.qps / baseline.qps;
  const double publish_p50 = Percentile(publish_ms, 50);
  const double publish_p99 = Percentile(publish_ms, 99);

  TablePrinter table("Engine::Recommend under live updates (generation 1 -> " +
                     std::to_string(final_generation) + ")");
  table.SetColumns(
      {"phase", "queries", "queries/s", "p50 (us)", "p99 (us)"});
  table.AddRow({"no writer", std::to_string(baseline.queries),
                TablePrinter::Cell(baseline.qps, 1),
                TablePrinter::Cell(baseline.p50_us, 0),
                TablePrinter::Cell(baseline.p99_us, 0)});
  table.AddRow({"concurrent writer", std::to_string(live.queries),
                TablePrinter::Cell(live.qps, 1),
                TablePrinter::Cell(live.p50_us, 0),
                TablePrinter::Cell(live.p99_us, 0)});
  table.Print(std::cout);

  TablePrinter curve_table(
      "Publish latency vs accumulated live ratings (delta-log curve, " +
      std::to_string(curve_events) + " events/batch)");
  curve_table.SetColumns({"live ratings", "publishes", "p50 (ms)",
                          "steady p99 (ms)", "compactions"});
  for (const CurveBucket& b : buckets) {
    curve_table.AddRow({std::to_string(b.accumulated_mid),
                        std::to_string(b.publishes),
                        TablePrinter::Cell(b.p50_ms, 3),
                        TablePrinter::Cell(b.p99_ms, 3),
                        std::to_string(b.compactions)});
  }
  curve_table.Print(std::cout);

  std::cout << "qps_ratio (writer/baseline): " << ratio << "\n"
            << "snapshot_publish_ms p50: " << publish_p50
            << "  p99: " << publish_p99 << "  publishes: "
            << publish_ms.size() << " (" << updates_applied << " events)\n"
            << "publish_curve_p99 (last/first decile): " << curve_p99_last
            << " / " << curve_p99_first << " = " << curve_p99_ratio << " ("
            << curve.front().accumulated << " -> " << curve.back().accumulated
            << " live ratings, " << curve_compactions
            << " compactions, mean " << compaction_mean_ms << " ms, "
            << delta_log_final << " delta entries resident)\n"
            << "pinned-snapshot replay: identical across "
            << (final_generation - pinned->generation())
            << " publishes\nExpected: ratio >= 0.85 on multi-core hosts "
               "(reads never block; the residual gap is the writer's own "
               "CPU share); publish_curve_p99_ratio <= 1.5 (the delta log "
               "keeps publishes O(batch) — the old full re-fold grew "
               "linearly with accumulated ratings)\n";
  if (ratio < 0.85) {
    std::cout << "WARNING: ratio below 0.85 — on a single-core host the "
                 "writer's rebuild time is the likely cause, not blocking\n";
  }
  if (!curve_valid) {
    std::cout << "WARNING: a curve decile had no steady (non-compaction) "
                 "publishes — publish_curve_p99_ratio is 0 (no data), not "
                 "flat; raise GRECA_ONLINE_CURVE_PUBLISHES\n";
  } else if (curve_p99_ratio > 1.5) {
    std::cout << "WARNING: publish p99 grew " << curve_p99_ratio
              << "x across the curve — the delta-log publish path is no "
                 "longer flat\n";
  }

  const char* json_path = std::getenv("GRECA_BENCH_ONLINE_JSON");
  const std::string path =
      json_path != nullptr ? json_path : "BENCH_online.json";
  std::ofstream json(path);
  json << "{\n"
       << "  \"readers\": " << readers << ",\n"
       << "  \"phase_seconds\": " << seconds << ",\n"
       << "  \"update_interval_ms\": " << update_ms << ",\n"
       << "  \"events_per_batch\": " << events_per_batch << ",\n"
       << "  \"baseline_qps\": " << baseline.qps << ",\n"
       << "  \"baseline_p50_us\": " << baseline.p50_us << ",\n"
       << "  \"baseline_p99_us\": " << baseline.p99_us << ",\n"
       << "  \"writer_qps\": " << live.qps << ",\n"
       << "  \"writer_p50_us\": " << live.p50_us << ",\n"
       << "  \"writer_p99_us\": " << live.p99_us << ",\n"
       << "  \"qps_ratio\": " << ratio << ",\n"
       << "  \"publish_p50_ms\": " << publish_p50 << ",\n"
       << "  \"publish_p99_ms\": " << publish_p99 << ",\n"
       << "  \"publishes\": " << publish_ms.size() << ",\n"
       << "  \"events_applied\": " << updates_applied << ",\n"
       << "  \"curve_publishes\": " << curve.size() << ",\n"
       << "  \"curve_events_per_batch\": " << curve_events << ",\n"
       << "  \"publish_curve\": [\n";
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    json << "    {\"accumulated_live_ratings\": "
         << buckets[b].accumulated_mid
         << ", \"publishes\": " << buckets[b].publishes
         << ", \"p50_ms\": " << buckets[b].p50_ms
         << ", \"steady_p99_ms\": " << buckets[b].p99_ms
         << ", \"compactions\": " << buckets[b].compactions << "}"
         << (b + 1 < buckets.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"publish_curve_p99_first_ms\": " << curve_p99_first << ",\n"
       << "  \"publish_curve_p99_last_ms\": " << curve_p99_last << ",\n"
       << "  \"publish_curve_p99_ratio\": " << curve_p99_ratio << ",\n"
       << "  \"curve_compactions\": " << curve_compactions << ",\n"
       << "  \"curve_compaction_mean_ms\": " << compaction_mean_ms << ",\n"
       << "  \"delta_log_ratings_final\": " << delta_log_final << ",\n"
       << "  \"final_generation\": " << final_generation << ",\n"
       << "  \"pinned_replay_identical\": true\n"
       << "}\n";
  std::cout << "Wrote " << path << "\n";
  return 0;
}
