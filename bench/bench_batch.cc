// Batch-vs-sequential throughput of the Engine API: the acceptance bench for
// the batch-first redesign. Runs a 64-query batch (the paper's scalability
// setup: random groups of 6, k = 10, AP, discrete model) sequentially and
// through Engine::RecommendBatch at several thread counts, verifying result
// equivalence and reporting queries/second and speedup. Also splits the
// sequential per-query cost into problem assembly (BuildProblem over the
// shared PreferenceIndex, zero-copy) and solve time, so the perf trajectory
// tracks the assembly cost the zero-copy refactor removed. Machine-readable
// results go to the path in GRECA_BATCH_JSON (scripts/bench.sh wires this
// up).
//
// The planner sweep replays equal-size Zipf-repeated duplicate-heavy batches
// at duplicate factors 1/4/16, verifying each batch bit-identical to
// sequential Engine::Recommend calls on the same snapshot and reporting qps
// per factor relative to duplicate factor 1.
//
// Set GRECA_BENCH_SMALL=1 for a smoke-scale run, GRECA_BATCH_QUERIES to
// change the batch size, and GRECA_BATCH_ASSERT_PLANNER=1 (CI) to fail the
// run when qps at duplicate factor 16 undershoots 1.5x the qps at factor 1,
// or the planner ever merges buckets across solver ids / weighting modes.
// GRECA_BATCH_ALGO restricts the built-in-solver quality-vs-speed sweep
// (comma-separated solver ids; default "all").
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "bench_common.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "solver/solver_registry.h"

int main() {
  using namespace greca;
  const auto& ctx = bench::BenchContext::Get();
  const GroupRecommender& recommender = *ctx.recommender;

  std::size_t num_queries = 64;
  if (const char* env = std::getenv("GRECA_BATCH_QUERIES")) {
    const long long parsed = std::atoll(env);
    if (parsed <= 0) {
      std::cerr << "ignoring GRECA_BATCH_QUERIES='" << env
                << "' (expected a positive integer)\n";
    } else {
      num_queries = static_cast<std::size_t>(parsed);
    }
  }

  const PerformanceHarness perf(recommender, /*seed=*/2015);
  const QuerySpec spec = PerformanceHarness::DefaultSpec();
  std::vector<Query> batch;
  for (const Group& group : perf.RandomGroups(num_queries, 6)) {
    batch.push_back(Query{group, spec});
  }

  // Sequential baseline: one query at a time through the facade, with a
  // single reused workspace (the fairest single-thread configuration).
  Stopwatch seq_watch;
  QueryWorkspace workspace;
  std::vector<Recommendation> sequential;
  sequential.reserve(batch.size());
  for (const Query& q : batch) {
    sequential.push_back(
        recommender.Recommend(q.group, q.spec, &workspace).value());
  }
  const double seq_seconds = seq_watch.ElapsedSeconds();

  // Assembly-only pass over the same batch and workspace (steady state):
  // what BuildProblem costs without solving.
  Stopwatch asm_watch;
  std::size_t assembled = 0;
  for (const Query& q : batch) {
    const auto problem =
        recommender.BuildProblem(q.group, q.spec, nullptr, &workspace);
    if (problem.ok()) ++assembled;
  }
  const double asm_seconds = asm_watch.ElapsedSeconds();
  if (assembled != batch.size()) {
    std::cerr << "ERROR: only " << assembled << "/" << batch.size()
              << " problems assembled\n";
    return 1;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  TablePrinter table("Engine::RecommendBatch vs sequential (" +
                     std::to_string(batch.size()) + " queries, " +
                     std::to_string(hw) + " hardware threads)");
  table.SetColumns({"configuration", "seconds", "queries/s", "speedup"});
  const double seq_qps = static_cast<double>(batch.size()) / seq_seconds;
  table.AddRow({"sequential", TablePrinter::Cell(seq_seconds, 3),
                TablePrinter::Cell(seq_qps, 1), "1.00"});

  for (const std::size_t threads : {2u, 4u, 8u}) {
    EngineOptions eopts;
    eopts.num_threads = threads;
    const Engine engine(ctx.universe, ctx.study, ctx.options, eopts);
    // Warm-up run so worker workspaces reach steady-state capacity.
    engine.RecommendBatch(batch);
    Stopwatch watch;
    const auto results = engine.RecommendBatch(batch);
    const double seconds = watch.ElapsedSeconds();

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!results[i].ok() ||
          results[i].value().items != sequential[i].items) {
        ++mismatches;
      }
    }
    if (mismatches != 0) {
      std::cerr << "ERROR: " << mismatches
                << " batch results differ from sequential execution\n";
      return 1;
    }

    const double qps = static_cast<double>(batch.size()) / seconds;
    table.AddRow({std::to_string(threads) + " threads",
                  TablePrinter::Cell(seconds, 3), TablePrinter::Cell(qps, 1),
                  TablePrinter::Cell(seq_seconds / seconds, 2)});
  }
  table.Print(std::cout);

  const double per_query_us =
      1e6 * asm_seconds / static_cast<double>(batch.size());
  const double asm_share = 100.0 * asm_seconds / seq_seconds;
  std::cout << "problem_assembly_seconds: " << asm_seconds << " ("
            << per_query_us << " us/query, " << asm_share
            << "% of sequential query time)\n"
            << "solve_seconds: " << (seq_seconds - asm_seconds)
            << " (sequential total minus assembly)\n";

  std::cout << "All batch results identical to sequential execution.\n"
            << "Expected: speedup ~ min(threads, cores); >= 2x on >= 4 "
               "cores.\n";

  // ---- Batch-planner sweep: duplicate-heavy traffic ----------------------
  // Production batch traffic repeats popular groups; the planner buckets
  // duplicate (group, spec-signature) queries so each distinct signature is
  // assembled and solved once, results fanned back out (plan/
  // batch_planner.h). The sweep replays a Zipf-repeated batch at duplicate
  // factors 1/4/16 through one engine — every batch the same size, so the
  // qps ratio against factor 1 isolates the dedup — verifying each batch
  // bit-identical to sequential Recommend calls on the same snapshot. With
  // duplicate factor d the engine solves batch/d problems, so qps should
  // approach d× the factor-1 qps; GRECA_BATCH_ASSERT_PLANNER=1 (CI)
  // hard-fails below 1.5x at d = 16.
  struct PlannerRow {
    std::size_t dup = 1;
    std::size_t buckets = 0;
    double dedup = 1.0;
    double qps = 0.0;
  };
  std::vector<PlannerRow> planner_sweep;
  {
    EngineOptions planner_opts;
    planner_opts.num_threads = 4;
    const Engine planner_engine(ctx.universe, ctx.study, ctx.options,
                                planner_opts);
    const auto pin = planner_engine.snapshot();

    Rng rng(4242);
    const ConsensusSpec consensus_mix[] = {
        ConsensusSpec::AveragePreference(),
        ConsensusSpec::PairwiseDisagreement(), ConsensusSpec::LeastMisery()};
    for (const std::size_t dup : {1u, 4u, 16u}) {
      const std::size_t distinct =
          std::max<std::size_t>(1, num_queries / dup);
      // Distinct base queries over random groups, cycling the consensus
      // function (pairwise included, so the agreement list is built).
      const PerformanceHarness dup_perf(recommender, /*seed=*/77 + dup);
      std::vector<Query> base;
      for (const Group& group : dup_perf.RandomGroups(distinct, 6)) {
        Query q;
        q.group = group;
        q.spec = spec;
        q.spec.consensus = consensus_mix[base.size() % 3];
        base.push_back(std::move(q));
      }
      // Every base appears once; the rest of the batch repeats bases with
      // Zipf-weighted popularity (heavy traffic concentrates on few groups),
      // then the whole batch is shuffled.
      std::vector<Query> dup_batch = base;
      const ZipfSampler zipf(base.size(), 1.0);
      while (dup_batch.size() < num_queries) {
        dup_batch.push_back(base[zipf.Sample(rng)]);
      }
      Shuffle(rng, dup_batch);

      // One warm-up pass, then best-of-3 timed runs.
      BatchReport report;
      auto results = planner_engine.RecommendBatch(dup_batch, pin);
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        Stopwatch watch;
        results = planner_engine.RecommendBatch(dup_batch, pin, &report);
        const double seconds = watch.ElapsedSeconds();
        if (rep == 0 || seconds < best) best = seconds;
      }
      for (std::size_t i = 0; i < dup_batch.size(); ++i) {
        const auto single = planner_engine.Recommend(dup_batch[i], pin);
        if (!results[i].ok() || !single.ok() ||
            results[i].value().items != single.value().items ||
            results[i].value().scores != single.value().scores) {
          std::cerr << "ERROR: batch differs from sequential Recommend at "
                       "dup "
                    << dup << " query " << i << "\n";
          return 1;
        }
      }

      PlannerRow row;
      row.dup = dup;
      row.buckets = report.num_buckets;
      row.dedup = report.dedup_ratio;
      row.qps = static_cast<double>(dup_batch.size()) / best;
      planner_sweep.push_back(row);
    }

    const double dup1_qps = planner_sweep.front().qps;
    TablePrinter planner_table(
        "Batch planner, Zipf-repeated groups (" +
        std::to_string(num_queries) + " queries, 4 threads)");
    planner_table.SetColumns(
        {"dup", "buckets", "dedup", "q/s", "speedup vs dup 1"});
    for (const PlannerRow& row : planner_sweep) {
      planner_table.AddRow({std::to_string(row.dup),
                            std::to_string(row.buckets),
                            TablePrinter::Cell(row.dedup, 2),
                            TablePrinter::Cell(row.qps, 1),
                            TablePrinter::Cell(row.qps / dup1_qps, 2)});
    }
    planner_table.Print(std::cout);
    std::cout << "All batches identical to sequential Recommend.\n";

    const double dup16_ratio = planner_sweep.back().qps / dup1_qps;
    std::cout << "planner speedup: " << dup16_ratio
              << "x at dup 16 over dup 1 (target: >= 1.5)\n";
    const char* assert_planner = std::getenv("GRECA_BATCH_ASSERT_PLANNER");
    if (assert_planner != nullptr && assert_planner[0] == '1') {
      if (dup16_ratio < 1.5) {
        std::cerr << "ERROR: planner speedup below 1.5x on duplicate-heavy "
                     "traffic (dup 16 / dup 1 qps ratio "
                  << dup16_ratio << ")\n";
        return 1;
      }
      // Bucketing-safety smoke: the same group issued under every built-in
      // solver id and under both weighting modes — each duplicated — must
      // never share a bucket across solver ids or weighting modes (a merge
      // would silently serve one solver's result as another's), while exact
      // duplicates still share.
      std::vector<Query> mixed;
      for (const std::string_view id : kSolverIds) {
        Query q = batch[0];
        q.spec.solver_id = std::string(id);
        mixed.push_back(q);
        mixed.push_back(q);  // exact duplicate — must still share
      }
      Query influence = batch[0];
      influence.spec.weighting = MemberWeighting::kInfluence;
      mixed.push_back(influence);
      mixed.push_back(influence);
      BatchReport mixed_report;
      const auto mixed_results =
          planner_engine.RecommendBatch(mixed, &mixed_report);
      const std::size_t distinct_signatures = kSolverIds.size() + 1;
      if (mixed_report.num_buckets != distinct_signatures ||
          mixed_report.duplicates_shared != distinct_signatures) {
        std::cerr << "ERROR: planner merged queries across solver ids or "
                     "weighting modes ("
                  << mixed_report.num_buckets << " buckets for "
                  << distinct_signatures << " distinct signatures)\n";
        return 1;
      }
      for (const auto& r : mixed_results) {
        if (!r.ok()) {
          std::cerr << "ERROR: mixed-solver smoke query failed: "
                    << r.status().ToString() << "\n";
          return 1;
        }
      }
      std::cout << "planner bucketing smoke: " << mixed.size()
                << " mixed-solver queries -> " << mixed_report.num_buckets
                << " buckets (no cross-solver or cross-weighting merges)\n";
    }
  }

  // ---- Solver sweep: the quality-vs-speed frontier -----------------------
  // Every built-in aggregation objective runs the same batch; qps comes
  // from best-of-3 sequential passes and quality from the satisfaction
  // oracle at the last study period (the paper's §4 protocol). The exact
  // rankers (greca/naive/ta) score identical lists, so their satisfaction
  // matches and the frontier isolates their speed; the submodular solver
  // trades consensus relevance for coverage — a genuinely different point.
  // GRECA_BATCH_ALGO restricts the sweep (comma-separated solver ids, or
  // "all", the default).
  struct AlgoRow {
    std::string id;
    double qps = 0.0;
    double satisfaction = 0.0;  // mean group satisfaction %, last period
  };
  std::vector<AlgoRow> algo_sweep;
  {
    const char* algo_env = std::getenv("GRECA_BATCH_ALGO");
    std::string algo_sel = algo_env != nullptr ? algo_env : "all";
    std::vector<std::string> solver_ids;
    if (algo_sel == "all" || algo_sel.empty()) {
      solver_ids.assign(kSolverIds.begin(), kSolverIds.end());
    } else {
      std::size_t start = 0;
      while (start <= algo_sel.size()) {
        const std::size_t comma = algo_sel.find(',', start);
        const std::string id = algo_sel.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!id.empty()) {
          if (!IsSolverId(id)) {
            std::cerr << "ignoring unknown solver id '" << id
                      << "' in GRECA_BATCH_ALGO\n";
          } else {
            solver_ids.push_back(id);
          }
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }

    const auto last_period =
        static_cast<PeriodId>(recommender.num_periods() - 1);
    QueryWorkspace ws;
    for (const std::string& id : solver_ids) {
      QuerySpec algo_spec = spec;
      algo_spec.solver_id = id;
      recommender.Recommend(batch[0].group, algo_spec, &ws);  // warm-up
      std::vector<Recommendation> recs;
      double best_seconds = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        recs.clear();
        recs.reserve(batch.size());
        Stopwatch watch;
        for (const Query& q : batch) {
          auto result = recommender.Recommend(q.group, algo_spec, &ws);
          if (!result.ok()) {
            std::cerr << "ERROR: solver '" << id
                      << "' failed: " << result.status().ToString() << "\n";
            return 1;
          }
          recs.push_back(std::move(result).value());
        }
        const double seconds = watch.ElapsedSeconds();
        if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
      }
      AlgoRow row;
      row.id = id;
      row.qps = static_cast<double>(batch.size()) / best_seconds;
      double satisfaction_sum = 0.0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        satisfaction_sum += ctx.oracle->GroupSatisfactionPercent(
            batch[i].group, recs[i].items, last_period);
      }
      row.satisfaction =
          satisfaction_sum / static_cast<double>(batch.size());
      algo_sweep.push_back(row);
    }

    if (!algo_sweep.empty()) {
      TablePrinter algo_table(
          "Solver sweep, quality vs speed (" +
          std::to_string(batch.size()) + " queries, satisfaction at the "
          "last period)");
      algo_table.SetColumns({"solver", "queries/s", "satisfaction %"});
      for (const AlgoRow& row : algo_sweep) {
        algo_table.AddRow({row.id, TablePrinter::Cell(row.qps, 1),
                           TablePrinter::Cell(row.satisfaction, 2)});
      }
      algo_table.Print(std::cout);
    }
  }

  if (const char* json_path = std::getenv("GRECA_BATCH_JSON");
      json_path != nullptr && json_path[0] != '\0') {
    std::ofstream json(json_path);
    json << "{\n  \"planner_sweep\": [\n";
    for (std::size_t i = 0; i < planner_sweep.size(); ++i) {
      const PlannerRow& row = planner_sweep[i];
      json << "    {\"dup\": " << row.dup << ", \"buckets\": " << row.buckets
           << ", \"dedup_ratio\": " << row.dedup
           << ", \"qps\": " << row.qps
           << ", \"speedup_vs_dup1\": "
           << (row.qps / planner_sweep.front().qps) << "}"
           << (i + 1 < planner_sweep.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"algo_sweep\": [\n";
    for (std::size_t i = 0; i < algo_sweep.size(); ++i) {
      json << "    {\"solver\": \"" << algo_sweep[i].id
           << "\", \"qps\": " << algo_sweep[i].qps
           << ", \"satisfaction_pct\": " << algo_sweep[i].satisfaction << "}"
           << (i + 1 < algo_sweep.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"seq_qps\": " << seq_qps << "\n}\n";
    std::cout << "Wrote batch results to " << json_path << "\n";
  }
  return 0;
}
