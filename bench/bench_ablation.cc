// Ablation benches for the design choices called out in DESIGN.md §4:
//   1. buffer-condition termination vs threshold-only (the paper's novelty),
//   2. incremental drift index vs recompute-from-scratch,
//   3. closed-form population average vs naive O(|U|^2) pair scan,
//   4. GRECA vs TA vs naive access accounting at paper scale.
#include <iostream>
#include <string_view>

#include "affinity/dynamic_affinity.h"
#include "bench_common.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "solver/solver_registry.h"

int main() {
  using namespace greca;
  const auto& ctx = bench::BenchContext::Get();
  const PerformanceHarness perf(*ctx.recommender, /*seed=*/2015);
  const auto groups = perf.RandomGroups(bench::kNumRandomGroups, 6);

  // ---- 1. Termination policy -------------------------------------------
  {
    TablePrinter table(
        "Ablation 1: buffer-condition termination vs threshold-only");
    table.SetColumns({"policy", "avg #SA %", "saveup %"});
    for (const auto& [label, policy] :
         std::vector<std::pair<std::string, TerminationPolicy>>{
             {"buffer condition (GRECA)", TerminationPolicy::kBufferCondition},
             {"threshold only", TerminationPolicy::kThresholdOnly}}) {
      QuerySpec spec = PerformanceHarness::DefaultSpec();
      spec.termination = policy;
      const auto m = perf.Measure(groups, spec);
      table.AddRow({label, TablePrinter::Cell(m.mean_sa_percent, 2),
                    TablePrinter::Cell(m.mean_saveup_percent, 2)});
    }
    table.Print(std::cout);
    std::cout << "Without the buffer condition the classical threshold rule "
                 "can only fire with exactly k buffered items, so the scan "
                 "runs to exhaustion (paper §3.2).\n\n";
  }

  // ---- 2. Incremental drift index ---------------------------------------
  {
    const PeriodicAffinity& pa = ctx.recommender->periodic_affinity();
    Stopwatch watch;
    DynamicAffinityIndex incremental(pa.num_users());
    for (PeriodId p = 0; p < pa.num_periods(); ++p) {
      incremental.AppendPeriod(pa, p);
    }
    const double incremental_ms = watch.ElapsedMillis();

    watch.Restart();
    double checksum = 0.0;
    const auto n = static_cast<UserId>(pa.num_users());
    for (PeriodId p = 0; p < pa.num_periods(); ++p) {
      for (UserId u = 0; u < n; ++u) {
        for (UserId v = u + 1; v < n; ++v) {
          checksum += RecomputeCumulativeDrift(pa, u, v, p);
        }
      }
    }
    const double recompute_ms = watch.ElapsedMillis();

    TablePrinter table("Ablation 2: incremental drift index maintenance");
    table.SetColumns({"strategy", "time (ms)"});
    table.AddRow({"incremental append (paper)",
                  TablePrinter::Cell(incremental_ms, 3)});
    table.AddRow({"recompute every pair x period",
                  TablePrinter::Cell(recompute_ms, 3)});
    table.Print(std::cout);
    std::cout << "(checksum " << checksum
              << ") Appending a period never touches previous drifts.\n\n";
  }

  // ---- 3. Closed-form population average --------------------------------
  {
    const PageLikeLog& likes = ctx.study.likes;
    const Timeline& timeline = ctx.study.periods;
    Stopwatch watch;
    double closed = 0.0;
    for (const Period& p : timeline.periods()) {
      closed += SumPairwiseCommonCategories(likes, p);
    }
    const double closed_ms = watch.ElapsedMillis();
    watch.Restart();
    double naive = 0.0;
    for (const Period& p : timeline.periods()) {
      naive += SumPairwiseCommonCategoriesNaive(likes, p);
    }
    const double naive_ms = watch.ElapsedMillis();

    TablePrinter table(
        "Ablation 3: AvgAffP via per-category counts vs naive pair scan");
    table.SetColumns({"strategy", "sum over periods", "time (ms)"});
    table.AddRow({"closed form Sum_c C(n_c,2)", TablePrinter::Cell(closed, 1),
                  TablePrinter::Cell(closed_ms, 3)});
    table.AddRow({"naive O(|U|^2) intersection", TablePrinter::Cell(naive, 1),
                  TablePrinter::Cell(naive_ms, 3)});
    table.Print(std::cout);
    std::cout << "Identical sums, asymptotically cheaper closed form.\n\n";
  }

  // ---- 4. Algorithm access accounting ------------------------------------
  {
    TablePrinter table(
        "Ablation 4: access accounting, GRECA vs TA vs naive (k=10, size 6)");
    table.SetColumns({"algorithm", "avg SAs", "avg RAs", "avg total",
                      "avg %SA of full scan"});
    for (const auto& [label, solver_id] :
         std::vector<std::pair<std::string, std::string_view>>{
             {"GRECA", kGrecaSolverId},
             {"TA", kTaSolverId},
             {"naive", kNaiveSolverId}}) {
      OnlineStats sas, ras, totals, pct;
      for (const Group& group : groups) {
        QuerySpec spec = PerformanceHarness::DefaultSpec();
        spec.solver_id = std::string(solver_id);
        const Recommendation r = ctx.recommender->Recommend(group, spec).value();
        sas.Add(static_cast<double>(r.raw.accesses.sequential));
        ras.Add(static_cast<double>(r.raw.accesses.random));
        totals.Add(static_cast<double>(r.raw.accesses.total()));
        pct.Add(r.raw.SequentialAccessPercent());
      }
      table.AddRow({label, TablePrinter::Cell(sas.mean(), 0),
                    TablePrinter::Cell(ras.mean(), 0),
                    TablePrinter::Cell(totals.mean(), 0),
                    TablePrinter::Cell(pct.mean(), 2)});
    }
    table.Print(std::cout);
    std::cout << "GRECA makes sequential accesses only; TA pays heavy RA "
                 "costs per scored item (paper §3.1).\n";
  }
  return 0;
}
