// Experiment E4 — CoPhy vs greedy quality, and the time/quality knob.
//
// Paper (§1): greedy heuristics "prune away large fractions of the
// search space and often suggest locally optimal solutions instead of
// the globally optimal one"; CoPhy "provides close to optimal
// suggestions ... allows to trade off execution time against the
// quality of the suggested solutions."

#include "bench_common.h"
#include "backend/inmemory_backend.h"
#include "cophy/cophy.h"
#include "cophy/greedy.h"

namespace dbdesign {
namespace {

using bench::DataPages;
using bench::Header;
using bench::MakeDb;

struct Shared {
  Database db = MakeDb();
  InMemoryBackend backend{db};
  Workload workload =
      GenerateWorkload(db, TemplateMix::OfflineDefault(), 24, 19);
  std::vector<CandidateIndex> candidates =
      GenerateCandidates(backend, workload);
};

Shared& shared() {
  static Shared* s = new Shared();
  return *s;
}

void RunBudgetSweep() {
  Shared& S = shared();
  Header("E4a: index selection quality, CoPhy (BIP) vs greedy baseline",
         "\"close to optimal suggestions\" vs \"locally optimal\" greedy");

  double data_pages = DataPages(S.db);
  std::printf("\ndata size: %.0f pages; %zu candidates, %zu queries\n",
              data_pages, S.candidates.size(), S.workload.size());
  std::printf(
      "\n%-8s | %-10s %-8s %-8s %-6s | %-10s %-8s | %-9s\n", "budget",
      "CoPhy", "improve", "LP bound", "gap", "greedy", "improve",
      "CoPhy win");
  std::printf("---------+--------------------------------------+---------------------+----------\n");

  for (double factor : {0.25, 0.5, 1.0, 2.0}) {
    CoPhyOptions copts;
    copts.storage_budget_pages = factor * data_pages;
    InMemoryBackend backend(S.db);
    CoPhyAdvisor cophy(backend, copts);
    IndexRecommendation rec =
        cophy.TryRecommendWithCandidates(S.workload, S.candidates).value();

    GreedyOptions gopts;
    gopts.storage_budget_pages = factor * data_pages;
    GreedyAdvisor greedy(backend, gopts);
    GreedyResult g =
        greedy.TryRecommendWithCandidates(S.workload, S.candidates).value();

    // Evaluate both with a single oracle for the head-to-head column.
    PhysicalDesign cd;
    for (const IndexDef& i : rec.indexes) cd.AddIndex(i);
    PhysicalDesign gd;
    for (const IndexDef& i : g.indexes) gd.AddIndex(i);
    double c_cost = cophy.inum().WorkloadCost(S.workload, cd);
    double g_cost = cophy.inum().WorkloadCost(S.workload, gd);

    std::printf("%6.2fx  | %10.1f %6.1f%%  %8.1f %5.2f%% | %10.1f %6.1f%% | %8.2f%%\n",
                factor, c_cost,
                100.0 * (1.0 - c_cost / rec.base_cost), rec.lower_bound,
                rec.gap * 100.0, g_cost,
                100.0 * (1.0 - g_cost / rec.base_cost),
                100.0 * (g_cost - c_cost) / g_cost);
  }
  std::printf("\n(CoPhy win = how much cheaper CoPhy's configuration is than "
              "greedy's, same candidates, same oracle)\n");
}

void RunTimeQualityKnob() {
  Shared& S = shared();
  Header("E4b: time vs quality trade-off",
         "\"CoPhy allows to trade off execution time against the quality of "
         "the suggested solutions\"");
  double budget = 0.5 * DataPages(S.db);
  std::printf("\n%-12s %-10s %-12s %-10s %-8s\n", "node budget",
              "solve (s)", "cost", "gap", "optimal?");
  for (int nodes : {1, 4, 16, 64, 2000}) {
    CoPhyOptions opts;
    opts.storage_budget_pages = budget;
    opts.bnb.max_nodes = nodes;
    InMemoryBackend backend(S.db);
    CoPhyAdvisor advisor(backend, opts);
    IndexRecommendation rec =
        advisor.TryRecommendWithCandidates(S.workload, S.candidates).value();
    std::printf("%-12d %-10.3f %-12.1f %6.2f%%  %s\n", nodes,
                rec.solve_time_sec, rec.recommended_cost, rec.gap * 100.0,
                rec.proven_optimal ? "yes" : "no");
  }
}

void BM_CoPhyRecommend(benchmark::State& state) {
  Shared& S = shared();
  CoPhyOptions opts;
  opts.storage_budget_pages = 0.5 * DataPages(S.db);
  opts.bnb.max_nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    InMemoryBackend backend(S.db);
    CoPhyAdvisor advisor(backend, opts);
    IndexRecommendation rec =
        advisor.TryRecommendWithCandidates(S.workload, S.candidates).value();
    benchmark::DoNotOptimize(rec.recommended_cost);
  }
}
BENCHMARK(BM_CoPhyRecommend)->Arg(16)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_GreedyRecommend(benchmark::State& state) {
  Shared& S = shared();
  GreedyOptions opts;
  opts.storage_budget_pages = 0.5 * DataPages(S.db);
  for (auto _ : state) {
    InMemoryBackend backend(S.db);
    GreedyAdvisor advisor(backend, opts);
    GreedyResult r =
        advisor.TryRecommendWithCandidates(S.workload, S.candidates).value();
    benchmark::DoNotOptimize(r.final_cost);
  }
}
BENCHMARK(BM_GreedyRecommend)->Unit(benchmark::kMillisecond);

void BM_CandidateGeneration(benchmark::State& state) {
  Shared& S = shared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidates(S.backend, S.workload));
  }
}
BENCHMARK(BM_CandidateGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbdesign

int main(int argc, char** argv) {
  dbdesign::bench::JsonReporter reporter("cophy");
  reporter.TimeOp("e4_budget_sweep", [] { dbdesign::RunBudgetSweep(); });
  reporter.TimeOp("e4b_time_quality_knob", [] { dbdesign::RunTimeQualityKnob(); });
  reporter.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
