// Ablation studies for the reproduction's own design choices (DESIGN.md
// §5): how much each mechanism contributes.
//
//   A1  INUM parameterized (index-nested-loop) signatures on/off
//   A2  CoPhy atom cap (plan-space pruning) sweep
//   A3  candidate generation: single-column / +multi-column / +covering
//   A4  COLT what-if profiling budget sweep

#include <chrono>
#include <cmath>

#include "bench_common.h"
#include "backend/inmemory_backend.h"
#include "colt/colt.h"
#include "cophy/cophy.h"
#include "cophy/greedy.h"
#include "workload/compress.h"

namespace dbdesign {
namespace {

using bench::DataPages;
using bench::Header;
using bench::MakeDb;

struct Shared {
  Database db = MakeDb();
  Workload workload =
      GenerateWorkload(db, TemplateMix::OfflineDefault(), 20, 23);
};

Shared& shared() {
  static Shared* s = new Shared();
  return *s;
}

void AblationInumParamSignatures() {
  Shared& S = shared();
  Header("A1: INUM parameterized-lookup signatures",
         "dropping INLJ signatures shrinks the cache but loses plans that "
         "join queries need");

  InMemoryBackend backend(S.db);
  WhatIfOptimizer exact(backend);
  // Random designs with join-column indexes (where INLJ plans live).
  Rng rng(31);
  std::vector<PhysicalDesign> designs;
  std::vector<IndexDef> pool;
  for (const BoundQuery& q : S.workload.queries) {
    for (const BoundJoin& j : q.joins) {
      pool.push_back(IndexDef{q.tables[j.right.slot], {j.right.column}, false});
      pool.push_back(IndexDef{q.tables[j.left.slot], {j.left.column}, false});
    }
    for (int s = 0; s < q.num_slots(); ++s) {
      for (ColumnId c : q.PredicateColumns(s)) {
        pool.push_back(IndexDef{q.tables[s], {c}, false});
      }
    }
  }
  for (int d = 0; d < 25; ++d) {
    PhysicalDesign design;
    for (const IndexDef& idx : pool) {
      if (rng.Bernoulli(0.4)) design.AddIndex(idx);
    }
    designs.push_back(std::move(design));
  }

  std::printf("\n%-22s %14s %14s %16s\n", "configuration", "plans cached",
              "mean error", "worst error");
  for (bool enable_param : {true, false}) {
    InumOptions opts;
    opts.enable_param_signatures = enable_param;
    InumCostModel inum(backend, opts);
    double total_err = 0.0;
    double worst = 0.0;
    int count = 0;
    for (const PhysicalDesign& d : designs) {
      for (const BoundQuery& q : S.workload.queries) {
        double fast = inum.Cost(q, d);
        double full = exact.TryCostUnder(q, d).value();
        double rel = std::abs(fast - full) / std::max(1.0, full);
        total_err += rel;
        worst = std::max(worst, rel);
        ++count;
      }
    }
    std::printf("%-22s %14zu %13.3f%% %15.2f%%\n",
                enable_param ? "with INLJ signatures" : "without",
                inum.stats().plans_cached, 100.0 * total_err / count,
                100.0 * worst);
  }
}

void AblationCophyAtomCap() {
  Shared& S = shared();
  Header("A2: CoPhy atom cap (per-query plan-space pruning)",
         "small caps speed the BIP up but can discard the optimal atom");
  double budget = 0.5 * DataPages(S.db);
  InMemoryBackend backend(S.db);
  std::vector<CandidateIndex> cands = GenerateCandidates(backend, S.workload);

  std::printf("\n%-10s %10s %12s %12s %10s\n", "atom cap", "atoms",
              "cost", "solve (s)", "gap");
  for (int cap : {4, 8, 16, 48, 128}) {
    CoPhyOptions opts;
    opts.storage_budget_pages = budget;
    opts.max_atoms_per_query = cap;
    CoPhyAdvisor advisor(backend, opts);
    IndexRecommendation rec =
        advisor.TryRecommendWithCandidates(S.workload, cands).value();
    std::printf("%-10d %10zu %12.1f %12.3f %9.2f%%\n", cap, rec.num_atoms,
                rec.recommended_cost, rec.solve_time_sec, rec.gap * 100.0);
  }
}

void AblationCandidateGeneration() {
  Shared& S = shared();
  Header("A3: candidate generation richness",
         "multi-column and covering candidates drive most of the win over "
         "single-column-only tools (the paper's COLT vs CoPhy contrast)");
  double budget = DataPages(S.db);

  struct Case {
    const char* name;
    CandidateOptions opts;
  };
  std::vector<Case> cases;
  CandidateOptions single;
  single.max_key_columns = 1;
  single.covering_candidates = false;
  cases.push_back({"single-column only", single});
  CandidateOptions multi;
  multi.max_key_columns = 3;
  multi.covering_candidates = false;
  cases.push_back({"+ multi-column keys", multi});
  CandidateOptions covering;
  covering.max_key_columns = 3;
  covering.covering_candidates = true;
  cases.push_back({"+ covering indexes", covering});

  std::printf("\n%-22s %12s %12s %12s\n", "candidate set", "candidates",
              "final cost", "improvement");
  double base = 0.0;
  for (const Case& c : cases) {
    CoPhyOptions opts;
    opts.storage_budget_pages = budget;
    opts.candidates = c.opts;
    InMemoryBackend backend(S.db);
    CoPhyAdvisor advisor(backend, opts);
    IndexRecommendation rec = advisor.TryRecommend(S.workload).value();
    if (base == 0.0) base = rec.base_cost;
    std::printf("%-22s %12zu %12.1f %11.1f%%\n", c.name, rec.num_candidates,
                rec.recommended_cost, rec.improvement() * 100.0);
  }
}

void AblationColtBudget() {
  Shared& S = shared();
  Header("A4: COLT what-if profiling budget",
         "a starved profiling budget delays adaptation (the online tuner "
         "must stay 'lightweight')");

  std::vector<BoundQuery> stream = GenerateDriftingStream(
      S.db, {TemplateMix::PhaseSelections(), TemplateMix::PhaseJoins()}, 125,
      41);
  InMemoryBackend backend(S.db);
  InumCostModel oracle(backend);
  double untuned = 0.0;
  for (const BoundQuery& q : stream) {
    untuned += oracle.Cost(q, PhysicalDesign{});
  }

  std::printf("\n%-18s %14s %10s %8s %8s\n", "whatif budget",
              "cumulative", "saved", "builds", "epochs");
  for (int budget : {0, 2, 8, 24}) {
    ColtOptions opts;
    opts.epoch_length = 25;
    opts.whatif_budget_per_epoch = budget;
    ColtTuner tuner(backend, opts);
    for (const BoundQuery& q : stream) tuner.OnQuery(q);
    int builds = 0;
    for (const ColtEvent& e : tuner.events()) {
      builds += e.type == ColtEvent::Type::kBuild;
    }
    std::printf("%-18d %14.1f %9.1f%% %8d %8zu\n", budget,
                tuner.cumulative_cost(),
                100.0 * (1.0 - tuner.cumulative_cost() / untuned), builds,
                tuner.epochs().size());
  }
}

void AblationWorkloadCompression() {
  Shared& S = shared();
  Header("A5: workload compression",
         "template-heavy traces compress hard; the advisor keeps its "
         "quality at a fraction of the solve time");

  Workload big = GenerateWorkload(S.db, TemplateMix::OfflineDefault(), 200, 67);
  CompressionReport report;
  Workload small = CompressWorkload(big, &report);

  double budget = DataPages(S.db);
  CoPhyOptions opts;
  opts.storage_budget_pages = budget;

  InMemoryBackend backend(S.db);
  CoPhyAdvisor full_advisor(backend, opts);
  auto t0 = std::chrono::steady_clock::now();
  IndexRecommendation full = full_advisor.TryRecommend(big).value();
  double full_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  CoPhyAdvisor comp_advisor(backend, opts);
  t0 = std::chrono::steady_clock::now();
  IndexRecommendation comp = comp_advisor.TryRecommend(small).value();
  double comp_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  PhysicalDesign full_design;
  for (const IndexDef& i : full.indexes) full_design.AddIndex(i);
  PhysicalDesign comp_design;
  for (const IndexDef& i : comp.indexes) comp_design.AddIndex(i);
  double base = full_advisor.inum().WorkloadCost(big, PhysicalDesign{});
  double full_cost = full_advisor.inum().WorkloadCost(big, full_design);
  double comp_cost = full_advisor.inum().WorkloadCost(big, comp_design);

  std::printf("\nworkload: %zu queries -> %zu templates (compresses %.1fx; "
              "%.1f%% of input retained)\n",
              report.original_queries, report.compressed_queries,
              report.factor(), report.fraction_retained() * 100.0);
  std::printf("%-26s %12s %14s\n", "input", "solve (s)",
              "cost (full wkld)");
  std::printf("%-26s %12.3f %14.1f\n", "full workload", full_sec, full_cost);
  std::printf("%-26s %12.3f %14.1f\n", "compressed workload", comp_sec,
              comp_cost);
  std::printf("\ncompression keeps %.1f%% of the benefit at %.1fx less "
              "solve time\n",
              100.0 * (base - comp_cost) / std::max(1.0, base - full_cost),
              full_sec / std::max(1e-9, comp_sec));
}

void BM_StructuralHash(benchmark::State& state) {
  Shared& S = shared();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        S.workload.queries[i % S.workload.size()].StructuralHash());
    ++i;
  }
}
BENCHMARK(BM_StructuralHash);

}  // namespace
}  // namespace dbdesign

int main(int argc, char** argv) {
  dbdesign::bench::JsonReporter reporter("ablation");
  reporter.TimeOp("ablation_inum_param_signatures", [] { dbdesign::AblationInumParamSignatures(); });
  reporter.TimeOp("ablation_cophy_atom_cap", [] { dbdesign::AblationCophyAtomCap(); });
  reporter.TimeOp("ablation_candidate_generation", [] { dbdesign::AblationCandidateGeneration(); });
  reporter.TimeOp("ablation_colt_budget", [] { dbdesign::AblationColtBudget(); });
  reporter.TimeOp("ablation_workload_compression", [] { dbdesign::AblationWorkloadCompression(); });
  reporter.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
