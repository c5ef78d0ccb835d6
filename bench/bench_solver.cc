// Experiment E9 — solver scaling: monolithic vs cluster-decomposed BIP.
//
// CoPhy's selling point over heuristic advisors is that the BIP solves
// to a PROVEN optimum — but the monolithic program couples every
// candidate through one budget row, so its solve cost grows with the
// whole universe even when the workload's interaction structure is a
// set of small independent clusters. The decomposed path (SolvePrepared
// in kAuto mode) solves one BIP per interaction cluster under a shared
// budget allocation and stitches the optima; the solver cache then
// re-solves only the clusters a constraint edit dirties, warm-started
// from the previous basis.
//
// This bench sweeps the candidate-universe size (50 / 200 / 1000 / 4000
// synthetic candidates in 10-candidate clusters) and times three paths
// over the SAME prepared state:
//
//   * monolithic_N      — forced single BIP (kMonolithic)
//   * decomposed_N      — per-cluster solves, cold cache (kAuto)
//   * decomposed_warm_N — veto of one recommended index, same cache:
//                         only the dirtied cluster re-solves
//
// Those solves run under the universe's total size, so the budget never
// binds. For N = 50 and 200 the sweep adds monolithic_N_budget_Fx and
// decomposed_N_budget_Fx rows at F = 0.05 and 0.1 of that size, where
// both paths branch and B&B nodes stop at the incumbent.
//
// Every decomposed result is DBD_CHECKed bit-identical to the
// monolithic optimum of the same problem (the 1e-5/page tie-break makes
// it unique); the sweep is a perf experiment riding on the differential
// correctness spine, not a separate accuracy claim.
//
// Writes BENCH_solver.json; decomposed rows carry their speedup over
// the monolithic solve of the same universe. extra.node_cold_solves
// records, per op, the B&B node LPs that could not reoptimize from their
// parent's tableau by dual simplex and were solved from scratch.
// extra.solver records, per op, the simplex pivots (lp_pivots), the B&B
// nodes (bnb_nodes), the nodes whose dual simplex stopped at the
// incumbent (nodes_cut_off), the binaries fixed by reduced cost against
// the incumbent (vars_fixed_by_reduced_cost) and the root LPs whose warm
// basis gave no verdict and were solved cold (root_warm_fallbacks). Both
// failure counts must be 0 on every op (DBD_CHECK-enforced). It also
// splits each op's solves, nodes and pivots by the kind of BIP solve
// (solves_by_kind, bnb_nodes_by_kind, lp_pivots_by_kind): a cluster's
// top frontier point, a deeper point, a tail certificate, or the
// monolithic BIP. Per-kind nodes and pivots must sum to the op's totals
// (DBD_CHECK-enforced).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "backend/inmemory_backend.h"
#include "cophy/cophy.h"
#include "core/constraints.h"
#include "synthetic_cophy.h"

namespace dbdesign {
namespace {

using bench::Header;
using bench::JsonReporter;
using bench::MakeDb;
using synthetic::MakeClusteredPrepared;
using synthetic::TotalSize;

struct SolveRow {
  IndexRecommendation rec;
  double ms = 0.0;
};

SolveRow Solve(const Database& db, const CoPhyPrepared& prep,
               const DesignConstraints& cons, CoPhySolveMode mode,
               double budget, CoPhySolverCache* cache) {
  CoPhyOptions opts;
  opts.storage_budget_pages = budget;
  opts.solve_mode = mode;
  InMemoryBackend backend(db);
  CoPhyAdvisor advisor(backend, opts);
  auto t0 = std::chrono::steady_clock::now();
  Result<IndexRecommendation> rec = advisor.SolvePrepared(prep, cons, cache);
  SolveRow row;
  row.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
  DBD_CHECK(rec.ok() && "SolvePrepared failed");
  row.rec = std::move(rec).value();
  return row;
}

// The bit-identity contract the differential tests enforce, as
// always-on checks: every decomposed optimum in the sweep must equal
// the monolithic one exactly, or the bench aborts.
void CheckIdentical(const IndexRecommendation& a,
                    const IndexRecommendation& b) {
  DBD_CHECK_EQ(a.indexes.size(), b.indexes.size());
  for (size_t i = 0; i < a.indexes.size(); ++i) {
    DBD_CHECK(a.indexes[i] == b.indexes[i]);
  }
  DBD_CHECK_EQ(a.total_size_pages, b.total_size_pages);
  DBD_CHECK_EQ(a.recommended_cost, b.recommended_cost);
  DBD_CHECK_EQ(a.proven_optimal, b.proven_optimal);
}

void RunSolverScaling(JsonReporter& reporter) {
  Header("E9: BIP solver scaling — monolithic vs cluster-decomposed",
         "per-cluster solves under a shared budget allocation scale with "
         "the dirtied clusters, not the candidate universe");

  Database db = MakeDb(2000);
  std::printf("\n%-10s | %12s %12s %14s | %9s %9s\n", "candidates",
              "mono ms", "decomp ms", "warm-veto ms", "speedup",
              "warm spd");
  std::printf("-----------+-----------------------------------------+"
              "--------------------\n");

  Json cold_solves = Json::Object();
  Json pivots = Json::Object();
  Json nodes = Json::Object();
  Json cut_off = Json::Object();
  Json fixed = Json::Object();
  Json warm_fallbacks = Json::Object();
  Json kind_solves = Json::Object();
  Json kind_nodes = Json::Object();
  Json kind_pivots = Json::Object();
  auto record_counts = [&](const std::string& op, const SolveRow& row) {
    cold_solves[op] = Json::Number(row.rec.node_cold_solves);
    pivots[op] = Json::Number(row.rec.lp_pivots);
    nodes[op] = Json::Number(row.rec.bnb_nodes);
    cut_off[op] = Json::Number(row.rec.nodes_cut_off);
    fixed[op] = Json::Number(row.rec.vars_fixed_by_reduced_cost);
    warm_fallbacks[op] = Json::Number(row.rec.root_warm_fallbacks);
    DBD_CHECK_EQ(row.rec.node_cold_solves, 0);
    DBD_CHECK_EQ(row.rec.root_warm_fallbacks, 0);
    const std::pair<const char*, const SolveKindWork*> kinds[] = {
        {"top_point", &row.rec.top_points},
        {"deeper_point", &row.rec.deeper_points},
        {"tail_certificate", &row.rec.tail_certificates},
        {"monolithic", &row.rec.monolithic_bips}};
    int node_sum = 0;
    int pivot_sum = 0;
    for (const auto& [kind, work] : kinds) {
      kind_solves[op][kind] = Json::Number(work->solves);
      kind_nodes[op][kind] = Json::Number(work->bnb_nodes);
      kind_pivots[op][kind] = Json::Number(work->lp_pivots);
      node_sum += work->bnb_nodes;
      pivot_sum += work->lp_pivots;
    }
    DBD_CHECK_EQ(node_sum, row.rec.bnb_nodes);
    DBD_CHECK_EQ(pivot_sum, row.rec.lp_pivots);
  };
  for (int n : {50, 200, 1000, 4000}) {
    CoPhyPrepared prep = MakeClusteredPrepared(db, n);
    DBD_CHECK_EQ(prep.candidates.size(), static_cast<size_t>(n));
    double budget = TotalSize(prep);
    DesignConstraints cons;
    CoPhySolverCache cache;

    SolveRow mono =
        Solve(db, prep, cons, CoPhySolveMode::kMonolithic, budget, nullptr);
    SolveRow decomp =
        Solve(db, prep, cons, CoPhySolveMode::kAuto, budget, &cache);
    DBD_CHECK(!decomp.rec.solved_monolithic);
    CheckIdentical(decomp.rec, mono.rec);

    // Constraint edit: veto one recommended index. Only its cluster may
    // re-solve; the optimum must still match a cold monolithic solve
    // under the same veto.
    DBD_CHECK(!decomp.rec.indexes.empty());
    DesignConstraints vetoed = cons;
    vetoed.vetoed_indexes.push_back(decomp.rec.indexes.front());
    SolveRow warm =
        Solve(db, prep, vetoed, CoPhySolveMode::kAuto, budget, &cache);
    DBD_CHECK_EQ(warm.rec.clusters_solved, 1);
    SolveRow mono_veto =
        Solve(db, prep, vetoed, CoPhySolveMode::kMonolithic, budget, nullptr);
    CheckIdentical(warm.rec, mono_veto.rec);

    double speedup = mono.ms / std::max(0.001, decomp.ms);
    double warm_speedup = mono_veto.ms / std::max(0.001, warm.ms);
    std::printf("%-10d | %12.2f %12.2f %14.3f | %8.1fx %8.1fx\n", n, mono.ms,
                decomp.ms, warm.ms, speedup, warm_speedup);

    // Appended: GCC 12 reports a false -Wrestrict on "_" + to_string at -O3.
    std::string suffix = "_";
    suffix += std::to_string(n);
    reporter.Report("monolithic" + suffix, mono.ms, 1.0);
    reporter.Report("decomposed" + suffix, decomp.ms, speedup);
    reporter.Report("decomposed_warm" + suffix, warm.ms, warm_speedup);
    record_counts("monolithic" + suffix, mono);
    record_counts("decomposed" + suffix, decomp);
    record_counts("decomposed_warm" + suffix, warm);
    record_counts("monolithic_veto" + suffix, mono_veto);
  }

  // Binding budgets: the sweep above admits every candidate, so no B&B
  // node ever reaches the incumbent. Under a small fraction of the
  // universe's size the budget row binds, both paths branch, and the
  // dual-simplex cutoff has nodes to stop. n = 1000 is left out: there
  // the monolithic solve stops at its node limit without a proof.
  std::printf("\n%-10s %8s | %12s %12s | %10s %10s | %s\n", "candidates",
              "budget", "mono ms", "decomp ms", "mono nodes", "dec nodes",
              "dec nodes (solves): top / deeper / tail");
  struct BudgetRow {
    double fraction;
    const char* tag;
  };
  for (int n : {50, 200}) {
    CoPhyPrepared prep = MakeClusteredPrepared(db, n);
    for (BudgetRow row : {BudgetRow{0.05, "0.05x"}, BudgetRow{0.1, "0.1x"}}) {
      double budget = TotalSize(prep) * row.fraction;
      DesignConstraints cons;
      CoPhySolverCache cache;
      SolveRow mono =
          Solve(db, prep, cons, CoPhySolveMode::kMonolithic, budget, nullptr);
      SolveRow decomp =
          Solve(db, prep, cons, CoPhySolveMode::kAuto, budget, &cache);
      DBD_CHECK(!decomp.rec.solved_monolithic);
      CheckIdentical(decomp.rec, mono.rec);
      const IndexRecommendation& d = decomp.rec;
      std::printf("%-10d %8s | %12.2f %12.2f | %10d %10d | %d (%d) / %d (%d) "
                  "/ %d (%d)\n",
                  n, row.tag, mono.ms, decomp.ms, mono.rec.bnb_nodes,
                  d.bnb_nodes, d.top_points.bnb_nodes, d.top_points.solves,
                  d.deeper_points.bnb_nodes, d.deeper_points.solves,
                  d.tail_certificates.bnb_nodes, d.tail_certificates.solves);

      std::string suffix = "_";
      suffix += std::to_string(n);
      suffix += "_budget_";
      suffix += row.tag;
      reporter.Report("monolithic" + suffix, mono.ms, 1.0);
      reporter.Report("decomposed" + suffix, decomp.ms,
                      mono.ms / std::max(0.001, decomp.ms));
      record_counts("monolithic" + suffix, mono);
      record_counts("decomposed" + suffix, decomp);
    }
  }
  reporter.Extra("node_cold_solves", std::move(cold_solves));
  Json solver = Json::Object();
  solver["lp_pivots"] = std::move(pivots);
  solver["bnb_nodes"] = std::move(nodes);
  solver["nodes_cut_off"] = std::move(cut_off);
  solver["vars_fixed_by_reduced_cost"] = std::move(fixed);
  solver["root_warm_fallbacks"] = std::move(warm_fallbacks);
  solver["solves_by_kind"] = std::move(kind_solves);
  solver["bnb_nodes_by_kind"] = std::move(kind_nodes);
  solver["lp_pivots_by_kind"] = std::move(kind_pivots);
  reporter.Extra("solver", std::move(solver));
  std::printf("\nall decomposed optima bit-identical to monolithic, no B&B "
              "node and no warm root solved from scratch, per-kind work sums "
              "to the totals [DBD_CHECK-enforced]\n");
}

void BM_DecomposedSolve(benchmark::State& state) {
  Database db = MakeDb(2000);
  CoPhyPrepared prep =
      MakeClusteredPrepared(db, static_cast<int>(state.range(0)));
  double budget = TotalSize(prep);
  DesignConstraints cons;
  for (auto _ : state) {
    CoPhySolverCache cache;
    SolveRow r = Solve(db, prep, cons, CoPhySolveMode::kAuto, budget, &cache);
    benchmark::DoNotOptimize(r.rec.recommended_cost);
  }
}
BENCHMARK(BM_DecomposedSolve)->Arg(50)->Arg(200)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace dbdesign

int main(int argc, char** argv) {
  dbdesign::bench::JsonReporter reporter("solver");
  dbdesign::RunSolverScaling(reporter);
  reporter.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
