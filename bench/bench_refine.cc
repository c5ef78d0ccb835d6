// Experiment E8 — interactive refinement latency.
//
// The paper's demo loop only works if re-recommending after a DBA edit
// is much cheaper than the first recommendation: "the ability of INUM
// to reuse previously obtained query plans ... reduces drastically the
// what-if optimization overhead". This bench measures the session's
// two-tier incremental loop directly:
//
//   * recommend_initial — cold session: candidate mining, INUM
//     populate, atom expansion, BIP solve.
//   * refine_pin_recommended — the demo's most common reaction (the
//     DBA pins indexes the tool just recommended): a tightening-only
//     edit whose optimality certificate survives, answered with no
//     solver work at all. This is the headline interactive op — the
//     acceptance bar is >= 10x faster than the initial recommend.
//   * refine_veto_top — vetoing an index the solution *uses* breaks
//     the certificate: full BIP re-solve against the cached atom
//     matrix. Still zero optimizer calls, zero INUM populations.
//   * refine_budget_cut — budget below the current configuration's
//     footprint: re-solve, same story.
//   * add_queries_refine — workload delta: only the new queries' atoms
//     are built.
//
// Writes BENCH_refine.json; each refine row's speedup column records
// how many times faster it ran than this run's initial recommend.

#include "bench_common.h"
#include "backend/inmemory_backend.h"
#include "core/designer.h"
#include "core/session.h"

namespace dbdesign {
namespace {

using bench::DataPages;
using bench::Header;
using bench::JsonReporter;
using bench::MakeDb;

struct Timing {
  double ms = 0.0;
  uint64_t backend_calls = 0;
  uint64_t populates = 0;
  size_t indexes = 0;
  double cost = 0.0;
  int lp_pivots = 0;
  int bnb_nodes = 0;
};

template <typename Fn>
Timing Timed(DesignSession& session, Fn&& fn) {
  Timing t;
  uint64_t calls0 = session.backend_optimizer_calls();
  uint64_t pops0 = session.inum_populate_count();
  auto t0 = std::chrono::steady_clock::now();
  Result<IndexRecommendation> rec = fn();
  t.ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count();
  t.backend_calls = session.backend_optimizer_calls() - calls0;
  t.populates = session.inum_populate_count() - pops0;
  if (rec.ok()) {
    t.indexes = rec.value().indexes.size();
    t.cost = rec.value().recommended_cost;
    t.lp_pivots = rec.value().lp_pivots;
    t.bnb_nodes = rec.value().bnb_nodes;
  }
  return t;
}

void RunRefineLoop(JsonReporter& reporter) {
  Header("E8: initial recommendation vs incremental refinement",
         "the interactive loop re-solves without new optimizer calls "
         "(INUM + atom matrix reuse)");

  Database db = MakeDb();
  double budget = 0.5 * DataPages(db);
  std::printf("\n%-10s | %-28s %10s %8s %10s %10s\n", "queries", "op",
              "wall ms", "speedup", "opt calls", "populates");
  std::printf("-----------+------------------------------------------------"
              "----------------------\n");

  for (int nq : {8, 16, 32}) {
    Workload workload =
        GenerateWorkload(db, TemplateMix::OfflineDefault(), nq, 19);
    InMemoryBackend backend(db);
    Designer designer(backend);
    DesignSession session(designer);
    session.SetWorkload(workload);
    DesignConstraints constraints;
    constraints.storage_budget_pages = budget;
    session.SetConstraints(constraints);

    Timing initial = Timed(session, [&] { return session.Recommend(); });
    std::printf("%-10d | %-28s %10.3f %7.1fx %10llu %10llu\n", nq,
                "recommend_initial", initial.ms, 1.0,
                static_cast<unsigned long long>(initial.backend_calls),
                static_cast<unsigned long long>(initial.populates));

    // Tier 1 — the DBA pins the top two recommended indexes (a
    // tightening edit: the optimality certificate survives).
    const IndexRecommendation* rec = session.last_recommendation();
    ConstraintDelta keep;
    if (rec != nullptr && rec->indexes.size() >= 2) {
      keep.pin.push_back(rec->indexes[0]);
      keep.pin.push_back(rec->indexes[1]);
    }
    Timing pinned = Timed(session, [&] { return session.Refine(keep); });
    double speedup = initial.ms / std::max(0.001, pinned.ms);
    std::printf("%-10d | %-28s %10.3f %7.1fx %10llu %10llu\n", nq,
                "refine_pin_recommended", pinned.ms, speedup,
                static_cast<unsigned long long>(pinned.backend_calls),
                static_cast<unsigned long long>(pinned.populates));

    // Tier 2 — vetoing an index the configuration uses forces a full
    // BIP re-solve against the cached atoms (but the pins from above
    // must go first or the delta would be contradictory).
    ConstraintDelta veto;
    if (rec != nullptr && !rec->indexes.empty()) {
      veto.unpin.push_back(rec->indexes[0]);
      veto.veto.push_back(rec->indexes[0]);
    }
    Timing revised = Timed(session, [&] { return session.Refine(veto); });
    // The acceptance contract for every refine op: constraint edits are
    // answered purely from the cached atom matrix — no backend optimizer
    // calls, no INUM populations — even when the BIP re-solves.
    DBD_CHECK(pinned.backend_calls == 0 && pinned.populates == 0);
    DBD_CHECK(revised.backend_calls == 0 && revised.populates == 0);
    double speedup2 = initial.ms / std::max(0.001, revised.ms);
    std::printf("%-10d | %-28s %10.3f %7.1fx %10llu %10llu\n", nq,
                "refine_veto_top", revised.ms, speedup2,
                static_cast<unsigned long long>(revised.backend_calls),
                static_cast<unsigned long long>(revised.populates));

    // Tier 2 — budget cut below the current footprint: re-solve.
    const IndexRecommendation* now = session.last_recommendation();
    ConstraintDelta ops;
    ops.storage_budget_pages =
        now != nullptr ? 0.6 * now->total_size_pages : 0.25 * budget;
    ops.table_caps[db.catalog().FindTable(kPhotoObj)] = 2;
    Timing tightened = Timed(session, [&] { return session.Refine(ops); });
    DBD_CHECK(tightened.backend_calls == 0 && tightened.populates == 0);
    double speedup3 = initial.ms / std::max(0.001, tightened.ms);
    std::printf("%-10d | %-28s %10.3f %7.1fx %10llu %10llu\n", nq,
                "refine_budget_cut", tightened.ms, speedup3,
                static_cast<unsigned long long>(tightened.backend_calls),
                static_cast<unsigned long long>(tightened.populates));

    // Workload delta: three new queries, only their atoms get built.
    Workload extra = GenerateWorkload(db, TemplateMix::PhaseJoins(), 3, 91);
    auto t0 = std::chrono::steady_clock::now();
    session.AddQueries(extra.queries);
    double add_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    Timing delta = Timed(session, [&] { return session.Recommend(); });
    std::printf("%-10d | %-28s %10.3f %7.1fx %10llu %10llu\n", nq,
                "add_queries_refine", add_ms + delta.ms,
                initial.ms / std::max(0.001, add_ms + delta.ms),
                static_cast<unsigned long long>(delta.backend_calls),
                static_cast<unsigned long long>(delta.populates));

    if (nq == 32) {
      reporter.Report("recommend_initial", initial.ms, 1.0,
                      initial.backend_calls, initial.populates);
      reporter.Report("refine_pin_recommended", pinned.ms, speedup,
                      pinned.backend_calls, pinned.populates);
      reporter.Report("refine_veto_top", revised.ms, speedup2,
                      revised.backend_calls, revised.populates);
      reporter.Report("refine_budget_cut", tightened.ms, speedup3,
                      tightened.backend_calls, tightened.populates);
      reporter.Report("add_queries_refine", add_ms + delta.ms,
                      initial.ms / std::max(0.001, add_ms + delta.ms),
                      delta.backend_calls, delta.populates);
      // Solver work per op: simplex pivots and B&B nodes.
      Json solver = Json::Object();
      using OpTiming = std::pair<const char*, const Timing*>;
      for (const auto& [op, t] : {OpTiming{"recommend_initial", &initial},
                                  OpTiming{"refine_pin_recommended", &pinned},
                                  OpTiming{"refine_veto_top", &revised},
                                  OpTiming{"refine_budget_cut", &tightened},
                                  OpTiming{"add_queries_refine", &delta}}) {
        Json row = Json::Object();
        row["lp_pivots"] = Json::Number(t->lp_pivots);
        row["bnb_nodes"] = Json::Number(t->bnb_nodes);
        solver[op] = std::move(row);
      }
      reporter.Extra("solver", std::move(solver));
      std::printf("\npin-recommended refine vs initial: %.1fx faster, %llu "
                  "new optimizer calls, %llu new INUM populations %s\n",
                  speedup,
                  static_cast<unsigned long long>(pinned.backend_calls),
                  static_cast<unsigned long long>(pinned.populates),
                  speedup >= 10.0 && pinned.backend_calls == 0
                      ? "[interactive: >=10x and zero-call]"
                      : "[below the 10x interactive bar]");
    }
  }
}

void BM_InitialRecommend(benchmark::State& state) {
  Database db = MakeDb();
  Workload workload =
      GenerateWorkload(db, TemplateMix::OfflineDefault(),
                       static_cast<int>(state.range(0)), 19);
  double budget = 0.5 * DataPages(db);
  for (auto _ : state) {
    InMemoryBackend backend(db);
    Designer designer(backend);
    DesignSession session(designer);
    session.SetWorkload(workload);
    DesignConstraints c;
    c.storage_budget_pages = budget;
    session.SetConstraints(c);
    auto rec = session.Recommend();
    benchmark::DoNotOptimize(rec.ok());
  }
}
BENCHMARK(BM_InitialRecommend)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_RefineSolve(benchmark::State& state) {
  Database db = MakeDb();
  Workload workload =
      GenerateWorkload(db, TemplateMix::OfflineDefault(),
                       static_cast<int>(state.range(0)), 19);
  InMemoryBackend backend(db);
  Designer designer(backend);
  DesignSession session(designer);
  session.SetWorkload(workload);
  DesignConstraints c;
  c.storage_budget_pages = 0.5 * DataPages(db);
  session.SetConstraints(c);
  auto rec = session.Recommend();
  if (!rec.ok() || rec.value().indexes.empty()) {
    state.SkipWithError("no initial recommendation");
    return;
  }
  IndexDef toggle = rec.value().indexes[0];
  bool vetoed = false;
  for (auto _ : state) {
    ConstraintDelta delta;
    if (vetoed) {
      delta.unveto.push_back(toggle);
    } else {
      delta.veto.push_back(toggle);
    }
    vetoed = !vetoed;
    auto r = session.Refine(delta);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_RefineSolve)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbdesign

int main(int argc, char** argv) {
  dbdesign::bench::JsonReporter reporter("refine");
  dbdesign::RunRefineLoop(reporter);
  reporter.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
