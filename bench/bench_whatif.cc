// Experiments E7 + E8 — the what-if component itself.
//
// E7, paper (§3.1): what-if analysis "escape[s] the cost of explicitly
// building a structure" — we measure a what-if cost call against a real
// index build (B-tree construction over the row store).
//
// E8, paper (§3.1c): "the what-if join component which controls the
// join methods in the query execution plan" — we show plan/cost shifts
// as each join method is disabled.

#include <chrono>
#include <functional>

#include "backend/inmemory_backend.h"
#include "backend/trace_backend.h"
#include "bench_common.h"
#include "exec/executor.h"
#include "sql/binder.h"
#include "util/rng.h"
#include "whatif/whatif.h"

namespace dbdesign {
namespace {

using bench::Header;
using bench::MakeDb;

struct Shared {
  Database db = MakeDb(50000);  // larger table: build cost is the point
  Workload workload =
      GenerateWorkload(db, TemplateMix::OfflineDefault(), 12, 3);
};

Shared& shared() {
  static Shared* s = new Shared();
  return *s;
}

void RunWhatIfVsBuild() {
  Shared& S = shared();
  Header("E7: what-if evaluation vs physically building the index",
         "\"the what-if capabilities simulate the original design features "
         "without actually building them\"");

  TableId photo = S.db.catalog().FindTable(kPhotoObj);
  const TableDef& def = S.db.catalog().table(photo);
  IndexDef idx{photo, {def.FindColumn("ra"), def.FindColumn("dec")}, false};
  auto q = ParseAndBind(S.db.catalog(),
                        "SELECT objid, ra, dec FROM photoobj "
                        "WHERE ra BETWEEN 100 AND 101 AND dec BETWEEN 0 AND 4");

  InMemoryBackend backend(S.db);
  WhatIfOptimizer whatif(backend);
  double base_cost = whatif.TryCost(q.value()).value();

  // What-if: hypothetical index + one optimizer call.
  auto t0 = std::chrono::steady_clock::now();
  whatif.CreateHypotheticalIndex(idx);
  double whatif_cost = whatif.TryCost(q.value()).value();
  double whatif_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  whatif.ResetHypothetical();

  // Real: build the B-tree over 50k rows, then plan.
  t0 = std::chrono::steady_clock::now();
  Status s = S.db.CreateIndex(idx);
  double build_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  double real_cost =
      whatif.TryCostUnder(q.value(), S.db.CurrentDesign()).value();
  S.db.DropIndex(idx);

  std::printf("\nprobe: %s\n", q.value().ToSql(S.db.catalog()).c_str());
  std::printf("%-36s %14s %14s\n", "", "wall time", "est. cost");
  std::printf("%-36s %11.3f ms %14.1f\n", "what-if (hypothetical) evaluation",
              whatif_sec * 1e3, whatif_cost);
  std::printf("%-36s %11.3f ms %14.1f   (%s)\n",
              "physical build + evaluation", build_sec * 1e3, real_cost,
              s.ok() ? "built 50k-row B-tree" : s.ToString().c_str());
  std::printf("\nwhat-if is %.0fx faster than building; both agree the "
              "index cuts cost %.1fx\n",
              build_sec / whatif_sec, base_cost / whatif_cost);

  // Fidelity: hypothetical and materialized designs cost identically.
  std::printf("hypothetical vs materialized cost estimate: %.4f vs %.4f "
              "(must match)\n",
              whatif_cost, real_cost);
}

void RunJoinKnobs() {
  Shared& S = shared();
  Header("E8: what-if join component — join-method control",
         "\"the what-if join component ... controls the join methods in the "
         "query execution plan\"");

  auto q = ParseAndBind(S.db.catalog(),
                        "SELECT p.objid, s.z FROM photoobj p JOIN specobj s "
                        "ON p.objid = s.bestobjid WHERE s.z > 0.2");
  InMemoryBackend backend(S.db);
  WhatIfOptimizer whatif(backend);
  TableId photo = S.db.catalog().FindTable(kPhotoObj);
  whatif.CreateHypotheticalIndex(
      IndexDef{photo,
               {S.db.catalog().table(photo).FindColumn("objid")},
               false});

  struct KnobCase {
    const char* name;
    PlannerKnobs knobs;
  };
  std::vector<KnobCase> cases;
  cases.push_back({"all methods", PlannerKnobs{}});
  PlannerKnobs k1;
  k1.enable_hashjoin = false;
  cases.push_back({"enable_hashjoin=off", k1});
  PlannerKnobs k2;
  k2.enable_mergejoin = false;
  k2.enable_hashjoin = false;
  cases.push_back({"hash+merge off", k2});
  PlannerKnobs k3;
  k3.enable_indexnestloop = false;
  k3.enable_hashjoin = false;
  k3.enable_mergejoin = false;
  cases.push_back({"only materialized NL", k3});

  std::printf("\n%-24s %-16s %12s\n", "knob setting", "chosen join",
              "plan cost");
  for (const KnobCase& kc : cases) {
    whatif.knobs() = kc.knobs;
    PlanResult r = whatif.TryPlan(q.value()).value();
    const char* method = "none";
    std::function<void(const PlanNode&)> find = [&](const PlanNode& n) {
      switch (n.type) {
        case PlanNodeType::kHashJoin: method = "HashJoin"; break;
        case PlanNodeType::kMergeJoin: method = "MergeJoin"; break;
        case PlanNodeType::kNestLoopJoin: method = "NestLoop"; break;
        case PlanNodeType::kIndexNestLoopJoin:
          method = "IndexNestLoop";
          break;
        default: break;
      }
      for (const auto& c : n.children) find(*c);
    };
    find(*r.root);
    std::printf("%-24s %-16s %12.1f\n", kc.name, method, r.cost);
  }
  std::printf("\n(disabling the preferred method forces the next-best plan; "
              "costs are monotonically non-decreasing)\n");
}

void RunBatchedCosting(bench::JsonReporter& reporter) {
  Shared& S = shared();
  Header("E7c: batched what-if costing — one backend round-trip per workload",
         "\"[the designer can] be ported to any relational DBMS which offers "
         "a query optimizer\" — CostBatch amortizes that optimizer surface");

  // A realistic stream: 200 queries drawn from 40 distinct statements
  // (real query logs repeat; the batch deduplicates structural repeats).
  Workload distinct =
      GenerateWorkload(S.db, TemplateMix::OfflineDefault(), 40, 21);
  Rng rng(5);
  std::vector<BoundQuery> stream;
  stream.reserve(200);
  for (int i = 0; i < 200; ++i) {
    stream.push_back(
        distinct.queries[static_cast<size_t>(rng.UniformInt(0, 39))]);
  }

  InMemoryBackend backend(S.db);
  TableId photo = S.db.catalog().FindTable(kPhotoObj);
  PhysicalDesign design;
  design.AddIndex(
      IndexDef{photo, {S.db.catalog().table(photo).FindColumn("ra")}, false});
  PlannerKnobs knobs;
  std::span<const BoundQuery> span(stream.data(), stream.size());

  // Per-query calls: one optimizer round-trip each.
  backend.ResetCallCount();
  auto t0 = std::chrono::steady_clock::now();
  std::vector<double> single;
  single.reserve(stream.size());
  for (const BoundQuery& q : stream) {
    single.push_back(backend.CostQuery(q, design, knobs).value_or(-1.0));
  }
  double single_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  uint64_t single_calls = backend.num_optimizer_calls();

  // One batched call for the whole stream.
  backend.ResetCallCount();
  t0 = std::chrono::steady_clock::now();
  auto batched = backend.CostBatch(span, design, knobs);
  double batch_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  uint64_t batch_calls = backend.num_optimizer_calls();

  // Replay from a recorded trace: the floor for a ported backend whose
  // optimizer answers are cached client-side.
  auto recorder = TraceBackend::Record(backend);
  (void)recorder->CostBatch(span, design, knobs);
  auto replay = TraceBackend::FromJson(recorder->ToJson());
  double replay_sec = 0.0;
  if (replay.ok()) {
    t0 = std::chrono::steady_clock::now();
    (void)replay.value()->CostBatch(span, design, knobs);
    replay_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  bool identical = batched.ok() && batched.value() == single;
  std::printf("\nstream: %zu queries, %zu distinct statements\n",
              stream.size(), distinct.size());
  std::printf("%-34s %12s %16s %12s\n", "method", "wall time", "optimizer calls",
              "queries/sec");
  std::printf("%-34s %9.3f ms %16llu %12.0f\n", "per-query CostQuery",
              single_sec * 1e3, static_cast<unsigned long long>(single_calls),
              stream.size() / single_sec);
  std::printf("%-34s %9.3f ms %16llu %12.0f\n", "batched CostBatch",
              batch_sec * 1e3, static_cast<unsigned long long>(batch_calls),
              stream.size() / batch_sec);
  if (replay_sec > 0.0 && replay.ok()) {
    std::printf("%-34s %9.3f ms %16llu %12.0f\n", "batched, replayed trace",
                replay_sec * 1e3,
                static_cast<unsigned long long>(
                    replay.value()->num_optimizer_calls()),
                stream.size() / replay_sec);
  }
  std::printf("\nbatched costing is %.1fx faster (%llu vs %llu optimizer "
              "round-trips); results %s\n",
              single_sec / batch_sec,
              static_cast<unsigned long long>(batch_calls),
              static_cast<unsigned long long>(single_calls),
              identical ? "identical" : "DIFFER (bug!)");

  reporter.Report("e7c_per_query_costquery", single_sec * 1e3, 1.0,
                  single_calls);
  reporter.Report("e7c_costbatch", batch_sec * 1e3, single_sec / batch_sec,
                  batch_calls);
  if (replay_sec > 0.0) {
    reporter.Report("e7c_costbatch_replay", replay_sec * 1e3,
                    single_sec / replay_sec, 0);
  }

  // --- Multicore scaling of the batched section ---
  // A wider stream (every query distinct) so there is one optimizer
  // round-trip of work per element to spread across the pool.
  Workload wide =
      GenerateWorkload(S.db, TemplateMix::OfflineDefault(), 160, 33);
  std::span<const BoundQuery> wide_span(wide.queries.data(),
                                        wide.queries.size());
  std::printf("\nCostBatch thread scaling (%zu distinct queries, %d hardware "
              "threads):\n",
              wide.size(), ThreadPool::HardwareThreads());
  std::printf("%-14s %12s %10s %9s\n", "num_threads", "wall time", "speedup",
              "results");
  const int kReps = 3;
  double serial_sec = 0.0;
  std::vector<double> serial_costs;
  for (int t : {1, 2, 4, 8}) {
    CostParams params;
    params.num_threads = t;
    InMemoryBackend scaled(S.db, params);
    (void)scaled.CostBatch(wide_span, design, knobs);  // warm-up
    scaled.ResetCallCount();
    auto tt0 = std::chrono::steady_clock::now();
    Result<std::vector<double>> costs =
        scaled.CostBatch(wide_span, design, knobs);
    for (int r = 1; r < kReps; ++r) {
      costs = scaled.CostBatch(wide_span, design, knobs);
    }
    double sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - tt0)
                     .count() /
                 kReps;
    if (!costs.ok()) {
      std::printf("%-14d CostBatch failed: %s\n", t,
                  costs.status().ToString().c_str());
      continue;
    }
    if (t == 1) {
      serial_sec = sec;
      serial_costs = costs.value();
    }
    bool same = costs.value() == serial_costs;
    std::printf("%-14d %9.3f ms %9.2fx %9s\n", t, sec * 1e3, serial_sec / sec,
                same ? "identical" : "DIFFER!");
    reporter.Report("e7c_costbatch_threads_" + std::to_string(t), sec * 1e3,
                    serial_sec / sec,
                    scaled.num_optimizer_calls() / kReps);
  }
  std::printf("(costs are bit-identical at every thread count; speedup "
              "tracks available cores)\n");
}

void BM_WhatIfCostCall(benchmark::State& state) {
  Shared& S = shared();
  InMemoryBackend backend(S.db);
  WhatIfOptimizer whatif(backend);
  TableId photo = S.db.catalog().FindTable(kPhotoObj);
  whatif.CreateHypotheticalIndex(
      IndexDef{photo, {S.db.catalog().table(photo).FindColumn("ra")}, false});
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        whatif.TryCost(S.workload.queries[i % S.workload.size()]).value());
    ++i;
  }
}
BENCHMARK(BM_WhatIfCostCall);

void BM_HypotheticalIndexCreation(benchmark::State& state) {
  Shared& S = shared();
  TableId photo = S.db.catalog().FindTable(kPhotoObj);
  IndexDef idx{photo, {S.db.catalog().table(photo).FindColumn("ra")}, false};
  for (auto _ : state) {
    InMemoryBackend backend(S.db);
    WhatIfOptimizer whatif(backend);
    benchmark::DoNotOptimize(whatif.CreateHypotheticalIndex(idx));
  }
}
BENCHMARK(BM_HypotheticalIndexCreation);

void BM_RealIndexBuild(benchmark::State& state) {
  // Small table so the benchmark loop stays fast; E7's table above uses
  // the 50k-row build for the headline number.
  Database db = MakeDb(5000);
  TableId photo = db.catalog().FindTable(kPhotoObj);
  IndexDef idx{photo, {db.catalog().table(photo).FindColumn("ra")}, false};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.CreateIndex(idx));
    db.DropIndex(idx);
  }
}
BENCHMARK(BM_RealIndexBuild)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbdesign

int main(int argc, char** argv) {
  dbdesign::bench::JsonReporter reporter("whatif");
  reporter.TimeOp("e7_whatif_vs_build", [] { dbdesign::RunWhatIfVsBuild(); });
  reporter.TimeOp("e8_join_knobs", [] { dbdesign::RunJoinKnobs(); });
  dbdesign::RunBatchedCosting(reporter);
  reporter.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
