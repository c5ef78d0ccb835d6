// Experiment E9 — workload compression on the recommendation path.
//
// Production traces are huge but template-heavy: the demo's SDSS-style
// workload is ~10 templates instantiated with different constants.
// Costing an uncompressed trace scales linearly with query count (one
// INUM population per distinct constant instantiation); the session's
// template-class layer costs one population per *class*, so a
// 100k-query trace recommends in roughly the time of its ~10-class
// compressed form.
//
//   * raw_recommend_N — uncompressed CoPhyAdvisor::Recommend on an
//     N-query trace: the linear-in-queries baseline.
//   * compressed_recommend_N — DesignSession::Recommend on the same
//     trace (compression on; work proportional to classes).
//   * compressed_recommend_<full> — the full trace (default 100k,
//     override with DBDESIGN_BENCH_TRACE) through the session.
//   * append_recommend — a same-template append on the full trace: a
//     pure weight bump whose Recommend reuses the optimality
//     certificate. Zero new backend cost calls.
//
// Writes BENCH_compress.json: the raw-vs-compressed wall-clock
// comparison CI tracks (speedup column = raw time / compressed time on
// the same trace; 1.0 where not applicable).

#include <algorithm>

#include "backend/inmemory_backend.h"
#include "bench_common.h"
#include "core/designer.h"
#include "core/session.h"
#include "util/str.h"
#include "workload/compress.h"

namespace dbdesign {
namespace {

using bench::DataPages;
using bench::Header;
using bench::JsonReporter;
using bench::MakeDb;

int FullTraceQueries() {
  if (const char* env = std::getenv("DBDESIGN_BENCH_TRACE")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 100000;
}

struct RunResult {
  double ms = 0.0;
  uint64_t populates = 0;
  uint64_t backend_calls = 0;
  size_t indexes = 0;
  double cost = 0.0;
};

void PrintRow(const char* op, int queries, size_t classes,
              const RunResult& r) {
  std::printf("%-26s %9d %9zu %11.1f %11llu %11llu %9zu\n", op, queries,
              classes, r.ms, static_cast<unsigned long long>(r.populates),
              static_cast<unsigned long long>(r.backend_calls), r.indexes);
}

void RunCompressionBench(JsonReporter& reporter) {
  Header("E9: raw vs compressed recommendation wall-clock",
         "template-heavy traces recommend in the time of their compressed "
         "form: cost calls scale with classes, not queries");

  Database db = MakeDb();
  double budget = 0.5 * DataPages(db);
  int full_n = FullTraceQueries();

  std::printf("\n%-26s %9s %9s %11s %11s %11s %9s\n", "op", "queries",
              "classes", "wall ms", "populates", "opt calls", "indexes");

  // --- Baseline: uncompressed advisor on growing slices. Raw solve
  // time grows superlinearly in queries (one INUM population per
  // distinct instantiation + a BIP row per query), so the slices scale
  // with the trace knob to keep CI smoke runs bounded.
  std::vector<int> raw_sizes = {std::max(50, full_n / 400),
                                std::max(200, full_n / 100)};
  std::vector<RunResult> raw_results;
  std::vector<RunResult> comp_results;
  for (int n : raw_sizes) {
    Workload trace = GenerateWorkload(db, TemplateMix::OfflineDefault(), n, 7);
    CompressionReport report;
    CompressWorkload(trace, &report);

    CoPhyOptions opts;
    opts.storage_budget_pages = budget;
    InMemoryBackend be(db);
    CoPhyAdvisor raw_advisor(be, opts);
    auto t0 = std::chrono::steady_clock::now();
    IndexRecommendation raw_rec = raw_advisor.TryRecommend(trace).value();
    RunResult raw;
    raw.ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
    raw.populates = raw_advisor.inum().stats().populate_optimizations;
    raw.backend_calls = be.num_optimizer_calls();
    raw.indexes = raw_rec.indexes.size();
    raw.cost = raw_rec.recommended_cost;
    raw_results.push_back(raw);
    PrintRow("raw_recommend", n, report.original_queries, raw);

    InMemoryBackend backend(db);
    Designer designer(backend);
    DesignSession session(designer);
    DesignConstraints constraints;
    constraints.storage_budget_pages = budget;
    session.SetWorkload(trace);
    session.SetConstraints(constraints);
    t0 = std::chrono::steady_clock::now();
    auto comp_rec = session.Recommend();
    RunResult comp;
    comp.ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    comp.populates = session.inum_populate_count();
    comp.backend_calls = session.backend_optimizer_calls();
    if (comp_rec.ok()) {
      comp.indexes = comp_rec.value().indexes.size();
      comp.cost = comp_rec.value().recommended_cost;
    }
    comp_results.push_back(comp);
    PrintRow("compressed_recommend", n, report.compressed_queries, comp);
    std::printf("  -> compresses %.0fx; %.1fx faster on the same trace\n",
                report.factor(), raw.ms / std::max(0.001, comp.ms));
  }

  // --- The full trace, compression on (raw would take minutes) ---
  Workload full =
      GenerateWorkload(db, TemplateMix::OfflineDefault(), full_n, 7);
  InMemoryBackend backend(db);
  Designer designer(backend);
  DesignSession session(designer);
  DesignConstraints constraints;
  constraints.storage_budget_pages = budget;
  session.SetWorkload(full);
  session.SetConstraints(constraints);
  auto t0 = std::chrono::steady_clock::now();
  auto full_rec = session.Recommend();
  RunResult full_run;
  full_run.ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  full_run.populates = session.inum_populate_count();
  full_run.backend_calls = session.backend_optimizer_calls();
  if (full_rec.ok()) {
    full_run.indexes = full_rec.value().indexes.size();
    full_run.cost = full_rec.value().recommended_cost;
  }
  PrintRow("compressed_recommend", full_n, session.num_template_classes(),
           full_run);

  // Extrapolated raw cost of the full trace from the measured
  // per-query slope (raw is linear in populations).
  double raw_per_query =
      raw_results.back().ms / static_cast<double>(raw_sizes.back());
  std::printf("  -> raw at this size would extrapolate to ~%.0f ms "
              "(measured %.1f ms/query); compression answers in %.1f ms\n",
              raw_per_query * full_n, raw_per_query, full_run.ms);

  // --- Same-template append on the full trace: pure weight bump ---
  uint64_t calls0 = session.backend_optimizer_calls();
  uint64_t pops0 = session.inum_populate_count();
  t0 = std::chrono::steady_clock::now();
  session.AddQueries({full.queries[0]});
  auto bump_rec = session.Recommend();
  RunResult bump;
  bump.ms = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
  bump.populates = session.inum_populate_count() - pops0;
  bump.backend_calls = session.backend_optimizer_calls() - calls0;
  if (bump_rec.ok()) {
    bump.indexes = bump_rec.value().indexes.size();
    bump.cost = bump_rec.value().recommended_cost;
  }
  PrintRow("append_recommend", full_n + 1, session.num_template_classes(),
           bump);
  std::printf("  -> same-template append: %llu new backend cost calls %s\n",
              static_cast<unsigned long long>(bump.backend_calls),
              bump.backend_calls == 0 ? "[zero-call, certificate reuse]"
                                      : "[expected zero!]");

  for (size_t i = 0; i < raw_sizes.size(); ++i) {
    reporter.Report(StrFormat("raw_recommend_%d", raw_sizes[i]),
                    raw_results[i].ms, 1.0, raw_results[i].backend_calls,
                    raw_results[i].populates);
    reporter.Report(StrFormat("compressed_recommend_%d", raw_sizes[i]),
                    comp_results[i].ms,
                    raw_results[i].ms / std::max(0.001, comp_results[i].ms),
                    comp_results[i].backend_calls, comp_results[i].populates);
  }
  reporter.Report(StrFormat("compressed_recommend_%d", full_n), full_run.ms,
                  1.0, full_run.backend_calls, full_run.populates);
  reporter.Report("append_recommend", bump.ms,
                  full_run.ms / std::max(0.001, bump.ms), bump.backend_calls,
                  bump.populates);
}

void BM_TemplateSignature(benchmark::State& state) {
  Database db = MakeDb();
  Workload w = GenerateWorkload(db, TemplateMix::OfflineDefault(), 64, 7);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TemplateSignature(w.queries[i % w.size()]));
    ++i;
  }
}
BENCHMARK(BM_TemplateSignature);

void BM_CompressWorkload(benchmark::State& state) {
  Database db = MakeDb();
  Workload w = GenerateWorkload(db, TemplateMix::OfflineDefault(),
                                static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    Workload c = CompressWorkload(w);
    benchmark::DoNotOptimize(c.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompressWorkload)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbdesign

int main(int argc, char** argv) {
  dbdesign::bench::JsonReporter reporter("compress");
  dbdesign::RunCompressionBench(reporter);
  reporter.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
