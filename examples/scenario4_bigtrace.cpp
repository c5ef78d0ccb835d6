// Demonstration scenario #4: production-scale traces through the
// template-class compression layer.
//
// The paper's designer must stay interactive on real traces, and real
// traces are huge but repetitive: an SDSS-style workload is a handful
// of query templates instantiated tens of thousands of times with
// different constants. DesignSession compresses the workload into
// template classes up front, so the whole costing pipeline — INUM
// populate, CoPhy atoms, weights — runs per class. A 100k-query trace
// recommends in roughly the time of its ~10-class compressed form, and
// appending another instance of a known template is a pure weight bump:
// the next Recommend() reuses the optimality certificate with zero new
// backend cost calls.
//
//   $ ./build/scenario4_bigtrace
//   $ DBDESIGN_TRACE_QUERIES=5000 ./build/scenario4_bigtrace   # smaller run

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "backend/inmemory_backend.h"
#include "core/designer.h"
#include "core/session.h"
#include "workload/queries.h"
#include "workload/sdss.h"

using namespace dbdesign;

namespace {

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int TraceQueries() {
  if (const char* env = std::getenv("DBDESIGN_TRACE_QUERIES")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 100000;
}

}  // namespace

int main() {
  SdssConfig config;
  config.photoobj_rows = 20000;
  std::printf("scenario 4 — big-trace tuning (template compression)\n\n");
  Database db = BuildSdssDatabase(config);
  InMemoryBackend backend(db);
  Designer designer(backend);
  DesignSession session(designer);

  // --- Step 1: load a production-scale trace ---
  int n = TraceQueries();
  auto t0 = std::chrono::steady_clock::now();
  Workload trace = GenerateWorkload(db, TemplateMix::OfflineDefault(), n, 7);
  double gen_ms = MillisSince(t0);
  t0 = std::chrono::steady_clock::now();
  session.SetWorkload(trace);
  double set_ms = MillisSince(t0);
  std::printf("Step 1 — %d-query SDSS trace (generated in %.0f ms)\n", n,
              gen_ms);
  std::printf("  compressed to %zu template classes in %.1f ms:\n",
              session.num_template_classes(), set_ms);
  for (const TemplateClass& cls : session.template_classes()) {
    std::printf("    %016llx  weight %8.0f  %s\n",
                static_cast<unsigned long long>(cls.signature), cls.weight,
                cls.representative.ToSql(db.catalog()).c_str());
  }

  // --- Step 2: recommend over the compressed form ---
  double data_pages = 0.0;
  for (TableId t = 0; t < db.catalog().num_tables(); ++t) {
    data_pages += db.stats(t).HeapPages(db.catalog().table(t));
  }
  DesignConstraints constraints;
  constraints.storage_budget_pages = 0.5 * data_pages;
  session.SetConstraints(constraints);

  uint64_t calls0 = session.backend_optimizer_calls();
  uint64_t pops0 = session.inum_populate_count();
  t0 = std::chrono::steady_clock::now();
  auto rec = session.Recommend();
  double rec_ms = MillisSince(t0);
  if (!rec.ok()) {
    std::printf("error: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  std::printf("\nStep 2 — Recommend() on all %d queries: %.1f ms\n", n,
              rec_ms);
  std::printf("  %zu indexes, cost %.1f -> %.1f (%.1f%% better)\n",
              rec.value().indexes.size(), rec.value().base_cost,
              rec.value().recommended_cost,
              rec.value().improvement() * 100.0);
  std::printf("  %llu INUM populations, %llu backend optimizer calls — "
              "proportional to %zu classes, not %d queries\n",
              static_cast<unsigned long long>(session.inum_populate_count() -
                                              pops0),
              static_cast<unsigned long long>(
                  session.backend_optimizer_calls() - calls0),
              session.num_template_classes(), n);

  // --- Step 3: the trace grows — same template, new constants ---
  std::printf("\nStep 3 — 1000 more instances of a known template arrive\n");
  std::vector<BoundQuery> more(1000, trace.queries[0]);
  calls0 = session.backend_optimizer_calls();
  pops0 = session.inum_populate_count();
  t0 = std::chrono::steady_clock::now();
  session.AddQueries(more);
  auto rec2 = session.Recommend();
  double bump_ms = MillisSince(t0);
  if (!rec2.ok()) {
    std::printf("error: %s\n", rec2.status().ToString().c_str());
    return 1;
  }
  std::printf("  AddQueries + Recommend: %.2f ms (%.0fx faster than the "
              "initial solve), %llu new backend cost calls, %llu new "
              "populations\n",
              bump_ms, rec_ms / (bump_ms > 0.001 ? bump_ms : 0.001),
              static_cast<unsigned long long>(
                  session.backend_optimizer_calls() - calls0),
              static_cast<unsigned long long>(session.inum_populate_count() -
                                              pops0));
  std::printf("  a same-template append is a pure weight bump: the "
              "optimality certificate survives, so the answer is instant\n");
  return 0;
}
