// Demonstration scenario #2 (paper §4): automatic index + partition
// recommendation with a materialization schedule.
//
// "The user provides the query workload, the original physical schema
//  and size constraints. Then, the tool recommends a set of indexes and
//  partitions which maximize the performance. ... In the case of
//  indexes, a materialization schedule becomes available."
//
//   $ ./build/examples/scenario2_autotune

#include <cstdio>

#include "autopart/autopart.h"
#include "backend/inmemory_backend.h"
#include "core/designer.h"
#include "core/report.h"
#include "exec/executor.h"
#include "workload/queries.h"
#include "util/str.h"
#include "workload/sdss.h"

using namespace dbdesign;

int main() {
  SdssConfig config;
  config.photoobj_rows = 20000;
  Database db = BuildSdssDatabase(config);
  Workload workload =
      GenerateWorkload(db, TemplateMix::OfflineDefault(), 16, /*seed=*/1);

  double data_pages = 0.0;
  for (TableId t = 0; t < db.catalog().num_tables(); ++t) {
    data_pages += db.stats(t).HeapPages(db.catalog().table(t));
  }
  std::printf("database: %.0f heap pages (%s); storage budget: 1x data\n",
              data_pages, FormatBytes(data_pages * kPageSizeBytes).c_str());

  InMemoryBackend backend(db);
  Designer designer(backend);
  OfflineRecommendation rec =
      designer.TryRecommendOffline(workload, data_pages).value();
  std::printf("\n%s\n",
              RenderOfflineRecommendation(db.catalog(), backend, workload, rec)
                  .c_str());

  // The user accepts: physically create the suggested indexes in
  // schedule order and execute a workload query at each step to show
  // real plans lighting up.
  std::printf("Materializing indexes in schedule order...\n");
  Executor exec(db);
  const BoundQuery& probe = workload.queries[0];
  for (size_t step = 0; step < rec.schedule.steps.size(); ++step) {
    const IndexDef& idx = rec.schedule.steps[step].index;
    Status s = db.CreateIndex(idx);
    std::printf("  built %-40s %s\n", idx.DisplayName(db.catalog()).c_str(),
                s.ok() ? "ok" : s.ToString().c_str());
  }
  // Re-plan a probe query against the now-materialized design and run it.
  WhatIfOptimizer whatif(backend);
  PlanResult plan = whatif.TryPlan(probe).value();
  auto rows = exec.Execute(probe, *plan.root);
  std::printf("\nprobe query: %s\n", probe.ToSql(db.catalog()).c_str());
  std::printf("%s\n", plan.root->ToString(db.catalog(), probe).c_str());
  if (rows.ok()) {
    std::printf("=> %zu rows (verified against naive evaluation: %s)\n",
                rows.value().size(),
                CanonicalizeResult(rows.value()) ==
                        CanonicalizeResult(exec.ExecuteNaive(probe))
                    ? "match"
                    : "MISMATCH");
  }

  // Rewritten queries for the suggested partitions.
  if (rec.combined.HasPartitions()) {
    std::printf("\nRewritten queries for the suggested partitions:\n");
    AutoPartAdvisor autopart(backend);
    for (size_t i = 0; i < 3 && i < workload.size(); ++i) {
      std::printf("  q%zu: %s\n", i,
                  autopart.RewriteQuery(workload.queries[i], rec.combined)
                      .c_str());
    }
  }
  return 0;
}
