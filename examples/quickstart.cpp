// Quickstart: build a database, ask what-if questions, get an index
// recommendation.
//
//   $ ./build/examples/quickstart
//
// Walks through the library's core loop in ~80 lines:
//   1. generate the SDSS-like database,
//   2. parse + bind a SQL query,
//   3. EXPLAIN it, then EXPLAIN it again under a hypothetical index,
//   4. let CoPhy recommend indexes for a small workload.

#include <cstdio>

#include "backend/inmemory_backend.h"
#include "core/designer.h"
#include "core/report.h"
#include "sql/binder.h"
#include "workload/queries.h"
#include "util/str.h"
#include "workload/sdss.h"

using namespace dbdesign;

int main() {
  // 1. A 20k-row SDSS-like database with ANALYZE statistics.
  SdssConfig config;
  config.photoobj_rows = 20000;
  Database db = BuildSdssDatabase(config);
  std::printf("Loaded %d tables; photoobj has %zu rows\n",
              db.catalog().num_tables(),
              db.data(db.catalog().FindTable(kPhotoObj)).NumRows());

  // 2. Parse and bind a query.
  auto query = ParseAndBind(
      db.catalog(),
      "SELECT objid, ra, dec FROM photoobj "
      "WHERE ra BETWEEN 120 AND 121 AND dec BETWEEN -5 AND 5");
  if (!query.ok()) {
    std::printf("bind failed: %s\n", query.status().ToString().c_str());
    return 1;
  }

  // 3. What-if: cost before and after a hypothetical index. The
  // designer talks to the engine only through the DbmsBackend seam;
  // swap InMemoryBackend for your own implementation to port it.
  InMemoryBackend backend(db);
  WhatIfOptimizer whatif(backend);
  PlanResult before = whatif.TryPlan(query.value()).value();
  std::printf("\n--- plan without indexes (cost %.1f) ---\n%s\n",
              before.cost,
              before.root->ToString(db.catalog(), query.value()).c_str());

  TableId photo = db.catalog().FindTable(kPhotoObj);
  IndexDef ra_dec{photo,
                  {db.catalog().table(photo).FindColumn("ra"),
                   db.catalog().table(photo).FindColumn("dec")},
                  false};
  whatif.CreateHypotheticalIndex(ra_dec);
  PlanResult after = whatif.TryPlan(query.value()).value();
  std::printf("--- plan with hypothetical %s (cost %.1f, %.1fx faster) ---\n%s\n",
              ra_dec.DisplayName(db.catalog()).c_str(), after.cost,
              before.cost / after.cost,
              after.root->ToString(db.catalog(), query.value()).c_str());
  std::printf("hypothetical index size: %s (never assumed zero)\n",
              FormatBytes(whatif.HypotheticalIndexSize(ra_dec).total_pages() *
                          kPageSizeBytes)
                  .c_str());

  // 4. Automatic recommendation for a 12-query workload.
  Workload workload =
      GenerateWorkload(db, TemplateMix::OfflineDefault(), 12, /*seed=*/7);
  Designer designer(backend);
  double data_pages = 0.0;
  for (TableId t = 0; t < db.catalog().num_tables(); ++t) {
    data_pages += db.stats(t).HeapPages(db.catalog().table(t));
  }
  OfflineRecommendation rec =
      designer.TryRecommendOffline(workload, data_pages).value();
  std::printf("\n%s\n",
              RenderOfflineRecommendation(db.catalog(), backend, workload, rec)
                  .c_str());
  return 0;
}
