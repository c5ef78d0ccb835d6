// Scale and corner-shape stress tests: larger database, self-joins,
// bigger advisor instances, long COLT streams. These guard against
// super-linear blowups and shapes the focused suites do not reach.

#include <gtest/gtest.h>

#include "backend/inmemory_backend.h"
#include "colt/colt.h"
#include "cophy/cophy.h"
#include "exec/executor.h"
#include "sql/binder.h"
#include "workload/compress.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

TEST(StressTest, SelfJoinPlansAndExecutesCorrectly) {
  SdssConfig cfg;
  cfg.photoobj_rows = 800;
  cfg.seed = 3;
  Database db = BuildSdssDatabase(cfg);
  TableId photo = db.catalog().FindTable(kPhotoObj);
  ASSERT_TRUE(
      db.CreateIndex(
            IndexDef{photo, {db.catalog().table(photo).FindColumn("run")},
                     false})
          .ok());

  // Self-join: pairs of objects in the same run with different camcols.
  auto q = ParseAndBind(
      db.catalog(),
      "SELECT a.objid, b.objid FROM photoobj a JOIN photoobj b "
      "ON a.run = b.run WHERE a.camcol = 1 AND b.camcol = 2 "
      "AND a.field = 11 AND b.field = 11");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  Optimizer opt(db.catalog(), db.all_stats());
  for (const PhysicalDesign& design :
       {PhysicalDesign{}, db.CurrentDesign()}) {
    PlanResult r = opt.Optimize(q.value(), design);
    ASSERT_NE(r.root, nullptr);
    Executor exec(db);
    auto rows = exec.Execute(q.value(), *r.root);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(CanonicalizeResult(rows.value()),
              CanonicalizeResult(exec.ExecuteNaive(q.value())));
  }
}

TEST(StressTest, InumHandlesSelfJoins) {
  SdssConfig cfg;
  cfg.photoobj_rows = 1500;
  cfg.seed = 5;
  Database db = BuildSdssDatabase(cfg);
  auto q = ParseAndBind(
      db.catalog(),
      "SELECT a.objid FROM photoobj a JOIN photoobj b ON a.parentid = b.objid "
      "WHERE b.type = 3 AND a.nchild > 0");
  ASSERT_TRUE(q.ok());
  InMemoryBackend backend(db);
  InumCostModel inum(backend);
  WhatIfOptimizer exact(backend);
  TableId photo = db.catalog().FindTable(kPhotoObj);
  const TableDef& def = db.catalog().table(photo);
  for (const char* col : {"objid", "parentid", "type"}) {
    PhysicalDesign design;
    design.AddIndex(IndexDef{photo, {def.FindColumn(col)}, false});
    double fast = inum.Cost(q.value(), design);
    double full = exact.TryCostUnder(q.value(), design).value();
    EXPECT_GE(fast, full * 0.98) << col;
    EXPECT_LE(fast, full * 1.25) << col;
  }
}

TEST(StressTest, FiftyThousandRowPipeline) {
  SdssConfig cfg;
  cfg.photoobj_rows = 50000;
  cfg.seed = 7;
  Database db = BuildSdssDatabase(cfg);
  Workload w = GenerateWorkload(db, TemplateMix::OfflineDefault(), 30, 11);

  double pages = 0.0;
  for (TableId t = 0; t < db.catalog().num_tables(); ++t) {
    pages += db.stats(t).HeapPages(db.catalog().table(t));
  }
  CoPhyOptions opts;
  opts.storage_budget_pages = pages;
  InMemoryBackend backend(db);
  CoPhyAdvisor advisor(backend, opts);
  IndexRecommendation rec = advisor.TryRecommend(w).value();
  EXPECT_GT(rec.improvement(), 0.3);
  EXPECT_LE(rec.gap, 0.05);
}

TEST(StressTest, LongColtStreamStaysBounded) {
  SdssConfig cfg;
  cfg.photoobj_rows = 3000;
  cfg.seed = 13;
  Database db = BuildSdssDatabase(cfg);
  ColtOptions opts;
  opts.epoch_length = 25;
  opts.max_candidates = 16;
  InMemoryBackend backend(db);
  ColtTuner tuner(backend, opts);
  std::vector<BoundQuery> stream = GenerateDriftingStream(
      db,
      {TemplateMix::PhaseSelections(), TemplateMix::PhaseJoins(),
       TemplateMix::PhaseAggregates(), TemplateMix::PhaseSelections()},
      250, 17);
  for (const BoundQuery& q : stream) tuner.OnQuery(q);
  EXPECT_EQ(tuner.epochs().size(), 40u);
  // Candidate pool bounded as configured, budget respected per epoch.
  for (const ColtEpochReport& e : tuner.epochs()) {
    EXPECT_LE(e.whatif_calls, 24);
  }
  // Cumulative cost accounting is self-consistent.
  double sum_epochs = 0.0;
  for (const ColtEpochReport& e : tuner.epochs()) {
    sum_epochs += e.observed_cost;
  }
  EXPECT_GT(tuner.cumulative_query_cost(), 0.0);
  EXPECT_GE(tuner.cumulative_cost(),
            tuner.cumulative_query_cost());
}

TEST(StressTest, CompressionScalesToThousands) {
  SdssConfig cfg;
  cfg.photoobj_rows = 2000;
  cfg.seed = 19;
  Database db = BuildSdssDatabase(cfg);
  Workload big = GenerateWorkload(db, TemplateMix::Uniform(), 2000, 23);
  CompressionReport report;
  Workload small = CompressWorkload(big, &report);
  EXPECT_EQ(report.original_queries, 2000u);
  EXPECT_LE(report.compressed_queries, 64u);
  double total = 0.0;
  for (size_t i = 0; i < small.size(); ++i) total += small.WeightOf(i);
  EXPECT_DOUBLE_EQ(total, 2000.0);
}

TEST(StressTest, WidePredicateQueryPlansQuickly) {
  // A query filtering on many columns stresses candidate matching and
  // the access-path generator under a design with many indexes.
  SdssConfig cfg;
  cfg.photoobj_rows = 2000;
  cfg.seed = 29;
  Database db = BuildSdssDatabase(cfg);
  TableId photo = db.catalog().FindTable(kPhotoObj);
  const TableDef& def = db.catalog().table(photo);
  PhysicalDesign design;
  for (ColumnId c = 0; c < def.num_columns(); ++c) {
    design.AddIndex(IndexDef{photo, {c}, false});
  }
  auto q = ParseAndBind(
      db.catalog(),
      "SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 200 AND "
      "dec > -30 AND run = 94 AND camcol <= 4 AND type = 3 AND "
      "psfmag_r < 21 AND clean = 1 AND mode = 1 AND score > 0.1");
  ASSERT_TRUE(q.ok());
  Optimizer opt(db.catalog(), db.all_stats());
  PlanResult r = opt.Optimize(q.value(), design);
  ASSERT_NE(r.root, nullptr);
  EXPECT_TRUE(std::isfinite(r.cost));
  Executor exec(db);
  // Execute with whatever index the optimizer picked after building it.
  if (r.root->index.has_value()) {
    ASSERT_TRUE(db.CreateIndex(*r.root->index).ok());
  }
  auto rows = exec.Execute(q.value(), *r.root);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(CanonicalizeResult(rows.value()),
            CanonicalizeResult(exec.ExecuteNaive(q.value())));
}

}  // namespace
}  // namespace dbdesign
