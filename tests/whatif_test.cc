// What-if component tests (paper §3.1): hypothetical indexes and
// partitions change estimated costs without touching the database;
// join knobs steer plans.

#include <gtest/gtest.h>

#include "backend/inmemory_backend.h"
#include "sql/binder.h"
#include "whatif/whatif.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class WhatIfTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SdssConfig cfg;
    cfg.photoobj_rows = 6000;
    cfg.seed = 3;
    db_ = new Database(BuildSdssDatabase(cfg));
    backend_ = new InMemoryBackend(*db_);
  }
  static void TearDownTestSuite() {
    delete backend_;
    backend_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static BoundQuery Q(const std::string& sql) {
    auto q = ParseAndBind(db_->catalog(), sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.value();
  }

  static IndexDef Idx(const char* table, std::vector<const char*> cols) {
    TableId t = db_->catalog().FindTable(table);
    IndexDef idx;
    idx.table = t;
    for (const char* c : cols) {
      idx.columns.push_back(db_->catalog().table(t).FindColumn(c));
    }
    return idx;
  }

  static Database* db_;
  static InMemoryBackend* backend_;
};

Database* WhatIfTest::db_ = nullptr;
InMemoryBackend* WhatIfTest::backend_ = nullptr;

TEST_F(WhatIfTest, HypotheticalIndexReducesCostWithoutBuilding) {
  WhatIfOptimizer whatif(*backend_);
  BoundQuery q = Q("SELECT objid FROM photoobj WHERE ra BETWEEN 20 AND 20.4");
  double before = whatif.TryCost(q).value();
  ASSERT_TRUE(whatif.CreateHypotheticalIndex(Idx("photoobj", {"ra"})).ok());
  double after = whatif.TryCost(q).value();
  EXPECT_LT(after, before * 0.5);
  // Nothing was materialized.
  EXPECT_TRUE(db_->MaterializedIndexes().empty());
}

TEST_F(WhatIfTest, DuplicateHypotheticalIndexRejected) {
  WhatIfOptimizer whatif(*backend_);
  ASSERT_TRUE(whatif.CreateHypotheticalIndex(Idx("photoobj", {"dec"})).ok());
  Status dup = whatif.CreateHypotheticalIndex(Idx("photoobj", {"dec"}));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST_F(WhatIfTest, InvalidIndexRejected) {
  WhatIfOptimizer whatif(*backend_);
  IndexDef bad;
  bad.table = 999;
  bad.columns = {0};
  EXPECT_EQ(whatif.CreateHypotheticalIndex(bad).code(),
            StatusCode::kInvalidArgument);
  IndexDef empty_cols;
  empty_cols.table = 0;
  EXPECT_EQ(whatif.CreateHypotheticalIndex(empty_cols).code(),
            StatusCode::kInvalidArgument);
  IndexDef bad_col;
  bad_col.table = 0;
  bad_col.columns = {999};
  EXPECT_EQ(whatif.CreateHypotheticalIndex(bad_col).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WhatIfTest, DropAndResetRestoreBaseline) {
  WhatIfOptimizer whatif(*backend_);
  BoundQuery q = Q("SELECT objid FROM photoobj WHERE ra BETWEEN 20 AND 20.4");
  double base = whatif.TryCost(q).value();
  IndexDef idx = Idx("photoobj", {"ra"});
  ASSERT_TRUE(whatif.CreateHypotheticalIndex(idx).ok());
  ASSERT_TRUE(whatif.DropHypotheticalIndex(idx).ok());
  EXPECT_DOUBLE_EQ(whatif.TryCost(q).value(), base);
  ASSERT_TRUE(whatif.CreateHypotheticalIndex(idx).ok());
  whatif.ResetHypothetical();
  EXPECT_DOUBLE_EQ(whatif.TryCost(q).value(), base);
  EXPECT_EQ(whatif.DropHypotheticalIndex(idx).code(), StatusCode::kNotFound);
}

TEST_F(WhatIfTest, HypotheticalIndexSizeIsHonest) {
  // The paper criticizes tools that assume zero-size what-if indexes.
  WhatIfOptimizer whatif(*backend_);
  IndexSizeEstimate sz = whatif.HypotheticalIndexSize(Idx("photoobj", {"ra"}));
  EXPECT_GT(sz.total_pages(), 5.0);  // 6000 rows cannot fit in 5 pages
  IndexSizeEstimate sz3 = whatif.HypotheticalIndexSize(
      Idx("photoobj", {"ra", "dec", "psfmag_r"}));
  EXPECT_GT(sz3.total_pages(), sz.total_pages());
}

TEST_F(WhatIfTest, HypotheticalVerticalPartitioning) {
  WhatIfOptimizer whatif(*backend_);
  BoundQuery q = Q("SELECT objid, ra FROM photoobj WHERE ra > 350");
  double wide = whatif.TryCost(q).value();

  TableId photo = db_->catalog().FindTable(kPhotoObj);
  const TableDef& def = db_->catalog().table(photo);
  VerticalFragment narrow;
  narrow.columns = {def.FindColumn("objid"), def.FindColumn("ra")};
  std::sort(narrow.columns.begin(), narrow.columns.end());
  VerticalFragment rest;
  for (ColumnId c = 0; c < def.num_columns(); ++c) {
    if (!narrow.Covers(c)) rest.columns.push_back(c);
  }
  VerticalPartitioning vp;
  vp.table = photo;
  vp.fragments = {narrow, rest};
  whatif.SetHypotheticalVerticalPartitioning(vp);
  EXPECT_LT(whatif.TryCost(q).value(), wide * 0.5);

  whatif.ClearHypotheticalVerticalPartitioning(photo);
  EXPECT_DOUBLE_EQ(whatif.TryCost(q).value(), wide);
}

TEST_F(WhatIfTest, HypotheticalHorizontalPartitioning) {
  WhatIfOptimizer whatif(*backend_);
  BoundQuery q =
      Q("SELECT objid FROM photoobj WHERE mjd BETWEEN 51050 AND 51080");
  double base = whatif.TryCost(q).value();
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  HorizontalPartitioning hp;
  hp.table = photo;
  hp.column = db_->catalog().table(photo).FindColumn("mjd");
  for (int b = 1; b < 12; ++b) {
    hp.bounds.push_back(Value(int64_t{51000} + b * 40));
  }
  whatif.SetHypotheticalHorizontalPartitioning(hp);
  EXPECT_LT(whatif.TryCost(q).value(), base);
  whatif.ClearHypotheticalHorizontalPartitioning(photo);
  EXPECT_DOUBLE_EQ(whatif.TryCost(q).value(), base);
}

TEST_F(WhatIfTest, JoinKnobsSteerPlans) {
  WhatIfOptimizer whatif(*backend_);
  BoundQuery q = Q(
      "SELECT p.objid FROM photoobj p JOIN specobj s "
      "ON p.objid = s.bestobjid");
  PlanResult base = whatif.TryPlan(q).value();
  ASSERT_NE(base.root, nullptr);

  // Disabling the method the optimizer picked must change the plan (or
  // at least not reduce cost).
  whatif.knobs().enable_hashjoin = false;
  whatif.knobs().enable_mergejoin = false;
  PlanResult restricted = whatif.TryPlan(q).value();
  ASSERT_NE(restricted.root, nullptr);
  EXPECT_GE(restricted.cost, base.cost * 0.9999);
}

TEST_F(WhatIfTest, WorkloadCostAggregatesWeights) {
  WhatIfOptimizer whatif(*backend_);
  Workload w;
  w.Add(Q("SELECT objid FROM photoobj WHERE ra < 5"), 2.0);
  w.Add(Q("SELECT objid FROM photoobj WHERE dec > 80"), 3.0);
  double c0 = whatif.TryCostUnder(w.queries[0], PhysicalDesign{}).value();
  double c1 = whatif.TryCostUnder(w.queries[1], PhysicalDesign{}).value();
  std::vector<double> costs =
      whatif.TryCostWorkload(w, PhysicalDesign{}).value();
  EXPECT_NEAR(w.WeightedTotal(costs), 2.0 * c0 + 3.0 * c1, 1e-6);
}

TEST_F(WhatIfTest, OptimizerCallCounterAdvances) {
  WhatIfOptimizer whatif(*backend_);
  whatif.ResetCallCount();
  BoundQuery q = Q("SELECT objid FROM photoobj WHERE ra < 5");
  whatif.TryCost(q).value();
  whatif.TryCost(q).value();
  EXPECT_EQ(whatif.num_optimizer_calls(), 2u);
}

}  // namespace
}  // namespace dbdesign
