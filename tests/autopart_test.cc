// AutoPart tests: atomic fragments, greedy merging, replication budget,
// horizontal partitioning, and query rewriting.

#include <gtest/gtest.h>

#include <set>

#include "autopart/autopart.h"
#include "backend/inmemory_backend.h"
#include "sql/binder.h"
#include "util/str.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class AutoPartTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SdssConfig cfg;
    cfg.photoobj_rows = 6000;
    cfg.seed = 19;
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

  static Database* db_;
  static InMemoryBackend* backend_;
};

Database* AutoPartTest::db_ = nullptr;
InMemoryBackend* AutoPartTest::backend_ = nullptr;

TEST_F(AutoPartTest, NarrowWorkloadGetsVerticalPartitions) {
  // Queries touch only 4 of photoobj's 25 columns: vertical
  // partitioning must pay off massively.
  Workload w;
  w.Add(Q("SELECT objid, ra FROM photoobj WHERE ra BETWEEN 10 AND 40"));
  w.Add(Q("SELECT objid, dec FROM photoobj WHERE dec BETWEEN 0 AND 12"));
  w.Add(Q("SELECT objid FROM photoobj WHERE ra > 300"));

  AutoPartAdvisor advisor(*backend_);
  PartitionRecommendation rec = advisor.Recommend(w).value();

  TableId photo = db_->catalog().FindTable(kPhotoObj);
  const VerticalPartitioning* vp = rec.design.vertical(photo);
  ASSERT_NE(vp, nullptr) << "photoobj should be vertically partitioned";
  EXPECT_GT(vp->fragments.size(), 1u);
  EXPECT_TRUE(vp->CoversTable(db_->catalog().table(photo)));
  EXPECT_LT(rec.final_cost, rec.base_cost * 0.6)
      << "narrow workload should gain >40% from vertical partitioning";
  EXPECT_EQ(rec.per_query_cost.size(), w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(rec.per_query_cost[i], rec.per_query_base_cost[i] + 1e-6);
  }
}

TEST_F(AutoPartTest, ReplicationStaysWithinBudget) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 12, 21);
  AutoPartOptions opts;
  opts.replication_budget_factor = 1.15;
  AutoPartAdvisor advisor(*backend_, opts);
  PartitionRecommendation rec = advisor.Recommend(w).value();
  for (const auto& report : rec.tables) {
    EXPECT_LE(report.replication_factor,
              opts.replication_budget_factor + 1e-9);
  }
}

TEST_F(AutoPartTest, FullWidthWorkloadLeavesTableAlone) {
  // SELECT * touches every column: no useful vertical split exists.
  Workload w;
  w.Add(Q("SELECT * FROM plate WHERE quality >= 2"));
  AutoPartAdvisor advisor(*backend_);
  PartitionRecommendation rec = advisor.Recommend(w).value();
  TableId plate = db_->catalog().FindTable(kPlate);
  const VerticalPartitioning* vp = rec.design.vertical(plate);
  EXPECT_TRUE(vp == nullptr || vp->fragments.size() <= 1u);
}

TEST_F(AutoPartTest, HorizontalPartitioningOnRangeColumn) {
  // Heavy mjd range traffic should trigger horizontal partitioning.
  Workload w;
  for (int i = 0; i < 5; ++i) {
    int64_t lo = 51010 + i * 60;
    w.Add(Q(StrFormat("SELECT objid, mjd FROM photoobj WHERE mjd BETWEEN "
                      "%lld AND %lld",
                      static_cast<long long>(lo),
                      static_cast<long long>(lo + 25))));
  }
  AutoPartAdvisor advisor(*backend_);
  PartitionRecommendation rec = advisor.Recommend(w).value();
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  const HorizontalPartitioning* hp = rec.design.horizontal(photo);
  ASSERT_NE(hp, nullptr);
  EXPECT_EQ(hp->column, db_->catalog().table(photo).FindColumn("mjd"));
  EXPECT_GE(hp->num_partitions(), 3);
  // Bounds strictly increasing.
  for (size_t i = 1; i < hp->bounds.size(); ++i) {
    EXPECT_TRUE(hp->bounds[i - 1] < hp->bounds[i]);
  }
  EXPECT_LT(rec.final_cost, rec.base_cost);
}

TEST_F(AutoPartTest, RewriteMapsColumnsToFragments) {
  Workload w;
  w.Add(Q("SELECT objid, ra FROM photoobj WHERE ra BETWEEN 10 AND 40"));
  AutoPartAdvisor advisor(*backend_);
  PartitionRecommendation rec = advisor.Recommend(w).value();
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  ASSERT_NE(rec.design.vertical(photo), nullptr);

  std::string sql = advisor.RewriteQuery(w.queries[0], rec.design);
  // The rewritten query reads fragment tables, not the base table.
  EXPECT_NE(sql.find("photoobj__f"), std::string::npos) << sql;
  EXPECT_NE(sql.find("SELECT"), std::string::npos);
  EXPECT_NE(sql.find("BETWEEN 10 AND 40"), std::string::npos);
}

TEST_F(AutoPartTest, RewriteWithoutPartitionsIsPlainSql) {
  Workload w;
  w.Add(Q("SELECT plateid FROM plate WHERE quality >= 3"));
  AutoPartAdvisor advisor(*backend_);
  std::string sql = advisor.RewriteQuery(w.queries[0], PhysicalDesign{});
  EXPECT_EQ(sql.find("__f"), std::string::npos) << sql;
  EXPECT_NE(sql.find("FROM plate"), std::string::npos);
}

TEST_F(AutoPartTest, MixedWorkloadImproves) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 15, 27);
  AutoPartAdvisor advisor(*backend_);
  PartitionRecommendation rec = advisor.Recommend(w).value();
  // The SDSS mix references a minority of photoobj's columns, so some
  // improvement is expected even on the mixed workload.
  EXPECT_GT(rec.improvement(), 0.05);
  EXPECT_LE(rec.final_cost, rec.base_cost + 1e-6);
}

}  // namespace
}  // namespace dbdesign
