// End-to-end integration tests: the full designer pipeline against real
// execution. These are the repo's strongest guarantees — advisor claims
// are checked against materialized indexes and executed queries, not
// just against the cost model.

#include <gtest/gtest.h>

#include <cmath>

#include "backend/inmemory_backend.h"
#include "core/designer.h"
#include "core/report.h"
#include "exec/executor.h"
#include "sql/binder.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SdssConfig cfg;
    cfg.photoobj_rows = 4000;
    cfg.seed = 97;
    db_ = std::make_unique<Database>(BuildSdssDatabase(cfg));
    backend_ = std::make_unique<InMemoryBackend>(*db_);
    workload_ = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 3);
  }

  double DataPages() const {
    double pages = 0.0;
    for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
      pages += db_->stats(t).HeapPages(db_->catalog().table(t));
    }
    return pages;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<InMemoryBackend> backend_;
  Workload workload_;
};

TEST_F(IntegrationTest, OfflinePipelineMaterializesAndExecutes) {
  Designer designer(*backend_);
  OfflineRecommendation rec =
      designer.TryRecommendOffline(workload_, DataPages()).value();
  ASSERT_FALSE(rec.indexes.indexes.empty());

  // Materialize every recommended index in schedule order.
  for (const ScheduleStep& step : rec.schedule.steps) {
    ASSERT_TRUE(db_->CreateIndex(step.index).ok())
        << step.index.Key();
  }

  // Every workload query must now execute correctly under the
  // materialized design, and its plan must use at least the design.
  WhatIfOptimizer whatif(*backend_);
  Executor exec(*db_);
  int index_plans = 0;
  for (const BoundQuery& q : workload_.queries) {
    PlanResult plan = whatif.TryPlanUnder(q, db_->CurrentDesign()).value();
    ASSERT_NE(plan.root, nullptr);
    auto rows = exec.Execute(q, *plan.root);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    if (q.limit < 0) {
      EXPECT_EQ(CanonicalizeResult(rows.value()),
                CanonicalizeResult(exec.ExecuteNaive(q)))
          << q.ToSql(db_->catalog());
    }
    std::function<bool(const PlanNode&)> uses_index =
        [&](const PlanNode& n) {
          if (n.index.has_value()) return true;
          for (const auto& c : n.children) {
            if (uses_index(*c)) return true;
          }
          return false;
        };
    index_plans += uses_index(*plan.root);
  }
  // A recommendation this strong must actually change most plans.
  EXPECT_GE(index_plans, static_cast<int>(workload_.size()) / 2);
}

TEST_F(IntegrationTest, AdvisorCostClaimsMatchExactOptimizer) {
  // CoPhy's recommended_cost is produced via INUM atoms; the exact
  // optimizer must agree under the materialized design.
  CoPhyOptions opts;
  opts.storage_budget_pages = DataPages();
  CoPhyAdvisor advisor(*backend_, opts);
  IndexRecommendation rec = advisor.TryRecommend(workload_).value();

  PhysicalDesign design;
  for (const IndexDef& idx : rec.indexes) design.AddIndex(idx);
  WhatIfOptimizer exact(*backend_);
  double exact_cost =
      workload_.WeightedTotal(exact.TryCostWorkload(workload_, design).value());
  EXPECT_NEAR(exact_cost / rec.recommended_cost, 1.0, 0.05)
      << "advisor claim " << rec.recommended_cost << " vs optimizer "
      << exact_cost;
}

TEST_F(IntegrationTest, ScheduleMarginalsSumToTotalBenefit) {
  Designer designer(*backend_);
  OfflineRecommendation rec =
      designer.TryRecommendOffline(workload_, DataPages()).value();
  double sum = 0.0;
  for (const ScheduleStep& s : rec.schedule.steps) {
    sum += s.marginal_benefit;
    EXPECT_GE(s.marginal_benefit, -1e-6)
        << "adding an index must never hurt";
  }
  EXPECT_NEAR(sum, rec.schedule.base_cost - rec.schedule.final_cost, 1e-6);
}

TEST_F(IntegrationTest, ColtConvergesToOfflineRecommendationQuality) {
  // Feed a stationary workload long enough and COLT's configuration
  // should capture a large share of what offline tuning achieves with
  // single-column candidates.
  ColtOptions copts;
  copts.epoch_length = 20;
  ColtTuner tuner(*backend_, copts);
  Rng rng(7);
  std::vector<BoundQuery> stream;
  for (int i = 0; i < 200; ++i) {
    BoundQuery q = GenerateSdssQuery(*db_, SdssTemplate::kConeSearch, rng);
    q.id = i;
    stream.push_back(q);
  }
  for (const BoundQuery& q : stream) tuner.OnQuery(q);

  // Offline: best single-column design for the same stream.
  Workload w;
  for (const BoundQuery& q : stream) w.Add(q);
  CandidateOptions single;
  single.max_key_columns = 1;
  single.covering_candidates = false;
  GreedyOptions gopts;
  gopts.candidates = single;
  GreedyAdvisor greedy(*backend_, gopts);
  GreedyResult offline = greedy.TryRecommend(w).value();

  InumCostModel oracle(*backend_);
  double colt_cost = oracle.WorkloadCost(w, tuner.current_design());
  PhysicalDesign offline_design;
  for (const IndexDef& i : offline.indexes) offline_design.AddIndex(i);
  double offline_cost = oracle.WorkloadCost(w, offline_design);
  double base = oracle.WorkloadCost(w, PhysicalDesign{});

  double colt_share = (base - colt_cost) / std::max(1.0, base - offline_cost);
  EXPECT_GE(colt_share, 0.6)
      << "COLT captured only " << colt_share * 100
      << "% of the offline single-column benefit";
}

TEST_F(IntegrationTest, WhatIfSessionNeverMutatesDatabase) {
  Designer designer(*backend_);
  size_t indexes_before = db_->MaterializedIndexes().size();
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  const TableDef& def = db_->catalog().table(photo);

  designer.whatif().CreateHypotheticalIndex(
      IndexDef{photo, {def.FindColumn("ra")}, false});
  ASSERT_TRUE(designer
                  .TryEvaluateDesigns(workload_,
                                      {designer.whatif().hypothetical_design()})
                  .ok());
  ASSERT_TRUE(designer.TryRecommendOffline(workload_, DataPages()).ok());
  ASSERT_TRUE(designer
                  .AnalyzeInteractions(
                      workload_,
                      designer.whatif().hypothetical_design().indexes())
                  .ok());

  EXPECT_EQ(db_->MaterializedIndexes().size(), indexes_before)
      << "advisors must be read-only on the database";
  TableId spec = db_->catalog().FindTable(kSpecObj);
  EXPECT_EQ(db_->data(spec).NumRows(), 800u);
}

TEST_F(IntegrationTest, PartitionRecommendationConsistentWithWhatIf) {
  AutoPartAdvisor autopart(*backend_);
  PartitionRecommendation rec = autopart.Recommend(workload_).value();
  // Re-evaluate the recommended partitioning through the independent
  // what-if path; improvements must agree.
  WhatIfOptimizer whatif(*backend_);
  double base = workload_.WeightedTotal(
      whatif.TryCostWorkload(workload_, PhysicalDesign{}).value());
  double with_parts = workload_.WeightedTotal(
      whatif.TryCostWorkload(workload_, rec.design).value());
  EXPECT_NEAR(with_parts / rec.final_cost, 1.0, 0.05);
  EXPECT_NEAR(base / rec.base_cost, 1.0, 0.05);
}

TEST_F(IntegrationTest, ReportsRenderForFullPipeline) {
  Designer designer(*backend_);
  OfflineRecommendation rec =
      designer.TryRecommendOffline(workload_, DataPages()).value();
  std::string text =
      RenderOfflineRecommendation(db_->catalog(), *backend_, workload_, rec);
  // Every section must be present.
  for (const char* needle :
       {"Suggested indexes", "Suggested partitions",
        "Materialization schedule", "combined design cost"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  BenefitReport report =
      designer.TryEvaluateDesigns(workload_, {rec.combined}).value().front();
  std::string panel = RenderBenefitPanel(db_->catalog(), workload_, report);
  EXPECT_NE(panel.find("average workload benefit"), std::string::npos);
}

}  // namespace
}  // namespace dbdesign
