// Designer facade tests: the three demo scenarios end to end, plus the
// report renderers.

#include <gtest/gtest.h>

#include "backend/inmemory_backend.h"
#include "core/designer.h"
#include "core/report.h"
#include "sql/binder.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class DesignerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SdssConfig cfg;
    cfg.photoobj_rows = 6000;
    cfg.seed = 29;
    db_ = new Database(BuildSdssDatabase(cfg));
    backend_ = new InMemoryBackend(*db_);
    workload_ = new Workload(
        GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 12, 83));
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete backend_;
    backend_ = nullptr;
    delete db_;
    db_ = nullptr;
    workload_ = nullptr;
  }

  static Database* db_;
  static InMemoryBackend* backend_;
  static Workload* workload_;
};

Database* DesignerTest::db_ = nullptr;
InMemoryBackend* DesignerTest::backend_ = nullptr;
Workload* DesignerTest::workload_ = nullptr;

TEST_F(DesignerTest, Scenario1InteractiveWhatIf) {
  Designer designer(*backend_);
  // The DBA proposes a design by hand.
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  const TableDef& def = db_->catalog().table(photo);
  PhysicalDesign manual;
  manual.AddIndex(
      IndexDef{photo, {def.FindColumn("ra"), def.FindColumn("dec")}, false});
  manual.AddIndex(IndexDef{photo, {def.FindColumn("objid")}, false});

  BenefitReport report =
      designer.TryEvaluateDesigns(*workload_, {manual}).value().front();
  ASSERT_EQ(report.base_costs.size(), workload_->size());
  EXPECT_GT(report.average_benefit(), 0.0);
  EXPECT_LE(report.new_total, report.base_total);

  // Interaction graph over the manual design.
  InteractionGraph graph =
      designer.AnalyzeInteractions(*workload_, manual.indexes()).value();
  EXPECT_EQ(graph.num_nodes(), 2);
  std::string panel = RenderBenefitPanel(db_->catalog(), *workload_, report);
  EXPECT_NE(panel.find("average workload benefit"), std::string::npos);
}

TEST_F(DesignerTest, Scenario2OfflineRecommendation) {
  Designer designer(*backend_);
  double data_pages = 0.0;
  for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
    data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
  }
  OfflineRecommendation rec =
      designer.TryRecommendOffline(*workload_, data_pages).value();

  EXPECT_FALSE(rec.indexes.indexes.empty());
  EXPECT_LT(rec.combined_cost, rec.base_cost);
  EXPECT_GT(rec.improvement(), 0.2);
  // Schedule covers exactly the recommended indexes.
  EXPECT_EQ(rec.schedule.steps.size(), rec.indexes.indexes.size());
  // Combined design includes partitions when AutoPart found any.
  if (rec.partitions.improvement() > 0.01) {
    EXPECT_TRUE(rec.combined.HasPartitions());
  }

  std::string text = RenderOfflineRecommendation(db_->catalog(), *backend_,
                                                 *workload_, rec);
  EXPECT_NE(text.find("CREATE INDEX"), std::string::npos);
  EXPECT_NE(text.find("Materialization schedule"), std::string::npos);
  EXPECT_NE(text.find("combined design cost"), std::string::npos);
}

TEST_F(DesignerTest, CombinedDesignBeatsIndexesAlone) {
  Designer designer(*backend_);
  double data_pages = 0.0;
  for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
    data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
  }
  OfflineRecommendation rec =
      designer.TryRecommendOffline(*workload_, data_pages).value();
  PhysicalDesign indexes_only;
  for (const IndexDef& idx : rec.indexes.indexes) indexes_only.AddIndex(idx);
  double idx_cost = designer.inum().WorkloadCost(*workload_, indexes_only);
  EXPECT_LE(rec.combined_cost, idx_cost * 1.02)
      << "adding partitions must not hurt";
}

TEST_F(DesignerTest, UserSeededCandidatesEnterTheSearch) {
  Designer designer(*backend_);
  // Seed with a deliberately odd covering index the miner skips.
  TableId spec = db_->catalog().FindTable(kSpecObj);
  const TableDef& def = db_->catalog().table(spec);
  CandidateIndex seed;
  seed.index = IndexDef{
      spec,
      {def.FindColumn("sn_median"), def.FindColumn("class"),
       def.FindColumn("z")},
      false};
  seed.size_pages = EstimateIndexSize(seed.index, def, db_->stats(spec))
                        .total_pages();
  seed.relevant_queries = 1;

  IndexRecommendation rec =
      designer.RecommendIndexes(*workload_, {seed}).value();
  EXPECT_LE(rec.recommended_cost, rec.base_cost);
  // The recommendation machinery must at least have considered it.
  EXPECT_GT(rec.num_candidates, 0u);
}

TEST_F(DesignerTest, Scenario3ContinuousTuning) {
  Designer designer(*backend_);
  auto tuner = designer.StartContinuousTuning();
  std::vector<BoundQuery> stream = GenerateDriftingStream(
      *db_, {TemplateMix::PhaseSelections()}, 75, 61);
  for (const BoundQuery& q : stream) tuner->OnQuery(q);
  EXPECT_GE(tuner->epochs().size(), 2u);
  EXPECT_FALSE(tuner->events().empty());
}

TEST_F(DesignerTest, WhatIfKnobsReachableThroughFacade) {
  Designer designer(*backend_);
  designer.whatif().knobs().enable_hashjoin = false;
  auto q = ParseAndBind(db_->catalog(),
                        "SELECT p.objid FROM photoobj p JOIN specobj s "
                        "ON p.objid = s.bestobjid");
  ASSERT_TRUE(q.ok());
  PlanResult r = designer.whatif().TryPlan(q.value()).value();
  ASSERT_NE(r.root, nullptr);
  std::function<bool(const PlanNode&)> has_hash =
      [&](const PlanNode& n) {
        if (n.type == PlanNodeType::kHashJoin) return true;
        for (const auto& c : n.children) {
          if (has_hash(*c)) return true;
        }
        return false;
      };
  EXPECT_FALSE(has_hash(*r.root));
}

TEST_F(DesignerTest, BenefitReportAccounting) {
  Designer designer(*backend_);
  BenefitReport report =
      designer.TryEvaluateDesigns(*workload_, {PhysicalDesign{}})
          .value()
          .front();
  // Empty design vs empty baseline: zero benefit everywhere.
  EXPECT_NEAR(report.average_benefit(), 0.0, 1e-9);
  for (size_t i = 0; i < workload_->size(); ++i) {
    EXPECT_NEAR(report.query_benefit(i), 0.0, 1e-9);
  }
}


TEST_F(DesignerTest, BenefitJsonExport) {
  Designer designer(*backend_);
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  PhysicalDesign manual;
  manual.AddIndex(
      IndexDef{photo, {db_->catalog().table(photo).FindColumn("ra")}, false});
  BenefitReport report =
      designer.TryEvaluateDesigns(*workload_, {manual}).value().front();
  std::string json = RenderBenefitJson(db_->catalog(), *workload_, report);
  EXPECT_NE(json.find("\"average_benefit\""), std::string::npos);
  EXPECT_NE(json.find("\"base_total\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace dbdesign
