// COLT tests: epoch mechanics, what-if budget, adaptation to drift,
// hysteresis, enable/disable, and the build/drop/alert event stream.

#include <gtest/gtest.h>

#include "backend/inmemory_backend.h"
#include "colt/colt.h"
#include "sql/binder.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class ColtTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SdssConfig cfg;
    cfg.photoobj_rows = 6000;
    cfg.seed = 23;
    db_ = new Database(BuildSdssDatabase(cfg));
    backend_ = new InMemoryBackend(*db_);
  }
  static void TearDownTestSuite() {
    delete backend_;
    backend_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static Database* db_;
  static InMemoryBackend* backend_;
};

Database* ColtTest::db_ = nullptr;
InMemoryBackend* ColtTest::backend_ = nullptr;

TEST_F(ColtTest, BuildsIndexForRepeatedSelectiveQueries) {
  ColtOptions opts;
  opts.epoch_length = 10;
  ColtTuner tuner(*backend_, opts);

  Rng rng(31);
  std::vector<BoundQuery> stream;
  for (int i = 0; i < 60; ++i) {
    stream.push_back(
        GenerateSdssQuery(*db_, SdssTemplate::kConeSearch, rng));
    stream.back().id = i;
  }
  for (const BoundQuery& q : stream) tuner.OnQuery(q);

  EXPECT_FALSE(tuner.current_design().indexes().empty())
      << "repeated cone searches must trigger an index build";
  bool built_ra = false;
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  ColumnId ra = db_->catalog().table(photo).FindColumn("ra");
  ColumnId dec = db_->catalog().table(photo).FindColumn("dec");
  for (const IndexDef& idx : tuner.current_design().indexes()) {
    EXPECT_EQ(idx.columns.size(), 1u) << "COLT proposes single-column only";
    built_ra |= idx.table == photo &&
                (idx.columns[0] == ra || idx.columns[0] == dec);
  }
  EXPECT_TRUE(built_ra);
  EXPECT_GT(tuner.cumulative_build_cost(), 0.0);
  EXPECT_EQ(tuner.epochs().size(), 6u);
}

TEST_F(ColtTest, LaterEpochsCheaperThanBaseline) {
  ColtOptions opts;
  opts.epoch_length = 15;
  ColtTuner tuner(*backend_, opts);
  Rng rng(37);
  for (int i = 0; i < 90; ++i) {
    BoundQuery q = GenerateSdssQuery(*db_, SdssTemplate::kConeSearch, rng);
    q.id = i;
    tuner.OnQuery(q);
  }
  ASSERT_GE(tuner.epochs().size(), 4u);
  const ColtEpochReport& late = tuner.epochs().back();
  EXPECT_LT(late.observed_cost, late.baseline_cost * 0.8)
      << "tuned design should beat the untuned baseline late in the run";
}

TEST_F(ColtTest, RespectsWhatIfBudget) {
  ColtOptions opts;
  opts.epoch_length = 10;
  opts.whatif_budget_per_epoch = 3;
  ColtTuner tuner(*backend_, opts);
  Rng rng(41);
  for (int i = 0; i < 50; ++i) {
    BoundQuery q = GenerateSdssQuery(*db_, SdssTemplate::kColorCut, rng);
    q.id = i;
    tuner.OnQuery(q);
  }
  for (const ColtEpochReport& e : tuner.epochs()) {
    EXPECT_LE(e.whatif_calls, 3);
  }
}

TEST_F(ColtTest, DisabledTunerObservesButNeverChanges) {
  ColtOptions opts;
  opts.epoch_length = 10;
  ColtTuner tuner(*backend_, opts);
  tuner.SetEnabled(false);
  Rng rng(43);
  for (int i = 0; i < 40; ++i) {
    BoundQuery q = GenerateSdssQuery(*db_, SdssTemplate::kConeSearch, rng);
    q.id = i;
    tuner.OnQuery(q);
  }
  EXPECT_TRUE(tuner.current_design().indexes().empty());
  EXPECT_TRUE(tuner.events().empty());
  EXPECT_EQ(tuner.cumulative_build_cost(), 0.0);
  EXPECT_EQ(tuner.epochs().size(), 4u);
}

TEST_F(ColtTest, HysteresisBlocksBuildsForFleetingBenefit) {
  ColtOptions opts;
  opts.epoch_length = 10;
  opts.build_hysteresis = 1e9;  // effectively: never worth building
  ColtTuner tuner(*backend_, opts);
  Rng rng(47);
  for (int i = 0; i < 40; ++i) {
    BoundQuery q = GenerateSdssQuery(*db_, SdssTemplate::kConeSearch, rng);
    q.id = i;
    tuner.OnQuery(q);
  }
  EXPECT_TRUE(tuner.current_design().indexes().empty());
  // Alerts may still fire (the DBA decides), but no builds.
  for (const ColtEvent& e : tuner.events()) {
    EXPECT_NE(e.type, ColtEvent::Type::kBuild);
  }
}

TEST_F(ColtTest, AdaptsToDriftAndDropsStaleIndexes) {
  ColtOptions opts;
  opts.epoch_length = 12;
  opts.amortization_epochs = 3.0;
  opts.build_hysteresis = 1.0;
  opts.drop_fraction = 0.5;
  ColtTuner tuner(*backend_, opts);

  std::vector<BoundQuery> stream = GenerateDriftingStream(
      *db_, {TemplateMix::PhaseSelections(), TemplateMix::PhaseAggregates()},
      120, 53);
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  ColumnId ra = db_->catalog().table(photo).FindColumn("ra");

  bool ra_built_in_phase1 = false;
  for (int i = 0; i < 120; ++i) {
    tuner.OnQuery(stream[static_cast<size_t>(i)]);
  }
  for (const IndexDef& idx : tuner.current_design().indexes()) {
    ra_built_in_phase1 |= idx.table == photo && idx.columns[0] == ra;
  }
  EXPECT_TRUE(ra_built_in_phase1);

  for (int i = 120; i < 240; ++i) {
    tuner.OnQuery(stream[static_cast<size_t>(i)]);
  }
  // After the drift away from cone searches the ra index must be gone.
  bool ra_still_there = false;
  for (const IndexDef& idx : tuner.current_design().indexes()) {
    ra_still_there |= idx.table == photo && idx.columns[0] == ra;
  }
  EXPECT_FALSE(ra_still_there);
  bool saw_drop = false;
  for (const ColtEvent& e : tuner.events()) {
    saw_drop |= e.type == ColtEvent::Type::kDrop;
  }
  EXPECT_TRUE(saw_drop);
}

TEST_F(ColtTest, SpaceBudgetLimitsConfiguration) {
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  double one_index_pages =
      EstimateIndexSize(IndexDef{photo, {1}, false},
                        db_->catalog().table(photo), db_->stats(photo))
          .total_pages();
  ColtOptions opts;
  opts.epoch_length = 10;
  opts.storage_budget_pages = one_index_pages * 1.5;  // room for ~1 index
  ColtTuner tuner(*backend_, opts);
  Rng rng(59);
  for (int i = 0; i < 80; ++i) {
    // Mix of templates wanting several different indexes.
    SdssTemplate t = (i % 2 == 0) ? SdssTemplate::kConeSearch
                                  : SdssTemplate::kRunFieldScan;
    BoundQuery q = GenerateSdssQuery(*db_, t, rng);
    q.id = i;
    tuner.OnQuery(q);
  }
  double pages = 0.0;
  for (const IndexDef& idx : tuner.current_design().indexes()) {
    pages += EstimateIndexSize(idx, db_->catalog().table(idx.table),
                               db_->stats(idx.table))
                 .total_pages();
  }
  EXPECT_LE(pages, opts.storage_budget_pages + 1e-6);
}

TEST_F(ColtTest, RepeatedTemplateInstancesShareEpochStatistics) {
  // The tuner keys its bookkeeping by TemplateSignature: a stream of
  // one template (different constants every instance) collapses into a
  // single class, and INUM populations scale with templates — not with
  // the stream length.
  ColtOptions opts;
  opts.epoch_length = 25;
  ColtTuner tuner(*backend_, opts);
  Rng rng(67);
  for (int i = 0; i < 100; ++i) {
    BoundQuery q = GenerateSdssQuery(*db_, SdssTemplate::kConeSearch, rng);
    q.id = i;
    tuner.OnQuery(q);
  }
  // Cone searches instantiate at most a couple of structural shapes.
  EXPECT_LE(tuner.num_template_classes(), 3u);
  size_t count = 0;
  for (const TemplateClass& cls : tuner.template_classes()) {
    count += cls.count;
  }
  EXPECT_EQ(count, 100u);
  ASSERT_EQ(tuner.epochs().size(), 4u);
  for (const ColtEpochReport& e : tuner.epochs()) {
    EXPECT_LE(e.epoch_templates,
              static_cast<int>(tuner.num_template_classes()));
    EXPECT_GE(e.epoch_templates, 1);
  }
  // Populations bounded by the per-template combo cap, far below one
  // per instance (the scaling claim of the compression layer).
  EXPECT_LE(tuner.inum_stats().populate_optimizations,
            128u * tuner.num_template_classes());
  EXPECT_LT(tuner.inum_stats().populate_optimizations, 100u);
}

TEST_F(ColtTest, BuildCostEstimatePositiveAndMonotone) {
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  TableId plate = db_->catalog().FindTable(kPlate);
  double big = EstimateIndexBuildCost(*backend_, IndexDef{photo, {1}, false},
                                      CostParams{});
  double small = EstimateIndexBuildCost(*backend_, IndexDef{plate, {1}, false},
                                        CostParams{});
  EXPECT_GT(big, 0.0);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(big, small) << "bigger table => costlier build";
}

}  // namespace
}  // namespace dbdesign
