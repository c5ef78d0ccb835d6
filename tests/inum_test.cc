// INUM tests: the cached cost model must closely track the full
// optimizer across random index/partition configurations, while issuing
// far fewer full optimizations.

#include <gtest/gtest.h>

#include <cmath>

#include "backend/inmemory_backend.h"
#include "inum/inum.h"
#include "sql/binder.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class InumTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SdssConfig cfg;
    cfg.photoobj_rows = 6000;
    cfg.seed = 17;
    db_ = new Database(BuildSdssDatabase(cfg));
    backend_ = new InMemoryBackend(*db_);
  }
  static void TearDownTestSuite() {
    delete backend_;
    backend_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  /// Candidate indexes drawn from a query's predicate columns.
  static std::vector<IndexDef> Candidates(const BoundQuery& q) {
    std::vector<IndexDef> out;
    for (int s = 0; s < q.num_slots(); ++s) {
      for (ColumnId c : q.PredicateColumns(s)) {
        IndexDef idx;
        idx.table = q.tables[s];
        idx.columns = {c};
        bool dup = false;
        for (const IndexDef& e : out) dup |= e == idx;
        if (!dup) out.push_back(idx);
      }
      std::vector<ColumnId> preds = q.PredicateColumns(s);
      if (preds.size() >= 2) {
        IndexDef multi;
        multi.table = q.tables[s];
        multi.columns = {preds[0], preds[1]};
        out.push_back(multi);
      }
    }
    return out;
  }

  static Database* db_;
  static InMemoryBackend* backend_;
};

Database* InumTest::db_ = nullptr;
InMemoryBackend* InumTest::backend_ = nullptr;

TEST_F(InumTest, MatchesExactOnEmptyDesign) {
  InumCostModel inum(*backend_);
  WhatIfOptimizer exact(*backend_);
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 15, 23);
  for (const BoundQuery& q : w.queries) {
    double fast = inum.Cost(q, PhysicalDesign{});
    double full = exact.TryCostUnder(q, PhysicalDesign{}).value();
    EXPECT_NEAR(fast / full, 1.0, 0.02) << q.ToSql(db_->catalog());
  }
}

TEST_F(InumTest, TracksExactAcrossRandomDesigns) {
  InumCostModel inum(*backend_);
  WhatIfOptimizer exact(*backend_);
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 12, 29);
  Rng rng(31);

  int checked = 0;
  int close = 0;
  for (const BoundQuery& q : w.queries) {
    std::vector<IndexDef> cands = Candidates(q);
    for (int trial = 0; trial < 6; ++trial) {
      PhysicalDesign design;
      for (const IndexDef& idx : cands) {
        if (rng.Bernoulli(0.5)) design.AddIndex(idx);
      }
      double fast = inum.Cost(q, design);
      double full = exact.TryCostUnder(q, design).value();
      ++checked;
      double rel = std::abs(fast - full) / std::max(1.0, full);
      if (rel < 0.05) ++close;
      // INUM evaluates real plans priced with the same formulas, so its
      // estimate must never beat the true optimum materially.
      EXPECT_GE(fast, full * 0.98)
          << q.ToSql(db_->catalog()) << " design=" << design.Fingerprint();
    }
  }
  // The published INUM reports near-exact reuse; require >= 90% here.
  EXPECT_GE(static_cast<double>(close) / checked, 0.9)
      << close << "/" << checked << " within 5%";
}

TEST_F(InumTest, PartitionAwareReuse) {
  // The paper's extension: INUM reuse must stay accurate when the design
  // includes vertical partitions, without repopulating.
  InumCostModel inum(*backend_);
  WhatIfOptimizer exact(*backend_);
  auto q = ParseAndBind(db_->catalog(),
                        "SELECT objid, ra FROM photoobj WHERE ra > 350");
  ASSERT_TRUE(q.ok());

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
  PhysicalDesign design;
  design.SetVerticalPartitioning(vp);

  double fast = inum.Cost(q.value(), design);
  double full = exact.TryCostUnder(q.value(), design).value();
  EXPECT_NEAR(fast / full, 1.0, 0.05);

  // And the partitioned cost must be far below the unpartitioned one.
  EXPECT_LT(fast, inum.Cost(q.value(), PhysicalDesign{}) * 0.5);
}

TEST_F(InumTest, ReuseAvoidsFullOptimizations) {
  InumCostModel inum(*backend_);
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 41);
  // Warm the cache.
  for (const BoundQuery& q : w.queries) inum.Prepare(q);
  uint64_t populate = inum.stats().populate_optimizations;
  EXPECT_GT(populate, 0u);

  // 100 design evaluations must not trigger any further populate work.
  Rng rng(43);
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  const TableDef& def = db_->catalog().table(photo);
  for (int trial = 0; trial < 10; ++trial) {
    PhysicalDesign design;
    for (ColumnId c = 0; c < def.num_columns(); ++c) {
      if (rng.Bernoulli(0.2)) design.AddIndex(IndexDef{photo, {c}, false});
    }
    for (const BoundQuery& q : w.queries) inum.Cost(q, design);
  }
  EXPECT_EQ(inum.stats().populate_optimizations, populate);
  EXPECT_EQ(inum.stats().reuse_calls, 100u);
  EXPECT_EQ(inum.stats().queries_cached, w.size());
}

TEST_F(InumTest, CachedPlansExposeSignatures) {
  InumCostModel inum(*backend_);
  auto q = ParseAndBind(
      db_->catalog(),
      "SELECT p.objid, s.z FROM photoobj p JOIN specobj s "
      "ON p.objid = s.bestobjid WHERE s.z > 0.4");
  ASSERT_TRUE(q.ok());
  inum.Prepare(q.value());
  const auto* plans = inum.CachedPlansFor(q.value());
  ASSERT_NE(plans, nullptr);
  EXPECT_GT(plans->size(), 1u);
  bool has_param = false;
  bool has_ordered = false;
  for (const auto& plan : *plans) {
    EXPECT_EQ(plan.slots.size(), 2u);
    for (const auto& sig : plan.slots) {
      using Kind = InumCostModel::SlotSignature::Kind;
      has_param |= sig.kind == Kind::kParamLookup;
      has_ordered |= sig.kind == Kind::kOrdered;
    }
  }
  EXPECT_TRUE(has_param);
  EXPECT_TRUE(has_ordered);
}

TEST_F(InumTest, BenefitOrderingAgreesWithExact) {
  // The advisor only needs *relative* costs to rank candidates; check
  // that INUM orders single-index designs the same way the optimizer
  // does for a selective query.
  InumCostModel inum(*backend_);
  WhatIfOptimizer exact(*backend_);
  auto q = ParseAndBind(db_->catalog(),
                        "SELECT objid FROM photoobj "
                        "WHERE ra BETWEEN 30 AND 31 AND type = 3");
  ASSERT_TRUE(q.ok());
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  const TableDef& def = db_->catalog().table(photo);

  std::vector<PhysicalDesign> designs(3);
  designs[1].AddIndex(IndexDef{photo, {def.FindColumn("ra")}, false});
  designs[2].AddIndex(IndexDef{photo, {def.FindColumn("type")}, false});

  std::vector<double> fast;
  std::vector<double> full;
  for (const PhysicalDesign& d : designs) {
    fast.push_back(inum.Cost(q.value(), d));
    full.push_back(exact.TryCostUnder(q.value(), d).value());
  }
  // Both must agree the ra-index is best and empty is worst.
  EXPECT_LT(fast[1], fast[0]);
  EXPECT_LT(full[1], full[0]);
  EXPECT_LT(fast[1], fast[2]);
  EXPECT_LT(full[1], full[2]);
}

}  // namespace
}  // namespace dbdesign
