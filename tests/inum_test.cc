// INUM tests: the cached cost model must closely track the full
// optimizer across random index/partition configurations, while issuing
// far fewer full optimizations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

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

  /// One single-column index on every column of every table, then
  /// two-column photoobj indexes: more than 64 entries, covering tables
  /// a query does not touch.
  static std::vector<IndexDef> WideList() {
    const Catalog& catalog = db_->catalog();
    std::vector<IndexDef> out;
    for (TableId t = 0; t < catalog.num_tables(); ++t) {
      for (ColumnId c = 0; c < catalog.table(t).num_columns(); ++c) {
        out.push_back(IndexDef{t, {c}, false});
      }
    }
    TableId photo = catalog.FindTable(kPhotoObj);
    for (ColumnId c = 0; c + 1 < catalog.table(photo).num_columns(); ++c) {
      out.push_back(IndexDef{photo, {c, c + 1}, false});
    }
    return out;
  }

  /// Join-heavy SDSS workload plus an INLJ-friendly join and queries
  /// whose cheapest plans read an ordered index leaf (ORDER BY, GROUP BY).
  static Workload JoinWorkload() {
    Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 14, 53);
    for (const char* sql :
         {"SELECT p.objid, s.z FROM specobj s JOIN photoobj p "
          "ON s.bestobjid = p.objid WHERE s.z BETWEEN 2.8 AND 3.0",
          "SELECT p.objid, n.neighborobjid, n.distance FROM photoobj p "
          "JOIN neighbors n ON p.objid = n.objid "
          "WHERE p.ra BETWEEN 100 AND 101 AND n.mode = 1",
          "SELECT objid, ra FROM photoobj WHERE ra BETWEEN 100 AND 104 "
          "ORDER BY ra",
          "SELECT run, COUNT(*) FROM photoobj GROUP BY run"}) {
      auto q = ParseAndBind(db_->catalog(), sql);
      EXPECT_TRUE(q.ok()) << sql;
      w.Add(q.value());
    }
    return w;
  }

  /// Differential check of SubsetPricer against CostMatrix on the
  /// assembled design: `trials` random subsets of `list` per query,
  /// bit-identical costs and equal reuse/fallback counters. Returns the
  /// number of subsets priced.
  static uint64_t ExpectPricerMatchesCostMatrix(
      const Workload& w, const std::vector<IndexDef>& list, int trials,
      InumOptions options, uint64_t seed) {
    InumCostModel bound(*backend_, options);
    InumCostModel assembled(*backend_, options);
    bound.PrepareWorkload(w);
    assembled.PrepareWorkload(w);
    InumStats before = assembled.stats();
    InumStats pricer_stats;
    Rng rng(seed);
    uint64_t priced = 0;
    for (const BoundQuery& q : w.queries) {
      InumCostModel::SubsetPricer pricer =
          bound.BindSubsets(q, list, &pricer_stats);
      Workload single;
      single.Add(q);
      std::vector<uint8_t> members(list.size(), 0);
      for (int t = 0; t < trials; ++t) {
        PhysicalDesign design;
        for (size_t i = 0; i < list.size(); ++i) {
          // Alternate sparse and dense subsets.
          members[i] = rng.Bernoulli(t % 2 == 0 ? 0.15 : 0.6) ? 1 : 0;
          if (members[i] != 0) design.AddIndex(list[i]);
        }
        double want = assembled.CostMatrix(
            single, std::span<const PhysicalDesign>(&design, 1))[0][0];
        EXPECT_EQ(pricer.Cost(members), want)
            << q.ToSql(db_->catalog()) << " design=" << design.Fingerprint();
        ++priced;
      }
    }
    EXPECT_EQ(pricer_stats.reuse_calls,
              assembled.stats().reuse_calls - before.reuse_calls);
    EXPECT_EQ(pricer_stats.fallback_calls,
              assembled.stats().fallback_calls - before.fallback_calls);
    return priced;
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
  auto set = inum.PlanSetFor(q.value());
  ASSERT_NE(set, nullptr);
  EXPECT_GT(set->plans.size(), 1u);
  bool has_param = false;
  bool has_ordered = false;
  for (const auto& plan : set->plans) {
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

TEST_F(InumTest, SubsetPricerMatchesCostMatrixBitForBit) {
  // Join queries exercise INLJ terms (lookup groups) and ordered
  // signatures; the candidate list mixes every query's predicate
  // indexes, the join columns, and indexes on tables a query does not
  // touch.
  Workload w = JoinWorkload();
  std::vector<IndexDef> list;
  for (const BoundQuery& q : w.queries) {
    for (const IndexDef& idx : Candidates(q)) {
      if (std::find(list.begin(), list.end(), idx) == list.end()) {
        list.push_back(idx);
      }
    }
  }
  const Catalog& catalog = db_->catalog();
  TableId photo = catalog.FindTable(kPhotoObj);
  TableId spec = catalog.FindTable(kSpecObj);
  TableId plate = catalog.FindTable(kPlate);
  TableId nb = catalog.FindTable(kNeighbors);
  const TableDef& nb_def = catalog.table(nb);
  // Two lookup paths for one join column at different prices: the
  // (mode, objid) probe narrows by mode = 1, so it beats (objid) alone,
  // listed after it.
  list.insert(list.begin(),
              IndexDef{nb,
                       {nb_def.FindColumn("mode"), nb_def.FindColumn("objid")},
                       false});
  list.push_back(IndexDef{nb, {nb_def.FindColumn("objid")}, false});
  list.push_back(IndexDef{photo, {catalog.table(photo).FindColumn("objid")},
                          false});
  list.push_back(IndexDef{
      spec, {catalog.table(spec).FindColumn("bestobjid")}, false});
  list.push_back(IndexDef{plate, {0}, false});
  IndexDef duplicate = list.front();
  list.push_back(duplicate);  // a duplicate entry prices like one

  // The suite's premise: some cached plans carry INLJ terms and ordered
  // signatures, so both pricing paths are live.
  InumCostModel probe(*backend_);
  probe.PrepareWorkload(w);
  bool has_inlj = false;
  bool has_ordered = false;
  for (const BoundQuery& q : w.queries) {
    for (const auto& plan : probe.PlanSetFor(q)->plans) {
      has_inlj |= !plan.inlj_terms.empty();
      for (int req : plan.order_req) has_ordered |= req >= 0;
    }
  }
  EXPECT_TRUE(has_inlj);
  EXPECT_TRUE(has_ordered);

  EXPECT_GT(ExpectPricerMatchesCostMatrix(w, list, 12, {}, 61), 0u);
}

TEST_F(InumTest, SubsetPricerHandlesEmptyAndWideLists) {
  Workload w = JoinWorkload();
  // Empty list: the only subset is the empty design.
  ExpectPricerMatchesCostMatrix(w, {}, 2, {}, 67);
  // More than 64 indexes: membership is a byte vector, not a mask.
  std::vector<IndexDef> wide = WideList();
  ASSERT_GT(wide.size(), 64u);
  ExpectPricerMatchesCostMatrix(w, wide, 6, {}, 71);
}

TEST_F(InumTest, SubsetPricerForceExactReachesExactCostEveryCall) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 5, 73);
  std::vector<IndexDef> wide = WideList();
  InumOptions exact_only;
  exact_only.force_exact = true;
  // Differential (costs and counters) under force_exact...
  ExpectPricerMatchesCostMatrix(w, wide, 3, exact_only, 79);

  // ...and every subset is a fallback answered by the exact optimizer,
  // although the populated queries bind their plan sets.
  InumCostModel inum(*backend_, exact_only);
  inum.PrepareWorkload(w);
  WhatIfOptimizer exact(*backend_);
  InumStats stats;
  std::vector<uint8_t> members(wide.size(), 0);
  for (size_t i = 0; i < wide.size(); i += 7) members[i] = 1;
  PhysicalDesign design;
  for (size_t i = 0; i < wide.size(); i += 7) design.AddIndex(wide[i]);
  for (const BoundQuery& q : w.queries) {
    InumCostModel::SubsetPricer pricer = inum.BindSubsets(q, wide, &stats);
    EXPECT_EQ(pricer.Cost(members), exact.TryCostUnder(q, design).value());
    EXPECT_NE(pricer.plan_set(), nullptr);
    EXPECT_TRUE(pricer.ReusePositions().empty());
  }
  EXPECT_EQ(stats.reuse_calls, 0u);
  EXPECT_EQ(stats.fallback_calls, w.size());
}

TEST_F(InumTest, SubsetPricerOnUnpopulatedQueryFallsBack) {
  // Binding does not populate: an unseen query answers exactly, like
  // CostMatrix would for a query it could not reuse.
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 3, 83);
  std::vector<IndexDef> list = Candidates(w.queries[0]);
  InumCostModel inum(*backend_);
  WhatIfOptimizer exact(*backend_);
  InumCostModel::SubsetPricer pricer = inum.BindSubsets(w.queries[0], list);
  std::vector<uint8_t> members(list.size(), 1);
  PhysicalDesign design;
  for (const IndexDef& idx : list) design.AddIndex(idx);
  EXPECT_EQ(pricer.Cost(members),
            exact.TryCostUnder(w.queries[0], design).value());
  EXPECT_EQ(inum.stats().fallback_calls, 1u);
  EXPECT_EQ(inum.stats().reuse_calls, 0u);
  EXPECT_EQ(inum.stats().populate_optimizations, 0u);
}

}  // namespace
}  // namespace dbdesign
