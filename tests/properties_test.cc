// Property-based tests on cost-model and selectivity invariants,
// parameterized over random seeds (TEST_P sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "backend/inmemory_backend.h"
#include "catalog/stats.h"
#include "interaction/doi.h"
#include "interaction/schedule.h"
#include "optimizer/access_paths.h"
#include "optimizer/optimizer.h"
#include "inum/inum.h"
#include "optimizer/selectivity.h"
#include "sql/binder.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

// ---------- Selectivity properties ----------

class SelectivityPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ColumnStats MakeStats(Rng& rng, int n, int64_t lo, int64_t hi) {
    std::vector<Value> values;
    values.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      values.emplace_back(rng.UniformInt(lo, hi));
    }
    return BuildColumnStats(values);
  }
};

TEST_P(SelectivityPropertyTest, FractionBelowIsMonotoneAndBounded) {
  Rng rng(GetParam());
  ColumnStats stats = MakeStats(rng, 3000, 0, 10000);
  double prev = -1.0;
  for (int64_t v = -100; v <= 10100; v += 100) {
    double f = FractionBelow(stats, Value(v));
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    EXPECT_GE(f, prev - 1e-12) << "non-monotone at " << v;
    prev = f;
  }
  EXPECT_DOUBLE_EQ(FractionBelow(stats, stats.min), 0.0);
  EXPECT_DOUBLE_EQ(FractionBelow(stats, Value(int64_t{20000})), 1.0);
}

TEST_P(SelectivityPropertyTest, ComparisonOperatorsPartitionUnity) {
  Rng rng(GetParam() ^ 0xabc);
  ColumnStats stats = MakeStats(rng, 3000, 0, 500);
  for (int trial = 0; trial < 20; ++trial) {
    Value v(rng.UniformInt(0, 500));
    BoundPredicate lt{BoundColumn{0, 0}, CompareOp::kLt, v, std::nullopt};
    BoundPredicate eq{BoundColumn{0, 0}, CompareOp::kEq, v, std::nullopt};
    BoundPredicate gt{BoundColumn{0, 0}, CompareOp::kGt, v, std::nullopt};
    double total = PredicateSelectivity(stats, lt) +
                   PredicateSelectivity(stats, eq) +
                   PredicateSelectivity(stats, gt);
    EXPECT_NEAR(total, 1.0, 0.05) << "value " << v.ToString();
  }
}

TEST_P(SelectivityPropertyTest, SelectivityTracksTruthOnRealData) {
  // Estimated selectivity must track the true fraction on the generated
  // column within a loose band (histogram resolution).
  Rng rng(GetParam() ^ 0xdef);
  std::vector<Value> values;
  for (int i = 0; i < 5000; ++i) {
    values.emplace_back(rng.UniformInt(0, 2000));
  }
  ColumnStats stats = BuildColumnStats(values);
  for (int trial = 0; trial < 10; ++trial) {
    int64_t lo = rng.UniformInt(0, 1500);
    int64_t hi = lo + rng.UniformInt(10, 500);
    BoundPredicate between{BoundColumn{0, 0}, CompareOp::kGe, Value(lo),
                           Value(hi)};
    double est = PredicateSelectivity(stats, between);
    double truth = 0.0;
    for (const Value& v : values) {
      if (v >= Value(lo) && v <= Value(hi)) truth += 1.0;
    }
    truth /= static_cast<double>(values.size());
    EXPECT_NEAR(est, truth, 0.05) << "[" << lo << "," << hi << "]";
  }
}

TEST_P(SelectivityPropertyTest, NeSelComplementariesEq) {
  Rng rng(GetParam() ^ 0x123);
  ColumnStats stats = MakeStats(rng, 2000, 0, 50);
  for (int trial = 0; trial < 10; ++trial) {
    Value v(rng.UniformInt(0, 50));
    BoundPredicate eq{BoundColumn{0, 0}, CompareOp::kEq, v, std::nullopt};
    BoundPredicate ne{BoundColumn{0, 0}, CompareOp::kNe, v, std::nullopt};
    EXPECT_NEAR(PredicateSelectivity(stats, eq) +
                    PredicateSelectivity(stats, ne),
                1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectivityPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------- Cost model properties ----------

TEST(CostModelPropertyTest, MackertLohmanBounds) {
  // Pages fetched is bounded by both the tuple count and the relation
  // size, and is monotone in tuples.
  double prev = 0.0;
  for (double tuples : {1.0, 10.0, 100.0, 1000.0, 10000.0, 1e6}) {
    double fetched = IndexPagesFetched(tuples, 500.0, 16384.0);
    EXPECT_LE(fetched, 500.0 + 1e-9);
    EXPECT_LE(fetched, tuples + 1.0);
    EXPECT_GE(fetched, prev - 1e-9);
    prev = fetched;
  }
  EXPECT_DOUBLE_EQ(IndexPagesFetched(0.0, 500.0, 16384.0), 0.0);
  // Cache-constrained branch (T > b): PostgreSQL counts refetches, so
  // the result may exceed the relation size but never the tuple count.
  double constrained = IndexPagesFetched(1e6, 5000.0, 100.0);
  EXPECT_GT(constrained, 5000.0) << "refetch regime must model misses";
  EXPECT_LE(constrained, 1e6 + 1.0);
  // And it must still be monotone in the cache size.
  EXPECT_LE(IndexPagesFetched(1e6, 5000.0, 4000.0), constrained);
}

TEST(CostModelPropertyTest, SortCostMonotoneInRowsAndWidth) {
  CostParams params;
  double prev = 0.0;
  for (double rows : {10.0, 100.0, 1000.0, 1e4, 1e5, 1e6}) {
    double c = SortCost(params, rows, 64.0).total;
    EXPECT_GT(c, prev);
    prev = c;
  }
  // Wider rows spill to disk earlier.
  EXPECT_GE(SortCost(params, 1e5, 512.0).total,
            SortCost(params, 1e5, 8.0).total);
}

TEST(CostModelPropertyTest, ExternalSortKicksIn) {
  CostParams params;
  params.work_mem_bytes = 1024;  // tiny
  double small = SortCost(params, 10.0, 16.0).total;
  double big = SortCost(params, 1e5, 16.0).total;
  CostParams roomy;
  roomy.work_mem_bytes = 1e12;
  double big_in_mem = SortCost(roomy, 1e5, 16.0).total;
  EXPECT_GT(big, big_in_mem) << "external sort must add IO";
  EXPECT_LT(small, big);
}

// ---------- Whole-optimizer properties over random workloads ----------

struct OptPropertyCase {
  uint64_t seed;
  int rows;
};

class OptimizerPropertyTest
    : public ::testing::TestWithParam<OptPropertyCase> {};

TEST_P(OptimizerPropertyTest, PathCostsScaleWithTableSize) {
  // The same query must cost strictly more on a table 8x the size
  // (seq scan regime).
  SdssConfig small_cfg;
  small_cfg.photoobj_rows = GetParam().rows;
  small_cfg.seed = GetParam().seed;
  SdssConfig big_cfg = small_cfg;
  big_cfg.photoobj_rows = GetParam().rows * 8;
  Database small = BuildSdssDatabase(small_cfg);
  Database big = BuildSdssDatabase(big_cfg);

  auto qs = ParseAndBind(small.catalog(),
                         "SELECT objid FROM photoobj WHERE ra > 180");
  auto qb = ParseAndBind(big.catalog(),
                         "SELECT objid FROM photoobj WHERE ra > 180");
  Optimizer opt_s(small.catalog(), small.all_stats());
  Optimizer opt_b(big.catalog(), big.all_stats());
  EXPECT_GT(opt_b.Optimize(qb.value(), PhysicalDesign{}).cost,
            opt_s.Optimize(qs.value(), PhysicalDesign{}).cost * 4.0);
}

TEST_P(OptimizerPropertyTest, TighterPredicatesNeverCostMoreWithIndex) {
  SdssConfig cfg;
  cfg.photoobj_rows = 4000;
  cfg.seed = GetParam().seed;
  Database db = BuildSdssDatabase(cfg);
  TableId photo = db.catalog().FindTable(kPhotoObj);
  PhysicalDesign design;
  design.AddIndex(
      IndexDef{photo, {db.catalog().table(photo).FindColumn("ra")}, false});
  Optimizer opt(db.catalog(), db.all_stats());

  double prev = 0.0;
  for (double width : {64.0, 16.0, 4.0, 1.0, 0.25}) {
    auto q = ParseAndBind(
        db.catalog(),
        StrFormat("SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND %.2f",
                  100.0 + width));
    double cost = opt.Optimize(q.value(), design).cost;
    if (prev > 0.0) {
      EXPECT_LE(cost, prev * 1.0001)
          << "narrower range got more expensive (width " << width << ")";
    }
    prev = cost;
  }
}

TEST_P(OptimizerPropertyTest, PlanCostIsPositiveAndFinite) {
  SdssConfig cfg;
  cfg.photoobj_rows = 2000;
  cfg.seed = GetParam().seed;
  Database db = BuildSdssDatabase(cfg);
  Workload w = GenerateWorkload(db, TemplateMix::Uniform(), 25,
                                GetParam().seed * 3 + 1);
  Optimizer opt(db.catalog(), db.all_stats());
  Rng rng(GetParam().seed);
  for (const BoundQuery& q : w.queries) {
    PhysicalDesign design;
    for (int s = 0; s < q.num_slots(); ++s) {
      for (ColumnId c : q.PredicateColumns(s)) {
        if (rng.Bernoulli(0.4)) {
          design.AddIndex(IndexDef{q.tables[s], {c}, false});
        }
      }
    }
    PlanResult r = opt.Optimize(q, design);
    ASSERT_NE(r.root, nullptr);
    EXPECT_TRUE(std::isfinite(r.cost));
    EXPECT_GT(r.cost, 0.0);
    EXPECT_TRUE(std::isfinite(r.root->rows));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimizerPropertyTest,
                         ::testing::Values(OptPropertyCase{11, 1000},
                                           OptPropertyCase{22, 1500},
                                           OptPropertyCase{33, 2000}));

// ---------- INUM invariants under partitioned designs ----------

class InumPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InumPropertyTest, ReuseNeverBeatsExactOnPartitionedDesigns) {
  SdssConfig cfg;
  cfg.photoobj_rows = 3000;
  cfg.seed = GetParam();
  Database db = BuildSdssDatabase(cfg);
  Workload w =
      GenerateWorkload(db, TemplateMix::OfflineDefault(), 8, GetParam());
  InMemoryBackend backend(db);
  InumCostModel inum(backend);
  WhatIfOptimizer exact(backend);
  Rng rng(GetParam() ^ 0x5555);

  TableId photo = db.catalog().FindTable(kPhotoObj);
  const TableDef& def = db.catalog().table(photo);
  for (int trial = 0; trial < 4; ++trial) {
    PhysicalDesign design;
    // Random split of photoobj into two fragments.
    VerticalFragment a;
    VerticalFragment b;
    for (ColumnId c = 0; c < def.num_columns(); ++c) {
      (rng.Bernoulli(0.5) ? a : b).columns.push_back(c);
    }
    if (!a.columns.empty() && !b.columns.empty()) {
      VerticalPartitioning vp;
      vp.table = photo;
      vp.fragments = {a, b};
      design.SetVerticalPartitioning(vp);
    }
    if (rng.Bernoulli(0.5)) {
      design.AddIndex(IndexDef{photo, {def.FindColumn("ra")}, false});
    }
    for (const BoundQuery& q : w.queries) {
      double fast = inum.Cost(q, design);
      double full = exact.TryCostUnder(q, design).value();
      EXPECT_GE(fast, full * 0.98) << q.ToSql(db.catalog());
      EXPECT_LE(fast, full * 1.25) << q.ToSql(db.catalog());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InumPropertyTest,
                         ::testing::Values(71u, 72u, 73u));

// ---------- Interaction & deployment-schedule invariants ----------

class InteractionPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    SdssConfig cfg;
    cfg.photoobj_rows = 3000;
    cfg.seed = GetParam();
    db_ = std::make_unique<Database>(BuildSdssDatabase(cfg));
    backend_ = std::make_unique<InMemoryBackend>(*db_);
    inum_ = std::make_unique<InumCostModel>(*backend_);
    workload_ =
        GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 8, GetParam());
    TableId photo = db_->catalog().FindTable(kPhotoObj);
    TableId spec = db_->catalog().FindTable(kSpecObj);
    const TableDef& pdef = db_->catalog().table(photo);
    const TableDef& sdef = db_->catalog().table(spec);
    indexes_ = {
        IndexDef{photo, {pdef.FindColumn("ra")}, false},
        IndexDef{photo, {pdef.FindColumn("ra"), pdef.FindColumn("dec")},
                 false},
        IndexDef{photo, {pdef.FindColumn("type")}, false},
        IndexDef{spec, {sdef.FindColumn("z")}, false},
    };
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<InMemoryBackend> backend_;
  std::unique_ptr<InumCostModel> inum_;
  Workload workload_;
  std::vector<IndexDef> indexes_;
};

TEST_P(InteractionPropertyTest, DoiIsExactlySymmetric) {
  // Not just mathematically symmetric: PairDoi canonicalizes the pair
  // before any sampling or arithmetic, so the equality is bit-for-bit.
  InteractionAnalyzer analyzer(*inum_);
  int n = static_cast<int>(indexes_.size());
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      EXPECT_EQ(analyzer.PairDoi(workload_, indexes_, a, b),
                analyzer.PairDoi(workload_, indexes_, b, a))
          << "pair (" << a << "," << b << ")";
    }
  }
}

TEST_P(InteractionPropertyTest, SelfInteractionIsZero) {
  InteractionAnalyzer analyzer(*inum_);
  for (int a = 0; a < static_cast<int>(indexes_.size()); ++a) {
    EXPECT_EQ(analyzer.PairDoi(workload_, indexes_, a, a), 0.0);
  }
}

TEST_P(InteractionPropertyTest, MatrixAgreesWithPairDoi) {
  InteractionAnalyzer analyzer(*inum_);
  DoiMatrix m = analyzer.AnalyzeMatrix(workload_, indexes_);
  int n = static_cast<int>(indexes_.size());
  for (int a = 0; a < n; ++a) {
    EXPECT_EQ(m.Doi(a, a), 0.0);
    for (int b = a + 1; b < n; ++b) {
      EXPECT_EQ(m.Doi(a, b), m.Doi(b, a));
      EXPECT_NEAR(m.Doi(a, b), analyzer.PairDoi(workload_, indexes_, a, b),
                  1e-9);
    }
  }
}

TEST_P(InteractionPropertyTest, EveryPermutationReachesTheSameFinalCost) {
  // The build order changes the path, never the destination: all 4! = 24
  // permutations end at the same final workload cost, and every
  // schedule's per-step cost is monotone non-increasing (an index can
  // only add plan options).
  MaterializationScheduler scheduler(*inum_);
  std::vector<int> order(indexes_.size());
  std::iota(order.begin(), order.end(), 0);
  double final_cost = -1.0;
  do {
    MaterializationSchedule s =
        scheduler.FixedOrder(workload_, indexes_, order);
    ASSERT_EQ(s.steps.size(), indexes_.size());
    if (final_cost < 0) {
      final_cost = s.final_cost;
    } else {
      EXPECT_NEAR(s.final_cost, final_cost, 1e-9 * std::abs(final_cost));
    }
    double prev = s.base_cost;
    for (const ScheduleStep& step : s.steps) {
      EXPECT_LE(step.cost_after, prev + 1e-6);
      prev = step.cost_after;
    }
    EXPECT_DOUBLE_EQ(s.steps.back().cost_after, s.final_cost)
        << "incremental bookkeeping drifted from the full design";
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST_P(InteractionPropertyTest, GreedyCostCurveIsMonotone) {
  MaterializationScheduler scheduler(*inum_);
  MaterializationSchedule greedy = scheduler.Greedy(workload_, indexes_);
  ASSERT_EQ(greedy.steps.size(), indexes_.size());
  double prev = greedy.base_cost;
  double pages = 0.0;
  for (const ScheduleStep& step : greedy.steps) {
    EXPECT_LE(step.cost_after, prev + 1e-6)
        << "greedy per-step workload cost must be non-increasing";
    prev = step.cost_after;
    pages += step.build_pages;
    EXPECT_DOUBLE_EQ(step.cumulative_pages, pages);
  }
  EXPECT_DOUBLE_EQ(greedy.total_pages, pages);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InteractionPropertyTest,
                         ::testing::Values(91u, 92u, 93u));

}  // namespace
}  // namespace dbdesign
