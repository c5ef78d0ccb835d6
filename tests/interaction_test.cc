// Index interaction tests: doi properties, graph rendering/filtering,
// and materialization scheduling.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "backend/inmemory_backend.h"
#include "interaction/doi.h"
#include "interaction/graph.h"
#include "interaction/schedule.h"
#include "interaction_reference.h"
#include "sql/binder.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class InteractionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SdssConfig cfg;
    cfg.photoobj_rows = 6000;
    cfg.seed = 13;
    db_ = new Database(BuildSdssDatabase(cfg));
    backend_ = new InMemoryBackend(*db_);
    inum_ = new InumCostModel(*backend_);
  }
  static void TearDownTestSuite() {
    delete inum_;
    delete backend_;
    delete db_;
    inum_ = nullptr;
    backend_ = nullptr;
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
  static InumCostModel* inum_;
};

Database* InteractionTest::db_ = nullptr;
InMemoryBackend* InteractionTest::backend_ = nullptr;
InumCostModel* InteractionTest::inum_ = nullptr;

TEST_F(InteractionTest, AlternativeIndexesInteractStrongly) {
  // Two indexes that serve the same predicate are classic strong
  // interactors: once one exists, the other's benefit collapses.
  Workload w;
  w.Add(Q("SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 101"));
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra"}),
      Idx("photoobj", {"ra", "dec"}),
      Idx("photoobj", {"mjd"}),  // irrelevant to the query
  };
  InteractionAnalyzer analyzer(*inum_);
  double doi_alternatives = analyzer.PairDoi(w, indexes, 0, 1);
  double doi_unrelated = analyzer.PairDoi(w, indexes, 0, 2);
  EXPECT_GT(doi_alternatives, 0.1);
  EXPECT_LT(doi_unrelated, doi_alternatives * 0.1);
}

TEST_F(InteractionTest, IndependentIndexesDoNotInteract) {
  // Indexes on different tables used by different queries.
  Workload w;
  w.Add(Q("SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 101"));
  w.Add(Q("SELECT specobjid FROM specobj WHERE z BETWEEN 2.0 AND 2.2"));
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra"}),
      Idx("specobj", {"z"}),
  };
  InteractionAnalyzer analyzer(*inum_);
  EXPECT_NEAR(analyzer.PairDoi(w, indexes, 0, 1), 0.0, 1e-6);
}

TEST_F(InteractionTest, JoinIndexesInteract) {
  // Outer filter index and inner lookup index cooperate in an INLJ —
  // the inner index's benefit depends on the outer index existing.
  Workload w;
  w.Add(Q("SELECT p.objid, s.z FROM specobj s JOIN photoobj p "
          "ON s.bestobjid = p.objid WHERE s.z BETWEEN 2.8 AND 3.0"));
  std::vector<IndexDef> indexes = {
      Idx("specobj", {"z"}),
      Idx("photoobj", {"objid"}),
  };
  InteractionAnalyzer analyzer(*inum_);
  EXPECT_GT(analyzer.PairDoi(w, indexes, 0, 1), 0.0);
}

TEST_F(InteractionTest, DoiIsSymmetricallyComputedAndNonNegative) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 8, 91);
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra"}),
      Idx("photoobj", {"type"}),
      Idx("specobj", {"z"}),
  };
  InteractionAnalyzer analyzer(*inum_);
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      EXPECT_GE(analyzer.PairDoi(w, indexes, a, b), 0.0);
    }
  }
}

TEST_F(InteractionTest, GraphTopKFilterAndDot) {
  Workload w;
  w.Add(Q("SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 101"));
  w.Add(Q("SELECT objid FROM photoobj WHERE type = 3 AND ra < 10"));
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra"}),
      Idx("photoobj", {"ra", "dec"}),
      Idx("photoobj", {"type"}),
      Idx("photoobj", {"type", "ra"}),
  };
  InteractionAnalyzer analyzer(*inum_);
  std::vector<InteractionEdge> edges = analyzer.Analyze(w, indexes);
  ASSERT_GE(edges.size(), 2u);
  // Edges sorted by weight descending.
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_GE(edges[i - 1].doi, edges[i].doi);
  }
  InteractionGraph graph(db_->catalog(), indexes, edges);
  size_t all = graph.edges().size();
  graph.SetDisplayedEdges(1);
  EXPECT_EQ(graph.edges().size(), 1u);
  graph.SetDisplayedEdges(-1);
  EXPECT_EQ(graph.edges().size(), all);

  std::string dot = graph.ToDot();
  EXPECT_NE(dot.find("graph index_interactions"), std::string::npos);
  EXPECT_NE(dot.find("idx_photoobj_ra"), std::string::npos);
  EXPECT_NE(dot.find(" -- "), std::string::npos);
  std::string ascii = graph.ToAscii();
  EXPECT_NE(ascii.find("doi="), std::string::npos);
}

TEST_F(InteractionTest, GreedyScheduleFrontLoadsBenefit) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 93);
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra", "dec"}),
      Idx("photoobj", {"ra"}),  // redundant with the first
      Idx("photoobj", {"run", "camcol", "field"}),
      Idx("specobj", {"bestobjid"}),
      Idx("specobj", {"z"}),
  };
  MaterializationScheduler scheduler(*inum_);
  MaterializationSchedule greedy = scheduler.Greedy(w, indexes);

  ASSERT_EQ(greedy.steps.size(), indexes.size());
  // Same final configuration regardless of order.
  MaterializationSchedule solo = scheduler.SoloBenefitOrder(w, indexes);
  EXPECT_NEAR(greedy.final_cost, solo.final_cost, 1e-6);
  // Workload cost never increases as indexes are added.
  double prev = greedy.base_cost;
  for (const ScheduleStep& s : greedy.steps) {
    EXPECT_LE(s.cost_after, prev + 1e-6);
    prev = s.cost_after;
  }
  // Greedy must do at least as well as the oblivious order, and beat a
  // deliberately bad (reversed-greedy) order.
  EXPECT_GE(greedy.BenefitArea(), solo.BenefitArea() * 0.999);
  std::vector<int> reversed;
  for (int i = static_cast<int>(indexes.size()) - 1; i >= 0; --i) {
    // Reverse of greedy's own order, as an adversarial baseline.
    reversed.push_back(i);
  }
  MaterializationSchedule bad = scheduler.FixedOrder(w, indexes, reversed);
  EXPECT_NEAR(bad.final_cost, greedy.final_cost, 1e-6);
}

TEST_F(InteractionTest, ScheduleBenefitAreaRewardsEarlyBenefit) {
  // Two-index synthetic check of the area metric itself: building the
  // high-benefit index first must yield a larger area.
  Workload w;
  w.Add(Q("SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 100.5"));
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra"}),   // high benefit
      Idx("photoobj", {"mjd"}),  // irrelevant
  };
  MaterializationScheduler scheduler(*inum_);
  MaterializationSchedule good = scheduler.FixedOrder(w, indexes, {0, 1});
  MaterializationSchedule bad = scheduler.FixedOrder(w, indexes, {1, 0});
  EXPECT_GT(good.BenefitArea(), bad.BenefitArea());
  EXPECT_NEAR(good.final_cost, bad.final_cost, 1e-6);
}


TEST_F(InteractionTest, GreedyDominatesSoloBenefitUnderNegativeInteraction) {
  // Differential regression pin for WHY the scheduler exists. Forced
  // negative interaction: photoobj ra and dec both serve q1's conjunct
  // — whichever is built first collapses the other's marginal benefit —
  // while the specobj z index serves q2 independently with a smaller
  // solo benefit. The interaction-oblivious solo order builds the two
  // redundant indexes back to back and wastes its second build; greedy
  // detours to the independent index. Greedy's cumulative benefit must
  // dominate at EVERY prefix.
  // All three indexes are single 8-byte columns on photoobj, so build
  // pages are identical and greedy's benefit-rate ordering coincides
  // with plain benefit ordering — the comparison isolates interaction
  // awareness, not index-size accidents.
  Workload w;
  w.Add(Q("SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 100.8 "
          "AND dec BETWEEN -0.05 AND 0.05"),
        3.0);
  w.Add(Q("SELECT objid FROM photoobj WHERE rowc < 5"));
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra"}),
      Idx("photoobj", {"dec"}),
      Idx("photoobj", {"rowc"}),
  };
  MaterializationScheduler scheduler(*inum_);
  MaterializationSchedule greedy = scheduler.Greedy(w, indexes);
  MaterializationSchedule solo = scheduler.SoloBenefitOrder(w, indexes);
  ASSERT_EQ(greedy.steps.size(), indexes.size());
  ASSERT_EQ(solo.steps.size(), indexes.size());

  // The setup really does force the negative interaction and the solo
  // ranking this test is about: both redundant indexes out-benefit the
  // independent one solo, so solo order builds them back to back.
  InteractionAnalyzer analyzer(*inum_);
  EXPECT_GT(analyzer.PairDoi(w, indexes, 0, 1), 0.01);
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(solo.steps[k].index == indexes[0] ||
                solo.steps[k].index == indexes[1])
        << "solo-benefit order must rank the redundant pair first";
  }

  for (size_t k = 1; k <= indexes.size(); ++k) {
    EXPECT_GE(greedy.BenefitAtPrefix(k) + 1e-6, solo.BenefitAtPrefix(k))
        << "greedy prefix " << k << " fell behind the oblivious order";
  }
  // Strictly better somewhere, or the pin is vacuous.
  EXPECT_GT(greedy.BenefitAtPrefix(2), solo.BenefitAtPrefix(2) + 1e-6);
  EXPECT_NEAR(greedy.final_cost, solo.final_cost, 1e-6);
}

TEST_F(InteractionTest, ConstraintAwareScheduleHonorsPinsVetoesAndBudget) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 93);
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra", "dec"}),
      Idx("photoobj", {"ra"}),
      Idx("photoobj", {"run", "camcol", "field"}),
      Idx("specobj", {"bestobjid"}),
      Idx("specobj", {"z"}),
  };
  MaterializationScheduler scheduler(*inum_);

  // Vetoes are impossible by construction.
  DesignConstraints veto;
  veto.Veto(indexes[0]);
  MaterializationSchedule vs = scheduler.Greedy(w, indexes, veto);
  EXPECT_EQ(vs.steps.size(), indexes.size() - 1);
  ASSERT_EQ(vs.skipped.size(), 1u);
  EXPECT_TRUE(vs.skipped[0] == indexes[0]);
  for (const ScheduleStep& s : vs.steps) {
    EXPECT_FALSE(s.index == indexes[0]);
  }

  // Pins build first even when greedy would not choose them.
  DesignConstraints pin;
  pin.Pin(indexes[2]);
  pin.Pin(indexes[3]);
  MaterializationSchedule ps = scheduler.Greedy(w, indexes, pin);
  ASSERT_EQ(ps.steps.size(), indexes.size());
  EXPECT_TRUE(ps.steps[0].pinned);
  EXPECT_TRUE(ps.steps[1].pinned);
  for (size_t k = 2; k < ps.steps.size(); ++k) {
    EXPECT_FALSE(ps.steps[k].pinned);
  }

  // The storage budget holds at EVERY intermediate step; what does not
  // fit is skipped, never built.
  MaterializationSchedule all = scheduler.Greedy(w, indexes);
  ASSERT_GE(all.steps.size(), 3u);
  double budget = all.steps[1].cumulative_pages;  // room for two builds
  DesignConstraints capped;
  capped.storage_budget_pages = budget;
  MaterializationSchedule bs = scheduler.Greedy(w, indexes, capped);
  EXPECT_LT(bs.steps.size(), indexes.size());
  EXPECT_EQ(bs.steps.size() + bs.skipped.size(), indexes.size());
  for (const ScheduleStep& s : bs.steps) {
    EXPECT_LE(s.cumulative_pages, budget + 1e-9);
  }
}

TEST_F(InteractionTest, ClustersPartitionTheIndexSet) {
  // photoobj and specobj indexes serve disjoint queries here, so they
  // must land in different clusters.
  Workload w;
  w.Add(Q("SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 101"));
  w.Add(Q("SELECT specobjid FROM specobj WHERE z BETWEEN 2.0 AND 2.2"));
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra"}),
      Idx("photoobj", {"ra", "dec"}),
      Idx("specobj", {"z"}),
  };
  InteractionAnalyzer analyzer(*inum_);
  DoiMatrix m = analyzer.AnalyzeMatrix(w, indexes);
  std::vector<std::vector<int>> clusters = m.Clusters();
  size_t members = 0;
  for (const auto& c : clusters) members += c.size();
  EXPECT_EQ(members, indexes.size());
  // The two photoobj alternatives interact; the specobj index is alone.
  ASSERT_GE(clusters.size(), 2u);
  std::vector<int> photo_cluster = {0, 1};
  EXPECT_EQ(clusters[0], photo_cluster);
  std::vector<int> spec_cluster = {2};
  EXPECT_EQ(clusters[1], spec_cluster);

  // InteractionGraph::Clusters agrees.
  InteractionGraph graph(db_->catalog(), indexes, m.Edges());
  EXPECT_EQ(graph.Clusters(), clusters);
}

TEST_F(InteractionTest, JsonExportIsWellFormed) {
  Workload w;
  w.Add(Q("SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 101"));
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra"}),
      Idx("photoobj", {"ra", "dec"}),
  };
  InteractionAnalyzer analyzer(*inum_);
  InteractionGraph graph(db_->catalog(), indexes,
                         analyzer.Analyze(w, indexes));
  std::string json = graph.ToJson();
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"edges\""), std::string::npos);
  EXPECT_NE(json.find("idx_photoobj_ra_dec"), std::string::npos);
  EXPECT_NE(json.find("\"doi\""), std::string::npos);
  // Balanced braces / brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// The library prices DoI samples and greedy trials as subsets of a
// bound index list; the reference prices every one as an assembled
// PhysicalDesign through InumCostModel::Cost / WorkloadCost. Every row,
// pair, edge, cluster and step must agree bit for bit.
TEST_F(InteractionTest, SubsetPricedDoiMatchesAssembledDesignReference) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 12, 95);
  w.Add(Q("SELECT p.objid, s.z FROM specobj s JOIN photoobj p "
          "ON s.bestobjid = p.objid WHERE s.z BETWEEN 2.8 AND 3.0"));
  w.Add(Q("SELECT objid, ra FROM photoobj WHERE ra BETWEEN 100 AND 104 "
          "ORDER BY ra"));
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra", "dec"}),  Idx("photoobj", {"ra"}),
      Idx("photoobj", {"objid"}),      Idx("photoobj", {"run", "camcol"}),
      Idx("photoobj", {"type"}),       Idx("specobj", {"bestobjid"}),
      Idx("specobj", {"z"}),           Idx("specobj", {"z", "bestobjid"}),
      Idx("photoobj", {"ra"}),  // duplicate entry
  };
  InumCostModel lib_inum(*backend_);
  InumCostModel ref_inum(*backend_);
  InteractionAnalyzer lib(lib_inum);
  InteractionAnalyzer ref(ref_inum);

  DoiMatrix got = lib.AnalyzeMatrix(w, indexes);
  DoiMatrix want = reference::Matrix(ref_inum, ref, w, indexes);
  EXPECT_EQ(got.contributions, want.contributions);
  EXPECT_EQ(got.doi, want.doi);
  EXPECT_EQ(got.Edges(), want.Edges());
  EXPECT_EQ(got.Clusters(), want.Clusters());
  // The matrix is not trivially zero: some pairs interact.
  EXPECT_FALSE(got.Edges().empty());

  int n = static_cast<int>(indexes.size());
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; b += 3) {
      EXPECT_EQ(lib.PairDoi(w, indexes, a, b),
                reference::PairDoi(ref_inum, ref, w, indexes, a, b))
          << a << "," << b;
    }
  }
}

TEST_F(InteractionTest, SubsetPricedGreedyMatchesAssembledDesignReference) {
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 12, 97);
  w.Add(Q("SELECT run, COUNT(*) FROM photoobj GROUP BY run"));
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra", "dec"}),
      Idx("photoobj", {"ra"}),
      Idx("photoobj", {"run", "camcol", "field"}),
      Idx("photoobj", {"objid"}),
      Idx("specobj", {"bestobjid"}),
      Idx("specobj", {"z"}),
      Idx("photoobj", {"type"}),
  };
  InumCostModel lib_inum(*backend_);
  InumCostModel ref_inum(*backend_);
  MaterializationScheduler scheduler(lib_inum);

  MaterializationSchedule all = scheduler.Greedy(w, indexes);
  ASSERT_EQ(all.steps.size(), indexes.size());
  std::vector<DesignConstraints> cases(4);
  cases[1].Pin(indexes[2]);
  cases[1].Pin(indexes[5]);
  cases[2].Veto(indexes[0]);
  cases[2].Veto(indexes[4]);
  // Binding budget: room for about half the builds, plus a pin and a
  // veto on top.
  cases[3].storage_budget_pages = all.steps[3].cumulative_pages;
  cases[3].Pin(indexes[6]);
  cases[3].Veto(indexes[1]);
  for (size_t k = 0; k < cases.size(); ++k) {
    MaterializationSchedule got = scheduler.Greedy(w, indexes, cases[k]);
    MaterializationSchedule want =
        reference::Greedy(ref_inum, w, indexes, cases[k]);
    EXPECT_TRUE(reference::SameSchedule(got, want)) << "case " << k;
    EXPECT_EQ(got.steps.back().cost_after, got.final_cost) << "case " << k;
  }
  MaterializationSchedule capped = scheduler.Greedy(w, indexes, cases[3]);
  EXPECT_LT(capped.steps.size(), indexes.size() - 1);  // the budget binds
}

TEST_F(InteractionTest, SubsetPricingMatchesReferenceBeyond64Indexes) {
  // Membership is a byte per listed index: a list longer than 64 prices
  // exactly like the assembled designs.
  Workload w = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 6, 99);
  const Catalog& catalog = db_->catalog();
  std::vector<IndexDef> indexes;
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    for (ColumnId c = 0; c < catalog.table(t).num_columns(); ++c) {
      indexes.push_back(IndexDef{t, {c}, false});
    }
  }
  TableId photo = catalog.FindTable(kPhotoObj);
  for (ColumnId c = 0; c + 1 < catalog.table(photo).num_columns(); ++c) {
    indexes.push_back(IndexDef{photo, {c, c + 1}, false});
  }
  ASSERT_GT(indexes.size(), 64u);
  int n = static_cast<int>(indexes.size());

  InumCostModel lib_inum(*backend_);
  InumCostModel ref_inum(*backend_);
  InteractionAnalyzer lib(lib_inum);
  InteractionAnalyzer ref(ref_inum);
  for (auto [a, b] :
       {std::pair{0, n - 1}, std::pair{3, 65}, std::pair{64, n - 2}}) {
    EXPECT_EQ(lib.PairDoi(w, indexes, a, b),
              reference::PairDoi(ref_inum, ref, w, indexes, a, b))
        << a << "," << b;
  }

  DesignConstraints c;
  c.Pin(indexes[static_cast<size_t>(n - 1)]);
  c.Veto(indexes[70]);
  MaterializationScheduler scheduler(lib_inum);
  EXPECT_TRUE(reference::SameSchedule(
      scheduler.Greedy(w, indexes, c),
      reference::Greedy(ref_inum, w, indexes, c)));
}

}  // namespace
}  // namespace dbdesign
