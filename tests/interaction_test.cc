// Index interaction tests: doi properties, graph rendering/filtering,
// and materialization scheduling.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "backend/inmemory_backend.h"
#include "core/session.h"
#include "interaction/doi.h"
#include "interaction/graph.h"
#include "interaction/schedule.h"
#include "interaction_reference.h"
#include "sql/binder.h"
#include "util/rng.h"
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

/// Forwards to an inner backend and logs every optimizer call in order
/// as "query SQL | design fingerprint".
class CallLog final : public DbmsBackend {
 public:
  explicit CallLog(DbmsBackend& inner) : inner_(&inner) {}

  const std::vector<std::string>& calls() const { return calls_; }

  std::string name() const override { return "log(" + inner_->name() + ")"; }
  const CostParams& cost_params() const override {
    return inner_->cost_params();
  }
  const Catalog& catalog() const override { return inner_->catalog(); }
  const std::vector<TableStats>& all_stats() const override {
    return inner_->all_stats();
  }
  Status RefreshStatistics(TableId table,
                           const AnalyzeOptions& options) override {
    return inner_->RefreshStatistics(table, options);
  }
  PhysicalDesign CurrentDesign() const override {
    return inner_->CurrentDesign();
  }
  Result<PlanResult> OptimizeQuery(const BoundQuery& query,
                                   const PhysicalDesign& design,
                                   const PlannerKnobs& knobs) override {
    Log(query, design);
    return inner_->OptimizeQuery(query, design, knobs);
  }
  Result<double> CostQuery(const BoundQuery& query,
                           const PhysicalDesign& design,
                           const PlannerKnobs& knobs) override {
    Log(query, design);
    return inner_->CostQuery(query, design, knobs);
  }
  uint64_t num_optimizer_calls() const override {
    return inner_->num_optimizer_calls();
  }
  void ResetCallCount() override { inner_->ResetCallCount(); }

 private:
  void Log(const BoundQuery& query, const PhysicalDesign& design) {
    calls_.push_back(query.ToSql(catalog()) + " | " + design.Fingerprint());
  }

  DbmsBackend* inner_;
  std::vector<std::string> calls_;
};

/// A random SDSS index list: `k` draws (duplicates allowed) from single-
/// and two-column indexes on every table, so most lists hold indexes on
/// tables a given query never reads.
std::vector<IndexDef> RandomIndexList(const Catalog& catalog, int k,
                                      Rng& rng) {
  std::vector<IndexDef> pool;
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    int cols = catalog.table(t).num_columns();
    for (ColumnId c = 0; c < cols; ++c) {
      pool.push_back(IndexDef{t, {c}, false});
      if (c + 1 < cols) pool.push_back(IndexDef{t, {c, c + 1}, false});
    }
  }
  std::vector<IndexDef> list;
  for (int i = 0; i < k; ++i) {
    list.push_back(pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
  }
  return list;
}

/// Queries with no structural duplicate, so a library row and a
/// reference row are computed once per query on both paths.
Workload Distinct(const Workload& w) {
  StructuralDedup dedup = DedupByStructure(
      std::span<const BoundQuery>(w.queries.data(), w.queries.size()));
  Workload out;
  for (size_t u : dedup.distinct) out.Add(w.queries[u]);
  return out;
}

// A row writes exact zeros for the pairs its query cannot see and
// prices each distinct relevant subset once, through a table indexed by
// the subset's bitmask over the query's relevant indexes, when the
// table is no larger than the direct path's work; wider rows price
// every relevant pair directly. All three must match the assembled-
// design reference bit for bit. (An index on a table the query reads
// always has a finite leaf price in this engine, so the irrelevant
// indexes here are the ones on tables the query never reads.)
TEST_F(InteractionTest, MemoizedRowsMatchAssembledDesignReference) {
  const Catalog& catalog = db_->catalog();
  InteractionAnalyzer sampler(*inum_);
  int tabled = 0;
  int direct = 0;
  int unseen_pairs = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 7919);
    Workload w = Distinct(
        GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 5, 200 + seed));
    int k = static_cast<int>(rng.UniformInt(4, 18));
    std::vector<IndexDef> indexes = RandomIndexList(catalog, k, rng);
    // Every list also holds two indexes the photoobj-only templates can
    // use, so relevant pairs exist in most rows.
    indexes.push_back(Idx("photoobj", {"ra", "dec"}));
    indexes.push_back(Idx("photoobj", {"type"}));
    if (seed % 3 == 0) {
      // Wide rows: enough usable photoobj indexes that the table would
      // outgrow the direct path's work.
      for (const char* c :
           {"ra", "dec", "run", "camcol", "field", "objid", "psfmag_u",
            "psfmag_g", "psfmag_r", "psfmag_i", "psfmag_z", "mode", "rerun"}) {
        indexes.push_back(Idx("photoobj", {c}));
      }
    }
    int n = static_cast<int>(indexes.size());

    InumCostModel lib_inum(*backend_);
    InumCostModel ref_inum(*backend_);
    InteractionAnalyzer lib(lib_inum);
    InteractionAnalyzer ref(ref_inum);
    std::vector<std::vector<double>> got =
        lib.ContributionRows(w.queries, indexes);
    ASSERT_EQ(got.size(), w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(got[i], reference::Row(ref_inum, ref, w.queries[i], indexes))
          << "seed " << seed << " query " << i;

      // Which path the row took, by the rule in interaction/doi.cc.
      std::vector<size_t> relevant =
          lib_inum.BindSubsets(w.queries[i], indexes).ReusePositions();
      std::set<size_t> sees(relevant.begin(), relevant.end());
      uint64_t work = 0;
      for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
          if (sees.count(static_cast<size_t>(a)) == 0 ||
              sees.count(static_cast<size_t>(b)) == 0) {
            ++unseen_pairs;
            continue;
          }
          work += 4 * sampler.PairSamples(n, a, b).size();
        }
      }
      if (work == 0) continue;
      if (relevant.size() < 64 && (uint64_t{1} << relevant.size()) <= work) {
        ++tabled;
      } else {
        ++direct;
      }
    }
  }
  // The slices cover every path.
  EXPECT_GT(tabled, 0);
  EXPECT_GT(direct, 0);
  EXPECT_GT(unseen_pairs, 0);
}

// A row whose pricer has no plan set (force_exact here; an over-wide
// query alike) prices every sample directly, as the assembled designs
// do: identical rows, and the same backend calls in the same order.
TEST_F(InteractionTest, ForceExactRowsMakeTheReferenceBackendCalls) {
  CostParams serial;
  serial.num_threads = 1;  // one worker, so calls arrive in row order
  InMemoryBackend inner(*db_, serial);
  Workload w =
      Distinct(GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 3, 301));
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra", "dec"}), Idx("photoobj", {"type"}),
      Idx("specobj", {"z"}), Idx("photoobj", {"run"})};
  InumOptions exact_only;
  exact_only.force_exact = true;

  CallLog lib_log(inner);
  InumCostModel lib_inum(lib_log, exact_only);
  InteractionAnalyzer lib(lib_inum);
  uint64_t before = inner.num_optimizer_calls();
  std::vector<std::vector<double>> got =
      lib.ContributionRows(w.queries, indexes);
  uint64_t lib_calls = inner.num_optimizer_calls() - before;

  CallLog ref_log(inner);
  InumCostModel ref_inum(ref_log, exact_only);
  InteractionAnalyzer ref(ref_inum);
  before = inner.num_optimizer_calls();
  std::vector<std::vector<double>> want;
  for (const BoundQuery& q : w.queries) {
    want.push_back(reference::Row(ref_inum, ref, q, indexes));
  }
  uint64_t ref_calls = inner.num_optimizer_calls() - before;

  EXPECT_EQ(got, want);
  EXPECT_GT(lib_calls, 0u);
  EXPECT_EQ(lib_calls, ref_calls);
  EXPECT_EQ(lib_log.calls(), ref_log.calls());
  EXPECT_EQ(lib_inum.stats().reuse_calls, 0u);
  EXPECT_EQ(lib_inum.stats().fallback_calls, lib_log.calls().size());
}

// Binding does not populate, so a pricer on an unpopulated query has no
// plan set and reads no positions: a DoI row over it takes the direct
// path. (The DoI entry points populate every reuse-eligible query
// first, so in a row this arises only for force_exact and over-wide
// queries.)
TEST_F(InteractionTest, UnpopulatedQueryPricerReadsNoPositions) {
  BoundQuery q = Q("SELECT objid, ra FROM photoobj WHERE ra BETWEEN 100 "
                   "AND 104 ORDER BY ra");
  std::vector<IndexDef> indexes = {Idx("photoobj", {"ra"}),
                                   Idx("specobj", {"z"})};
  InumCostModel fresh(*backend_);
  EXPECT_TRUE(fresh.BindSubsets(q, indexes).ReusePositions().empty());
  fresh.Prepare(q);
  EXPECT_EQ(fresh.BindSubsets(q, indexes).ReusePositions(),
            std::vector<size_t>{0});
}

// A memoized row costs each distinct relevant subset once: the reuse
// calls equal the number of distinct X ∩ R, X∪{a} ∩ R, X∪{b} ∩ R and
// X∪{a,b} ∩ R over the samples of the relevant pairs (the empty design
// among them). With 8 relevant indexes the samples reach only part of
// the 256 subsets, so a wrong mask changes the count. (The row itself
// rarely shows a wrong mask: a worst case is usually at X = ∅.)
TEST_F(InteractionTest, MemoizedRowPricesEachRelevantSubsetOnce) {
  Workload w;
  w.Add(Q("SELECT objid, ra FROM photoobj WHERE ra BETWEEN 100 AND 104 "
          "ORDER BY ra"));
  std::vector<IndexDef> indexes = {
      Idx("photoobj", {"ra"}),     Idx("specobj", {"z"}),
      Idx("photoobj", {"ra", "dec"}), Idx("photoobj", {"dec"}),
      Idx("photoobj", {"type"}),   Idx("photoobj", {"run"}),
      Idx("specobj", {"bestobjid"}), Idx("photoobj", {"camcol"}),
      Idx("photoobj", {"field"}),  Idx("photoobj", {"objid"})};
  std::set<int> relevant = {0, 2, 3, 4, 5, 7, 8, 9};  // photoobj's
  int n = static_cast<int>(indexes.size());

  InumCostModel inum(*backend_);
  InteractionAnalyzer analyzer(inum);
  inum.PrepareWorkload(w);
  EXPECT_EQ(inum.BindSubsets(w.queries[0], indexes).ReusePositions(),
            (std::vector<size_t>{0, 2, 3, 4, 5, 7, 8, 9}));
  std::set<std::vector<int>> subsets = {{}};
  for (int a : relevant) {
    for (int b : relevant) {
      if (b <= a) continue;
      for (const std::vector<int>& x : analyzer.PairSamples(n, a, b)) {
        std::vector<int> base;
        for (int i : x) {
          if (relevant.count(i) != 0) base.push_back(i);
        }
        subsets.insert(base);
        for (const std::vector<int>& extra :
             {std::vector<int>{a}, std::vector<int>{b},
              std::vector<int>{a, b}}) {
          std::vector<int> s = base;
          s.insert(s.end(), extra.begin(), extra.end());
          std::sort(s.begin(), s.end());
          subsets.insert(s);
        }
      }
    }
  }
  EXPECT_GT(subsets.size(), 100u);
  EXPECT_LT(subsets.size(), 256u);

  InumStats before = inum.stats();
  std::vector<std::vector<double>> rows =
      analyzer.ContributionRows(w.queries, indexes);
  EXPECT_EQ(inum.stats().reuse_calls - before.reuse_calls, subsets.size());
  EXPECT_EQ(inum.stats().fallback_calls, before.fallback_calls);

  InumCostModel ref_inum(*backend_);
  InteractionAnalyzer ref(ref_inum);
  EXPECT_EQ(rows[0], reference::Row(ref_inum, ref, w.queries[0], indexes));
  // Pairs with a specobj member are exact zeros.
  DoiMatrix layout;
  layout.num_indexes = n;
  for (int a : {1, 6}) {
    for (int b = 0; b < n; ++b) {
      if (b == a) continue;
      EXPECT_EQ(rows[0][static_cast<size_t>(layout.PairIndex(a, b))], 0.0);
    }
  }
}

// bench_schedule's instance and gates, in tier-1: on the warm session
// after a 2000-query Recommend, the plan's DoI matrix, clusters and
// schedule equal the assembled-design reference bit for bit, and the
// warm DoI matrix is identical at 1, 2 and 4 threads. The bench keeps
// its own copy of these checks.
TEST_F(InteractionTest, ScheduleBenchHoldsItsGates) {
  SdssConfig cfg;
  cfg.photoobj_rows = 20000;
  cfg.seed = 42;
  Database db = BuildSdssDatabase(cfg);
  InMemoryBackend backend(db);
  Designer designer(backend);
  DesignSession session(designer);
  DesignConstraints constraints;
  for (TableId t = 0; t < db.catalog().num_tables(); ++t) {
    constraints.storage_budget_pages +=
        db.stats(t).HeapPages(db.catalog().table(t));
  }
  session.SetConstraints(constraints);
  session.SetWorkload(
      GenerateWorkload(db, TemplateMix::OfflineDefault(), 2000, 29));
  auto rec = session.Recommend();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const std::vector<IndexDef>& recommended = rec.value().indexes;
  ASSERT_GE(recommended.size(), 2u);
  Workload classes;
  for (const TemplateClass& cls : session.template_classes()) {
    classes.Add(cls.representative, cls.weight);
  }
  uint64_t calls = session.backend_optimizer_calls();
  auto plan = session.PlanDeployment();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(session.backend_optimizer_calls(), calls);

  InumCostModel lib_inum(backend);
  InteractionAnalyzer lib(lib_inum, designer.options().doi);
  DoiMatrix got = lib.AnalyzeMatrix(classes, recommended);
  MaterializationSchedule got_schedule =
      MaterializationScheduler(lib_inum).Greedy(classes, recommended,
                                                session.constraints());
  InumCostModel ref_inum(backend);
  InteractionAnalyzer ref(ref_inum, designer.options().doi);
  DoiMatrix want = reference::Matrix(ref_inum, ref, classes, recommended);
  MaterializationSchedule want_schedule = reference::Greedy(
      ref_inum, classes, recommended, session.constraints());
  EXPECT_EQ(got.doi, want.doi);
  EXPECT_EQ(got.contributions, want.contributions);
  EXPECT_EQ(plan.value().edges, want.Edges());
  EXPECT_EQ(plan.value().clusters, want.Clusters());
  EXPECT_TRUE(reference::SameSchedule(got_schedule, want_schedule));
  EXPECT_TRUE(reference::SameSchedule(plan.value().schedule, want_schedule));
  EXPECT_EQ(lib_inum.stats().fallback_calls, 0u);

  CostParams serial_params;
  serial_params.num_threads = 1;
  InMemoryBackend serial_backend(db, serial_params);
  InumCostModel serial_inum(serial_backend);
  DoiMatrix serial =
      InteractionAnalyzer(serial_inum).AnalyzeMatrix(classes, recommended);
  for (int threads : {1, 2, 4}) {
    CostParams params;
    params.num_threads = threads;
    InMemoryBackend threaded(db, params);
    InumCostModel inum(threaded);
    inum.PrepareWorkload(classes);
    InteractionAnalyzer analyzer(inum);
    EXPECT_EQ(analyzer.AnalyzeMatrix(classes, recommended).doi, serial.doi)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace dbdesign
