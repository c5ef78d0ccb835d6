// Constraint-semantics tests: DesignConstraints validation + JSON
// round-trips, ConstraintDelta application, and the contract every
// advisor must honor — pins always present, vetoes never present,
// per-table caps and storage budgets respected (CoPhy, Greedy, COLT,
// AutoPart).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "autopart/autopart.h"
#include "backend/inmemory_backend.h"
#include "catalog/design_json.h"
#include "colt/colt.h"
#include "cophy/cophy.h"
#include "cophy/greedy.h"
#include "core/constraints.h"
#include "malformed_json.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class ConstraintsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SdssConfig cfg;
    cfg.photoobj_rows = 4000;
    cfg.seed = 11;
    db_ = new Database(BuildSdssDatabase(cfg));
    backend_ = new InMemoryBackend(*db_);
    workload_ = new Workload(
        GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 12, 23));
  }
  static void TearDownTestSuite() {
    delete backend_;
    backend_ = nullptr;
    delete db_;
    delete workload_;
    db_ = nullptr;
    workload_ = nullptr;
  }

  static TableId Table(const char* name) {
    return db_->catalog().FindTable(name);
  }
  static ColumnId Column(TableId t, const char* name) {
    return db_->catalog().table(t).FindColumn(name);
  }
  static IndexDef Index(const char* table,
                        std::initializer_list<const char*> cols) {
    TableId t = Table(table);
    IndexDef idx;
    idx.table = t;
    for (const char* c : cols) idx.columns.push_back(Column(t, c));
    return idx;
  }
  static double DataPages() {
    double pages = 0.0;
    for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
      pages += db_->stats(t).HeapPages(db_->catalog().table(t));
    }
    return pages;
  }
  static bool HasIndex(const std::vector<IndexDef>& v, const IndexDef& idx) {
    return std::find(v.begin(), v.end(), idx) != v.end();
  }

  static Database* db_;
  static InMemoryBackend* backend_;
  static Workload* workload_;
};

Database* ConstraintsTest::db_ = nullptr;
InMemoryBackend* ConstraintsTest::backend_ = nullptr;
Workload* ConstraintsTest::workload_ = nullptr;

// --- The constraint object itself ---

TEST_F(ConstraintsTest, JsonRoundTrip) {
  DesignConstraints c;
  c.Pin(Index("photoobj", {"ra", "dec"}));
  c.Veto(Index("specobj", {"z"}));
  c.VetoColumn(ColumnRef{Table("photoobj"), Column(Table("photoobj"), "rerun")});
  c.max_indexes_per_table[Table("photoobj")] = 3;
  c.storage_budget_pages = 1234.5;
  c.partitioning_enabled = true;
  c.partition_denied_tables.push_back(Table("specobj"));

  ASSERT_TRUE(c.Validate(db_->catalog()).ok());
  std::string dumped = c.ToJson().Dump();
  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto restored = DesignConstraints::FromJson(parsed.value(), db_->catalog());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), c);
  // Deterministic encoding: dumping the restored object is identical.
  EXPECT_EQ(restored.value().ToJson().Dump(), dumped);
}

TEST_F(ConstraintsTest, UnlimitedBudgetSurvivesRoundTrip) {
  DesignConstraints c;
  c.Pin(Index("photoobj", {"ra"}));
  auto parsed = Json::Parse(c.ToJson().Dump());
  ASSERT_TRUE(parsed.ok());
  auto restored = DesignConstraints::FromJson(parsed.value(), db_->catalog());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(std::isinf(restored.value().storage_budget_pages));
}

TEST_F(ConstraintsTest, ValidateCatchesContradictions) {
  // Pin + veto of the same index.
  DesignConstraints c;
  c.Pin(Index("photoobj", {"ra"}));
  c.Veto(Index("photoobj", {"ra"}));
  EXPECT_EQ(c.Validate(db_->catalog()).code(), StatusCode::kInvalidArgument);

  // Pin touching a vetoed column.
  DesignConstraints c2;
  c2.Pin(Index("photoobj", {"ra", "dec"}));
  c2.VetoColumn(ColumnRef{Table("photoobj"), Column(Table("photoobj"), "dec")});
  EXPECT_EQ(c2.Validate(db_->catalog()).code(), StatusCode::kInvalidArgument);

  // More pins on a table than its cap allows.
  DesignConstraints c3;
  c3.Pin(Index("photoobj", {"ra"}));
  c3.Pin(Index("photoobj", {"dec"}));
  c3.max_indexes_per_table[Table("photoobj")] = 1;
  EXPECT_EQ(c3.Validate(db_->catalog()).code(), StatusCode::kInvalidArgument);

  // Out-of-range ids.
  DesignConstraints c4;
  c4.Pin(IndexDef{999, {0}, false});
  EXPECT_FALSE(c4.Validate(db_->catalog()).ok());
  DesignConstraints c5;
  c5.max_indexes_per_table[Table("photoobj")] = -2;
  EXPECT_FALSE(c5.Validate(db_->catalog()).ok());
}

TEST_F(ConstraintsTest, DeltaApplySemantics) {
  DesignConstraints c;
  ConstraintDelta d;
  d.pin.push_back(Index("photoobj", {"ra"}));
  d.veto.push_back(Index("specobj", {"z"}));
  d.storage_budget_pages = 500.0;
  d.table_caps[Table("photoobj")] = 2;
  ASSERT_TRUE(ApplyConstraintDelta(d, db_->catalog(), &c).ok());
  EXPECT_TRUE(c.IsPinned(Index("photoobj", {"ra"})));
  EXPECT_TRUE(c.IsVetoed(Index("specobj", {"z"})));
  EXPECT_DOUBLE_EQ(c.storage_budget_pages, 500.0);
  EXPECT_EQ(c.TableCap(Table("photoobj")), std::optional<int>(2));

  // Unpin / uncap / clear budget.
  ConstraintDelta undo;
  undo.unpin.push_back(Index("photoobj", {"ra"}));
  undo.table_caps[Table("photoobj")] = -1;
  undo.storage_budget_pages = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(ApplyConstraintDelta(undo, db_->catalog(), &c).ok());
  EXPECT_FALSE(c.IsPinned(Index("photoobj", {"ra"})));
  EXPECT_FALSE(c.TableCap(Table("photoobj")).has_value());
  EXPECT_TRUE(std::isinf(c.storage_budget_pages));

  // A contradictory delta fails atomically: constraints are unchanged.
  DesignConstraints before = c;
  ConstraintDelta bad;
  bad.pin.push_back(Index("specobj", {"z"}));  // still vetoed
  EXPECT_FALSE(ApplyConstraintDelta(bad, db_->catalog(), &c).ok());
  EXPECT_EQ(c, before);
}

TEST_F(ConstraintsTest, PartitioningAllowDeny) {
  DesignConstraints c;
  EXPECT_TRUE(c.PartitioningAllowed(Table("photoobj")));
  c.partition_denied_tables.push_back(Table("photoobj"));
  EXPECT_FALSE(c.PartitioningAllowed(Table("photoobj")));
  EXPECT_TRUE(c.PartitioningAllowed(Table("specobj")));
  c.partition_allowed_tables.push_back(Table("specobj"));
  EXPECT_TRUE(c.PartitioningAllowed(Table("specobj")));
  EXPECT_FALSE(c.PartitioningAllowed(Table("field")));  // not on allow list
  c.partitioning_enabled = false;
  EXPECT_FALSE(c.PartitioningAllowed(Table("specobj")));
}

TEST_F(ConstraintsTest, PhysicalDesignJsonRoundTrip) {
  PhysicalDesign design;
  design.AddIndex(Index("photoobj", {"ra", "dec"}));
  design.AddIndex(Index("specobj", {"bestobjid"}));
  TableId photo = Table("photoobj");
  const TableDef& pdef = db_->catalog().table(photo);
  VerticalFragment hot;
  hot.columns = {Column(photo, "objid"), Column(photo, "ra"),
                 Column(photo, "dec")};
  std::sort(hot.columns.begin(), hot.columns.end());
  VerticalFragment cold;
  for (ColumnId c = 0; c < pdef.num_columns(); ++c) {
    if (!hot.Covers(c)) cold.columns.push_back(c);
  }
  VerticalPartitioning vp;
  vp.table = photo;
  vp.fragments = {hot, cold};
  design.SetVerticalPartitioning(vp);
  HorizontalPartitioning hp;
  hp.table = photo;
  hp.column = Column(photo, "ra");
  hp.bounds = {Value(90.0), Value(180.0), Value(270.0)};
  design.SetHorizontalPartitioning(hp);

  auto parsed = Json::Parse(PhysicalDesignToJson(design).Dump());
  ASSERT_TRUE(parsed.ok());
  auto restored = PhysicalDesignFromJson(parsed.value(), db_->catalog());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), design);
  EXPECT_EQ(restored.value().Fingerprint(), design.Fingerprint());
}

// --- Decoder totality: malformed numbers never reach a cast ---

TEST_F(ConstraintsTest, DesignDecoderRejectsMalformedIds) {
  // Control: every template decodes with valid ids, so a rejection
  // below is the malformed id's doing.
  for (const std::string& text : DesignsWithId("0")) {
    EXPECT_TRUE(
        PhysicalDesignFromJson(ParseJsonOrDie(text), db_->catalog()).ok())
        << text;
  }
  for (const std::string& id : MalformedIds()) {
    for (const std::string& text : DesignsWithId(id)) {
      Result<PhysicalDesign> r =
          PhysicalDesignFromJson(ParseJsonOrDie(text), db_->catalog());
      EXPECT_FALSE(r.ok()) << text;
    }
  }
  // A fractional id is a parse error, not a truncated id.
  Result<PhysicalDesign> frac = PhysicalDesignFromJson(
      ParseJsonOrDie(DesignsWithId("0.9")[0]), db_->catalog());
  ASSERT_FALSE(frac.ok());
  EXPECT_EQ(frac.status().code(), StatusCode::kParseError);
}

TEST_F(ConstraintsTest, DesignDecoderRejectsMalformedInt64) {
  ASSERT_TRUE(PhysicalDesignFromJson(
                  ParseJsonOrDie(DesignWithInt64Bound("-42")), db_->catalog())
                  .ok());
  for (const std::string& text : MalformedInt64s()) {
    Result<PhysicalDesign> r = PhysicalDesignFromJson(
        ParseJsonOrDie(DesignWithInt64Bound(text)), db_->catalog());
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

TEST_F(ConstraintsTest, ConstraintDecoderRejectsMalformedNumbers) {
  auto docs = [](const std::string& id) {
    return std::vector<std::string>{
        R"({"pinned":[{"table":)" + id + R"(,"columns":[0]}]})",
        R"({"vetoed":[{"table":0,"columns":[)" + id + "]}]}",
        R"({"vetoed_columns":[{"table":)" + id + R"(,"column":0}]})",
        R"({"vetoed_columns":[{"table":0,"column":)" + id + "}]}",
        R"({"table_caps":[{"table":)" + id + R"(,"cap":1}]})",
        R"({"table_caps":[{"table":0,"cap":)" + id + "}]}",
        R"({"partition_allowed":[)" + id + "]}",
        R"({"partition_denied":[)" + id + "]}",
    };
  };
  for (const std::string& text : docs("0")) {
    EXPECT_TRUE(
        DesignConstraints::FromJson(ParseJsonOrDie(text), db_->catalog()).ok())
        << text;
  }
  for (const std::string& id : MalformedIds()) {
    for (const std::string& text : docs(id)) {
      EXPECT_FALSE(
          DesignConstraints::FromJson(ParseJsonOrDie(text), db_->catalog())
              .ok())
          << text;
    }
  }
  EXPECT_FALSE(DesignConstraints::FromJson(
                   ParseJsonOrDie(R"({"table_caps":[{"table":0,"cap":1e300}]})"),
                   db_->catalog())
                   .ok());
  // A NaN or negative-infinite budget is no budget at all.
  for (const char* budget : {R"("__nonfinite:nan")", R"("__nonfinite:-inf")"}) {
    std::string text = std::string(R"({"storage_budget_pages":)") + budget + "}";
    EXPECT_FALSE(
        DesignConstraints::FromJson(ParseJsonOrDie(text), db_->catalog()).ok())
        << text;
  }
}

// --- CoPhy under constraints ---

TEST_F(ConstraintsTest, CoPhyHonorsPinsEvenWhenUseless) {
  // Pin an index CoPhy would never mine (rerun is not sargable in the
  // workload): the recommendation must still contain it.
  IndexDef pin = Index("photoobj", {"rerun"});
  DesignConstraints c;
  c.Pin(pin);
  CoPhyAdvisor advisor(*backend_);
  auto rec = advisor.TryRecommend(*workload_, c);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(HasIndex(rec.value().indexes, pin));
  EXPECT_TRUE(rec.value().infeasible_pins.empty());
}

TEST_F(ConstraintsTest, CoPhyHonorsVetoes) {
  CoPhyOptions opts;
  opts.storage_budget_pages = DataPages();
  CoPhyAdvisor baseline(*backend_, opts);
  IndexRecommendation unconstrained = baseline.TryRecommend(*workload_).value();
  ASSERT_FALSE(unconstrained.indexes.empty());

  // Veto every index of the unconstrained recommendation.
  DesignConstraints c;
  for (const IndexDef& idx : unconstrained.indexes) c.Veto(idx);
  CoPhyAdvisor advisor(*backend_, opts);
  auto rec = advisor.TryRecommend(*workload_, c);
  ASSERT_TRUE(rec.ok());
  for (const IndexDef& idx : rec.value().indexes) {
    EXPECT_FALSE(c.IsVetoed(idx)) << idx.DisplayName(db_->catalog());
  }
  // The vetoed optimum can only be matched, never beaten.
  EXPECT_GE(rec.value().recommended_cost,
            unconstrained.recommended_cost - 1e-6);
}

TEST_F(ConstraintsTest, CoPhyHonorsColumnVetoes) {
  TableId photo = Table("photoobj");
  DesignConstraints c;
  c.VetoColumn(ColumnRef{photo, Column(photo, "ra")});
  CoPhyAdvisor advisor(*backend_);
  auto rec = advisor.TryRecommend(*workload_, c);
  ASSERT_TRUE(rec.ok());
  for (const IndexDef& idx : rec.value().indexes) {
    if (idx.table != photo) continue;
    EXPECT_EQ(std::find(idx.columns.begin(), idx.columns.end(),
                        Column(photo, "ra")),
              idx.columns.end())
        << idx.DisplayName(db_->catalog()) << " touches vetoed column ra";
  }
}

TEST_F(ConstraintsTest, CoPhyHonorsTableCapsAndBudget) {
  TableId photo = Table("photoobj");
  DesignConstraints c;
  c.max_indexes_per_table[photo] = 1;
  c.storage_budget_pages = 0.3 * DataPages();
  CoPhyAdvisor advisor(*backend_);
  auto rec = advisor.TryRecommend(*workload_, c);
  ASSERT_TRUE(rec.ok());
  int photo_indexes = 0;
  for (const IndexDef& idx : rec.value().indexes) {
    photo_indexes += idx.table == photo ? 1 : 0;
  }
  EXPECT_LE(photo_indexes, 1);
  EXPECT_LE(rec.value().total_size_pages, c.storage_budget_pages + 1e-6);
}

TEST_F(ConstraintsTest, CoPhyReportsInfeasiblePins) {
  // A wide pinned index against a budget smaller than the pin itself.
  IndexDef big = Index("photoobj", {"ra", "dec", "type", "psfmag_r"});
  DesignConstraints c;
  c.Pin(big);
  c.storage_budget_pages = 1.0;  // one page: nothing fits
  CoPhyAdvisor advisor(*backend_);
  auto rec = advisor.TryRecommend(*workload_, c);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec.value().infeasible_pins.size(), 1u);
  EXPECT_EQ(rec.value().infeasible_pins[0], big);
  EXPECT_FALSE(HasIndex(rec.value().indexes, big));
}

// --- Greedy under constraints ---

TEST_F(ConstraintsTest, GreedyHonorsConstraints) {
  TableId photo = Table("photoobj");
  IndexDef pin = Index("photoobj", {"rerun"});
  DesignConstraints c;
  c.Pin(pin);
  c.Veto(Index("photoobj", {"ra", "objid"}));
  c.max_indexes_per_table[photo] = 2;
  c.storage_budget_pages = 0.5 * DataPages();

  GreedyAdvisor advisor(*backend_);
  auto rec = advisor.TryRecommend(*workload_, c);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(HasIndex(rec.value().indexes, pin));
  int photo_indexes = 0;
  for (const IndexDef& idx : rec.value().indexes) {
    EXPECT_FALSE(c.IsVetoed(idx)) << idx.DisplayName(db_->catalog());
    photo_indexes += idx.table == photo ? 1 : 0;
  }
  EXPECT_LE(photo_indexes, 2);
  EXPECT_LE(rec.value().total_size_pages, c.storage_budget_pages + 1e-6);
}

TEST_F(ConstraintsTest, GreedyRejectsInfeasiblePins) {
  DesignConstraints c;
  c.Pin(Index("photoobj", {"ra", "dec", "type", "psfmag_r"}));
  c.storage_budget_pages = 1.0;
  GreedyAdvisor advisor(*backend_);
  auto rec = advisor.TryRecommend(*workload_, c);
  EXPECT_EQ(rec.status().code(), StatusCode::kResourceExhausted);
}

// --- COLT under constraints ---

TEST_F(ConstraintsTest, ColtHonorsConstraints) {
  TableId photo = Table("photoobj");
  IndexDef pin = Index("specobj", {"bestobjid"});
  ColumnRef vetoed_col{photo, Column(photo, "ra")};

  ColtOptions opts;
  opts.epoch_length = 8;
  ColtTuner tuner(*backend_, opts);
  DesignConstraints c;
  c.Pin(pin);
  c.VetoColumn(vetoed_col);
  c.max_indexes_per_table[photo] = 1;
  ASSERT_TRUE(tuner.SetConstraints(c).ok());

  // The pin is materialized immediately.
  EXPECT_TRUE(tuner.current_design().HasIndex(pin));

  Workload stream =
      GenerateWorkload(*db_, TemplateMix::PhaseSelections(), 40, 17);
  for (const BoundQuery& q : stream.queries) tuner.OnQuery(q);

  // Pins survive every epoch; vetoed columns never appear; the cap holds.
  EXPECT_TRUE(tuner.current_design().HasIndex(pin));
  int photo_indexes = 0;
  for (const IndexDef& idx : tuner.current_design().indexes()) {
    photo_indexes += idx.table == photo ? 1 : 0;
    for (ColumnId col : idx.columns) {
      EXPECT_FALSE(idx.table == vetoed_col.table && col == vetoed_col.column)
          << "vetoed column indexed: " << idx.DisplayName(db_->catalog());
    }
  }
  EXPECT_LE(photo_indexes, 1);
}

TEST_F(ConstraintsTest, ColtVetoDropsBuiltIndex) {
  ColtOptions opts;
  opts.epoch_length = 8;
  opts.build_hysteresis = 0.01;  // build eagerly so something materializes
  ColtTuner tuner(*backend_, opts);
  Workload stream =
      GenerateWorkload(*db_, TemplateMix::PhaseSelections(), 48, 29);
  for (const BoundQuery& q : stream.queries) tuner.OnQuery(q);
  ASSERT_FALSE(tuner.current_design().indexes().empty())
      << "stream too bland: nothing was built";

  IndexDef built = tuner.current_design().indexes().front();
  DesignConstraints c;
  c.Veto(built);
  ASSERT_TRUE(tuner.SetConstraints(c).ok());
  EXPECT_FALSE(tuner.current_design().HasIndex(built));
}

// --- AutoPart under constraints ---

TEST_F(ConstraintsTest, AutoPartRespectsPartitioningControl) {
  AutoPartAdvisor advisor(*backend_);
  PartitionRecommendation unconstrained = advisor.Recommend(*workload_).value();

  DesignConstraints off;
  off.partitioning_enabled = false;
  AutoPartAdvisor advisor2(*backend_);
  PartitionRecommendation none = advisor2.Recommend(*workload_, off).value();
  EXPECT_FALSE(none.design.HasPartitions());

  // Deny just photoobj: it keeps its layout, other tables may partition.
  DesignConstraints deny;
  deny.partition_denied_tables.push_back(Table("photoobj"));
  AutoPartAdvisor advisor3(*backend_);
  PartitionRecommendation partial =
      advisor3.Recommend(*workload_, deny).value();
  EXPECT_EQ(partial.design.vertical(Table("photoobj")), nullptr);
  EXPECT_EQ(partial.design.horizontal(Table("photoobj")), nullptr);
  (void)unconstrained;
}

}  // namespace
}  // namespace dbdesign
