// DbmsBackend seam tests: a conformance suite run against every
// backend implementation, plus TraceBackend record/replay round-trips.
//
// The conformance suite is the portability contract: a new backend (a
// real DBMS port) passes these before any designer component touches
// it. The round-trip tests pin the paper's portability claim down to
// the bit level — a recorded trace must replay to identical costs, and
// INUM run off a deserialized statistics snapshot must agree exactly
// with INUM run against the live engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>

#include "backend/inmemory_backend.h"
#include "backend/trace_backend.h"
#include "core/designer.h"
#include "inum/inum.h"
#include "malformed_json.h"
#include "sql/binder.h"
#include "whatif/whatif.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class BackendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SdssConfig cfg;
    cfg.photoobj_rows = 4000;
    cfg.seed = 17;
    db_ = new Database(BuildSdssDatabase(cfg));
    workload_ = new Workload(
        GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 8, 5));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
    delete db_;
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
  static Workload* workload_;
};

Database* BackendTest::db_ = nullptr;
Workload* BackendTest::workload_ = nullptr;

/// The conformance contract every DbmsBackend implementation must obey.
void RunConformanceSuite(DbmsBackend& backend) {
  SCOPED_TRACE("backend: " + backend.name());

  // Catalog and statistics are present and consistent (primitive 2).
  ASSERT_GT(backend.catalog().num_tables(), 0);
  ASSERT_EQ(static_cast<int>(backend.all_stats().size()),
            backend.catalog().num_tables());
  for (TableId t = 0; t < backend.catalog().num_tables(); ++t) {
    EXPECT_GT(backend.stats(t).row_count, 0.0);
    EXPECT_EQ(static_cast<int>(backend.stats(t).columns.size()),
              backend.catalog().table(t).num_columns());
  }

  // Size estimates are honest: never zero (the paper's what-if fidelity
  // requirement).
  TableId photo = backend.catalog().FindTable("photoobj");
  ASSERT_NE(photo, kInvalidTableId);
  IndexDef ra{photo, {backend.catalog().table(photo).FindColumn("ra")}, false};
  EXPECT_GT(backend.EstimateIndexSize(ra).total_pages(), 0.0);

  // Cost calls (primitive 1) return finite positive costs, agree with
  // OptimizeQuery, and respond to designs.
  auto q = ParseAndBind(backend.catalog(),
                        "SELECT objid FROM photoobj WHERE ra < 30");
  ASSERT_TRUE(q.ok());
  PlannerKnobs knobs;
  PhysicalDesign empty;
  Result<double> base = backend.CostQuery(q.value(), empty, knobs);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_GT(base.value(), 0.0);
  Result<PlanResult> plan = backend.OptimizeQuery(q.value(), empty, knobs);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_DOUBLE_EQ(plan.value().cost, base.value());

  PhysicalDesign with_index;
  with_index.AddIndex(ra);
  Result<double> indexed = backend.CostQuery(q.value(), with_index, knobs);
  ASSERT_TRUE(indexed.ok());
  EXPECT_LT(indexed.value(), base.value());

  // Batched costing equals per-call costing, element for element.
  std::vector<BoundQuery> queries = {q.value(), q.value(), q.value()};
  Result<std::vector<double>> batch = backend.CostBatch(
      std::span<const BoundQuery>(queries.data(), queries.size()), with_index,
      knobs);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), queries.size());
  for (double c : batch.value()) EXPECT_DOUBLE_EQ(c, indexed.value());

  // Join control (primitive 3): the advertised toggles exist and
  // disabling the chosen method never lowers the cost.
  JoinControlCapabilities caps = backend.join_control();
  EXPECT_TRUE(caps.nested_loop || caps.hash_join || caps.merge_join ||
              caps.index_nested_loop);
  auto join = ParseAndBind(backend.catalog(),
                           "SELECT p.objid FROM photoobj p JOIN specobj s "
                           "ON p.objid = s.bestobjid");
  ASSERT_TRUE(join.ok());
  Result<double> all_methods = backend.CostQuery(join.value(), empty, knobs);
  ASSERT_TRUE(all_methods.ok());
  PlannerKnobs restricted = knobs;
  restricted.enable_hashjoin = false;
  restricted.enable_mergejoin = false;
  Result<double> forced = backend.CostQuery(join.value(), empty, restricted);
  ASSERT_TRUE(forced.ok());
  EXPECT_GE(forced.value(), all_methods.value() * 0.9999);

  // The optimizer-call telemetry never exceeds one invocation per cost
  // call (a replay backend legitimately reports zero) and resets.
  backend.ResetCallCount();
  (void)backend.CostQuery(q.value(), empty, knobs);
  EXPECT_LE(backend.num_optimizer_calls(), 1u);
  backend.ResetCallCount();
  EXPECT_EQ(backend.num_optimizer_calls(), 0u);
}

TEST_F(BackendTest, InMemoryBackendConformance) {
  InMemoryBackend backend(*db_);
  RunConformanceSuite(backend);

  // The in-memory engine really invokes its optimizer per cost call.
  backend.ResetCallCount();
  (void)backend.CostQuery(Q("SELECT objid FROM photoobj WHERE ra < 30"),
                          PhysicalDesign{}, PlannerKnobs{});
  EXPECT_EQ(backend.num_optimizer_calls(), 1u);
}

TEST_F(BackendTest, ReplayServesCostsWithZeroOptimizerCalls) {
  InMemoryBackend inner(*db_);
  auto recorder = TraceBackend::Record(inner);
  BoundQuery q = Q("SELECT objid FROM photoobj WHERE ra < 30");
  ASSERT_TRUE(recorder->CostQuery(q, PhysicalDesign{}, PlannerKnobs{}).ok());
  auto replay = TraceBackend::FromJson(recorder->ToJson());
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(
      replay.value()->CostQuery(q, PhysicalDesign{}, PlannerKnobs{}).ok());
  EXPECT_EQ(replay.value()->num_optimizer_calls(), 0u);
}

TEST_F(BackendTest, TraceVersionIsValidated) {
  InMemoryBackend inner(*db_);
  auto recorder = TraceBackend::Record(inner);
  std::string json = recorder->ToJson();
  // A trace from a future format revision must be rejected up front.
  size_t pos = json.find("\"version\":3");
  ASSERT_NE(pos, std::string::npos);
  std::string future = json;
  future.replace(pos, 11, "\"version\":9");
  auto r = TraceBackend::FromJson(future);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);

  std::string none = json;
  none.replace(pos, 11, "\"versionx\":1");
  EXPECT_FALSE(TraceBackend::FromJson(none).ok());
}

TEST_F(BackendTest, TraceDecoderRejectsMalformedNumbers) {
  InMemoryBackend inner(*db_);
  auto recorder = TraceBackend::Record(inner);
  const Json good = ParseJsonOrDie(recorder->ToJson());
  ASSERT_TRUE(TraceBackend::FromJson(good.Dump()).ok());

  // The snapshot design is decoded against the snapshot catalog.
  for (const std::string& id : MalformedIds()) {
    for (const std::string& text : DesignsWithId(id)) {
      Json doc = good;
      doc["design"] = ParseJsonOrDie(text);
      EXPECT_FALSE(TraceBackend::FromJson(doc.Dump()).ok()) << text;
    }
  }
  for (const std::string& text : MalformedInt64s()) {
    Json doc = good;
    doc["design"] = ParseJsonOrDie(DesignWithInt64Bound(text));
    EXPECT_FALSE(TraceBackend::FromJson(doc.Dump()).ok()) << text;
  }

  for (const char* version : {"1e300", "2.5", "-1", R"("__nonfinite:nan")"}) {
    Json doc = good;
    doc["version"] = ParseJsonOrDie(version);
    EXPECT_FALSE(TraceBackend::FromJson(doc.Dump()).ok()) << version;
  }

  // Catalog and statistics arrays: splice `text` over the first value
  // that follows `tag` (up to `stop`) in the dumped trace.
  const std::string dumped = good.Dump();
  auto splice = [&](const std::string& tag, char stop,
                    const std::string& text) {
    const size_t at = dumped.find(tag);
    EXPECT_NE(at, std::string::npos) << tag;
    const size_t begin = at + tag.size();
    std::string doc = dumped;
    doc.replace(begin, doc.find(stop, begin) - begin, text);
    return doc;
  };
  for (const std::string& width : MalformedIds()) {
    EXPECT_FALSE(
        TraceBackend::FromJson(splice(R"("avg_width":)", ',', width)).ok())
        << width;
  }
  // Statistics values share the design codec's int64 check.
  for (const std::string& text : MalformedInt64s()) {
    EXPECT_FALSE(
        TraceBackend::FromJson(splice(R"({"t":"i","v":")", '"', text)).ok())
        << text;
  }
}

TEST_F(BackendTest, TraceRecordBackendConformance) {
  InMemoryBackend inner(*db_);
  auto recorder = TraceBackend::Record(inner);
  RunConformanceSuite(*recorder);
  EXPECT_GT(recorder->num_recorded_costs(), 0u);
}

TEST_F(BackendTest, TraceReplayBackendConformance) {
  // Drive the conformance suite through a recorder, then run the exact
  // same suite against the replayed trace: catalog/stats come from the
  // JSON snapshot, costs from the recorded calls.
  InMemoryBackend inner(*db_);
  auto recorder = TraceBackend::Record(inner);
  RunConformanceSuite(*recorder);

  auto replay = TraceBackend::FromJson(recorder->ToJson());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  RunConformanceSuite(*replay.value());
}

TEST_F(BackendTest, ReadOnlyAttachmentRejectsStatisticsRefresh) {
  const Database& ro = *db_;
  InMemoryBackend backend(ro);
  Status s = backend.RefreshStatistics(0, AnalyzeOptions{});
  EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
}

TEST_F(BackendTest, MutableAttachmentRefreshesStatistics) {
  SdssConfig cfg;
  cfg.photoobj_rows = 500;
  cfg.seed = 3;
  Database db = BuildSdssDatabase(cfg);
  InMemoryBackend backend(db);
  EXPECT_TRUE(backend.RefreshAllStatistics().ok());
  EXPECT_FALSE(backend.RefreshStatistics(-1, AnalyzeOptions{}).ok());
}

TEST_F(BackendTest, TraceRoundTripReplaysIdenticalCosts) {
  InMemoryBackend inner(*db_);
  auto recorder = TraceBackend::Record(inner);

  // Record the workload under several designs through the recorder.
  PhysicalDesign d1;
  d1.AddIndex(Idx("photoobj", {"ra"}));
  PhysicalDesign d2 = d1;
  d2.AddIndex(Idx("specobj", {"bestobjid"}));
  std::vector<PhysicalDesign> designs = {PhysicalDesign{}, d1, d2};

  PlannerKnobs knobs;
  std::vector<std::vector<double>> live;
  for (const PhysicalDesign& d : designs) {
    auto costs = recorder->CostBatch(
        std::span<const BoundQuery>(workload_->queries.data(),
                                    workload_->queries.size()),
        d, knobs);
    ASSERT_TRUE(costs.ok());
    live.push_back(costs.value());
  }

  auto replay = TraceBackend::FromJson(recorder->ToJson());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  for (size_t k = 0; k < designs.size(); ++k) {
    auto costs = replay.value()->CostBatch(
        std::span<const BoundQuery>(workload_->queries.data(),
                                    workload_->queries.size()),
        designs[k], knobs);
    ASSERT_TRUE(costs.ok()) << costs.status().ToString();
    for (size_t i = 0; i < workload_->size(); ++i) {
      EXPECT_DOUBLE_EQ(costs.value()[i], live[k][i]);
    }
  }

  // An unrecorded call surfaces as NotFound, not a sentinel cost.
  PhysicalDesign unseen;
  unseen.AddIndex(Idx("photoobj", {"dec"}));
  Result<double> miss =
      replay.value()->CostQuery(workload_->queries[0], unseen, knobs);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
}

TEST_F(BackendTest, TraceRoundTripPreservesNonFiniteCosts) {
  // A backend can legitimately report an infinite cost (e.g. a knob
  // combination with no feasible plan). The old JSON encoding dumped
  // non-finite numbers as null, so such a trace replayed the cost as a
  // type-confused value (0.0); the sentinel encoding must round-trip
  // it exactly.
  InMemoryBackend inner(*db_);
  auto recorder = TraceBackend::Record(inner);
  PlannerKnobs knobs;
  const BoundQuery& q = workload_->queries[0];
  ASSERT_TRUE(recorder->CostQuery(q, PhysicalDesign{}, knobs).ok());

  // Splice an infinite cost into the recorded call map under a real
  // call key (the public CallKey is exposed for exactly this kind of
  // test surgery).
  PhysicalDesign inf_design;
  inf_design.AddIndex(Idx("photoobj", {"dec"}));
  auto parsed = Json::Parse(recorder->ToJson());
  ASSERT_TRUE(parsed.ok());
  Json doc = parsed.value();
  doc["cost_calls"][TraceBackend::CallKey(q, inf_design, knobs)] =
      Json::Number(std::numeric_limits<double>::infinity());

  auto replay = TraceBackend::FromJson(doc.Dump());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  Result<double> cost = replay.value()->CostQuery(q, inf_design, knobs);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_TRUE(std::isinf(cost.value()));
  EXPECT_GT(cost.value(), 0.0);

  // The doubly-serialized trace is still lossless.
  auto again = TraceBackend::FromJson(replay.value()->ToJson());
  ASSERT_TRUE(again.ok());
  Result<double> cost2 = again.value()->CostQuery(q, inf_design, knobs);
  ASSERT_TRUE(cost2.ok());
  EXPECT_TRUE(std::isinf(cost2.value()));
}

TEST_F(BackendTest, TraceSnapshotPreservesStatisticsExactly) {
  // INUM's client-side reuse math is a pure function of catalog +
  // statistics + cost params. Running it off the deserialized snapshot
  // must reproduce the live engine's costs bit-for-bit — this is the
  // test that the JSON statistics round-trip is lossless.
  InMemoryBackend live(*db_);
  auto recorder = TraceBackend::Record(live);
  auto replay = TraceBackend::FromJson(recorder->ToJson());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  InumCostModel inum_live(live);
  InumCostModel inum_replay(*replay.value());

  PhysicalDesign design;
  design.AddIndex(Idx("photoobj", {"ra", "dec"}));
  design.AddIndex(Idx("specobj", {"z"}));
  for (const BoundQuery& q : workload_->queries) {
    EXPECT_DOUBLE_EQ(inum_replay.Cost(q, design), inum_live.Cost(q, design));
    EXPECT_DOUBLE_EQ(inum_replay.Cost(q, PhysicalDesign{}),
                     inum_live.Cost(q, PhysicalDesign{}));
  }
}

TEST_F(BackendTest, TraceSaveAndLoadFile) {
  InMemoryBackend inner(*db_);
  auto recorder = TraceBackend::Record(inner);
  PlannerKnobs knobs;
  BoundQuery q = Q("SELECT objid FROM photoobj WHERE ra < 10");
  Result<double> live = recorder->CostQuery(q, PhysicalDesign{}, knobs);
  ASSERT_TRUE(live.ok());

  std::string path = ::testing::TempDir() + "/dbdesign_trace.json";
  ASSERT_TRUE(recorder->SaveToFile(path).ok());
  auto replay = TraceBackend::LoadFromFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  Result<double> replayed =
      replay.value()->CostQuery(q, PhysicalDesign{}, knobs);
  ASSERT_TRUE(replayed.ok());
  EXPECT_DOUBLE_EQ(replayed.value(), live.value());
  std::remove(path.c_str());
}

TEST_F(BackendTest, BatchDeduplicatesRepeatedQueries) {
  InMemoryBackend backend(*db_);
  BoundQuery q = Q("SELECT objid FROM photoobj WHERE ra < 45");
  std::vector<BoundQuery> repeated(16, q);
  backend.ResetCallCount();
  auto costs = backend.CostBatch(
      std::span<const BoundQuery>(repeated.data(), repeated.size()),
      PhysicalDesign{}, PlannerKnobs{});
  ASSERT_TRUE(costs.ok());
  ASSERT_EQ(costs.value().size(), repeated.size());
  // One optimizer invocation serves all sixteen batched repeats.
  EXPECT_EQ(backend.num_optimizer_calls(), 1u);
}

TEST_F(BackendTest, WhatIfOptimizerRunsAgainstReplay) {
  // The designer's what-if surface works unchanged over a replayed
  // trace: same costs, and errors (not crashes) off the recorded path.
  InMemoryBackend inner(*db_);
  auto recorder = TraceBackend::Record(inner);
  BoundQuery q = Q("SELECT objid FROM photoobj WHERE ra < 10");
  WhatIfOptimizer live(*recorder);
  ASSERT_TRUE(live.CreateHypotheticalIndex(Idx("photoobj", {"ra"})).ok());
  double live_cost = live.TryCost(q).value();

  auto replay = TraceBackend::FromJson(recorder->ToJson());
  ASSERT_TRUE(replay.ok());
  WhatIfOptimizer from_trace(*replay.value());
  ASSERT_TRUE(
      from_trace.CreateHypotheticalIndex(Idx("photoobj", {"ra"})).ok());
  Result<double> replay_cost = from_trace.TryCost(q);
  ASSERT_TRUE(replay_cost.ok()) << replay_cost.status().ToString();
  EXPECT_DOUBLE_EQ(replay_cost.value(), live_cost);

  // Off-trace design: the Result channel carries the error.
  ASSERT_TRUE(
      from_trace.CreateHypotheticalIndex(Idx("photoobj", {"run"})).ok());
  EXPECT_FALSE(from_trace.TryCost(q).ok());
}

TEST_F(BackendTest, DesignerEvaluateDesignsBatched) {
  InMemoryBackend backend(*db_);
  Designer designer(backend);

  PhysicalDesign d1;
  d1.AddIndex(Idx("photoobj", {"ra"}));
  PhysicalDesign d2;
  d2.AddIndex(Idx("photoobj", {"ra", "dec"}));
  std::vector<BenefitReport> reports =
      designer.TryEvaluateDesigns(*workload_, {d1, d2}).value();
  ASSERT_EQ(reports.size(), 2u);

  // Batched evaluation agrees with one-at-a-time evaluation.
  BenefitReport solo =
      designer.TryEvaluateDesigns(*workload_, {d1}).value().front();
  ASSERT_EQ(solo.new_costs.size(), reports[0].new_costs.size());
  for (size_t i = 0; i < solo.new_costs.size(); ++i) {
    EXPECT_DOUBLE_EQ(solo.new_costs[i], reports[0].new_costs[i]);
    EXPECT_DOUBLE_EQ(solo.base_costs[i], reports[0].base_costs[i]);
  }
  EXPECT_GE(reports[0].average_benefit(), 0.0);
  EXPECT_GE(reports[1].average_benefit(), reports[0].average_benefit() - 0.5);
}

}  // namespace
}  // namespace dbdesign
