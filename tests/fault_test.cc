// Fault-tolerance tests for the backend seam (ISSUE 7).
//
// The stack under test is
//
//   InMemoryBackend -> FaultInjectingBackend(plan) -> ResilientBackend
//
// driven through the *full* session loop (Recommend / Refine /
// PlanDeployment) with InumOptions::force_exact enabled, so every
// costing call actually traverses the fallible seam instead of the
// client-side cost model. The core claims:
//
//   * recoverable fault plans (retries > burst) leave the whole loop
//     BIT-identical to the fault-free run;
//   * a hard outage never aborts: every session API returns a clean
//     Status or an explicitly marked DegradedResult;
//   * poisoned costs never cross the seam;
//   * everything is deterministic: same plan, same answers, same
//     counters.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "backend/fault_backend.h"
#include "backend/inmemory_backend.h"
#include "backend/resilient_backend.h"
#include "backend/trace_backend.h"
#include "catalog/design_json.h"
#include "colt/colt.h"
#include "cophy/greedy.h"
#include "core/session.h"
#include "util/clock.h"
#include "util/thread_pool.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

DesignerOptions ForceExactOptions() {
  DesignerOptions opts;
  // Route every INUM costing call through the backend so the fault
  // seam is actually on the session loop's hot path.
  opts.cophy.inum.force_exact = true;
  return opts;
}

/// Test decorator whose inner backend can be swapped mid-session:
/// models a connection that goes down (and comes back) underneath a
/// long-lived DesignSession.
class FlipBackend : public DbmsBackend {
 public:
  explicit FlipBackend(DbmsBackend& target) : target_(&target) {}
  void SetTarget(DbmsBackend& target) { target_ = &target; }

  std::string name() const override { return "flip(" + target_->name() + ")"; }
  const CostParams& cost_params() const override {
    return target_->cost_params();
  }
  const Catalog& catalog() const override { return target_->catalog(); }
  const std::vector<TableStats>& all_stats() const override {
    return target_->all_stats();
  }
  Status RefreshStatistics(TableId table,
                           const AnalyzeOptions& options) override {
    return target_->RefreshStatistics(table, options);
  }
  PhysicalDesign CurrentDesign() const override {
    return target_->CurrentDesign();
  }
  Result<PlanResult> OptimizeQuery(const BoundQuery& query,
                                   const PhysicalDesign& design,
                                   const PlannerKnobs& knobs) override {
    return target_->OptimizeQuery(query, design, knobs);
  }
  Result<double> CostQuery(const BoundQuery& query,
                           const PhysicalDesign& design,
                           const PlannerKnobs& knobs) override {
    return target_->CostQuery(query, design, knobs);
  }
  Result<std::vector<double>> CostBatch(std::span<const BoundQuery> queries,
                                        const PhysicalDesign& design,
                                        const PlannerKnobs& knobs) override {
    return target_->CostBatch(queries, design, knobs);
  }
  PartialCosts CostBatchPartial(std::span<const BoundQuery> queries,
                                const PhysicalDesign& design,
                                const PlannerKnobs& knobs) override {
    return target_->CostBatchPartial(queries, design, knobs);
  }
  JoinControlCapabilities join_control() const override {
    return target_->join_control();
  }
  uint64_t num_optimizer_calls() const override {
    return target_->num_optimizer_calls();
  }
  void ResetCallCount() override { target_->ResetCallCount(); }

 private:
  DbmsBackend* target_;
};

/// An engine that sizes indexes its own way, as a port whose catalog
/// reports real index sizes overrides EstimateIndexSize.
class OwnSizeBackend final : public FlipBackend {
 public:
  using FlipBackend::FlipBackend;
  static constexpr IndexSizeEstimate kSize{12345.0, 67.0, 3.0};
  IndexSizeEstimate EstimateIndexSize(const IndexDef&) const override {
    return kSize;
  }
};

/// Everything the session loop produced in one run.
struct LoopOutcome {
  Status rec_status;
  IndexRecommendation rec;
  Status refine_status;
  IndexRecommendation refined;
  Status plan_status;
  DeploymentPlan plan;
};

/// Runs the canonical loop — SetWorkload, Recommend, Refine(pin the
/// first recommended index), PlanDeployment — with force_exact on.
LoopOutcome RunSessionLoop(DbmsBackend& backend, const Workload& w) {
  Designer designer(backend, ForceExactOptions());
  DesignSession session(designer);
  session.SetWorkload(w);
  LoopOutcome out;

  Result<IndexRecommendation> rec = session.Recommend();
  out.rec_status = rec.ok() ? Status::OK() : rec.status();
  if (rec.ok()) out.rec = rec.value();

  ConstraintDelta delta;
  if (rec.ok() && !rec.value().indexes.empty()) {
    delta.pin.push_back(rec.value().indexes[0]);
  } else {
    delta.storage_budget_pages = 5000.0;
  }
  Result<IndexRecommendation> refined = session.Refine(delta);
  out.refine_status = refined.ok() ? Status::OK() : refined.status();
  if (refined.ok()) out.refined = refined.value();

  Result<DeploymentPlan> plan = session.PlanDeployment();
  out.plan_status = plan.ok() ? Status::OK() : plan.status();
  if (plan.ok()) out.plan = plan.value();
  return out;
}

void ExpectRecEqual(const IndexRecommendation& got,
                    const IndexRecommendation& want, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.indexes, want.indexes);
  // EXPECT_EQ on doubles on purpose: the claim is BIT-identical, not
  // merely close.
  EXPECT_EQ(got.base_cost, want.base_cost);
  EXPECT_EQ(got.recommended_cost, want.recommended_cost);
  EXPECT_EQ(got.per_query_cost, want.per_query_cost);
  EXPECT_EQ(got.total_size_pages, want.total_size_pages);
  EXPECT_FALSE(got.degraded.degraded);
}

void ExpectPlanEqual(const DeploymentPlan& got, const DeploymentPlan& want) {
  EXPECT_EQ(got.indexes, want.indexes);
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(got.clusters, want.clusters);
  ASSERT_EQ(got.schedule.steps.size(), want.schedule.steps.size());
  for (size_t i = 0; i < got.schedule.steps.size(); ++i) {
    EXPECT_EQ(got.schedule.steps[i].index, want.schedule.steps[i].index);
    EXPECT_EQ(got.schedule.steps[i].cluster, want.schedule.steps[i].cluster);
    EXPECT_EQ(got.schedule.steps[i].cost_after,
              want.schedule.steps[i].cost_after);
  }
  EXPECT_EQ(got.schedule.base_cost, want.schedule.base_cost);
  EXPECT_EQ(got.schedule.final_cost, want.schedule.final_cost);
  EXPECT_FALSE(got.degraded.degraded);
}

void ExpectLoopEqual(const LoopOutcome& got, const LoopOutcome& want) {
  ASSERT_TRUE(got.rec_status.ok()) << got.rec_status.ToString();
  ASSERT_TRUE(got.refine_status.ok()) << got.refine_status.ToString();
  ASSERT_TRUE(got.plan_status.ok()) << got.plan_status.ToString();
  ExpectRecEqual(got.rec, want.rec, "Recommend");
  ExpectRecEqual(got.refined, want.refined, "Refine");
  ExpectPlanEqual(got.plan, want.plan);
}

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SdssConfig cfg;
    cfg.photoobj_rows = 2000;
    cfg.seed = 31;
    db_ = std::make_unique<Database>(BuildSdssDatabase(cfg));
    workload_ = GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 10, 37);
  }

  /// Fault-free reference run over a plain in-memory backend (still
  /// with force_exact, so it costs through the same code path).
  LoopOutcome Baseline() {
    InMemoryBackend inner(*db_);
    return RunSessionLoop(inner, workload_);
  }

  std::unique_ptr<Database> db_;
  Workload workload_;
};

// ---------------------------------------------------------------------------
// Status taxonomy (satellite).

TEST(StatusTaxonomy, RetryableSplit) {
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Status::Unavailable("x").IsRetryable());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsRetryable());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("x").IsRetryable());
  EXPECT_FALSE(Status::NotFound("x").IsRetryable());
  EXPECT_FALSE(Status::Internal("x").IsRetryable());
  EXPECT_NE(Status::Unavailable("conn reset").ToString().find("unavailable"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Transparency + the seam is actually exercised.

TEST_F(FaultTest, FaultFreeDecoratorsAreTransparent) {
  LoopOutcome want = Baseline();

  InMemoryBackend inner(*db_);
  FaultInjectingBackend fault(inner, FaultPlan::None());
  ResilientBackend resilient(fault, RetryPolicy{});
  LoopOutcome got = RunSessionLoop(resilient, workload_);

  ExpectLoopEqual(got, want);
  // force_exact must route the loop through the seam — otherwise every
  // other assertion in this file is vacuous.
  EXPECT_GT(fault.counters().calls, 0u);
  ResilienceStats stats = resilient.stats();
  EXPECT_GT(stats.calls, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.giveups, 0u);
  EXPECT_EQ(stats.recoveries, 0u);
}

TEST_F(FaultTest, DecoratorsForwardEngineIndexSizes) {
  InMemoryBackend inner(*db_);
  OwnSizeBackend engine(inner);
  FaultInjectingBackend fault(engine, FaultPlan::None());
  ResilientBackend resilient(fault, RetryPolicy{});
  IndexDef idx{0, {0}, false};
  const double want = OwnSizeBackend::kSize.total_pages();
  ASSERT_NE(inner.EstimateIndexSize(idx).total_pages(), want);
  EXPECT_EQ(fault.EstimateIndexSize(idx).total_pages(), want);
  EXPECT_EQ(resilient.EstimateIndexSize(idx).total_pages(), want);
}

TEST_F(FaultTest, TraceRecordsAndReplaysEngineIndexSizes) {
  InMemoryBackend inner(*db_);
  OwnSizeBackend engine(inner);
  auto recorder = TraceBackend::Record(engine);
  IndexDef sized{0, {0}, false};
  IndexDef unsized{0, {1}, false};
  const IndexSizeEstimate want = OwnSizeBackend::kSize;
  ASSERT_NE(inner.EstimateIndexSize(sized).total_pages(), want.total_pages());
  EXPECT_EQ(recorder->EstimateIndexSize(sized).total_pages(),
            want.total_pages());

  auto replay = TraceBackend::FromJson(recorder->ToJson());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  IndexSizeEstimate got = replay.value()->EstimateIndexSize(sized);
  EXPECT_EQ(got.leaf_pages, want.leaf_pages);
  EXPECT_EQ(got.internal_pages, want.internal_pages);
  EXPECT_EQ(got.height, want.height);
  // An index the recording never sized gets the catalog formula.
  EXPECT_EQ(replay.value()->EstimateIndexSize(unsized).total_pages(),
            inner.EstimateIndexSize(unsized).total_pages());

  // A recorded size decodes only with a valid index and finite,
  // nonnegative numbers.
  Result<Json> good = Json::Parse(recorder->ToJson());
  ASSERT_TRUE(good.ok());
  auto entry = [&](Json index, Json leaf) {
    Json e = Json::Object();
    e["index"] = std::move(index);
    e["leaf_pages"] = std::move(leaf);
    e["internal_pages"] = Json::Number(1.0);
    e["height"] = Json::Number(1.0);
    Json sizes = Json::Array();
    sizes.Append(std::move(e));
    Json root = good.value();
    root["index_sizes"] = std::move(sizes);
    return root.Dump();
  };
  ASSERT_TRUE(
      TraceBackend::FromJson(entry(IndexDefToJson(sized), Json::Number(2.0)))
          .ok());
  IndexDef bad_table{99, {0}, false};
  EXPECT_FALSE(TraceBackend::FromJson(
                   entry(IndexDefToJson(bad_table), Json::Number(2.0)))
                   .ok());
  for (Json leaf : {Json::Number(-1.0), Json::Str("2"),
                    Json::Number(std::numeric_limits<double>::infinity()),
                    Json::Number(std::nan(""))}) {
    EXPECT_FALSE(
        TraceBackend::FromJson(entry(IndexDefToJson(sized), leaf)).ok());
  }
}

// ---------------------------------------------------------------------------
// Tentpole: recoverable fault plans leave the loop bit-identical.

TEST_F(FaultTest, SessionLoopBitIdenticalUnderRecoverableFaults) {
  LoopOutcome want = Baseline();

  struct Case {
    const char* label;
    FaultPlan plan;
    bool expect_injection;
  };
  const Case cases[] = {
      {"transient-5pct", FaultPlan::Transient(0xA11CE, 0.05, 1), false},
      {"transient-20pct-burst2", FaultPlan::Transient(0xB0B, 0.20, 2), false},
      {"transient-100pct-burst3", FaultPlan::Transient(0xCAFE, 1.0, 3), true},
      {"poison-50pct", FaultPlan::Poisoned(0xD00D, 0.5, 1), false},
      {"poison-100pct-burst2", FaultPlan::Poisoned(0xE66, 1.0, 2), true},
      {"batch-crash-50pct", FaultPlan::BatchCrash(0xBA7C4, 0.5, 1), false},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    InMemoryBackend inner(*db_);
    FaultInjectingBackend fault(inner, c.plan);
    RetryPolicy policy;
    policy.max_attempts = 4;  // > every burst above: recovery guaranteed
    ResilientBackend resilient(fault, policy);

    LoopOutcome got = RunSessionLoop(resilient, workload_);
    ExpectLoopEqual(got, want);

    ResilienceStats stats = resilient.stats();
    EXPECT_EQ(stats.giveups, 0u);
    EXPECT_EQ(stats.permanent_failures, 0u);
    if (c.expect_injection) {
      FaultCounters counters = fault.counters();
      EXPECT_GT(counters.transients + counters.poisons + counters.batch_crashes,
                0u);
      EXPECT_GT(stats.retries, 0u);
      EXPECT_GT(stats.recoveries, 0u);
    }
  }
}

TEST_F(FaultTest, FaultScheduleIsDeterministic) {
  FaultPlan plan = FaultPlan::Transient(0x5EED, 0.3, 2);
  RetryPolicy policy;
  policy.max_attempts = 4;

  InMemoryBackend inner1(*db_);
  FaultInjectingBackend fault1(inner1, plan);
  ResilientBackend res1(fault1, policy);
  LoopOutcome run1 = RunSessionLoop(res1, workload_);

  InMemoryBackend inner2(*db_);
  FaultInjectingBackend fault2(inner2, plan);
  ResilientBackend res2(fault2, policy);
  LoopOutcome run2 = RunSessionLoop(res2, workload_);

  ExpectLoopEqual(run1, run2);
  EXPECT_EQ(fault1.counters().transients, fault2.counters().transients);
  EXPECT_EQ(res1.stats().retries, res2.stats().retries);
  EXPECT_EQ(res1.stats().recoveries, res2.stats().recoveries);
}

// ---------------------------------------------------------------------------
// Latency / deadlines on the shared virtual clock.

TEST_F(FaultTest, LatencyIsHarmlessWithoutDeadline) {
  LoopOutcome want = Baseline();

  VirtualClock clock;
  InMemoryBackend inner(*db_);
  FaultInjectingBackend fault(inner, FaultPlan::Latency(0x7E4, 50, 0.0, 0),
                              &clock);
  ResilientBackend resilient(fault, RetryPolicy{}, &clock);
  LoopOutcome got = RunSessionLoop(resilient, workload_);

  ExpectLoopEqual(got, want);
  EXPECT_GT(fault.counters().latency_sleeps, 0u);
  EXPECT_GT(clock.NowMicros(), 0u);  // virtual time actually passed
  EXPECT_EQ(resilient.stats().deadline_exceeded, 0u);
}

TEST_F(FaultTest, DeadlineConvertsSlowCallsToDeadlineExceeded) {
  VirtualClock clock;
  InMemoryBackend inner(*db_);
  // Every call takes 500us of virtual time; the budget is 200us.
  FaultInjectingBackend fault(inner, FaultPlan::Latency(0x51, 500, 0.0, 0),
                              &clock);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.call_deadline_micros = 200;
  ResilientBackend resilient(fault, policy, &clock);

  Result<double> cost = resilient.CostQuery(workload_.queries[0],
                                            PhysicalDesign{}, PlannerKnobs{});
  ASSERT_FALSE(cost.ok());
  EXPECT_EQ(cost.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(cost.status().IsRetryable());
  EXPECT_GT(resilient.stats().deadline_exceeded, 0u);
}

// ---------------------------------------------------------------------------
// Poison rejection: garbage never crosses the seam.

TEST_F(FaultTest, PoisonedCostsAreRejectedThenRecovered) {
  InMemoryBackend inner(*db_);
  Result<double> clean = inner.CostQuery(workload_.queries[0],
                                         PhysicalDesign{}, PlannerKnobs{});
  ASSERT_TRUE(clean.ok());

  FaultInjectingBackend fault(inner, FaultPlan::Poisoned(0x9a7, 1.0, 1));
  RetryPolicy policy;
  policy.max_attempts = 3;
  ResilientBackend resilient(fault, policy);

  Result<double> cost = resilient.CostQuery(workload_.queries[0],
                                            PhysicalDesign{}, PlannerKnobs{});
  ASSERT_TRUE(cost.ok());
  EXPECT_TRUE(std::isfinite(cost.value()));
  EXPECT_GE(cost.value(), 0.0);
  EXPECT_EQ(cost.value(), clean.value());
  ResilienceStats stats = resilient.stats();
  EXPECT_GE(stats.poisoned_rejected, 1u);
  EXPECT_GE(stats.recoveries, 1u);
}

TEST_F(FaultTest, UnrecoverablePoisonBecomesCleanFailureNotGarbage) {
  InMemoryBackend inner(*db_);
  // Burst far beyond the retry budget: every attempt is poisoned.
  FaultInjectingBackend fault(inner, FaultPlan::Poisoned(0x9a8, 1.0, 100));
  RetryPolicy policy;
  policy.max_attempts = 2;
  ResilientBackend resilient(fault, policy);

  Result<double> cost = resilient.CostQuery(workload_.queries[0],
                                            PhysicalDesign{}, PlannerKnobs{});
  ASSERT_FALSE(cost.ok());  // an honest Status, never a NaN
  EXPECT_TRUE(cost.status().IsRetryable());
  ResilienceStats stats = resilient.stats();
  EXPECT_GE(stats.poisoned_rejected, 2u);
  EXPECT_EQ(stats.giveups, 1u);
}

// ---------------------------------------------------------------------------
// Partial-batch salvage.

TEST_F(FaultTest, PartialBatchSalvageRecoversFullBatch) {
  std::span<const BoundQuery> queries(workload_.queries.data(), 6);

  InMemoryBackend clean(*db_);
  Result<std::vector<double>> want =
      clean.CostBatch(queries, PhysicalDesign{}, PlannerKnobs{});
  ASSERT_TRUE(want.ok());

  InMemoryBackend inner(*db_);
  FaultInjectingBackend fault(inner, FaultPlan::BatchCrash(0xBA7C4, 1.0, 1));
  RetryPolicy policy;
  policy.max_attempts = 8;  // worst case: one crash per distinct tail key
  ResilientBackend resilient(fault, policy);

  Result<std::vector<double>> got =
      resilient.CostBatch(queries, PhysicalDesign{}, PlannerKnobs{});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), want.value());
  EXPECT_GE(fault.counters().batch_crashes, 1u);
  ResilienceStats stats = resilient.stats();
  EXPECT_GE(stats.retries, 1u);
  // The salvage counters fire whenever a crash point landed past the
  // first element (plan-dependent; asserted loosely on purpose).
  EXPECT_EQ(stats.results_salvaged > 0, stats.batches_salvaged > 0);
}

// ---------------------------------------------------------------------------
// Circuit breaker lifecycle.

TEST_F(FaultTest, BreakerOpensFastFailsThenProbesClosed) {
  VirtualClock clock;
  InMemoryBackend inner(*db_);
  // Every key fails its first two attempts, then succeeds.
  FaultInjectingBackend fault(inner, FaultPlan::Transient(0xB4EA, 1.0, 2));
  RetryPolicy policy;
  policy.max_attempts = 1;  // each logical call = one attempt
  policy.breaker_threshold = 2;
  policy.breaker_cooldown_micros = 1000;
  ResilientBackend resilient(fault, policy, &clock);

  const BoundQuery& q = workload_.queries[0];
  // Two straight giveups trip the breaker.
  EXPECT_FALSE(resilient.CostQuery(q, PhysicalDesign{}, PlannerKnobs{}).ok());
  EXPECT_EQ(resilient.breaker_state(), ResilientBackend::BreakerState::kClosed);
  EXPECT_FALSE(resilient.CostQuery(q, PhysicalDesign{}, PlannerKnobs{}).ok());
  EXPECT_EQ(resilient.breaker_state(), ResilientBackend::BreakerState::kOpen);
  EXPECT_EQ(resilient.stats().breaker_trips, 1u);

  // While open: fail fast, no inner attempt issued.
  uint64_t attempts_before = resilient.stats().attempts;
  Result<double> refused =
      resilient.CostQuery(q, PhysicalDesign{}, PlannerKnobs{});
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsRetryable());
  EXPECT_EQ(resilient.stats().attempts, attempts_before);
  EXPECT_EQ(resilient.stats().breaker_fast_fails, 1u);

  // After the cooldown the next call is the half-open probe; the fault
  // key is past its burst, so the probe succeeds and the breaker closes.
  clock.SleepMicros(2000);
  Result<double> probe = resilient.CostQuery(q, PhysicalDesign{},
                                             PlannerKnobs{});
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(resilient.stats().breaker_probes, 1u);
  EXPECT_EQ(resilient.breaker_state(), ResilientBackend::BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// Hard outage: clean statuses everywhere, zero aborts.

TEST_F(FaultTest, OutageColdSessionReturnsCleanStatusEverywhere) {
  InMemoryBackend inner(*db_);
  FaultInjectingBackend fault(inner, FaultPlan::Outage());
  RetryPolicy policy;
  policy.max_attempts = 2;
  ResilientBackend resilient(fault, policy);

  Designer designer(resilient, ForceExactOptions());
  DesignSession session(designer);
  session.SetWorkload(workload_);

  Result<IndexRecommendation> rec = session.Recommend();
  ASSERT_FALSE(rec.ok());  // cold cache, no fallback: honest Status
  EXPECT_TRUE(rec.status().IsRetryable()) << rec.status().ToString();
  EXPECT_GT(fault.counters().calls, 0u);

  ConstraintDelta delta;
  delta.storage_budget_pages = 5000.0;
  Result<IndexRecommendation> refined = session.Refine(delta);
  ASSERT_FALSE(refined.ok());
  EXPECT_TRUE(refined.status().IsRetryable());

  Result<DeploymentPlan> plan = session.PlanDeployment();
  ASSERT_FALSE(plan.ok());  // nothing recommended yet
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);

  session.SaveSnapshot("down");
  Result<BenefitReport> cmp = session.CompareSnapshot("down", workload_);
  ASSERT_FALSE(cmp.ok());
  EXPECT_TRUE(cmp.status().IsRetryable());

  // Void API: must not throw, must not corrupt the session.
  Workload extra = GenerateWorkload(*db_, TemplateMix::PhaseJoins(), 3, 91);
  session.AddQueries(extra.queries);
  EXPECT_EQ(session.workload().size(), workload_.size() + 3);
}

TEST_F(FaultTest, WarmSessionDegradesToCachedAnswersAndRecovers) {
  InMemoryBackend good(*db_);
  FlipBackend flip(good);
  Designer designer(flip, ForceExactOptions());
  DesignSession session(designer);
  // Selections-only base workload so the join templates added below are
  // guaranteed to open NEW template classes (cold atoms -> backend).
  Workload base = GenerateWorkload(*db_, TemplateMix::PhaseSelections(), 8, 37);
  session.SetWorkload(base);

  Result<IndexRecommendation> rec1 = session.Recommend();
  ASSERT_TRUE(rec1.ok()) << rec1.status().ToString();
  ASSERT_FALSE(rec1.value().degraded.degraded);
  Result<DeploymentPlan> plan1 = session.PlanDeployment();
  ASSERT_TRUE(plan1.ok()) << plan1.status().ToString();

  // The backend goes down under the warm session.
  FaultInjectingBackend fault(good, FaultPlan::Outage());
  RetryPolicy policy;
  policy.max_attempts = 2;
  ResilientBackend down(fault, policy);
  flip.SetTarget(down);

  // New-template queries need fresh atoms -> backend -> failure. The
  // warm cache is dropped, the session survives.
  Workload extra = GenerateWorkload(*db_, TemplateMix::PhaseJoins(), 4, 91);
  size_t classes_before = session.num_template_classes();
  session.AddQueries(extra.queries);
  ASSERT_GT(session.num_template_classes(), classes_before)
      << "extension queries must open new template classes";
  EXPECT_FALSE(session.prepared());

  // Recommend degrades to the last certified answer, explicitly marked.
  Result<IndexRecommendation> rec2 = session.Recommend();
  ASSERT_TRUE(rec2.ok()) << rec2.status().ToString();
  EXPECT_TRUE(rec2.value().degraded.degraded);
  EXPECT_TRUE(rec2.value().degraded.cause.IsRetryable());
  EXPECT_EQ(rec2.value().degraded.fallback, "last-certified-recommendation");
  EXPECT_EQ(rec2.value().indexes, rec1.value().indexes);

  // PlanDeployment degrades to the cached plan, explicitly marked.
  Result<DeploymentPlan> plan2 = session.PlanDeployment();
  ASSERT_TRUE(plan2.ok()) << plan2.status().ToString();
  EXPECT_TRUE(plan2.value().degraded.degraded);
  EXPECT_EQ(plan2.value().degraded.fallback, "cached-deployment-plan");
  EXPECT_EQ(plan2.value().indexes, plan1.value().indexes);

  bool logged_degraded = false;
  for (const std::string& line : session.log()) {
    logged_degraded |= line.find("DEGRADED") != std::string::npos;
  }
  EXPECT_TRUE(logged_degraded);

  // The backend comes back: the next Recommend is fresh, not degraded.
  flip.SetTarget(good);
  Result<IndexRecommendation> rec3 = session.Recommend();
  ASSERT_TRUE(rec3.ok()) << rec3.status().ToString();
  EXPECT_FALSE(rec3.value().degraded.degraded);
}

TEST_F(FaultTest, ColtSurvivesOutageWithDegradedEpochs) {
  InMemoryBackend inner(*db_);
  FaultInjectingBackend fault(inner, FaultPlan::Outage());
  RetryPolicy policy;
  policy.max_attempts = 2;
  ResilientBackend resilient(fault, policy);

  ColtOptions copts;
  copts.epoch_length = 5;
  copts.inum.force_exact = true;
  ColtTuner tuner(resilient, copts);

  for (int i = 0; i < 10; ++i) {
    double cost = tuner.OnQuery(workload_.queries[i % workload_.size()]);
    EXPECT_TRUE(std::isfinite(cost));  // never NaN, never aborts
  }
  EXPECT_GT(tuner.backend_errors(), 0u);
  EXPECT_GE(tuner.degraded_epochs(), 1u);
  EXPECT_TRUE(tuner.last_backend_error().IsRetryable());
  EXPECT_EQ(tuner.cumulative_query_cost(), 0.0);  // no sentinel accounting
}

/// Runs `call` (which returns some Result<T>) and checks that a backend
/// outage came back as a retryable Status instead of an exception.
template <typename Call>
void ExpectOutageStatus(const char* api, Call call) {
  Status status;
  EXPECT_NO_THROW(status = call().status()) << api;
  EXPECT_TRUE(status.IsRetryable()) << api << ": " << status.ToString();
}

TEST_F(FaultTest, OutageAdvisorResultApisReturnStatusNotThrow) {
  InMemoryBackend inner(*db_);
  FaultInjectingBackend fault(inner, FaultPlan::Outage());
  const BoundQuery& q = workload_.queries[0];
  std::vector<CandidateIndex> cands = GenerateCandidates(fault, workload_);
  ASSERT_FALSE(cands.empty());

  WhatIfOptimizer whatif(fault);
  ExpectOutageStatus("TryCost", [&] { return whatif.TryCost(q); });
  ExpectOutageStatus("TryCostUnder",
                     [&] { return whatif.TryCostUnder(q, {}); });
  ExpectOutageStatus("TryPlan", [&] { return whatif.TryPlan(q); });
  ExpectOutageStatus("TryPlanUnder",
                     [&] { return whatif.TryPlanUnder(q, {}); });
  ExpectOutageStatus("TryCostWorkload",
                     [&] { return whatif.TryCostWorkload(workload_, {}); });

  CoPhyAdvisor cophy(fault, ForceExactOptions().cophy);
  ExpectOutageStatus("CoPhy TryRecommend",
                     [&] { return cophy.TryRecommend(workload_); });
  ExpectOutageStatus("CoPhy TryRecommendWithCandidates", [&] {
    return cophy.TryRecommendWithCandidates(workload_, cands);
  });
  ExpectOutageStatus("CoPhy TryPrepare",
                     [&] { return cophy.TryPrepare(workload_, cands); });

  Designer designer(fault, ForceExactOptions());
  PhysicalDesign design;
  design.AddIndex(cands[0].index);
  std::vector<IndexDef> indexes = {cands[0].index};
  if (cands.size() > 1) indexes.push_back(cands[1].index);
  ExpectOutageStatus("Designer TryEvaluateDesigns", [&] {
    return designer.TryEvaluateDesigns(workload_, {design});
  });
  ExpectOutageStatus("Designer TryRecommendOffline", [&] {
    return designer.TryRecommendOffline(workload_, 1e9);
  });
  ExpectOutageStatus("Designer RecommendIndexes", [&] {
    return designer.RecommendIndexes(workload_, {});
  });
  ExpectOutageStatus("Designer AnalyzeInteractions", [&] {
    return designer.AnalyzeInteractions(workload_, indexes);
  });
  ExpectOutageStatus("Designer ScheduleMaterialization", [&] {
    return designer.ScheduleMaterialization(workload_, indexes);
  });

  // Greedy and AutoPart price designs with a default INUM, whose
  // populate and reuse paths never leave the client: the outage is
  // invisible to them and they still answer, without throwing.
  GreedyAdvisor greedy(fault);
  Result<GreedyResult> greedy_rec = Status::Internal("not run");
  EXPECT_NO_THROW(greedy_rec = greedy.TryRecommend(workload_));
  EXPECT_TRUE(greedy_rec.ok()) << greedy_rec.status().ToString();
  EXPECT_NO_THROW(greedy_rec =
                      greedy.TryRecommendWithCandidates(workload_, cands));
  EXPECT_TRUE(greedy_rec.ok()) << greedy_rec.status().ToString();
  AutoPartAdvisor autopart(fault);
  Result<PartitionRecommendation> parts = Status::Internal("not run");
  EXPECT_NO_THROW(parts = autopart.Recommend(workload_));
  EXPECT_TRUE(parts.ok()) << parts.status().ToString();

  EXPECT_GT(fault.counters().calls, 0u);
}

// ---------------------------------------------------------------------------
// ThreadPool first-error short-circuit (satellite).

TEST(FaultThreadPool, ParallelForCancelsRemainingWorkOnError) {
  ThreadPool pool(4);
  constexpr size_t kN = 100000;
  std::atomic<size_t> executed{0};
  Status caught;
  try {
    pool.ParallelFor(kN, 4, [&](size_t i) {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (i == 0) {
        throw StatusException(Status::Unavailable("backend down"));
      }
    });
    FAIL() << "expected StatusException";
  } catch (const StatusException& e) {
    caught = e.status();
  }
  EXPECT_EQ(caught.code(), StatusCode::kUnavailable);
  // The error at index 0 cancels everything above it; only in-flight
  // claims may still run.
  EXPECT_LT(executed.load(), kN / 2);
}

// ---------------------------------------------------------------------------
// TraceBackend round-trip of a recovered faulty run (satellite).

TEST_F(FaultTest, TraceRoundTripOfRecoveredFaultyRun) {
  InMemoryBackend inner(*db_);
  FaultInjectingBackend fault(inner, FaultPlan::Transient(0x7124CE, 0.3, 2));
  RetryPolicy policy;
  policy.max_attempts = 4;
  ResilientBackend resilient(fault, policy);

  // Record above the resilience layer: the trace sees only recovered,
  // validated answers — faults are absorbed below the recorder.
  std::unique_ptr<TraceBackend> recorder = TraceBackend::Record(resilient);
  LoopOutcome recorded = RunSessionLoop(*recorder, workload_);
  ASSERT_TRUE(recorded.rec_status.ok());
  EXPECT_GT(recorder->num_recorded_costs(), 0u);

  Result<std::unique_ptr<TraceBackend>> replay =
      TraceBackend::FromJson(recorder->ToJson());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  LoopOutcome replayed = RunSessionLoop(*replay.value(), workload_);
  ExpectLoopEqual(replayed, recorded);
}

}  // namespace
}  // namespace dbdesign
