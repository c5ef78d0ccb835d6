// Multi-tenant TuningServer tests: registry lifecycle, cross-session
// atom sharing over the shared store (pointer-identical rows, hit
// counters), copy-on-write isolation (one session's Refine never
// perturbs another's state or results), zero constraint leakage,
// RunBatch bit-identical to a serial replay at any thread count,
// coalescer result-transparency, and server-level degradation when a
// schema's backend goes bad underneath its sessions.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/fault_backend.h"
#include "backend/inmemory_backend.h"
#include "backend/resilient_backend.h"
#include "server/server.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

Database SmallDb(int rows = 1200, uint64_t seed = 31) {
  SdssConfig cfg;
  cfg.photoobj_rows = rows;
  cfg.seed = seed;
  return BuildSdssDatabase(cfg);
}

Workload SmallWorkload(const Database& db, int n = 6, uint64_t seed = 5) {
  return GenerateWorkload(db, TemplateMix::OfflineDefault(), n, seed);
}

void SetSessionWorkload(TuningServer& server, const std::string& id,
                        const Workload& w) {
  ASSERT_TRUE(server
                  .WithSession(id, [&](DesignSession& session) {
                    session.SetWorkload(w);
                  })
                  .ok());
}

void ExpectSameRecommendation(const IndexRecommendation& a,
                              const IndexRecommendation& b) {
  ASSERT_EQ(a.indexes.size(), b.indexes.size());
  for (size_t i = 0; i < a.indexes.size(); ++i) {
    EXPECT_EQ(a.indexes[i].Key(), b.indexes[i].Key());
  }
  EXPECT_EQ(a.total_size_pages, b.total_size_pages);
  EXPECT_EQ(a.base_cost, b.base_cost);
  EXPECT_EQ(a.recommended_cost, b.recommended_cost);
  EXPECT_EQ(a.per_query_cost, b.per_query_cost);
}

void ExpectSamePlan(const DeploymentPlan& a, const DeploymentPlan& b) {
  ASSERT_EQ(a.indexes.size(), b.indexes.size());
  for (size_t i = 0; i < a.indexes.size(); ++i) {
    EXPECT_EQ(a.indexes[i].Key(), b.indexes[i].Key());
  }
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.clusters, b.clusters);
  ASSERT_EQ(a.schedule.steps.size(), b.schedule.steps.size());
  for (size_t i = 0; i < a.schedule.steps.size(); ++i) {
    EXPECT_EQ(a.schedule.steps[i].index.Key(), b.schedule.steps[i].index.Key());
    EXPECT_EQ(a.schedule.steps[i].cost_after, b.schedule.steps[i].cost_after);
  }
  EXPECT_EQ(a.schedule.base_cost, b.schedule.base_cost);
  EXPECT_EQ(a.schedule.final_cost, b.schedule.final_cost);
  EXPECT_EQ(a.schedule.total_pages, b.schedule.total_pages);
}

void ExpectSameResponse(const SessionResponse& a, const SessionResponse& b) {
  EXPECT_EQ(a.session, b.session);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.status.code(), b.status.code());
  ASSERT_EQ(a.recommendation.has_value(), b.recommendation.has_value());
  if (a.recommendation.has_value()) {
    ExpectSameRecommendation(*a.recommendation, *b.recommendation);
  }
  ASSERT_EQ(a.plan.has_value(), b.plan.has_value());
  if (a.plan.has_value()) ExpectSamePlan(*a.plan, *b.plan);
}

TEST(ServerTest, RegistryLifecycle) {
  Database db = SmallDb();
  InMemoryBackend backend(db);
  TuningServer server;

  EXPECT_EQ(server.RegisterSchema("", backend).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
  EXPECT_EQ(server.RegisterSchema("sdss", backend).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(server.SchemaNames(), std::vector<std::string>{"sdss"});

  EXPECT_EQ(server.OpenSession("a", "nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(server.OpenSession("", "sdss").code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(server.OpenSession("a", "sdss").ok());
  EXPECT_EQ(server.OpenSession("a", "sdss").code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(server.OpenSession("b", "sdss").ok());
  EXPECT_TRUE(server.HasSession("a"));
  EXPECT_EQ(server.SessionIds().size(), 2u);

  ASSERT_TRUE(server.CloseSession("a").ok());
  EXPECT_FALSE(server.HasSession("a"));
  EXPECT_EQ(server.CloseSession("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(server.WithSession("a", [](DesignSession&) {}).code(),
            StatusCode::kNotFound);

  TuningServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_open, 1u);
  EXPECT_EQ(stats.sessions_total, 2u);
}

// Sessions tuning the same schema share atom rows: the second session's
// first Recommend adopts the first session's published rows (pointer
// identity, not just value equality) and its results are bit-identical.
TEST(ServerTest, SharedSchemaSessionsShareAtomRows) {
  Database db = SmallDb();
  InMemoryBackend backend(db);
  Workload w = SmallWorkload(db);

  TuningServer server;
  ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
  ASSERT_TRUE(server.OpenSession("a", "sdss").ok());
  ASSERT_TRUE(server.OpenSession("b", "sdss").ok());
  SetSessionWorkload(server, "a", w);
  SetSessionWorkload(server, "b", w);

  std::vector<SessionResponse> responses = server.RunBatch({
      {"a", SessionOp::kRecommend, {}},
  });
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  responses.push_back(server.RunBatch({{"b", SessionOp::kRecommend, {}}})[0]);
  ASSERT_TRUE(responses[1].status.ok()) << responses[1].status.ToString();
  ExpectSameRecommendation(*responses[0].recommendation,
                           *responses[1].recommendation);

  // b was served entirely from a's populates.
  Result<AtomStoreStats> b_stats = server.SessionAtomStats("b");
  ASSERT_TRUE(b_stats.ok());
  EXPECT_GT(b_stats.value().hits, 0u);
  EXPECT_EQ(b_stats.value().misses, 0u);

  // The shared rows are the same objects, not copies.
  std::vector<std::shared_ptr<const CoPhyAtomRow>> rows_a;
  std::vector<std::shared_ptr<const CoPhyAtomRow>> rows_b;
  ASSERT_TRUE(server
                  .WithSession("a", [&](DesignSession& s) {
                    rows_a = s.prepared_state().rows;
                  })
                  .ok());
  ASSERT_TRUE(server
                  .WithSession("b", [&](DesignSession& s) {
                    rows_b = s.prepared_state().rows;
                  })
                  .ok());
  ASSERT_EQ(rows_a.size(), rows_b.size());
  ASSERT_FALSE(rows_a.empty());
  for (size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].get(), rows_b[i].get()) << "row " << i;
  }

  AtomStoreStats store = server.atom_store().stats();
  EXPECT_GT(store.publishes, 0u);
  EXPECT_GT(store.hits, 0u);
  EXPECT_EQ(store.repopulates, 0u);
}

// Schema identity is structural: two separately-built but identical
// substrates fingerprint the same and share rows across schema names;
// a different substrate fingerprints differently and shares nothing.
TEST(ServerTest, SchemaFingerprintGovernsSharing) {
  Database db1 = SmallDb(1200, 31);
  Database db2 = SmallDb(1200, 31);   // identical build
  Database other = SmallDb(900, 77);  // different substrate
  InMemoryBackend be1(db1);
  InMemoryBackend be2(db2);
  InMemoryBackend be3(other);

  TuningServer server;
  ASSERT_TRUE(server.RegisterSchema("s1", be1).ok());
  ASSERT_TRUE(server.RegisterSchema("s2", be2).ok());
  ASSERT_TRUE(server.RegisterSchema("other", be3).ok());
  ASSERT_TRUE(server.OpenSession("a", "s1").ok());
  ASSERT_TRUE(server.OpenSession("b", "s2").ok());
  ASSERT_TRUE(server.OpenSession("c", "other").ok());

  Result<uint64_t> fp_a = server.SessionSchemaFingerprint("a");
  Result<uint64_t> fp_b = server.SessionSchemaFingerprint("b");
  Result<uint64_t> fp_c = server.SessionSchemaFingerprint("c");
  ASSERT_TRUE(fp_a.ok() && fp_b.ok() && fp_c.ok());
  EXPECT_EQ(fp_a.value(), fp_b.value());
  EXPECT_NE(fp_a.value(), fp_c.value());

  Workload w1 = SmallWorkload(db1);
  SetSessionWorkload(server, "a", w1);
  SetSessionWorkload(server, "b", SmallWorkload(db2));
  SetSessionWorkload(server, "c", SmallWorkload(other));

  ASSERT_TRUE(server.RunBatch({{"a", SessionOp::kRecommend, {}}})[0]
                  .status.ok());
  ASSERT_TRUE(server.RunBatch({{"b", SessionOp::kRecommend, {}}})[0]
                  .status.ok());
  ASSERT_TRUE(server.RunBatch({{"c", SessionOp::kRecommend, {}}})[0]
                  .status.ok());

  Result<AtomStoreStats> b_stats = server.SessionAtomStats("b");
  Result<AtomStoreStats> c_stats = server.SessionAtomStats("c");
  ASSERT_TRUE(b_stats.ok() && c_stats.ok());
  EXPECT_GT(b_stats.value().hits, 0u) << "identical substrate must share";
  EXPECT_EQ(c_stats.value().hits, 0u) << "distinct substrate must not share";
}

// Zero constraint leakage + copy-on-write: a's pins/vetoes change a's
// results only; b's shared rows are untouched (same pointers) and b's
// next Recommend is bit-identical to a session that tuned alone.
TEST(ServerTest, ConstraintIsolationAndCopyOnWrite) {
  Database db = SmallDb();
  InMemoryBackend backend(db);
  Workload w = SmallWorkload(db, 8, 11);

  // Solo baseline: one session, no neighbors.
  Database solo_db = SmallDb();
  InMemoryBackend solo_backend(solo_db);
  Designer solo_designer(solo_backend);
  DesignSession solo(solo_designer);
  solo.SetWorkload(w);
  Result<IndexRecommendation> baseline = solo.Recommend();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_FALSE(baseline.value().indexes.empty());

  TuningServer server;
  ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
  ASSERT_TRUE(server.OpenSession("a", "sdss").ok());
  ASSERT_TRUE(server.OpenSession("b", "sdss").ok());
  SetSessionWorkload(server, "a", w);
  SetSessionWorkload(server, "b", w);

  auto first = server.RunBatch({{"a", SessionOp::kRecommend, {}},
                                {"b", SessionOp::kRecommend, {}}});
  ASSERT_TRUE(first[0].status.ok());
  ASSERT_TRUE(first[1].status.ok());
  ExpectSameRecommendation(*first[1].recommendation, baseline.value());

  std::vector<std::shared_ptr<const CoPhyAtomRow>> b_rows_before;
  ASSERT_TRUE(server
                  .WithSession("b", [&](DesignSession& s) {
                    b_rows_before = s.prepared_state().rows;
                  })
                  .ok());

  // a vetoes its own top recommendation — a visible, binding edit.
  ConstraintDelta delta;
  delta.veto.push_back(first[0].recommendation->indexes.front());
  auto refined = server.RunBatch({{"a", SessionOp::kRefine, delta}});
  ASSERT_TRUE(refined[0].status.ok()) << refined[0].status.ToString();
  for (const IndexDef& idx : refined[0].recommendation->indexes) {
    EXPECT_FALSE(idx == delta.veto.front()) << "veto must bind for a";
  }

  // COW: b's rows are the same objects as before a's edit.
  std::vector<std::shared_ptr<const CoPhyAtomRow>> b_rows_after;
  ASSERT_TRUE(server
                  .WithSession("b", [&](DesignSession& s) {
                    b_rows_after = s.prepared_state().rows;
                  })
                  .ok());
  ASSERT_EQ(b_rows_before.size(), b_rows_after.size());
  for (size_t i = 0; i < b_rows_before.size(); ++i) {
    EXPECT_EQ(b_rows_before[i].get(), b_rows_after[i].get()) << "row " << i;
  }

  // No leakage: b still matches the solo session exactly.
  auto again = server.RunBatch({{"b", SessionOp::kRecommend, {}}});
  ASSERT_TRUE(again[0].status.ok());
  ExpectSameRecommendation(*again[0].recommendation, baseline.value());
}

// The cluster partition rides inside the prepared state (it is derived
// from the shared atom rows, not stored with them), so cluster-
// decomposed solving composes with cross-session sharing: sessions over
// pointer-identical rows derive identical partitions, and one session's
// constraint edit — which re-solves only its own dirtied clusters via
// its private solver cache — leaves the neighbor's partition untouched.
TEST(ServerTest, ClusterPartitionIsPerSessionOverSharedRows) {
  Database db = SmallDb();
  InMemoryBackend backend(db);
  Workload w = SmallWorkload(db, 8, 11);

  TuningServer server;
  ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
  ASSERT_TRUE(server.OpenSession("a", "sdss").ok());
  ASSERT_TRUE(server.OpenSession("b", "sdss").ok());
  SetSessionWorkload(server, "a", w);
  SetSessionWorkload(server, "b", w);

  auto first = server.RunBatch({{"a", SessionOp::kRecommend, {}},
                                {"b", SessionOp::kRecommend, {}}});
  ASSERT_TRUE(first[0].status.ok());
  ASSERT_TRUE(first[1].status.ok());

  ClusterPartition part_a, part_b;
  std::vector<std::shared_ptr<const CoPhyAtomRow>> rows_a, rows_b;
  ASSERT_TRUE(server
                  .WithSession("a", [&](DesignSession& s) {
                    part_a = s.prepared_state().clusters;
                    rows_a = s.prepared_state().rows;
                  })
                  .ok());
  ASSERT_TRUE(server
                  .WithSession("b", [&](DesignSession& s) {
                    part_b = s.prepared_state().clusters;
                    rows_b = s.prepared_state().rows;
                  })
                  .ok());
  // Shared rows, independent (but identical) partitions.
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].get(), rows_b[i].get()) << "row " << i;
  }
  ASSERT_GT(part_a.num_clusters(), 0);
  EXPECT_EQ(part_a.clusters, part_b.clusters);
  EXPECT_EQ(part_a.cluster_of, part_b.cluster_of);

  // a's veto re-solve must not perturb b's partition (or rows).
  ConstraintDelta delta;
  delta.veto.push_back(first[0].recommendation->indexes.front());
  ASSERT_TRUE(server.RunBatch({{"a", SessionOp::kRefine, delta}})[0]
                  .status.ok());
  ClusterPartition part_b_after;
  std::vector<std::shared_ptr<const CoPhyAtomRow>> rows_b_after;
  ASSERT_TRUE(server
                  .WithSession("b", [&](DesignSession& s) {
                    part_b_after = s.prepared_state().clusters;
                    rows_b_after = s.prepared_state().rows;
                  })
                  .ok());
  EXPECT_EQ(part_b.clusters, part_b_after.clusters);
  ASSERT_EQ(rows_b.size(), rows_b_after.size());
  for (size_t i = 0; i < rows_b.size(); ++i) {
    EXPECT_EQ(rows_b[i].get(), rows_b_after[i].get()) << "row " << i;
  }
}

// The batch scheduler is transparent: a mixed multi-session batch run
// with full parallelism produces bit-identical responses to the same
// batch on a serial (num_threads = 1) server.
TEST(ServerTest, RunBatchMatchesSerialReplay) {
  auto build = [](int num_threads, std::vector<SessionResponse>& out,
                  Database& db1, Database& db2) {
    TuningServerOptions opts;
    opts.num_threads = num_threads;
    InMemoryBackend be1(db1);
    InMemoryBackend be2(db2);
    TuningServer server(opts);
    ASSERT_TRUE(server.RegisterSchema("s1", be1).ok());
    ASSERT_TRUE(server.RegisterSchema("s2", be2).ok());

    Workload w1 = SmallWorkload(db1, 6, 5);
    Workload w1b = SmallWorkload(db1, 5, 19);
    Workload w2 = SmallWorkload(db2, 6, 7);
    const char* ids[] = {"a", "b", "c", "d", "e", "f"};
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(server.OpenSession(ids[i], i < 4 ? "s1" : "s2").ok());
    }
    for (const char* id : {"a", "b", "c"}) SetSessionWorkload(server, id, w1);
    SetSessionWorkload(server, "d", w1b);
    for (const char* id : {"e", "f"}) SetSessionWorkload(server, id, w2);

    ConstraintDelta budget;
    budget.storage_budget_pages = 400.0;
    std::vector<SessionRequest> requests = {
        {"a", SessionOp::kRecommend, {}},
        {"b", SessionOp::kRecommend, {}},
        {"c", SessionOp::kRecommend, {}},
        {"d", SessionOp::kRecommend, {}},
        {"e", SessionOp::kRecommend, {}},
        {"f", SessionOp::kRecommend, {}},
        {"a", SessionOp::kRefine, budget},
        {"b", SessionOp::kPlanDeployment, {}},
        {"e", SessionOp::kPlanDeployment, {}},
        {"ghost", SessionOp::kRecommend, {}},
        {"a", SessionOp::kPlanDeployment, {}},
        {"d", SessionOp::kRefine, budget},
    };
    out = server.RunBatch(requests);
  };

  std::vector<SessionResponse> parallel_out;
  std::vector<SessionResponse> serial_out;
  {
    Database db1 = SmallDb(1200, 31);
    Database db2 = SmallDb(900, 77);
    build(/*num_threads=*/0, parallel_out, db1, db2);
  }
  {
    Database db1 = SmallDb(1200, 31);
    Database db2 = SmallDb(900, 77);
    build(/*num_threads=*/1, serial_out, db1, db2);
  }

  ASSERT_EQ(parallel_out.size(), serial_out.size());
  for (size_t i = 0; i < parallel_out.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameResponse(parallel_out[i], serial_out[i]);
  }
  // The unknown session fails honestly; everything else succeeds.
  EXPECT_EQ(parallel_out[9].status.code(), StatusCode::kNotFound);
  for (size_t i = 0; i < parallel_out.size(); ++i) {
    if (i != 9) {
      EXPECT_TRUE(parallel_out[i].status.ok()) << i;
    }
  }
}

// The coalescer is result-transparent: with INUM forced through the
// backend seam, concurrent cold sessions produce the same answers with
// coalescing on and off, and coalescing actually sees traffic.
TEST(ServerTest, CoalescerPreservesResults) {
  auto run = [](bool coalesce, std::vector<SessionResponse>& out,
                CoalescerStats& stats) {
    Database db = SmallDb(800, 13);
    InMemoryBackend backend(db);
    TuningServerOptions opts;
    opts.designer.cophy.inum.force_exact = true;
    opts.coalesce_backend_calls = coalesce;
    TuningServer server(opts);
    ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());

    Workload w = SmallWorkload(db, 5, 3);
    const char* ids[] = {"a", "b", "c", "d"};
    std::vector<SessionRequest> requests;
    for (const char* id : ids) {
      ASSERT_TRUE(server.OpenSession(id, "sdss").ok());
      SetSessionWorkload(server, id, w);
      requests.push_back({id, SessionOp::kRecommend, {}});
    }
    out = server.RunBatch(requests);
    stats = server.stats().coalescer;
  };

  std::vector<SessionResponse> with;
  std::vector<SessionResponse> without;
  CoalescerStats stats_with;
  CoalescerStats stats_without;
  run(true, with, stats_with);
  run(false, without, stats_without);

  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(with[i].status.ok()) << with[i].status.ToString();
    ExpectSameResponse(with[i], without[i]);
  }
  EXPECT_GT(stats_with.calls, 0u);
  EXPECT_LE(stats_with.round_trips, stats_with.calls);
  EXPECT_EQ(stats_without.calls, 0u) << "disabled coalescer must see nothing";
}

// Server-level degradation: one schema's backend failing terminally
// yields honest per-request Statuses on its sessions while sessions on
// healthy schemas keep working; a recoverable backend stays
// bit-identical to a clean run.
TEST(ServerTest, DegradedSchemaDoesNotPoisonTheServer) {
  Database db = SmallDb(800, 13);
  Workload w = SmallWorkload(db, 5, 3);

  TuningServerOptions opts;
  opts.designer.cophy.inum.force_exact = true;

  // Clean baseline for the recoverable comparison.
  IndexRecommendation clean;
  {
    InMemoryBackend backend(db);
    TuningServer server(opts);
    ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
    ASSERT_TRUE(server.OpenSession("ref", "sdss").ok());
    SetSessionWorkload(server, "ref", w);
    auto out = server.RunBatch({{"ref", SessionOp::kRecommend, {}}});
    ASSERT_TRUE(out[0].status.ok()) << out[0].status.ToString();
    clean = *out[0].recommendation;
  }

  InMemoryBackend flaky_inner(db);
  FaultInjectingBackend flaky(flaky_inner, FaultPlan::Transient(0xB0B, 0.2, 2));
  RetryPolicy policy;
  policy.max_attempts = 4;
  ResilientBackend flaky_resilient(flaky, policy);

  InMemoryBackend dead_inner(db);
  FaultInjectingBackend dead(dead_inner, FaultPlan::Transient(0xCAFE, 1.0, 64));
  RetryPolicy strict;
  strict.max_attempts = 2;
  ResilientBackend dead_resilient(dead, strict);

  InMemoryBackend healthy_backend(db);
  TuningServer server(opts);
  ASSERT_TRUE(server.RegisterSchema("healthy", healthy_backend).ok());
  ASSERT_TRUE(server.RegisterSchema("flaky", flaky_resilient).ok());
  ASSERT_TRUE(server.RegisterSchema("dead", dead_resilient).ok());
  ASSERT_TRUE(server.OpenSession("h", "healthy").ok());
  ASSERT_TRUE(server.OpenSession("r", "flaky").ok());
  ASSERT_TRUE(server.OpenSession("x", "dead").ok());
  SetSessionWorkload(server, "h", w);
  SetSessionWorkload(server, "r", w);
  SetSessionWorkload(server, "x", w);

  auto out = server.RunBatch({{"x", SessionOp::kRecommend, {}},
                              {"h", SessionOp::kRecommend, {}},
                              {"r", SessionOp::kRecommend, {}}});

  // The dead schema degrades honestly...
  EXPECT_FALSE(out[0].status.ok());
  EXPECT_TRUE(out[0].status.IsRetryable()) << out[0].status.ToString();
  // ...while its neighbors are untouched, and the recoverable backend
  // is bit-identical to the clean run.
  ASSERT_TRUE(out[1].status.ok()) << out[1].status.ToString();
  ASSERT_TRUE(out[2].status.ok()) << out[2].status.ToString();
  ExpectSameRecommendation(*out[1].recommendation, clean);
  ExpectSameRecommendation(*out[2].recommendation, clean);

  // The degraded session recovers once its backend does: the fault
  // plan is per-call-schedule, so a server that keeps serving can keep
  // answering other sessions and report the failure to this one only.
  EXPECT_TRUE(server.HasSession("x"));
}

// Closing sessions underneath a running batch is safe: in-flight
// requests complete on the reference-counted entry, later lookups get
// honest kNotFound, and the registry stays consistent.
TEST(ServerTest, CloseDuringBatchIsSafe) {
  Database db = SmallDb(800, 13);
  InMemoryBackend backend(db);
  Workload w = SmallWorkload(db, 5, 3);

  TuningServer server;
  ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
  constexpr int kSessions = 8;
  std::vector<SessionRequest> requests;
  for (int i = 0; i < kSessions; ++i) {
    std::string id = "s" + std::to_string(i);
    ASSERT_TRUE(server.OpenSession(id, "sdss").ok());
    SetSessionWorkload(server, id, w);
    requests.push_back({id, SessionOp::kRecommend, {}});
    requests.push_back({id, SessionOp::kPlanDeployment, {}});
  }

  std::vector<SessionResponse> out;
  std::thread batch([&] { out = server.RunBatch(requests); });
  // Race opens/closes against the batch; entries resolved before a
  // close still serve their requests.
  for (int i = 0; i < kSessions; i += 2) {
    ASSERT_TRUE(server.CloseSession("s" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(server.OpenSession("late", "sdss").ok());
  batch.join();

  ASSERT_EQ(out.size(), requests.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i].status.ok() ||
                out[i].status.code() == StatusCode::kNotFound)
        << i << ": " << out[i].status.ToString();
  }
  EXPECT_EQ(server.SessionIds().size(), kSessions / 2 + 1);
  // Closed ids are reusable and the server still serves.
  ASSERT_TRUE(server.OpenSession("s0", "sdss").ok());
  SetSessionWorkload(server, "s0", w);
  auto again = server.RunBatch({{"s0", SessionOp::kRecommend, {}}});
  EXPECT_TRUE(again[0].status.ok()) << again[0].status.ToString();
}

}  // namespace
}  // namespace dbdesign
