// Multi-tenant TuningServer tests: registry lifecycle, cross-session
// atom sharing over the shared store (pointer-identical rows, hit
// counters), copy-on-write isolation (one session's Refine never
// perturbs another's state or results), zero constraint leakage,
// RunBatch bit-identical to a serial replay at any thread count (also
// with INUM forced through the backend seam, so concurrent sessions
// call the backend at once), and server-level degradation when a
// schema's backend goes bad underneath its sessions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/fault_backend.h"
#include "backend/inmemory_backend.h"
#include "backend/resilient_backend.h"
#include "server/server.h"
#include "sql/binder.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

// "k" + std::to_string(i) built by appends: GCC 12 reports a false
// -Wrestrict on the operator+ form at -O3.
template <typename Int>
std::string Numbered(const char* prefix, Int i) {
  std::string key = prefix;
  key += std::to_string(i);
  return key;
}

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

// Polls `done` until it holds (true) or ten seconds pass (false).
template <typename Pred>
bool WaitUntil(Pred done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

AtomStoreStats SessionStats(const TuningServer& server, const std::string& id) {
  Result<AtomStoreStats> stats = server.SessionAtomStats(id);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return stats.ok() ? stats.value() : AtomStoreStats{};
}

uint64_t PopulateCount(TuningServer& server, const std::string& id) {
  uint64_t count = 0;
  EXPECT_TRUE(server
                  .WithSession(id, [&](DesignSession& s) {
                    count = s.inum_populate_count();
                  })
                  .ok());
  return count;
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
// batch on a serial (num_threads = 1) server. With INUM forced exact,
// every session's costs come from the registered backend, which
// concurrent sessions then call at the same time.
TEST(ServerTest, RunBatchMatchesSerialReplay) {
  auto build = [](int num_threads, bool force_exact,
                  std::vector<SessionResponse>& out, Database& db1,
                  Database& db2) {
    TuningServerOptions opts;
    opts.num_threads = num_threads;
    opts.designer.cophy.inum.force_exact = force_exact;
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
    if (force_exact) {
      EXPECT_GT(be1.num_optimizer_calls(), 0u);
      EXPECT_GT(be2.num_optimizer_calls(), 0u);
    }
  };

  for (bool force_exact : {false, true}) {
    SCOPED_TRACE(force_exact ? "force_exact" : "inum");
    std::vector<SessionResponse> parallel_out;
    std::vector<SessionResponse> serial_out;
    {
      Database db1 = SmallDb(1200, 31);
      Database db2 = SmallDb(900, 77);
      build(/*num_threads=*/0, force_exact, parallel_out, db1, db2);
    }
    {
      Database db1 = SmallDb(1200, 31);
      Database db2 = SmallDb(900, 77);
      build(/*num_threads=*/1, force_exact, serial_out, db1, db2);
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

  // The dead schema sits on a substrate with other statistics, so its
  // fingerprint differs from the healthy schemas' and its session can
  // never adopt a row they built: it must reach its own backend.
  Database dead_db = SmallDb(800, 14);
  InMemoryBackend dead_inner(dead_db);
  FaultInjectingBackend dead(dead_inner, FaultPlan::Transient(0xCAFE, 1.0, 64));
  RetryPolicy strict;
  strict.max_attempts = 2;
  ResilientBackend dead_resilient(dead, strict);

  InMemoryBackend healthy_backend(db);
  TuningServer server(opts);
  ASSERT_TRUE(server.RegisterSchema("healthy", healthy_backend).ok());
  ASSERT_TRUE(server.RegisterSchema("flaky", flaky_resilient).ok());
  ASSERT_TRUE(server.RegisterSchema("dead", dead_resilient).ok());
  ASSERT_NE(SchemaFingerprint(dead_resilient),
            SchemaFingerprint(healthy_backend));
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
    std::string id = Numbered("s", i);
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
    ASSERT_TRUE(server.CloseSession(Numbered("s", i)).ok());
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

// --- Single-flight atom builds ---

// A decorator whose optimizer calls block until the test opens its gate
// and then go to the wrapped backend (here one in an outage, so they
// fail): it holds a session mid-build on a key it has claimed.
class GatedBackend final : public DbmsBackend {
 public:
  explicit GatedBackend(DbmsBackend& inner) : inner_(&inner) {}

  void Open() { open_.store(true); }
  int entered() const { return entered_.load(); }

  std::string name() const override { return "gated"; }
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
    Gate();
    return inner_->OptimizeQuery(query, design, knobs);
  }
  Result<double> CostQuery(const BoundQuery& query,
                           const PhysicalDesign& design,
                           const PlannerKnobs& knobs) override {
    Gate();
    return inner_->CostQuery(query, design, knobs);
  }
  Result<std::vector<double>> CostBatch(std::span<const BoundQuery> queries,
                                        const PhysicalDesign& design,
                                        const PlannerKnobs& knobs) override {
    Gate();
    return inner_->CostBatch(queries, design, knobs);
  }
  PartialCosts CostBatchPartial(std::span<const BoundQuery> queries,
                                const PhysicalDesign& design,
                                const PlannerKnobs& knobs) override {
    Gate();
    return inner_->CostBatchPartial(queries, design, knobs);
  }
  uint64_t num_optimizer_calls() const override {
    return inner_->num_optimizer_calls();
  }
  void ResetCallCount() override { inner_->ResetCallCount(); }

 private:
  void Gate() {
    entered_.fetch_add(1);
    EXPECT_TRUE(WaitUntil([this] { return open_.load(); }));
  }

  DbmsBackend* inner_;
  std::atomic<bool> open_{false};
  std::atomic<int> entered_{0};
};

// A claimant outside the pool (a one-request RunBatch runs on its
// caller) that entered the shared pool for its populate would wait on
// the pool's submission lock, held by a concurrent 8-request RunBatch
// whose tasks wait on that very claim: a deadlock. Claimed builds run
// inline, so every iteration completes, and every session on the same
// workload gets the same answer.
TEST(ServerTest, InlineClaimantDoesNotDeadlockABatch) {
  Database db = SmallDb();
  InMemoryBackend backend(db);
  Workload w = GenerateWorkload(db, TemplateMix::Uniform(), 64, 11);
  constexpr int kIterations = 300;
  constexpr int kBatch = 8;
  for (int iter = 0; iter < kIterations; ++iter) {
    TuningServer server;
    ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
    std::vector<SessionRequest> batch;
    for (int i = 0; i <= kBatch; ++i) {
      std::string id = Numbered("s", i);
      ASSERT_TRUE(server.OpenSession(id, "sdss").ok());
      SetSessionWorkload(server, id, w);
      if (i < kBatch) batch.push_back({id, SessionOp::kRecommend, {}});
    }
    std::vector<SessionResponse> lone;
    std::thread outside([&] {
      lone = server.RunBatch(
          {{Numbered("s", kBatch), SessionOp::kRecommend, {}}});
    });
    std::vector<SessionResponse> out = server.RunBatch(batch);
    outside.join();
    out.push_back(lone.at(0));
    for (const SessionResponse& r : out) {
      ASSERT_TRUE(r.status.ok()) << "iteration " << iter << ": "
                                 << r.status.ToString();
      ExpectSameRecommendation(*r.recommendation, *out[0].recommendation);
    }
    AtomStoreStats store = server.atom_store().stats();
    ASSERT_EQ(store.races_discarded, 0u) << "iteration " << iter;
    ASSERT_EQ(store.lookups, store.hits + store.misses);
  }
}

// Per-session counters add up to the store's: exactly on a serial
// server (the first session builds every key, the others hit), and as
// sums under concurrency, where every key is still built exactly once.
TEST(ServerTest, SessionAtomCountersAddUpToTheStore) {
  Database db = SmallDb(800, 13);
  InMemoryBackend backend(db);
  Workload w = SmallWorkload(db, 6, 5);

  auto run = [&](int threads, int sessions, std::vector<AtomStoreStats>* per,
                 AtomStoreStats* store) {
    TuningServerOptions opts;
    opts.num_threads = threads;
    TuningServer server(opts);
    ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
    std::vector<SessionRequest> requests;
    for (int i = 0; i < sessions; ++i) {
      std::string id = Numbered("s", i);
      ASSERT_TRUE(server.OpenSession(id, "sdss").ok());
      SetSessionWorkload(server, id, w);
      requests.push_back({id, SessionOp::kRecommend, {}});
    }
    for (const SessionResponse& r : server.RunBatch(requests)) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    }
    for (int i = 0; i < sessions; ++i) {
      per->push_back(SessionStats(server, Numbered("s", i)));
    }
    *store = server.atom_store().stats();
  };

  std::vector<AtomStoreStats> serial;
  AtomStoreStats serial_store;
  run(1, 3, &serial, &serial_store);
  uint64_t keys = serial[0].lookups;
  ASSERT_GT(keys, 0u);
  EXPECT_EQ(serial[0].misses, keys);
  EXPECT_EQ(serial[0].hits, 0u);
  EXPECT_EQ(serial[0].publishes, keys);
  for (const AtomStoreStats& s : serial) {
    EXPECT_EQ(s.lookups, keys);
    EXPECT_EQ(s.inflight_waits, 0u);
    EXPECT_EQ(s.races_discarded, 0u);
  }
  for (size_t i = 1; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].hits, keys);
    EXPECT_EQ(serial[i].misses, 0u);
    EXPECT_EQ(serial[i].publishes, 0u);
  }
  EXPECT_EQ(serial_store.lookups, 3 * keys);
  EXPECT_EQ(serial_store.hits, 2 * keys);
  EXPECT_EQ(serial_store.misses, keys);
  EXPECT_EQ(serial_store.publishes, keys);
  EXPECT_EQ(serial_store.inflight_waits, 0u);
  EXPECT_EQ(serial_store.races_discarded, 0u);
  EXPECT_EQ(serial_store.repopulates, 0u);

  std::vector<AtomStoreStats> parallel;
  AtomStoreStats store;
  run(4, 8, &parallel, &store);
  AtomStoreStats sum;
  for (const AtomStoreStats& s : parallel) {
    EXPECT_EQ(s.lookups, keys);
    EXPECT_EQ(s.lookups, s.hits + s.misses);
    sum.lookups += s.lookups;
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.inflight_waits += s.inflight_waits;
    sum.publishes += s.publishes;
    sum.races_discarded += s.races_discarded;
  }
  EXPECT_EQ(sum.lookups, store.lookups);
  EXPECT_EQ(sum.hits, store.hits);
  EXPECT_EQ(sum.misses, store.misses);
  EXPECT_EQ(sum.inflight_waits, store.inflight_waits);
  EXPECT_EQ(sum.publishes, store.publishes);
  EXPECT_EQ(sum.races_discarded, store.races_discarded);
  // Single flight: every key is built once, by whichever session
  // claimed it, and nothing is built twice and thrown away.
  EXPECT_EQ(store.publishes, keys);
  EXPECT_EQ(store.misses, keys);
  EXPECT_EQ(store.races_discarded, 0u);
}

// Sessions whose keys deliberately overlap — groups on identical
// workloads, over two schemas — answer every request bit-identically to
// a serial (1-thread server, 1-thread engine) replay at 1, 2, 4 and 8
// threads, whichever session happens to build, wait for or adopt each
// key.
TEST(ServerTest, OverlappingKeysMatchSerialReplayAtAnyThreadCount) {
  Database db1 = SmallDb(1200, 31);
  Database db2 = SmallDb(900, 77);
  Workload wa = SmallWorkload(db1, 6, 5);
  Workload wb = GenerateWorkload(db1, TemplateMix::Uniform(), 12, 23);
  Workload wc = SmallWorkload(db2, 6, 7);
  ConstraintDelta budget;
  budget.storage_budget_pages = 400.0;

  auto run = [&](int threads) {
    CostParams params;
    params.num_threads = threads;
    InMemoryBackend be1(db1, params);
    InMemoryBackend be2(db2, params);
    TuningServerOptions opts;
    opts.num_threads = threads;
    TuningServer server(opts);
    EXPECT_TRUE(server.RegisterSchema("s1", be1).ok());
    EXPECT_TRUE(server.RegisterSchema("s2", be2).ok());
    std::vector<SessionRequest> requests;
    for (int i = 0; i < 9; ++i) {
      std::string id = Numbered("t", i);
      EXPECT_TRUE(server.OpenSession(id, i < 6 ? "s1" : "s2").ok());
      SetSessionWorkload(server, id, i < 3 ? wa : i < 6 ? wb : wc);
      requests.push_back({id, SessionOp::kRecommend, {}});
    }
    for (int i = 0; i < 9; ++i) {
      std::string id = Numbered("t", i);
      if (i % 3 == 1) requests.push_back({id, SessionOp::kRefine, budget});
      requests.push_back({id, SessionOp::kPlanDeployment, {}});
    }
    std::vector<SessionResponse> out = server.RunBatch(requests);
    AtomStoreStats store = server.atom_store().stats();
    EXPECT_EQ(store.races_discarded, 0u) << threads << " threads";
    return out;
  };

  std::vector<SessionResponse> serial = run(1);
  for (const SessionResponse& r : serial) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    std::vector<SessionResponse> out = run(threads);
    ASSERT_EQ(out.size(), serial.size());
    for (size_t i = 0; i < out.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameResponse(out[i], serial[i]);
    }
  }
}

// A builder whose backend goes down mid-build (an outage under
// force_exact, where every cost call crosses the seam) releases its
// claim: the session waiting on the key claims it, builds it on its own
// healthy backend, and answers exactly as a session running alone.
TEST(ServerTest, FailedBuilderReleasesItsClaimToTheWaiter) {
  Database db = SmallDb(800, 13);
  Workload w = SmallWorkload(db, 5, 3);
  TuningServerOptions opts;
  opts.designer.cophy.inum.force_exact = true;

  IndexRecommendation solo;
  {
    InMemoryBackend backend(db);
    TuningServer server(opts);
    ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
    ASSERT_TRUE(server.OpenSession("solo", "sdss").ok());
    SetSessionWorkload(server, "solo", w);
    auto out = server.RunBatch({{"solo", SessionOp::kRecommend, {}}});
    ASSERT_TRUE(out[0].status.ok()) << out[0].status.ToString();
    solo = *out[0].recommendation;
  }

  InMemoryBackend dead_inner(db);
  FaultInjectingBackend dead(dead_inner, FaultPlan::Outage());
  GatedBackend gated(dead);
  InMemoryBackend healthy(db);
  TuningServer server(opts);
  // Same substrate, so both schemas share one set of keys.
  ASSERT_TRUE(server.RegisterSchema("dead", gated).ok());
  ASSERT_TRUE(server.RegisterSchema("healthy", healthy).ok());
  ASSERT_TRUE(server.OpenSession("builder", "dead").ok());
  ASSERT_TRUE(server.OpenSession("waiter", "healthy").ok());
  SetSessionWorkload(server, "builder", w);
  SetSessionWorkload(server, "waiter", w);

  // The builder claims the first key and stalls in its first cost call.
  std::vector<SessionResponse> built;
  std::thread builder(
      [&] { built = server.RunBatch({{"builder", SessionOp::kRecommend, {}}}); });
  ASSERT_TRUE(WaitUntil([&] { return gated.entered() > 0; }));
  // The waiter builds every other key, then blocks on the held one.
  std::vector<SessionResponse> waited;
  std::thread waiter(
      [&] { waited = server.RunBatch({{"waiter", SessionOp::kRecommend, {}}}); });
  ASSERT_TRUE(WaitUntil(
      [&] { return server.atom_store().stats().inflight_waits > 0; }));
  gated.Open();
  builder.join();
  waiter.join();

  EXPECT_FALSE(built[0].status.ok());
  EXPECT_TRUE(built[0].status.IsRetryable()) << built[0].status.ToString();
  ASSERT_TRUE(waited[0].status.ok()) << waited[0].status.ToString();
  ExpectSameRecommendation(*waited[0].recommendation, solo);

  AtomStoreStats b = SessionStats(server, "builder");
  AtomStoreStats wt = SessionStats(server, "waiter");
  EXPECT_EQ(b.lookups, 1u);
  EXPECT_EQ(b.misses, 1u);
  EXPECT_EQ(b.publishes, 0u);
  EXPECT_EQ(wt.inflight_waits, 1u);
  EXPECT_EQ(wt.hits, 0u);
  EXPECT_EQ(wt.misses, wt.lookups) << "the waiter built every key itself";
  EXPECT_EQ(wt.publishes, wt.lookups);
  AtomStoreStats store = server.atom_store().stats();
  EXPECT_EQ(store.publishes, wt.lookups);
  EXPECT_EQ(store.races_discarded, 0u);
}

// A hit adopts the row's INUM plan set, so the adopter's PlanDeployment
// populates nothing. A plan set that expired with its last holder, or a
// row reloaded from a spill file (which carries none), makes the adopter
// populate instead — and the plans stay bit-identical either way.
TEST(ServerTest, AdoptedPlanSetsSkipPopulatesExpiredOnesDoNot) {
  Database db = SmallDb();
  InMemoryBackend backend(db);
  Workload w = SmallWorkload(db);

  auto recommend_and_plan = [](TuningServer& server, const std::string& id) {
    auto out = server.RunBatch({{id, SessionOp::kRecommend, {}},
                                {id, SessionOp::kPlanDeployment, {}}});
    EXPECT_TRUE(out[0].status.ok()) << out[0].status.ToString();
    EXPECT_TRUE(out[1].status.ok()) << out[1].status.ToString();
    return out;
  };
  auto open = [&](TuningServer& server, const std::string& id) {
    ASSERT_TRUE(server.OpenSession(id, "sdss").ok());
    SetSessionWorkload(server, id, w);
  };

  std::vector<SessionResponse> solo;
  {
    TuningServer server;
    ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
    open(server, "solo");
    solo = recommend_and_plan(server, "solo");
    EXPECT_GT(PopulateCount(server, "solo"), 0u);
  }
  ASSERT_TRUE(solo[0].recommendation.has_value() && solo[1].plan.has_value());
  auto expect_solo = [&solo](const std::vector<SessionResponse>& out) {
    ASSERT_TRUE(out[0].recommendation.has_value() && out[1].plan.has_value());
    ExpectSameRecommendation(*out[0].recommendation, *solo[0].recommendation);
    ExpectSamePlan(*out[1].plan, *solo[1].plan);
  };

  {
    SCOPED_TRACE("plan set alive");
    TuningServer server;
    ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
    open(server, "a");
    open(server, "b");
    recommend_and_plan(server, "a");
    std::vector<SessionResponse> out = recommend_and_plan(server, "b");
    EXPECT_EQ(SessionStats(server, "b").misses, 0u);
    EXPECT_EQ(PopulateCount(server, "b"), 0u);
    expect_solo(out);
  }

  {
    SCOPED_TRACE("plan set expired");
    TuningServer server;
    ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
    open(server, "a");
    recommend_and_plan(server, "a");
    // a's cost model held the only references to its plan sets.
    ASSERT_TRUE(server.CloseSession("a").ok());
    open(server, "b");
    std::vector<SessionResponse> out = recommend_and_plan(server, "b");
    EXPECT_EQ(SessionStats(server, "b").misses, 0u);
    EXPECT_GT(PopulateCount(server, "b"), 0u);
    expect_solo(out);
  }

  {
    SCOPED_TRACE("row reloaded from a spill");
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "server_plan_set_spill";
    std::filesystem::remove_all(dir);
    TuningServerOptions opts;
    opts.cache_budget.atom_store_bytes = 1;  // every row spills at once
    opts.spill_dir = dir.string();
    {
      TuningServer server(opts);
      ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
      open(server, "a");
      open(server, "b");
      recommend_and_plan(server, "a");
      std::vector<SessionResponse> out = recommend_and_plan(server, "b");
      EXPECT_EQ(SessionStats(server, "b").misses, 0u);
      EXPECT_GT(server.atom_store().stats().reloads, 0u);
      EXPECT_GT(PopulateCount(server, "b"), 0u);
      expect_solo(out);
    }
    std::filesystem::remove_all(dir);
  }
}

// AddQueries' new-template rows go through the store like Prepare's: a
// second tenant adding the template another tenant already added adopts
// the row and its plan set instead of populating it again.
TEST(ServerTest, AddedTemplatesAreSharedThroughTheStore) {
  Database db = SmallDb();
  InMemoryBackend backend(db);
  Workload w = SmallWorkload(db);
  // No predicate, join or ordering: it mines no candidate, so the
  // universe stays put and the rows are added incrementally.
  Result<BoundQuery> fresh =
      ParseAndBind(db.catalog(), "SELECT objid FROM photoobj");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  TuningServer server;
  ASSERT_TRUE(server.RegisterSchema("sdss", backend).ok());
  std::vector<std::shared_ptr<const CoPhyAtomRow>> added;
  for (const char* id : {"a", "b"}) {
    ASSERT_TRUE(server.OpenSession(id, "sdss").ok());
    SetSessionWorkload(server, id, w);
    ASSERT_TRUE(server.RunBatch({{id, SessionOp::kRecommend, {}}})[0].status.ok());
    AtomStoreStats before = SessionStats(server, id);
    uint64_t populates = PopulateCount(server, id);
    ASSERT_TRUE(server
                    .WithSession(id, [&](DesignSession& s) {
                      size_t universe = s.prepared_state().candidates.size();
                      s.AddQueries({fresh.value()});
                      ASSERT_TRUE(s.prepared());
                      ASSERT_EQ(s.prepared_state().candidates.size(), universe);
                      added.push_back(s.prepared_state().rows.back());
                    })
                    .ok());
    AtomStoreStats after = SessionStats(server, id);
    EXPECT_EQ(after.lookups, before.lookups + 1) << id;
    if (std::string(id) == "a") {
      EXPECT_EQ(after.misses, before.misses + 1);
      EXPECT_EQ(after.publishes, before.publishes + 1);
      EXPECT_GT(PopulateCount(server, id), populates);
    } else {
      EXPECT_EQ(after.hits, before.hits + 1);
      EXPECT_EQ(PopulateCount(server, id), populates)
          << "the adopted row brought its plan set";
    }
  }
  ASSERT_EQ(added.size(), 2u);
  EXPECT_EQ(added[0].get(), added[1].get());
  auto out = server.RunBatch({{"a", SessionOp::kRecommend, {}},
                              {"b", SessionOp::kRecommend, {}},
                              {"a", SessionOp::kPlanDeployment, {}},
                              {"b", SessionOp::kPlanDeployment, {}}});
  ASSERT_TRUE(out[0].status.ok()) << out[0].status.ToString();
  ExpectSameRecommendation(*out[0].recommendation, *out[1].recommendation);
  ASSERT_TRUE(out[2].status.ok()) << out[2].status.ToString();
  ASSERT_TRUE(out[3].plan.has_value());
  ExpectSamePlan(*out[2].plan, *out[3].plan);
}

}  // namespace
}  // namespace dbdesign
