// The parallel costing engine's contract: results are bit-identical to
// serial execution at any thread count, for every batched entry point —
// WhatIfOptimizer::TryCostWorkload (backend CostBatch),
// InumCostModel::WorkloadCost (populate + reuse), and
// Designer::TryEvaluateDesigns (cost matrix) — including the InumStats
// counters. Plus unit coverage for util/thread_pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "backend/inmemory_backend.h"
#include "core/designer.h"
#include "core/session.h"
#include "interaction/doi.h"
#include "interaction/schedule.h"
#include "inum/inum.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "whatif/whatif.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

Database MakeDb() {
  SetLogLevel(LogLevel::kError);
  SdssConfig cfg;
  cfg.photoobj_rows = 4000;
  cfg.seed = 42;
  return BuildSdssDatabase(cfg);
}

CostParams WithThreads(int n) {
  CostParams params;
  params.num_threads = n;
  return params;
}

/// Workload-derived candidate designs (same recipe as bench_inum).
std::vector<PhysicalDesign> MakeDesigns(const Workload& workload, int count) {
  Rng rng(11);
  std::vector<IndexDef> pool;
  for (const BoundQuery& q : workload.queries) {
    for (int s = 0; s < q.num_slots(); ++s) {
      for (ColumnId c : q.PredicateColumns(s)) {
        IndexDef idx{q.tables[s], {c}, false};
        bool dup = false;
        for (const IndexDef& e : pool) dup |= e == idx;
        if (!dup) pool.push_back(idx);
      }
    }
  }
  std::vector<PhysicalDesign> designs;
  for (int d = 0; d < count; ++d) {
    PhysicalDesign design;
    for (const IndexDef& idx : pool) {
      if (rng.Bernoulli(0.35)) design.AddIndex(idx);
    }
    designs.push_back(std::move(design));
  }
  return designs;
}

// --- ThreadPool unit tests ---

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, PoolOfOneRunsInlineOnCaller) {
  ThreadPool pool(1);
  std::set<std::thread::id> ids;
  pool.ParallelFor(16, [&](size_t) { ids.insert(std::this_thread::get_id()); });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ThreadPoolTest, ParallelismCapOfOneRunsInline) {
  ThreadPool pool(4);
  std::set<std::thread::id> ids;
  pool.ParallelFor(16, /*parallelism=*/1,
                   [&](size_t) { ids.insert(std::this_thread::get_id()); });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t i) {
                         if (i % 7 == 3) {
                           throw std::runtime_error("task failure");
                         }
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, LowestIndexExceptionWins) {
  ThreadPool pool(4);
  // Every index throws; the deterministic survivor is index 0's.
  try {
    pool.ParallelFor(32, [&](size_t i) {
      throw std::runtime_error("idx" + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "idx0");
  }
}

TEST(ThreadPoolTest, NestedParallelForFlattensInsteadOfDeadlocking) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    ThreadPool::Shared().ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

// A thread outside any pool that does work other pool tasks wait on
// must not enter the pool (its ParallelFor would queue behind the very
// job whose tasks wait on it): inside an InlineScope every ParallelFor,
// on any pool, runs on the calling thread. Scopes nest, and the pool
// runs in parallel again once the outermost one ends.
TEST(ThreadPoolTest, InlineScopeRunsEveryParallelForOnTheCaller) {
  ThreadPool pool(4);
  auto thread_ids = [](ThreadPool& target) {
    Mutex mu;
    std::set<std::thread::id> ids;
    target.ParallelFor(64, /*parallelism=*/4, [&](size_t) {
      MutexLock lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    return ids;
  };
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};
  {
    ThreadPool::InlineScope outer;
    EXPECT_EQ(thread_ids(pool), caller);
    EXPECT_EQ(thread_ids(ThreadPool::Shared()), caller);
    {
      ThreadPool::InlineScope inner;
      EXPECT_EQ(thread_ids(pool), caller);
    }
    // The inner scope restored the outer one's state, not "parallel".
    EXPECT_EQ(thread_ids(pool), caller);
  }
  // Outside every scope the pool is parallel again: task 0 can only
  // finish once another thread has started task 1.
  std::atomic<bool> started{false};
  std::atomic<bool> overlapped{false};
  pool.ParallelFor(2, /*parallelism=*/2, [&](size_t i) {
    if (i == 1) {
      started.store(true);
      return;
    }
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!started.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    overlapped.store(started.load());
  });
  EXPECT_TRUE(overlapped.load());

  // A scope opened inside a pool task leaves the task's own inline
  // state in place when it ends.
  std::atomic<int> nested{0};
  pool.ParallelFor(4, [&](size_t) {
    { ThreadPool::InlineScope scope; }
    pool.ParallelFor(4, [&](size_t) { nested.fetch_add(1); });
  });
  EXPECT_EQ(nested.load(), 16);
}

TEST(ThreadPoolTest, GrowablePoolDoesNotOversubscribeSingleCore) {
  // Regression for the BENCH_schedule doi_matrix_multicore 0.85x
  // slowdown: a growable pool asked for 8-way parallelism on 1-core
  // hardware must run inline rather than spawn timesharing workers.
  ThreadPool pool(1, /*growable=*/true);
  Mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<int> total{0};
  pool.ParallelFor(64, /*parallelism=*/8, [&](size_t) {
    MutexLock lock(mu);
    ids.insert(std::this_thread::get_id());
    total.fetch_add(1);
  });
  EXPECT_EQ(total.load(), 64);
  if (ThreadPool::HardwareThreads() < 2) {
    // Pure-oversubscription case: no workers spawned, caller ran all.
    EXPECT_EQ(pool.num_threads(), 1);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
  } else {
    // Real cores available: the pool must still grow on demand.
    EXPECT_GT(pool.num_threads(), 1);
  }
}

TEST(ThreadPoolTest, ExceptionLeavesPoolReusable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(
                   8, [](size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<int> total{0};
  pool.ParallelFor(100, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
}

// --- Bit-identical parallel costing ---

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  Database db_ = MakeDb();
  Workload workload_ =
      GenerateWorkload(db_, TemplateMix::OfflineDefault(), 16, 7);
  std::vector<PhysicalDesign> designs_ = MakeDesigns(workload_, 6);
};

TEST_F(ParallelDeterminismTest, TryCostWorkloadBitIdentical) {
  InMemoryBackend serial_backend(db_, WithThreads(1));
  InMemoryBackend parallel_backend(db_, WithThreads(8));
  WhatIfOptimizer serial(serial_backend);
  WhatIfOptimizer parallel(parallel_backend);

  for (const PhysicalDesign& design : designs_) {
    Result<std::vector<double>> a = serial.TryCostWorkload(workload_, design);
    Result<std::vector<double>> b = parallel.TryCostWorkload(workload_, design);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.value(), b.value());
  }
  EXPECT_EQ(serial_backend.num_optimizer_calls(),
            parallel_backend.num_optimizer_calls());
}

TEST_F(ParallelDeterminismTest, InumWorkloadCostBitIdentical) {
  InMemoryBackend serial_backend(db_, WithThreads(1));
  InMemoryBackend parallel_backend(db_, WithThreads(8));
  InumCostModel serial(serial_backend);
  InumCostModel parallel(parallel_backend);

  for (const PhysicalDesign& design : designs_) {
    double a = serial.WorkloadCost(workload_, design);
    double b = parallel.WorkloadCost(workload_, design);
    EXPECT_EQ(a, b);
  }

  EXPECT_EQ(serial.stats().populate_optimizations,
            parallel.stats().populate_optimizations);
  EXPECT_EQ(serial.stats().reuse_calls, parallel.stats().reuse_calls);
  EXPECT_EQ(serial.stats().fallback_calls, parallel.stats().fallback_calls);
  EXPECT_EQ(serial.stats().queries_cached, parallel.stats().queries_cached);
  EXPECT_EQ(serial.stats().plans_cached, parallel.stats().plans_cached);
}

TEST_F(ParallelDeterminismTest, PrepareQueriesMatchesSerialPrepare) {
  InMemoryBackend serial_backend(db_, WithThreads(1));
  InMemoryBackend parallel_backend(db_, WithThreads(8));
  InumCostModel serial(serial_backend);
  InumCostModel parallel(parallel_backend);

  for (const BoundQuery& q : workload_.queries) serial.Prepare(q);
  parallel.PrepareWorkload(workload_);

  EXPECT_EQ(serial.stats().populate_optimizations,
            parallel.stats().populate_optimizations);
  EXPECT_EQ(serial.stats().queries_cached, parallel.stats().queries_cached);
  EXPECT_EQ(serial.stats().plans_cached, parallel.stats().plans_cached);
  // Identical caches answer identically.
  for (const PhysicalDesign& design : designs_) {
    for (const BoundQuery& q : workload_.queries) {
      EXPECT_EQ(serial.Cost(q, design), parallel.Cost(q, design));
    }
  }
}

TEST_F(ParallelDeterminismTest, EvaluateDesignsBitIdentical) {
  InMemoryBackend serial_backend(db_, WithThreads(1));
  InMemoryBackend parallel_backend(db_, WithThreads(8));
  Designer serial(serial_backend);
  Designer parallel(parallel_backend);

  std::vector<BenefitReport> a =
      serial.TryEvaluateDesigns(workload_, designs_).value();
  std::vector<BenefitReport> b =
      parallel.TryEvaluateDesigns(workload_, designs_).value();

  ASSERT_EQ(a.size(), b.size());
  for (size_t d = 0; d < a.size(); ++d) {
    EXPECT_EQ(a[d].base_costs, b[d].base_costs);
    EXPECT_EQ(a[d].new_costs, b[d].new_costs);
    EXPECT_EQ(a[d].base_total, b[d].base_total);
    EXPECT_EQ(a[d].new_total, b[d].new_total);
  }

  EXPECT_EQ(serial.inum().stats().populate_optimizations,
            parallel.inum().stats().populate_optimizations);
  EXPECT_EQ(serial.inum().stats().reuse_calls,
            parallel.inum().stats().reuse_calls);
  EXPECT_EQ(serial.inum().stats().fallback_calls,
            parallel.inum().stats().fallback_calls);
}

TEST_F(ParallelDeterminismTest, DoiMatrixBitIdentical) {
  // A small single-column pool keeps the pair count honest while still
  // exercising cross-pair structure.
  std::vector<IndexDef> pool;
  for (const BoundQuery& q : workload_.queries) {
    for (int s = 0; s < q.num_slots() && pool.size() < 6; ++s) {
      for (ColumnId c : q.PredicateColumns(s)) {
        IndexDef idx{q.tables[s], {c}, false};
        bool dup = false;
        for (const IndexDef& e : pool) dup |= e == idx;
        if (!dup && pool.size() < 6) pool.push_back(idx);
      }
    }
  }
  ASSERT_GE(pool.size(), 3u);

  InMemoryBackend serial_backend(db_, WithThreads(1));
  InMemoryBackend parallel_backend(db_, WithThreads(8));
  InumCostModel serial(serial_backend);
  InumCostModel parallel(parallel_backend);
  InteractionAnalyzer sa(serial);
  InteractionAnalyzer pa(parallel);

  DoiMatrix a = sa.AnalyzeMatrix(workload_, pool);
  DoiMatrix b = pa.AnalyzeMatrix(workload_, pool);
  // Bit-identical, not approximately equal — down to the per-query
  // contribution rows and the reuse counters.
  EXPECT_EQ(a.doi, b.doi);
  EXPECT_EQ(a.contributions, b.contributions);
  EXPECT_EQ(a.Edges(), b.Edges());
  EXPECT_EQ(a.Clusters(), b.Clusters());
  EXPECT_EQ(serial.stats().populate_optimizations,
            parallel.stats().populate_optimizations);
  EXPECT_EQ(serial.stats().reuse_calls, parallel.stats().reuse_calls);
  EXPECT_EQ(serial.stats().fallback_calls, parallel.stats().fallback_calls);

  // The schedules over the same pool agree field by field.
  MaterializationScheduler ss(serial);
  MaterializationScheduler ps(parallel);
  MaterializationSchedule sg = ss.Greedy(workload_, pool);
  MaterializationSchedule pg = ps.Greedy(workload_, pool);
  ASSERT_EQ(sg.steps.size(), pg.steps.size());
  for (size_t k = 0; k < sg.steps.size(); ++k) {
    EXPECT_TRUE(sg.steps[k].index == pg.steps[k].index);
    EXPECT_EQ(sg.steps[k].marginal_benefit, pg.steps[k].marginal_benefit);
    EXPECT_EQ(sg.steps[k].cost_after, pg.steps[k].cost_after);
    EXPECT_EQ(sg.steps[k].cumulative_pages, pg.steps[k].cumulative_pages);
  }
  EXPECT_EQ(sg.base_cost, pg.base_cost);
  EXPECT_EQ(sg.final_cost, pg.final_cost);
}

TEST_F(ParallelDeterminismTest, PlanDeploymentBitIdentical) {
  // The whole deployment stage — recommendation, DoI matrix, clusters,
  // schedule — serial vs 8 threads.
  InMemoryBackend serial_backend(db_, WithThreads(1));
  InMemoryBackend parallel_backend(db_, WithThreads(8));
  Designer serial_designer(serial_backend);
  Designer parallel_designer(parallel_backend);
  DesignSession serial(serial_designer);
  DesignSession parallel(parallel_designer);
  serial.SetWorkload(workload_);
  parallel.SetWorkload(workload_);

  auto ra = serial.Recommend();
  auto rb = parallel.Recommend();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra.value().indexes, rb.value().indexes);

  auto pa = serial.PlanDeployment();
  auto pb = parallel.PlanDeployment();
  ASSERT_TRUE(pa.ok()) << pa.status().ToString();
  ASSERT_TRUE(pb.ok()) << pb.status().ToString();
  EXPECT_EQ(pa.value().edges, pb.value().edges);
  EXPECT_EQ(pa.value().clusters, pb.value().clusters);
  ASSERT_EQ(pa.value().schedule.steps.size(), pb.value().schedule.steps.size());
  for (size_t k = 0; k < pa.value().schedule.steps.size(); ++k) {
    const ScheduleStep& x = pa.value().schedule.steps[k];
    const ScheduleStep& y = pb.value().schedule.steps[k];
    EXPECT_TRUE(x.index == y.index);
    EXPECT_EQ(x.cost_after, y.cost_after);
    EXPECT_EQ(x.cumulative_pages, y.cumulative_pages);
    EXPECT_EQ(x.cluster, y.cluster);
  }
  EXPECT_EQ(pa.value().schedule.final_cost, pb.value().schedule.final_cost);
}

TEST_F(ParallelDeterminismTest, CoPhyRecommendationBitIdentical) {
  CoPhyOptions opts;
  opts.storage_budget_pages = 500.0;
  InMemoryBackend serial_backend(db_, WithThreads(1));
  InMemoryBackend parallel_backend(db_, WithThreads(8));
  CoPhyAdvisor serial(serial_backend, opts);
  CoPhyAdvisor parallel(parallel_backend, opts);

  IndexRecommendation a = serial.TryRecommend(workload_).value();
  IndexRecommendation b = parallel.TryRecommend(workload_).value();
  EXPECT_EQ(a.indexes, b.indexes);
  EXPECT_EQ(a.recommended_cost, b.recommended_cost);
  EXPECT_EQ(a.base_cost, b.base_cost);
  EXPECT_EQ(a.num_atoms, b.num_atoms);
  EXPECT_EQ(a.per_query_cost, b.per_query_cost);
}

}  // namespace
}  // namespace dbdesign
