// Multi-tenant server benchmark — 1000 concurrent sessions over a
// shared atom substrate.
//
// The paper's designer is a few-second interactive tool for ONE DBA;
// this bench measures what the TuningServer layer adds: many DBAs (or
// many what-if tabs) tuning concurrently, where sessions on the same
// schema share INUM populates through the reference-counted AtomStore.
//
// Phases (N sessions round-robin over 4 schema substrates):
//   * cold fleet    — every session's first Recommend, concurrently.
//     The first session per (schema, workload) populates and publishes;
//     the rest adopt shared rows. Reports per-request p50/p99 and the
//     cross-session store hit rate.
//   * warm fleet    — every session Recommends again (client-side).
//   * new tenants   — fresh sessions on the now-warm schemas: the
//     store-served cold path. Acceptance: p99 < 10x the same op
//     measured solo (no concurrency), i.e. multi-tenancy costs at most
//     contention, never repopulation.
//   * serial replay — the same fleet driven one session at a time on a
//     fresh server must produce bit-identical recommendations.
//
// DBDESIGN_BENCH_SESSIONS overrides the fleet size (CI smoke uses a
// reduced count); DBDESIGN_BENCH_ROWS caps substrate size as usual.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "backend/inmemory_backend.h"
#include "server/server.h"

namespace dbdesign {
namespace {

using bench::BenchRows;
using bench::Header;
using bench::JsonReporter;

void CheckOk(const Status& st) {
  if (!st.ok()) std::fprintf(stderr, "bench_server: %s\n", st.ToString().c_str());
  DBD_CHECK(st.ok());
}

int SessionCount() {
  if (const char* env = std::getenv("DBDESIGN_BENCH_SESSIONS")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 1000;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Fleet {
  std::vector<Database> dbs;
  std::vector<std::unique_ptr<InMemoryBackend>> backends;
  std::vector<Workload> workloads;
};

constexpr int kSchemas = 4;

Fleet BuildFleet() {
  SetLogLevel(LogLevel::kError);
  Fleet fleet;
  for (int s = 0; s < kSchemas; ++s) {
    SdssConfig cfg;
    cfg.photoobj_rows = BenchRows(3000) + 250 * s;
    cfg.seed = 42 + static_cast<uint64_t>(s);
    fleet.dbs.push_back(BuildSdssDatabase(cfg));
  }
  for (int s = 0; s < kSchemas; ++s) {
    fleet.backends.push_back(std::make_unique<InMemoryBackend>(fleet.dbs[s]));
    fleet.workloads.push_back(GenerateWorkload(
        fleet.dbs[s], TemplateMix::OfflineDefault(), 6, 19 + s));
  }
  return fleet;
}

std::unique_ptr<TuningServer> MakeServer(Fleet& fleet) {
  auto server = std::make_unique<TuningServer>();
  for (int s = 0; s < kSchemas; ++s) {
    Status st = server->RegisterSchema("schema" + std::to_string(s),
                                       *fleet.backends[s]);
    CheckOk(st);
  }
  return server;
}

void OpenFleetSessions(TuningServer& server, Fleet& fleet, int n,
                       const std::string& prefix = "tenant") {
  for (int i = 0; i < n; ++i) {
    std::string id = prefix + std::to_string(i);
    Status st = server.OpenSession(id, "schema" + std::to_string(i % kSchemas));
    CheckOk(st);
    st = server.WithSession(id, [&](DesignSession& session) {
      session.SetWorkload(fleet.workloads[i % kSchemas]);
    });
    CheckOk(st);
  }
}

struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

Percentiles Summarize(std::vector<double> ms) {
  Percentiles p;
  if (ms.empty()) return p;
  std::sort(ms.begin(), ms.end());
  p.p50 = ms[ms.size() / 2];
  p.p99 = ms[std::min(ms.size() - 1, (ms.size() * 99) / 100)];
  p.max = ms.back();
  return p;
}

struct FleetResult {
  std::vector<double> ms;        ///< per-session recommend latency
  std::vector<double> costs;     ///< recommended_cost per session
  std::vector<std::string> sig;  ///< index-set signature per session
};

/// Recommends on sessions [0, n) — concurrently when `threads` > 1 —
/// timing each request individually (clock starts when the request
/// starts executing, so this measures service latency, not queue wait).
FleetResult RecommendFleet(TuningServer& server, int n, int threads,
                           const std::string& prefix = "tenant") {
  FleetResult result;
  result.ms.assign(static_cast<size_t>(n), 0.0);
  result.costs.assign(static_cast<size_t>(n), 0.0);
  result.sig.assign(static_cast<size_t>(n), "");
  ThreadPool::Shared().ParallelFor(
      static_cast<size_t>(n), threads, [&](size_t i) {
        double t0 = NowMs();
        Status st = server.WithSession(
            prefix + std::to_string(i), [&](DesignSession& session) {
              Result<IndexRecommendation> rec = session.Recommend();
              if (!rec.ok()) CheckOk(rec.status());
              result.costs[i] = rec.value().recommended_cost;
              std::string sig;
              for (const IndexDef& idx : rec.value().indexes) {
                sig += idx.Key();
                sig += ';';
              }
              result.sig[i] = std::move(sig);
            });
        CheckOk(st);
        result.ms[i] = NowMs() - t0;
      });
  return result;
}

void RunServerBench(JsonReporter& reporter) {
  const int n = SessionCount();
  const int threads = ThreadPool::Resolve(0);
  Header("Multi-tenant tuning server: N concurrent sessions, shared atoms",
         "same-schema sessions reuse INUM populates through the shared "
         "store; recommendations stay bit-identical to tuning alone");
  std::printf("\nsessions=%d schemas=%d threads=%d\n", n, kSchemas, threads);

  Fleet fleet = BuildFleet();
  auto server = MakeServer(fleet);
  OpenFleetSessions(*server, fleet, n);

  // --- cold fleet ---
  double t0 = NowMs();
  FleetResult cold = RecommendFleet(*server, n, threads);
  double cold_wall = NowMs() - t0;
  AtomStoreStats store = server->atom_store().stats();
  Percentiles cold_p = Summarize(cold.ms);
  double hit_rate = store.hit_rate();
  std::printf("cold fleet : wall %8.1f ms  p50 %7.2f  p99 %7.2f  "
              "hit-rate %.4f (%llu hits / %llu lookups, %llu populates)\n",
              cold_wall, cold_p.p50, cold_p.p99, hit_rate,
              static_cast<unsigned long long>(store.hits),
              static_cast<unsigned long long>(store.lookups),
              static_cast<unsigned long long>(store.publishes));
  reporter.Report("cold_fleet_recommend_p50", cold_p.p50);
  reporter.Report("cold_fleet_recommend_p99", cold_p.p99);

  // --- warm fleet (client-side re-recommend) ---
  t0 = NowMs();
  FleetResult warm = RecommendFleet(*server, n, threads);
  double warm_wall = NowMs() - t0;
  Percentiles warm_p = Summarize(warm.ms);
  std::printf("warm fleet : wall %8.1f ms  p50 %7.2f  p99 %7.2f\n", warm_wall,
              warm_p.p50, warm_p.p99);
  reporter.Report("warm_fleet_recommend_p50", warm_p.p50);
  reporter.Report("warm_fleet_recommend_p99", warm_p.p99);

  // --- new tenants on warm schemas: the store-served cold path ---
  // Solo baseline first: one fresh session at a time, no concurrency.
  const int solo_n = std::min(n, 2 * kSchemas);
  OpenFleetSessions(*server, fleet, solo_n, "solo");
  FleetResult solo = RecommendFleet(*server, solo_n, /*threads=*/1, "solo");
  double solo_warm_ms =
      Summarize(solo.ms).p50 > 0.0 ? Summarize(solo.ms).p50 : 0.001;

  const int fresh_n = std::min(n, std::max(64, n / 4));
  OpenFleetSessions(*server, fleet, fresh_n, "fresh");
  FleetResult fresh = RecommendFleet(*server, fresh_n, threads, "fresh");
  Percentiles fresh_p = Summarize(fresh.ms);
  std::printf("new tenant : solo %7.2f ms  p50 %7.2f  p99 %7.2f  "
              "(bound: p99 < 10x solo = %.2f ms)\n",
              solo_warm_ms, fresh_p.p50, fresh_p.p99, 10.0 * solo_warm_ms);
  DBD_CHECK(fresh_p.p99 < 10.0 * solo_warm_ms);
  reporter.Report("warm_schema_new_session_solo", solo_warm_ms);
  reporter.Report("warm_schema_new_session_p50", fresh_p.p50);
  reporter.Report("warm_schema_new_session_p99", fresh_p.p99,
                  /*speedup_vs_serial=*/solo_warm_ms > 0.0
                      ? 10.0 * solo_warm_ms / fresh_p.p99
                      : 1.0);

  // --- serial replay: bit-identical results ---
  auto replay_server = MakeServer(fleet);
  OpenFleetSessions(*replay_server, fleet, n);
  FleetResult replay = RecommendFleet(*replay_server, n, /*threads=*/1);
  for (int i = 0; i < n; ++i) {
    DBD_CHECK(cold.costs[i] == replay.costs[i]);
    DBD_CHECK(cold.sig[i] == replay.sig[i]);
  }
  std::printf("replay     : %d sessions bit-identical to serial\n", n);

  Json extra = Json::Object();
  extra["sessions"] = Json::Number(n);
  extra["schemas"] = Json::Number(kSchemas);
  extra["threads"] = Json::Number(threads);
  extra["hit_rate"] = Json::Number(hit_rate);
  extra["store_lookups"] = Json::Number(static_cast<double>(store.lookups));
  extra["store_hits"] = Json::Number(static_cast<double>(store.hits));
  extra["store_publishes"] =
      Json::Number(static_cast<double>(store.publishes));
  extra["cold_wall_ms"] = Json::Number(cold_wall);
  extra["warm_wall_ms"] = Json::Number(warm_wall);
  extra["bit_identical_to_serial"] = Json::Bool(true);
  reporter.Extra("server", std::move(extra));
}

// Microbenchmark: one store-served cold Recommend (new tenant on a warm
// schema) — the op whose latency bounds interactive multi-tenancy.
void BM_WarmSchemaNewSession(benchmark::State& state) {
  Fleet fleet = BuildFleet();
  auto server = MakeServer(fleet);
  OpenFleetSessions(*server, fleet, kSchemas);  // warm the store
  RecommendFleet(*server, kSchemas, 1);
  int next = 0;
  for (auto _ : state) {
    std::string id = "bm" + std::to_string(next++);
    Status st = server->OpenSession(id, "schema0");
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    st = server->WithSession(id, [&](DesignSession& session) {
      session.SetWorkload(fleet.workloads[0]);
      auto rec = session.Recommend();
      benchmark::DoNotOptimize(rec.ok());
    });
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
}
BENCHMARK(BM_WarmSchemaNewSession)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbdesign

int main(int argc, char** argv) {
  dbdesign::bench::JsonReporter reporter("server");
  dbdesign::RunServerBench(reporter);
  reporter.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
