// Experiment E2 — Figure 3: the automatic partition suggestion panel.
//
// Paper (§4, Figure 3): "The list of suggested partitions is displayed
// in the right panel of the user interface. The user can examine the
// individual query benefit and the average workload benefit in case she
// adopts the suggested changes to the schema."
//
// We sweep the replication space factor and print the Figure-3 panel
// (fragments, per-query benefit, average benefit) for each setting.

#include "autopart/autopart.h"
#include "bench_common.h"
#include "backend/inmemory_backend.h"
#include "core/designer.h"
#include "core/report.h"

namespace dbdesign {
namespace {

using bench::Header;
using bench::MakeDb;

struct Shared {
  Database db = MakeDb();
  Workload workload =
      GenerateWorkload(db, TemplateMix::OfflineDefault(), 16, 37);
};

Shared& shared() {
  static Shared* s = new Shared();
  return *s;
}

void RunExperiment() {
  Shared& S = shared();
  Header("E2: automatic partition suggestion (Figure 3)",
         "suggested partitions with per-query and average workload benefit, "
         "under a replication space constraint");

  for (double space : {1.0, 1.2, 1.5}) {
    AutoPartOptions opts;
    opts.replication_budget_factor = space;
    InMemoryBackend backend(S.db);
    AutoPartAdvisor advisor(backend, opts);
    PartitionRecommendation rec = advisor.Recommend(S.workload).value();

    std::printf("\n--- replication space factor %.1fx ---\n", space);
    std::printf("%s", RenderPartitionPanel(S.db.catalog(), rec).c_str());

    // Figure 3's per-query benefit list.
    std::printf("per-query benefit:\n");
    for (size_t i = 0; i < S.workload.size(); ++i) {
      double benefit =
          rec.per_query_base_cost[i] > 0
              ? 100.0 * (1.0 - rec.per_query_cost[i] /
                                   rec.per_query_base_cost[i])
              : 0.0;
      std::string sql = S.workload.queries[i].ToSql(S.db.catalog());
      if (sql.size() > 52) sql = sql.substr(0, 49) + "...";
      std::printf("  q%-3zu %-52s %6.1f%%\n", i, sql.c_str(), benefit);
    }

    // A sample rewritten query, as the demo saves them.
    std::printf("sample rewritten query:\n  %s\n",
                advisor.RewriteQuery(S.workload.queries[0], rec.design)
                    .c_str());
  }
}

void BM_AutoPartRecommend(benchmark::State& state) {
  Shared& S = shared();
  for (auto _ : state) {
    InMemoryBackend backend(S.db);
    AutoPartAdvisor advisor(backend);
    benchmark::DoNotOptimize(advisor.Recommend(S.workload).value());
  }
}
BENCHMARK(BM_AutoPartRecommend)->Unit(benchmark::kMillisecond);

void BM_RewriteQuery(benchmark::State& state) {
  Shared& S = shared();
  InMemoryBackend backend(S.db);
  AutoPartAdvisor advisor(backend);
  PartitionRecommendation rec = advisor.Recommend(S.workload).value();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(advisor.RewriteQuery(
        S.workload.queries[i % S.workload.size()], rec.design));
    ++i;
  }
}
BENCHMARK(BM_RewriteQuery);

}  // namespace
}  // namespace dbdesign

int main(int argc, char** argv) {
  dbdesign::bench::JsonReporter reporter("autopart");
  reporter.TimeOp("e5_autopart", [] { dbdesign::RunExperiment(); });
  reporter.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
