// Experiment E1 — Figure 2: the index interaction graph.
//
// Paper (§4, Figure 2): "We use an undirected graph in which the
// vertices of the graph represent indexes and the weights of the edges
// are the degree of interaction for a pair of indexes. If the graph has
// too many edges, the user can dynamically change the number of
// interactions that are being displayed."

#include "bench_common.h"
#include "backend/inmemory_backend.h"
#include "cophy/cophy.h"
#include "interaction/graph.h"
#include "util/str.h"

namespace dbdesign {
namespace {

using bench::DataPages;
using bench::Header;
using bench::MakeDb;

struct Shared {
  Database db = MakeDb();
  Workload workload =
      GenerateWorkload(db, TemplateMix::OfflineDefault(), 16, 5);
  std::vector<IndexDef> recommended;
  InMemoryBackend backend{db};
  InumCostModel inum{backend};

  Shared() {
    CoPhyOptions opts;
    opts.storage_budget_pages = DataPages(db);
    CoPhyAdvisor advisor(backend, opts);
    recommended = advisor.TryRecommend(workload).value().indexes;
  }
};

Shared& shared() {
  static Shared* s = new Shared();
  return *s;
}

void RunExperiment() {
  Shared& S = shared();
  Header("E1: index interaction graph over CoPhy's recommendation (Figure 2)",
         "vertices = indexes, edge weights = degree of interaction, with a "
         "top-k display filter");

  InteractionAnalyzer analyzer(S.inum);
  std::vector<InteractionEdge> edges =
      analyzer.Analyze(S.workload, S.recommended);
  InteractionGraph graph(S.db.catalog(), S.recommended, edges);

  std::printf("\nrecommended indexes: %zu, interacting pairs: %zu "
              "(of %zu possible)\n",
              S.recommended.size(), edges.size(),
              S.recommended.size() * (S.recommended.size() - 1) / 2);

  for (int k : {4, 8, -1}) {
    graph.SetDisplayedEdges(k);
    std::printf("\n--- display filter: %s ---\n",
                k < 0 ? "all edges" : StrFormat("top %d", k).c_str());
    std::printf("%s", graph.ToAscii().c_str());
  }

  graph.SetDisplayedEdges(-1);
  std::printf("\nGraphviz DOT (render with `dot -Tpng`):\n%s\n",
              graph.ToDot().c_str());

  // Sanity panel: solo benefits, so the graph can be read against them.
  std::printf("index solo benefits (workload cost drop when built alone):\n");
  for (size_t i = 0; i < S.recommended.size(); ++i) {
    std::printf("  [%zu] %-44s %10.1f\n", i,
                S.recommended[i].DisplayName(S.db.catalog()).c_str(),
                analyzer.SoloBenefit(S.workload, S.recommended,
                                     static_cast<int>(i)));
  }
}

void BM_PairDoi(benchmark::State& state) {
  Shared& S = shared();
  InteractionAnalyzer analyzer(S.inum);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer.PairDoi(S.workload, S.recommended, 0,
                         static_cast<int>(S.recommended.size()) - 1));
  }
}
BENCHMARK(BM_PairDoi)->Unit(benchmark::kMillisecond);

void BM_FullGraphAnalysis(benchmark::State& state) {
  Shared& S = shared();
  InteractionAnalyzer analyzer(S.inum);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Analyze(S.workload, S.recommended));
  }
}
BENCHMARK(BM_FullGraphAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbdesign

int main(int argc, char** argv) {
  dbdesign::bench::JsonReporter reporter("interaction");
  reporter.TimeOp("e9_interaction", [] { dbdesign::RunExperiment(); });
  reporter.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
