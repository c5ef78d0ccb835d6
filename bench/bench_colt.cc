// Experiment E6 — Scenario 3: continuous tuning under workload drift.
//
// Paper (§4): the continuous tuning component "monitors the behavior of
// the system when the workload changes and suggests changes to the set
// of indexes. Our tool presents the change in system's performance
// accruing from adopting the new suggested indexes."
//
// We stream three workload phases and compare cumulative cost for:
//   no tuning, COLT online tuning (including build costs), and an
//   offline oracle that knows each phase's workload in advance.

#include "bench_common.h"
#include "backend/inmemory_backend.h"
#include "colt/colt.h"
#include "cophy/cophy.h"

namespace dbdesign {
namespace {

using bench::DataPages;
using bench::Header;
using bench::MakeDb;

struct Shared {
  Database db = MakeDb();
  std::vector<TemplateMix> phases = {TemplateMix::PhaseSelections(),
                                     TemplateMix::PhaseJoins(),
                                     TemplateMix::PhaseAggregates()};
  int per_phase = 150;
  std::vector<BoundQuery> stream =
      GenerateDriftingStream(db, phases, per_phase, 77);
};

Shared& shared() {
  static Shared* s = new Shared();
  return *s;
}

void RunExperiment() {
  Shared& S = shared();
  Header("E6: COLT online tuning under drift (Scenario 3)",
         "online tuning adapts the index set as the workload changes and "
         "improves performance");

  // --- no tuning ---
  InMemoryBackend backend(S.db);
  InumCostModel oracle(backend);
  double untuned = 0.0;
  std::vector<double> untuned_by_phase(S.phases.size(), 0.0);
  for (size_t i = 0; i < S.stream.size(); ++i) {
    double c = oracle.Cost(S.stream[i], PhysicalDesign{});
    untuned += c;
    untuned_by_phase[i / static_cast<size_t>(S.per_phase)] += c;
  }

  // --- COLT ---
  ColtOptions opts;
  opts.epoch_length = 25;
  ColtTuner tuner(backend, opts);
  std::vector<double> colt_by_phase(S.phases.size(), 0.0);
  for (size_t i = 0; i < S.stream.size(); ++i) {
    colt_by_phase[i / static_cast<size_t>(S.per_phase)] +=
        tuner.OnQuery(S.stream[i]);
  }

  // --- offline oracle: per-phase CoPhy with the phase workload known ---
  double oracle_cost = 0.0;
  for (size_t p = 0; p < S.phases.size(); ++p) {
    Workload phase_w;
    for (int i = 0; i < S.per_phase; ++i) {
      phase_w.Add(S.stream[p * static_cast<size_t>(S.per_phase) +
                           static_cast<size_t>(i)]);
    }
    CoPhyOptions copts;
    copts.storage_budget_pages = DataPages(S.db);
    CoPhyAdvisor advisor(backend, copts);
    IndexRecommendation rec = advisor.TryRecommend(phase_w).value();
    oracle_cost += rec.recommended_cost;
  }

  std::printf("\nstream: %zu queries in %zu phases "
              "(selections -> joins -> aggregates)\n",
              S.stream.size(), S.phases.size());
  std::printf("\nper-phase query cost:\n");
  std::printf("  %-14s %12s %12s %9s\n", "phase", "no tuning", "COLT",
              "saved");
  const char* names[] = {"selections", "joins", "aggregates"};
  for (size_t p = 0; p < S.phases.size(); ++p) {
    std::printf("  %-14s %12.1f %12.1f %8.1f%%\n", names[p],
                untuned_by_phase[p], colt_by_phase[p],
                100.0 * (1.0 - colt_by_phase[p] / untuned_by_phase[p]));
  }
  std::printf("\ncumulative totals:\n");
  std::printf("  %-34s %12.1f\n", "no tuning", untuned);
  std::printf("  %-34s %12.1f  (queries %.1f + builds %.1f)\n",
              "COLT online", tuner.cumulative_cost(),
              tuner.cumulative_query_cost(), tuner.cumulative_build_cost());
  std::printf("  %-34s %12.1f  (per-phase CoPhy, build costs ignored)\n",
              "offline oracle (upper bound)", oracle_cost);
  std::printf("\nCOLT saved %.1f%% vs no tuning; oracle bound is %.1f%%\n",
              100.0 * (1.0 - tuner.cumulative_cost() / untuned),
              100.0 * (1.0 - oracle_cost / untuned));

  int builds = 0;
  int drops = 0;
  int alerts = 0;
  for (const ColtEvent& e : tuner.events()) {
    builds += e.type == ColtEvent::Type::kBuild;
    drops += e.type == ColtEvent::Type::kDrop;
    alerts += e.type == ColtEvent::Type::kAlert;
  }
  std::printf("\nevents: %d alerts, %d builds, %d drops across %zu epochs\n",
              alerts, builds, drops, tuner.epochs().size());
  std::printf("\nper-epoch trace (cost under live design vs untuned "
              "baseline):\n");
  std::printf("  epoch   observed   baseline   indexes\n");
  for (const ColtEpochReport& e : tuner.epochs()) {
    std::printf("  %5d %10.1f %10.1f %9d\n", e.epoch, e.observed_cost,
                e.baseline_cost, e.config_size);
  }
}

void BM_ColtOnQuery(benchmark::State& state) {
  Shared& S = shared();
  InMemoryBackend backend(S.db);
  ColtTuner tuner(backend);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.OnQuery(S.stream[i % S.stream.size()]));
    ++i;
  }
}
BENCHMARK(BM_ColtOnQuery);

}  // namespace
}  // namespace dbdesign

int main(int argc, char** argv) {
  dbdesign::bench::JsonReporter reporter("colt");
  reporter.TimeOp("e6_colt", [] { dbdesign::RunExperiment(); });
  reporter.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
