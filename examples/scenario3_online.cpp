// Demonstration scenario #3 (paper §4): continuous tuning under
// workload drift.
//
// "This component monitors the behavior of the system when the workload
//  changes and suggests changes to the set of indexes. Our tool
//  presents the change in system's performance accruing from adopting
//  the new suggested indexes."
//
//   $ ./build/examples/scenario3_online

#include <cstdio>

#include "backend/inmemory_backend.h"
#include "colt/colt.h"
#include "core/designer.h"
#include "workload/queries.h"
#include "workload/sdss.h"

using namespace dbdesign;

int main() {
  SdssConfig config;
  config.photoobj_rows = 20000;
  Database db = BuildSdssDatabase(config);

  // Three workload phases: selections -> joins -> aggregates.
  const char* phase_names[] = {"selections", "joins", "aggregates"};
  std::vector<TemplateMix> phases = {TemplateMix::PhaseSelections(),
                                     TemplateMix::PhaseJoins(),
                                     TemplateMix::PhaseAggregates()};
  const int per_phase = 150;
  std::vector<BoundQuery> stream =
      GenerateDriftingStream(db, phases, per_phase, /*seed=*/99);

  ColtOptions opts;
  opts.epoch_length = 25;
  InMemoryBackend backend(db);
  ColtTuner tuner(backend, opts);
  InumCostModel oracle(backend);  // for the no-tuning baseline

  double untuned = 0.0;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i % per_phase == 0) {
      std::printf("--- phase %zu: %s ---\n", i / per_phase + 1,
                  phase_names[i / per_phase]);
    }
    tuner.OnQuery(stream[i]);
    untuned += oracle.Cost(stream[i], PhysicalDesign{});

    // Surface COLT events as they happen (the demo's alert messages).
    static size_t reported = 0;
    while (reported < tuner.events().size()) {
      const ColtEvent& e = tuner.events()[reported++];
      const char* kind = e.type == ColtEvent::Type::kBuild   ? "BUILD"
                         : e.type == ColtEvent::Type::kDrop  ? "DROP "
                                                             : "ALERT";
      std::printf("  [epoch %2d] %s %-40s (benefit/epoch %.1f)\n", e.epoch,
                  kind, e.index.DisplayName(db.catalog()).c_str(),
                  e.expected_benefit_per_epoch);
    }
  }

  std::printf("\nper-epoch summary:\n");
  std::printf("  epoch   observed     baseline   indexes  whatif-calls\n");
  for (const ColtEpochReport& e : tuner.epochs()) {
    std::printf("  %5d  %9.1f   %10.1f   %7d  %12d\n", e.epoch,
                e.observed_cost, e.baseline_cost, e.config_size,
                e.whatif_calls);
  }

  std::printf("\ncumulative cost (queries + builds): %.1f\n",
              tuner.cumulative_cost());
  std::printf("cumulative cost without tuning:     %.1f\n", untuned);
  std::printf("online tuning saved %.1f%%\n",
              100.0 * (1.0 - tuner.cumulative_cost() / untuned));
  std::printf("final configuration: %zu indexes\n",
              tuner.current_design().indexes().size());
  for (const IndexDef& idx : tuner.current_design().indexes()) {
    std::printf("  %s\n", idx.DisplayName(db.catalog()).c_str());
  }
  return 0;
}
