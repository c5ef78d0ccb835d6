// Portability demo: the designer over the DbmsBackend seam.
//
// 1. Attach the designer to the in-memory engine through InMemoryBackend.
// 2. Record a what-if session into a JSON trace (TraceBackend).
// 3. Reload the trace and run the same session with NO engine behind it
//    — identical costs, served from the recording.
//
// Porting to a real DBMS follows the same shape: implement DbmsBackend
// for your engine, capture a trace, and the whole designer stack
// (what-if, INUM, CoPhy, AutoPart, COLT) runs unchanged.

#include <cstdio>

#include "backend/inmemory_backend.h"
#include "backend/trace_backend.h"
#include "core/designer.h"
#include "sql/binder.h"
#include "util/logging.h"
#include "workload/queries.h"
#include "workload/sdss.h"

using namespace dbdesign;

int main() {
  SetLogLevel(LogLevel::kWarning);

  SdssConfig cfg;
  cfg.photoobj_rows = 10000;
  cfg.seed = 42;
  Database db = BuildSdssDatabase(cfg);
  Workload workload = GenerateWorkload(db, TemplateMix::OfflineDefault(), 8, 7);

  // --- 1. The engine-agnostic designer over the concrete engine ---
  InMemoryBackend engine(db);
  std::printf("backend: %s (%d tables)\n", engine.name().c_str(),
              engine.catalog().num_tables());

  // --- 2. Record a what-if session through a trace recorder ---
  auto recorder = TraceBackend::Record(engine);
  Designer designer(*recorder);

  TableId photo = engine.catalog().FindTable(kPhotoObj);
  IndexDef ra_dec{photo,
                  {engine.catalog().table(photo).FindColumn("ra"),
                   engine.catalog().table(photo).FindColumn("dec")},
                  false};
  PhysicalDesign candidate;
  candidate.AddIndex(ra_dec);

  BenefitReport live =
      designer.TryEvaluateDesigns(workload, {candidate}).value().front();
  // One batched backend round-trip (recorded into the trace).
  double live_backend = workload.WeightedTotal(
      designer.whatif().TryCostWorkload(workload, candidate).value());
  std::printf("live evaluation:   average benefit %.1f%% (cost %.1f -> %.1f; "
              "backend batch %.1f)\n",
              live.average_benefit() * 100.0, live.base_total, live.new_total,
              live_backend);

  const char* path = "/tmp/dbdesign_session.trace.json";
  Status saved = recorder->SaveToFile(path);
  std::printf("trace: %zu recorded cost calls -> %s (%s)\n",
              recorder->num_recorded_costs(), path,
              saved.ok() ? "saved" : saved.ToString().c_str());

  // --- 3. Replay: same designer code, no engine ---
  auto replay = TraceBackend::LoadFromFile(path);
  if (!replay.ok()) {
    std::printf("replay failed: %s\n", replay.status().ToString().c_str());
    return 1;
  }
  Designer offline(*replay.value());
  BenefitReport replayed =
      offline.TryEvaluateDesigns(workload, {candidate}).value().front();
  double replay_backend = workload.WeightedTotal(
      offline.whatif().TryCostWorkload(workload, candidate).value());
  std::printf("replay evaluation: average benefit %.1f%% (cost %.1f -> %.1f; "
              "backend batch %.1f)\n",
              replayed.average_benefit() * 100.0, replayed.base_total,
              replayed.new_total, replay_backend);

  bool identical = replayed.base_total == live.base_total &&
                   replayed.new_total == live.new_total &&
                   replay_backend == live_backend;
  std::printf("replay %s the live session.\n",
              identical ? "exactly reproduces" : "DIVERGES from");
  return identical ? 0 : 1;
}
