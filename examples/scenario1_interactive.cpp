// Demonstration scenario #1 (paper §4): interactive design with
// constraint-driven incremental refinement.
//
// "The user provides the query workload and the original physical
//  schema" — then the loop the demo is named for: the designer
//  proposes, the DBA reacts (pins an index she trusts, vetoes one she
//  doesn't, tightens the budget), and the tool re-recommends fast
//  enough to feel interactive. The speed comes from INUM reuse: the
//  session keeps the cost cache and the CoPhy atom matrix, so a
//  constraints-only refinement re-solves the BIP with ZERO new
//  optimizer calls.
//
//   $ ./build/scenario1_interactive

#include <chrono>
#include <cstdio>

#include "backend/inmemory_backend.h"
#include "core/designer.h"
#include "core/report.h"
#include "core/session.h"
#include "workload/queries.h"
#include "workload/sdss.h"

using namespace dbdesign;

namespace {

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void PrintRecommendation(const Catalog& catalog, const DesignSession& session,
                         const IndexRecommendation& rec, double ms,
                         uint64_t new_calls, uint64_t new_populates) {
  std::printf("  -> %zu indexes, cost %.1f -> %.1f (%.1f%% better)\n",
              rec.indexes.size(), rec.base_cost, rec.recommended_cost,
              rec.improvement() * 100.0);
  for (const IndexDef& idx : rec.indexes) {
    std::printf("     %s%s\n", idx.DisplayName(catalog).c_str(),
                session.constraints().IsPinned(idx) ? "  [pinned]" : "");
  }
  for (const IndexDef& idx : rec.infeasible_pins) {
    std::printf("     ! pinned %s does not fit the budget\n",
                idx.DisplayName(catalog).c_str());
  }
  std::printf("     %.1f ms wall, %llu new optimizer calls, %llu new INUM "
              "populations\n\n",
              ms, static_cast<unsigned long long>(new_calls),
              static_cast<unsigned long long>(new_populates));
}

}  // namespace

int main() {
  SdssConfig config;
  config.photoobj_rows = 20000;
  Database db = BuildSdssDatabase(config);
  Workload workload =
      GenerateWorkload(db, TemplateMix::OfflineDefault(), 16, /*seed=*/42);
  InMemoryBackend backend(db);
  Designer designer(backend);
  DesignSession session(designer);
  session.SetWorkload(workload);

  double data_pages = 0.0;
  for (TableId t = 0; t < db.catalog().num_tables(); ++t) {
    data_pages += db.stats(t).HeapPages(db.catalog().table(t));
  }

  // --- Step 1: the tool proposes ---
  std::printf("Step 1 — initial recommendation (budget = 1.0x data size):\n");
  DesignConstraints initial;
  initial.storage_budget_pages = data_pages;
  session.SetConstraints(initial);
  uint64_t calls0 = session.backend_optimizer_calls();
  uint64_t pops0 = session.inum_populate_count();
  auto t0 = std::chrono::steady_clock::now();
  auto rec = session.Recommend();
  double initial_ms = MillisSince(t0);
  if (!rec.ok()) {
    std::printf("recommendation failed: %s\n",
                rec.status().ToString().c_str());
    return 1;
  }
  PrintRecommendation(db.catalog(), session, rec.value(), initial_ms,
                      session.backend_optimizer_calls() - calls0,
                      session.inum_populate_count() - pops0);
  session.SaveSnapshot("initial");

  // --- Step 2: the DBA reacts — veto one index, pin another ---
  // She vetoes the widest recommended index (operational concerns) and
  // pins the narrowest one (she trusts it from experience).
  const auto& indexes = rec.value().indexes;
  if (indexes.empty()) {
    std::printf("nothing recommended under this budget; nothing to refine\n");
    return 0;
  }
  IndexDef widest = indexes.front();
  IndexDef narrowest = indexes.front();
  for (const IndexDef& idx : indexes) {
    if (idx.columns.size() > widest.columns.size()) widest = idx;
    if (idx.columns.size() < narrowest.columns.size()) narrowest = idx;
  }
  ConstraintDelta dba_edit;
  dba_edit.veto.push_back(widest);
  if (!(narrowest == widest)) dba_edit.pin.push_back(narrowest);
  std::printf("Step 2 — DBA reacts: %s\n",
              dba_edit.Describe(db.catalog()).c_str());

  calls0 = session.backend_optimizer_calls();
  pops0 = session.inum_populate_count();
  t0 = std::chrono::steady_clock::now();
  auto refined = session.Refine(dba_edit);
  double refine_ms = MillisSince(t0);
  if (!refined.ok()) {
    std::printf("refine failed: %s\n", refined.status().ToString().c_str());
    return 1;
  }
  PrintRecommendation(db.catalog(), session, refined.value(), refine_ms,
                      session.backend_optimizer_calls() - calls0,
                      session.inum_populate_count() - pops0);
  std::printf("  refinement ran %.0fx faster than the initial recommend "
              "(INUM cache + atom matrix reused)\n\n",
              initial_ms / std::max(0.001, refine_ms));

  // --- Step 3: the budget tightens; a per-table cap lands ---
  ConstraintDelta ops_edit;
  ops_edit.storage_budget_pages = 0.4 * data_pages;
  TableId photo = db.catalog().FindTable(kPhotoObj);
  ops_edit.table_caps[photo] = 2;
  std::printf("Step 3 — operations pushes back: %s\n",
              ops_edit.Describe(db.catalog()).c_str());
  calls0 = session.backend_optimizer_calls();
  pops0 = session.inum_populate_count();
  t0 = std::chrono::steady_clock::now();
  auto tightened = session.Refine(ops_edit);
  if (!tightened.ok()) {
    std::printf("refine failed: %s\n", tightened.status().ToString().c_str());
    return 1;
  }
  PrintRecommendation(db.catalog(), session, tightened.value(),
                      MillisSince(t0),
                      session.backend_optimizer_calls() - calls0,
                      session.inum_populate_count() - pops0);
  session.SaveSnapshot("constrained");

  // --- Step 4: compare the saved snapshots, then undo ---
  std::printf("Step 4 — snapshots + undo:\n");
  for (const char* name : {"initial", "constrained"}) {
    auto report = session.CompareSnapshot(name, workload);
    if (report.ok()) {
      std::printf("  snapshot %-12s avg benefit %.1f%%\n", name,
                  report.value().average_benefit() * 100.0);
    }
  }
  session.Undo();
  std::printf("  after undo: %zu indexes in the design (refine is one "
              "undoable step)\n",
              session.design().indexes().size());
  session.Redo();

  // --- Step 5: the session survives a restart ---
  const char* path = "/tmp/dbdesign_scenario1_session.json";
  Status saved = session.SaveToFile(path);
  std::printf("\nStep 5 — persistence: save %s (%s)\n", path,
              saved.ok() ? "ok" : saved.ToString().c_str());
  DesignSession resumed(designer);
  Status loaded = resumed.LoadFromFile(path);
  std::printf("  resumed session: %s — %zu queries, %zu snapshots, "
              "%zu pins, design has %zu indexes\n",
              loaded.ok() ? "ok" : loaded.ToString().c_str(),
              resumed.workload().size(), resumed.SnapshotNames().size(),
              resumed.constraints().pinned_indexes.size(),
              resumed.design().indexes().size());

  // --- The action log reads like a script of the whole conversation ---
  std::printf("\nSession log:\n");
  for (const std::string& entry : session.log()) {
    std::printf("  %s\n", entry.c_str());
  }
  return 0;
}
