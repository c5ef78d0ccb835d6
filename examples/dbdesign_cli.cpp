// dbdesign_cli: an interactive shell over the Designer — the portable
// equivalent of the demo's GUI, now built around the constraint-driven
// refinement loop: the tool recommends, the DBA pins/vetoes/caps, and
// `refine` re-solves incrementally (zero new optimizer calls after a
// constraints-only edit).
//
// The shell is multi-session: named DesignSessions live in a
// TuningServer over a shared atom substrate, so `open`ing a second
// session on the warm schema skips the INUM populate entirely and two
// sessions can explore different constraint stories side by side
// (switching costs nothing — each session keeps its own workload,
// constraints, pending edits, history, and snapshots).
//
//   $ ./build/dbdesign_cli                       # interactive
//   $ printf 'recommend 1.0\nveto photoobj ra\nrefine\n' | ./build/dbdesign_cli
//
// Commands (also via `help`):
//   sql <SELECT ...>        explain + run a query
//   whatif index t c1[,c2]  create a hypothetical index
//   drop index t c1[,c2]    drop a hypothetical index
//   knobs [name on|off]     show / set join knobs
//   eval                    benefit panel of the hypothetical design
//   recommend [budget_x]    constraint-aware recommendation (budget x data)
//   refine                  re-solve after constraint edits (incremental)
//   pin|unpin t c1[,c2]     force an index into / out of the pin set
//   veto|unveto t c1[,c2]   forbid / re-allow an index
//   vetocol t col           forbid any index touching a column
//   cap t n | uncap t       limit recommended indexes on a table
//   budget <pages|off>      set / clear the storage budget
//   constraints             show the DBA constraint state
//   save|load <file>        persist / resume the current session (JSON)
//   undo | redo             step the design history
//   snapshot|restore <name> named design snapshots
//   offline [budget_x]      full CoPhy+AutoPart+schedule pipeline
//   deploy                  plan the materialization of the last
//                           recommendation (constraint-aware greedy
//                           schedule + interaction clusters; zero new
//                           optimizer calls on a warm session)
//   interactions            doi graph over the last recommendation
//                           (falls back to the hypothetical indexes)
//   build t c1[,c2]         physically build an index
//   classes                 the session's template-class table
//   open <name>             open + switch to a new named session
//   switch <name>           switch to an open session
//   close <name>            close a session
//   sessions                list sessions (current marked, atom stats)
//   tables | log | quit

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "backend/inmemory_backend.h"
#include "core/designer.h"
#include "core/report.h"
#include "core/session.h"
#include "exec/executor.h"
#include "server/server.h"
#include "sql/binder.h"
#include "util/str.h"
#include "workload/queries.h"
#include "workload/sdss.h"

using namespace dbdesign;

namespace {

constexpr const char* kSchemaName = "sdss";

struct Shell {
  Database db;
  InMemoryBackend backend;
  TuningServer server;
  Executor exec;
  std::string current;
  /// Staged constraint edits, per session (applied by `refine`).
  std::map<std::string, ConstraintDelta> pending_map;

  explicit Shell(Database d) : db(std::move(d)), backend(db), exec(db) {
    Status st = server.RegisterSchema(kSchemaName, backend);
    DBD_CHECK(st.ok());
    OpenNamedSession("main");
  }

  bool OpenNamedSession(const std::string& name) {
    Status st = server.OpenSession(name, kSchemaName);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return false;
    }
    st = server.WithSession(name, [&](DesignSession& session) {
      session.SetWorkload(
          GenerateWorkload(db, TemplateMix::OfflineDefault(), 12, 7));
    });
    DBD_CHECK(st.ok());
    current = name;
    return true;
  }

  double DataPages() const {
    double pages = 0.0;
    for (TableId t = 0; t < db.catalog().num_tables(); ++t) {
      pages += db.stats(t).HeapPages(db.catalog().table(t));
    }
    return pages;
  }

  Result<IndexDef> ParseIndexSpec(const std::string& table,
                                  const std::string& cols) {
    TableId t = db.catalog().FindTable(table);
    if (t == kInvalidTableId) {
      return Status::NotFound("table '" + table + "'");
    }
    IndexDef idx;
    idx.table = t;
    for (const std::string& c : StrSplit(cols, ',')) {
      ColumnId col = db.catalog().table(t).FindColumn(c);
      if (col == kInvalidColumnId) {
        return Status::NotFound("column '" + c + "' in " + table);
      }
      idx.columns.push_back(col);
    }
    if (idx.columns.empty()) {
      return Status::InvalidArgument("no columns given");
    }
    return idx;
  }

  void CmdSql(DesignSession& session, const std::string& sql) {
    auto q = ParseAndBind(db.catalog(), sql);
    if (!q.ok()) {
      std::printf("error: %s\n", q.status().ToString().c_str());
      return;
    }
    PlanResult plan = session.designer().whatif().TryPlan(q.value()).value();
    std::printf("%s\n", plan.root->ToString(db.catalog(), q.value()).c_str());
    auto rows = exec.Execute(q.value(), *plan.root);
    if (rows.ok()) {
      size_t shown = 0;
      for (const Row& r : rows.value()) {
        if (shown++ >= 10) break;
        std::string line;
        for (const Value& v : r) line += v.ToString() + "  ";
        std::printf("  %s\n", line.c_str());
      }
      std::printf("(%zu rows)\n", rows.value().size());
    } else {
      std::printf("(plan not executable: %s)\n",
                  rows.status().ToString().c_str());
    }
  }

  void CmdKnobs(DesignSession& session, std::istringstream& in) {
    std::string name;
    std::string state;
    in >> name >> state;
    PlannerKnobs& k = session.designer().whatif().knobs();
    struct Entry {
      const char* name;
      bool* flag;
    } entries[] = {
        {"seqscan", &k.enable_seqscan},
        {"indexscan", &k.enable_indexscan},
        {"indexonlyscan", &k.enable_indexonlyscan},
        {"nestloop", &k.enable_nestloop},
        {"indexnestloop", &k.enable_indexnestloop},
        {"hashjoin", &k.enable_hashjoin},
        {"mergejoin", &k.enable_mergejoin},
        {"sort", &k.enable_sort},
    };
    if (!name.empty()) {
      for (Entry& e : entries) {
        if (name == e.name) *e.flag = (state != "off");
      }
    }
    for (Entry& e : entries) {
      std::printf("  enable_%-14s %s\n", e.name, *e.flag ? "on" : "off");
    }
  }

  void CmdEval(DesignSession& session) {
    Designer& designer = session.designer();
    auto reports = designer.TryEvaluateDesigns(
        session.workload(), {designer.whatif().hypothetical_design()});
    if (!reports.ok()) {
      std::printf("error: %s\n", reports.status().ToString().c_str());
      return;
    }
    std::printf("%s", RenderBenefitPanel(db.catalog(), session.workload(),
                                         reports.value().front())
                          .c_str());
  }

  /// The refinement loop driver behind both `recommend` and `refine`.
  void Solve(DesignSession& session, ConstraintDelta& pending,
             const char* verb) {
    uint64_t calls0 = session.backend_optimizer_calls();
    uint64_t pops0 = session.inum_populate_count();
    auto t0 = std::chrono::steady_clock::now();
    Result<IndexRecommendation> rec = session.Refine(pending);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    if (!rec.ok()) {
      std::printf("error: %s\n", rec.status().ToString().c_str());
      return;
    }
    pending = ConstraintDelta{};
    const IndexRecommendation& r = rec.value();
    std::printf("%s: %zu indexes, cost %.1f -> %.1f (%.1f%% better)\n", verb,
                r.indexes.size(), r.base_cost, r.recommended_cost,
                r.improvement() * 100.0);
    for (const IndexDef& idx : r.indexes) {
      const char* tag = session.constraints().IsPinned(idx) ? "  [pinned]" : "";
      std::printf("  %s%s\n", idx.DisplayName(db.catalog()).c_str(), tag);
    }
    for (const IndexDef& idx : r.infeasible_pins) {
      std::printf("  ! pinned %s does not fit the budget\n",
                  idx.DisplayName(db.catalog()).c_str());
    }
    std::printf(
        "  %.1f ms, %llu new optimizer calls, %llu new INUM populations\n",
        ms,
        static_cast<unsigned long long>(session.backend_optimizer_calls() -
                                        calls0),
        static_cast<unsigned long long>(session.inum_populate_count() -
                                        pops0));
  }

  void CmdConstraints(DesignSession& session, const ConstraintDelta& pending) {
    const DesignConstraints& c = session.constraints();
    std::printf("constraints:\n");
    for (const IndexDef& idx : c.pinned_indexes) {
      std::printf("  pin   %s\n", idx.DisplayName(db.catalog()).c_str());
    }
    for (const IndexDef& idx : c.vetoed_indexes) {
      std::printf("  veto  %s\n", idx.DisplayName(db.catalog()).c_str());
    }
    for (const ColumnRef& col : c.vetoed_columns) {
      std::printf("  veto column %s\n", col.DisplayName(db.catalog()).c_str());
    }
    for (const auto& [table, cap] : c.max_indexes_per_table) {
      std::printf("  cap   %s <= %d indexes\n",
                  db.catalog().table(table).name().c_str(), cap);
    }
    if (std::isfinite(c.storage_budget_pages)) {
      std::printf("  budget %.0f pages\n", c.storage_budget_pages);
    }
    if (!c.partitioning_enabled) std::printf("  partitioning disabled\n");
    if (c.unconstrained()) std::printf("  (unconstrained)\n");
    if (!pending.empty()) {
      std::printf("pending (apply with `refine`): %s\n",
                  pending.Describe(db.catalog()).c_str());
    }
  }

  void CmdOffline(DesignSession& session, std::istringstream& in) {
    double factor = 1.0;
    in >> factor;
    auto rec = session.designer().TryRecommendOffline(
        session.workload(), factor * DataPages(), session.constraints());
    if (!rec.ok()) {
      std::printf("error: %s\n", rec.status().ToString().c_str());
      return;
    }
    std::printf("%s", RenderOfflineRecommendation(db.catalog(), backend,
                                                  session.workload(),
                                                  rec.value())
                          .c_str());
  }

  void CmdInteractions(DesignSession& session) {
    // Prefer the session's deployment stage: the DoI graph over the
    // last recommendation, priced from cached atoms. Without a
    // recommendation, fall back to the hypothetical what-if indexes.
    if (session.last_recommendation() != nullptr) {
      auto plan = session.PlanDeployment();
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
        return;
      }
      InteractionGraph graph = plan.value().Graph(db.catalog());
      std::printf("%s", graph.ToAscii().c_str());
      std::printf("clusters:");
      for (const auto& cluster : plan.value().clusters) {
        std::printf(" {");
        for (size_t m = 0; m < cluster.size(); ++m) {
          std::printf("%s%d", m ? "," : "", cluster[m]);
        }
        std::printf("}");
      }
      std::printf("\n");
      return;
    }
    const auto& indexes =
        session.designer().whatif().hypothetical_design().indexes();
    if (indexes.size() < 2) {
      std::printf("recommend first, or create at least two what-if indexes\n");
      return;
    }
    auto graph =
        session.designer().AnalyzeInteractions(session.workload(), indexes);
    if (!graph.ok()) {
      std::printf("error: %s\n", graph.status().ToString().c_str());
      return;
    }
    std::printf("%s", graph.value().ToAscii().c_str());
  }

  void CmdDeploy(DesignSession& session) {
    if (session.last_recommendation() == nullptr) {
      std::printf("nothing to deploy: run `recommend` (or `refine`) first\n");
      return;
    }
    uint64_t calls0 = session.backend_optimizer_calls();
    uint64_t pops0 = session.inum_populate_count();
    auto t0 = std::chrono::steady_clock::now();
    auto plan = session.PlanDeployment();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    if (!plan.ok()) {
      std::printf("error: %s\n", plan.status().ToString().c_str());
      return;
    }
    const DeploymentPlan& p = plan.value();
    const MaterializationSchedule& s = p.schedule;
    std::printf("deployment plan: %zu builds, cost %.1f -> %.1f, "
                "%zu interacting pairs, %zu clusters%s\n",
                s.steps.size(), s.base_cost, s.final_cost, p.edges.size(),
                p.clusters.size(),
                p.schedule_reused ? " (schedule reused)" : "");
    std::printf("  %-4s %-44s %9s %9s %12s %8s %s\n", "step", "index",
                "pages", "cum.pages", "benefit", "cluster", "");
    for (size_t k = 0; k < s.steps.size(); ++k) {
      const ScheduleStep& step = s.steps[k];
      std::printf("  %-4zu %-44s %9.0f %9.0f %12.1f %8d%s\n", k + 1,
                  step.index.DisplayName(db.catalog()).c_str(),
                  step.build_pages, step.cumulative_pages,
                  step.marginal_benefit, step.cluster,
                  step.pinned ? "  [pinned]" : "");
    }
    for (const IndexDef& idx : s.skipped) {
      std::printf("  !    %-44s skipped (vetoed or over budget)\n",
                  idx.DisplayName(db.catalog()).c_str());
    }
    std::printf(
        "  %.1f ms, %llu new optimizer calls, %llu new INUM populations, "
        "%zu/%zu DoI rows from cache\n",
        ms,
        static_cast<unsigned long long>(session.backend_optimizer_calls() -
                                        calls0),
        static_cast<unsigned long long>(session.inum_populate_count() - pops0),
        p.doi_rows_reused, p.doi_rows_reused + p.doi_rows_computed);
  }

  void CmdClasses(DesignSession& session) {
    const auto& classes = session.template_classes();
    if (classes.empty()) {
      std::printf("no workload loaded\n");
      return;
    }
    std::printf("%zu queries in %zu template classes:\n",
                session.workload().size(), classes.size());
    std::printf("  %-18s %10s %8s  %s\n", "signature", "weight", "count",
                "representative");
    for (const TemplateClass& cls : classes) {
      std::printf("  %016llx %10.1f %8zu  %s\n",
                  static_cast<unsigned long long>(cls.signature), cls.weight,
                  cls.count, cls.representative.ToSql(db.catalog()).c_str());
    }
  }

  void CmdTables() {
    for (TableId t = 0; t < db.catalog().num_tables(); ++t) {
      const TableDef& def = db.catalog().table(t);
      std::printf("  %s (%zu rows, %.0f pages):", def.name().c_str(),
                  db.data(t).NumRows(),
                  db.stats(t).HeapPages(def));
      for (const ColumnDef& c : def.columns()) {
        std::printf(" %s", c.name.c_str());
      }
      std::printf("\n");
    }
  }

  void CmdSessions() {
    TuningServerStats stats = server.stats();
    std::printf("sessions on '%s' (store: %llu rows published, "
                "hit rate %.2f):\n",
                kSchemaName,
                static_cast<unsigned long long>(stats.atoms.publishes),
                stats.atoms.hit_rate());
    for (const std::string& id : server.SessionIds()) {
      auto atom_stats = server.SessionAtomStats(id);
      size_t queries = 0;
      Status st = server.WithSession(id, [&](DesignSession& session) {
        queries = session.workload().size();
      });
      std::printf("  %c %-16s %zu queries, %llu populates reused\n",
                  id == current ? '*' : ' ', id.c_str(),
                  st.ok() ? queries : 0,
                  static_cast<unsigned long long>(
                      atom_stats.ok() ? atom_stats.value().hits : 0));
    }
  }

  /// Server-level commands: session lifecycle lives outside the
  /// per-session lock.
  bool DispatchServer(const std::string& cmd, std::istringstream& in) {
    if (cmd == "open" || cmd == "switch" || cmd == "close") {
      std::string name;
      in >> name;
      if (name.empty()) {
        std::printf("usage: %s <name>\n", cmd.c_str());
        return true;
      }
      if (cmd == "open") {
        if (OpenNamedSession(name)) {
          std::printf("opened session '%s' (now current)\n", name.c_str());
        }
      } else if (cmd == "switch") {
        if (!server.HasSession(name)) {
          std::printf("error: no session '%s' (try `sessions`)\n",
                      name.c_str());
        } else {
          current = name;
        }
      } else {
        Status st = server.CloseSession(name);
        if (!st.ok()) {
          std::printf("error: %s\n", st.ToString().c_str());
          return true;
        }
        pending_map.erase(name);
        if (name == current) {
          auto ids = server.SessionIds();
          if (ids.empty()) {
            OpenNamedSession("main");
            std::printf("closed current session; opened fresh 'main'\n");
          } else {
            current = ids.front();
            std::printf("closed current session; switched to '%s'\n",
                        current.c_str());
          }
        }
      }
      return true;
    }
    if (cmd == "sessions") {
      CmdSessions();
      return true;
    }
    return false;
  }

  bool DispatchSession(DesignSession& session, const std::string& cmd,
                       std::istringstream& in) {
    ConstraintDelta& pending = pending_map[current];
    if (cmd == "help") {
      std::printf(
          "  sql <SELECT ...> | whatif index <t> <cols> | drop index <t> "
          "<cols> | knobs [name on|off]\n"
          "  recommend [x] | refine | pin/unpin <t> <cols> | veto/unveto <t> "
          "<cols> | vetocol <t> <col>\n"
          "  cap <t> <n> | uncap <t> | budget <pages|off> | constraints | "
          "save/load <file>\n"
          "  eval | undo | redo | snapshot/restore <name> | offline [x] | "
          "deploy | interactions | build <t> <cols>\n"
          "  open/switch/close <name> | sessions | classes | tables | log | "
          "quit\n");
    } else if (cmd == "sql") {
      std::string rest;
      std::getline(in, rest);
      CmdSql(session, rest);
    } else if (cmd == "whatif" || cmd == "drop" || cmd == "build") {
      std::string kind;
      std::string table;
      std::string cols;
      if (cmd == "build") {
        in >> table >> cols;
        kind = "index";
      } else {
        in >> kind >> table >> cols;
      }
      if (kind != "index") {
        std::printf("only 'index' specs are supported here\n");
        return true;
      }
      auto idx = ParseIndexSpec(table, cols);
      if (!idx.ok()) {
        std::printf("error: %s\n", idx.status().ToString().c_str());
        return true;
      }
      Status s;
      if (cmd == "whatif") {
        s = session.CreateIndex(idx.value());
        if (s.ok()) {
          std::printf("created hypothetical %s (%s)\n",
                      idx.value().DisplayName(db.catalog()).c_str(),
                      FormatBytes(session.designer()
                                      .whatif()
                                      .HypotheticalIndexSize(idx.value())
                                      .total_pages() *
                                  kPageSizeBytes)
                          .c_str());
        }
      } else if (cmd == "drop") {
        s = session.DropIndex(idx.value());
      } else {
        s = db.CreateIndex(idx.value());
        if (s.ok()) {
          std::printf("built %s\n",
                      idx.value().DisplayName(db.catalog()).c_str());
        }
      }
      if (!s.ok()) std::printf("error: %s\n", s.ToString().c_str());
    } else if (cmd == "pin" || cmd == "unpin" || cmd == "veto" ||
               cmd == "unveto") {
      std::string table;
      std::string cols;
      in >> table >> cols;
      auto idx = ParseIndexSpec(table, cols);
      if (!idx.ok()) {
        std::printf("error: %s\n", idx.status().ToString().c_str());
        return true;
      }
      // unpin/unveto first cancel a matching edit still staged in the
      // pending delta (typo recovery); only then do they become real
      // unpin/unveto entries for the session's constraints.
      auto erase_staged = [](std::vector<IndexDef>* v, const IndexDef& i) {
        auto it = std::find(v->begin(), v->end(), i);
        if (it == v->end()) return false;
        v->erase(it);
        return true;
      };
      if (cmd == "pin") pending.pin.push_back(idx.value());
      if (cmd == "unpin" && !erase_staged(&pending.pin, idx.value())) {
        pending.unpin.push_back(idx.value());
      }
      if (cmd == "veto") pending.veto.push_back(idx.value());
      if (cmd == "unveto" && !erase_staged(&pending.veto, idx.value())) {
        pending.unveto.push_back(idx.value());
      }
      std::printf("pending: %s (apply with `refine`)\n",
                  pending.Describe(db.catalog()).c_str());
    } else if (cmd == "vetocol") {
      std::string table;
      std::string col;
      in >> table >> col;
      TableId t = db.catalog().FindTable(table);
      if (t == kInvalidTableId) {
        std::printf("error: table '%s' not found\n", table.c_str());
        return true;
      }
      ColumnId c = db.catalog().table(t).FindColumn(col);
      if (c == kInvalidColumnId) {
        std::printf("error: column '%s' not found\n", col.c_str());
        return true;
      }
      pending.veto_columns.push_back(ColumnRef{t, c});
      std::printf("pending: %s (apply with `refine`)\n",
                  pending.Describe(db.catalog()).c_str());
    } else if (cmd == "cap" || cmd == "uncap") {
      std::string table;
      int n = -1;
      in >> table;
      if (cmd == "cap" && (!(in >> n) || n < 0)) {
        std::printf("usage: cap <table> <n>  (n >= 0; use `uncap <table>` "
                    "to clear)\n");
        return true;
      }
      TableId t = db.catalog().FindTable(table);
      if (t == kInvalidTableId) {
        std::printf("error: table '%s' not found\n", table.c_str());
        return true;
      }
      pending.table_caps[t] = cmd == "cap" ? n : -1;
      std::printf("pending: %s (apply with `refine`)\n",
                  pending.Describe(db.catalog()).c_str());
    } else if (cmd == "budget") {
      std::string arg;
      in >> arg;
      if (arg == "off") {
        pending.storage_budget_pages =
            std::numeric_limits<double>::infinity();
      } else {
        char* end = nullptr;
        double pages = std::strtod(arg.c_str(), &end);
        if (arg.empty() || end == arg.c_str() || *end != '\0' ||
            pages < 0.0) {
          std::printf("usage: budget <pages|off>\n");
          return true;
        }
        pending.storage_budget_pages = pages;
      }
      std::printf("pending: %s (apply with `refine`)\n",
                  pending.Describe(db.catalog()).c_str());
    } else if (cmd == "knobs") {
      CmdKnobs(session, in);
    } else if (cmd == "constraints") {
      CmdConstraints(session, pending);
    } else if (cmd == "recommend") {
      double factor = 0.0;
      if (in >> factor && factor > 0.0) {
        pending.storage_budget_pages = factor * DataPages();
      } else if (!pending.storage_budget_pages.has_value() &&
                 !std::isfinite(
                     session.constraints().storage_budget_pages)) {
        // Pre-PR default: plain `recommend` budgets at 1.0x data size
        // rather than solving unconstrained.
        pending.storage_budget_pages = DataPages();
      }
      Solve(session, pending, "recommend");
    } else if (cmd == "refine") {
      Solve(session, pending, "refine");
    } else if (cmd == "save" || cmd == "load") {
      std::string path;
      in >> path;
      if (path.empty()) {
        std::printf("usage: %s <file>\n", cmd.c_str());
        return true;
      }
      Status s = cmd == "save" ? session.SaveToFile(path)
                               : session.LoadFromFile(path);
      if (s.ok()) {
        // Pending edits staged before a load refer to the old session.
        if (cmd == "load") pending = ConstraintDelta{};
        std::printf("%s %s (%zu queries, %zu snapshots)\n",
                    cmd == "save" ? "saved to" : "loaded from", path.c_str(),
                    session.workload().size(),
                    session.SnapshotNames().size());
      } else {
        std::printf("error: %s\n", s.ToString().c_str());
      }
    } else if (cmd == "undo") {
      std::printf(session.Undo() ? "undone\n" : "nothing to undo\n");
    } else if (cmd == "redo") {
      std::printf(session.Redo() ? "redone\n" : "nothing to redo\n");
    } else if (cmd == "snapshot" || cmd == "restore") {
      std::string name;
      in >> name;
      if (name.empty()) {
        std::printf("usage: %s <name>\n", cmd.c_str());
        return true;
      }
      if (cmd == "snapshot") {
        session.SaveSnapshot(name);
        std::printf("saved snapshot '%s'\n", name.c_str());
      } else {
        Status s = session.RestoreSnapshot(name);
        if (!s.ok()) std::printf("error: %s\n", s.ToString().c_str());
      }
    } else if (cmd == "log") {
      for (const std::string& entry : session.log()) {
        std::printf("  %s\n", entry.c_str());
      }
    } else if (cmd == "eval") {
      CmdEval(session);
    } else if (cmd == "offline") {
      CmdOffline(session, in);
    } else if (cmd == "deploy") {
      CmdDeploy(session);
    } else if (cmd == "interactions") {
      CmdInteractions(session);
    } else if (cmd == "classes") {
      CmdClasses(session);
    } else if (cmd == "tables") {
      CmdTables();
    } else {
      std::printf("unknown command '%s' (try `help`)\n", cmd.c_str());
    }
    return true;
  }

  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) return true;
    if (cmd == "quit" || cmd == "exit") return false;
    if (DispatchServer(cmd, in)) return true;
    bool keep = true;
    Status st = server.WithSession(current, [&](DesignSession& session) {
      keep = DispatchSession(session, cmd, in);
    });
    if (!st.ok()) std::printf("error: %s\n", st.ToString().c_str());
    return keep;
  }
};

}  // namespace

int main() {
  SdssConfig config;
  config.photoobj_rows = 20000;
  std::printf("dbdesign interactive designer — loading SDSS-like data...\n");
  Shell shell(BuildSdssDatabase(config));
  std::printf("ready. 12-query workload loaded in session 'main'; "
              "type `help`.\n");

  std::string line;
  while (true) {
    std::printf("dbdesign[%s]> ", shell.current.c_str());
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (!shell.Dispatch(line)) break;
  }
  std::printf("bye\n");
  return 0;
}
