// TuningServer: concurrent DesignSessions over a shared atom substrate.
//
// The paper frames the designer as an always-available advisor; this
// is the service layer that multiplexes many advisors. A TuningServer
// owns a registry of named schemas (DbmsBackend seams) and of
// DesignSessions keyed by session id, and schedules session requests
// over the shared util/thread_pool. Two structural pieces make
// multi-tenancy cheap and safe:
//
//   * AtomStore (server/atom_store.h) — sessions tuning the same
//     schema share INUM populates: atom rows are published under
//     (schema fingerprint, SQL text, universe fingerprint) and adopted
//     by shared_ptr together with the INUM plan set they were built
//     from, so the Nth session on a warm schema skips the expensive
//     half of its first Recommend and populates nothing in its first
//     PlanDeployment. Keys are claimed single-flight: concurrent cold
//     sessions split a workload's keys between them, and a session
//     that needs a key another session is building waits for it.
//   * Copy-on-write session state — CoPhyPrepared holds immutable
//     shared rows; a Refine/PlanDeployment that changes one session's
//     universe builds *new* rows and never touches rows other sessions
//     hold, so their Recommends proceed from unchanged state. Sessions
//     synchronize on the store's short critical sections and, while
//     preparing, on the builds of keys they wait for — never on each
//     other's solves. A session builds each key it claims at once,
//     with thread-pool calls run inline, and waits only while it holds
//     no claim, so waits cannot form a cycle, nor wait on the pool.
//
// Each session talks to its schema's registered backend directly; any
// resilience or fault decorator is the registrant's to wrap, so the
// backend must tolerate concurrent cost calls from many sessions.
//
// Determinism contract: each session's requests execute serially in
// submission order under the session's own Mutex; every value a request
// reads from shared state (atom rows and their plan sets) is
// bit-identical to what the session would have computed alone. RunBatch
// results are therefore bit-identical to a serial replay of the same
// requests at any thread count. Only counters (hit rates, waits) are
// timing-dependent.

#ifndef DBDESIGN_SERVER_SERVER_H_
#define DBDESIGN_SERVER_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/designer.h"
#include "core/session.h"
#include "server/atom_store.h"
#include "util/cache_budget.h"
#include "util/thread_annotations.h"

namespace dbdesign {

struct TuningServerOptions {
  /// Per-session Designer configuration (cost model, CoPhy, DoI ...).
  DesignerOptions designer;
  /// Parallelism for RunBatch across sessions (0 = hardware).
  int num_threads = 0;
  /// Memory budget for every cache tier: atom_store_bytes bounds the
  /// shared store's hot rows, doi_rows_bytes / solver_cache_bytes are
  /// applied to each session on open. Zero fields (the default) are
  /// unbounded — the pre-budget behavior. Results are bit-identical at
  /// any budget; only eviction/recompute work varies.
  CacheBudget cache_budget;
  /// Cold-tier directory for evicted atom rows (see AtomStoreOptions::
  /// spill_dir). Empty = no spilling: an evicted row is rebuilt by the
  /// next session that needs it.
  std::string spill_dir;
};

enum class SessionOp {
  kRecommend,
  kRefine,
  kPlanDeployment,
};

struct SessionRequest {
  std::string session;
  SessionOp op = SessionOp::kRecommend;
  /// Constraint edit for kRefine (ignored otherwise).
  ConstraintDelta delta;
};

struct SessionResponse {
  std::string session;
  SessionOp op = SessionOp::kRecommend;
  Status status;
  /// Set on successful kRecommend / kRefine.
  std::optional<IndexRecommendation> recommendation;
  /// Set on successful kPlanDeployment.
  std::optional<DeploymentPlan> plan;
};

/// Server-wide telemetry snapshot.
struct TuningServerStats {
  AtomStoreStats atoms;    ///< shared-store counters (all schemas)
  /// Current / high-water hot bytes in the shared store (the gauge the
  /// atom_store_bytes budget bounds).
  size_t atom_hot_bytes = 0;
  size_t atom_peak_hot_bytes = 0;
  uint64_t sessions_open = 0;
  uint64_t sessions_total = 0;  ///< ever opened
  uint64_t requests_served = 0;
  /// Retired: the server no longer coalesces backend cost calls, so
  /// both fields are always 0. They stay only because the repository
  /// benchmark still reports them as `server.coalescer_*`; the benchmark
  /// change of ROADMAP item 1 deletes this struct with those metrics.
  struct {
    uint64_t calls = 0;
    uint64_t round_trips = 0;
  } coalescer;
};

class TuningServer {
 public:
  explicit TuningServer(TuningServerOptions options = {});
  ~TuningServer();

  TuningServer(const TuningServer&) = delete;
  TuningServer& operator=(const TuningServer&) = delete;

  // --- Registry ---
  /// Registers a schema substrate under `name`. The backend must
  /// outlive the server; sessions opened on this schema talk to it
  /// directly and concurrently.
  Status RegisterSchema(const std::string& name, DbmsBackend& backend);

  /// Opens a session on a registered schema. Fails if the id is taken
  /// or the schema unknown.
  Status OpenSession(const std::string& session_id,
                     const std::string& schema);

  /// Removes the session from the registry. Safe concurrently with a
  /// running batch: in-flight requests on the session complete (the
  /// entry is reference-counted) and the state is destroyed afterwards.
  Status CloseSession(const std::string& session_id);

  std::vector<std::string> SessionIds() const;
  std::vector<std::string> SchemaNames() const;
  bool HasSession(const std::string& session_id) const;

  // --- Requests ---
  /// Executes a batch of session requests: requests for the same
  /// session run serially in submission order under that session's
  /// lock; distinct sessions fan out across the thread pool. Responses
  /// come back in request order. Unknown sessions get kNotFound
  /// responses; the batch always completes.
  std::vector<SessionResponse> RunBatch(
      const std::vector<SessionRequest>& requests);

  /// Serialized, tagged access to one session for embedders (the CLI's
  /// multi-session mode, tests, benches): runs `fn` under the session's
  /// lock with its log tag installed. Blocks while the session serves
  /// other requests.
  Status WithSession(const std::string& session_id,
                     const std::function<void(DesignSession&)>& fn);

  // --- Telemetry ---
  TuningServerStats stats() const;
  /// Per-session atom counters (hits = populates this session skipped).
  Result<AtomStoreStats> SessionAtomStats(const std::string& session_id) const;
  /// The schema fingerprint a session is bound to (exposed for tests).
  Result<uint64_t> SessionSchemaFingerprint(
      const std::string& session_id) const;
  const AtomStore& atom_store() const { return store_; }

 private:
  struct SchemaEntry {
    DbmsBackend* backend = nullptr;  ///< as registered (non-owning)
    uint64_t fingerprint = 0;
  };

  /// One open session. `mu` serializes the session's requests; the
  /// registry lock is never held while a request executes, so slow
  /// solves on one session never block another session's requests —
  /// nor opens/closes.
  struct SessionEntry {
    std::string id;
    Mutex mu;
    std::unique_ptr<AtomStoreView> atoms DBD_GUARDED_BY(mu);
    std::unique_ptr<Designer> designer DBD_GUARDED_BY(mu);
    std::unique_ptr<DesignSession> session DBD_GUARDED_BY(mu);
    uint64_t requests DBD_GUARDED_BY(mu) = 0;
  };

  /// Executes one request on a locked session entry.
  SessionResponse Execute(SessionEntry& entry, const SessionRequest& request)
      DBD_REQUIRES(entry.mu);

  /// Looks up a session entry (shared ownership keeps it alive past a
  /// concurrent CloseSession).
  std::shared_ptr<SessionEntry> FindSession(const std::string& id) const;

  const TuningServerOptions options_;
  AtomStore store_;

  mutable Mutex mu_;
  std::map<std::string, SchemaEntry> schemas_ DBD_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<SessionEntry>> sessions_
      DBD_GUARDED_BY(mu_);
  uint64_t sessions_total_ DBD_GUARDED_BY(mu_) = 0;
  uint64_t requests_served_ DBD_GUARDED_BY(mu_) = 0;
};

}  // namespace dbdesign

#endif  // DBDESIGN_SERVER_SERVER_H_
