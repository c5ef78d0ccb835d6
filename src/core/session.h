// DesignSession: the unified entry point of the paper's interactive
// tuning loop.
//
// The demo's conversation is: the designer proposes, the DBA reacts —
// pins an index she trusts, vetoes one she doesn't, tightens the
// storage budget — and the system re-recommends fast enough to feel
// interactive. This class owns everything that loop needs:
//
//   * the workload under tuning (with AddQueries/RemoveQueries deltas),
//     compressed into template classes: the costing pipeline (INUM
//     populate, CoPhy atoms, weights, base costs) is keyed per class,
//     so a 100k-query production trace of ~10 templates costs like a
//     10-query workload and a same-template append is a pure weight
//     bump with zero new backend cost calls,
//   * the DBA's DesignConstraints,
//   * the hypothetical design, with undo/redo, named snapshots and a
//     human-readable action log (every mutation — manual what-if edits
//     and whole recommendations alike — is one undoable step),
//   * a prepared CoPhy state (INUM cost cache + atom matrix) that makes
//     Refine() incremental: a constraints-only edit re-solves the BIP
//     against the cached atoms with ZERO new INUM populations and ZERO
//     new backend optimizer calls — only workload deltas invalidate
//     atoms, and only for the queries they touch.
//
// Sessions serialize to JSON (constraints, snapshots, workload, design,
// log) so a tuning session survives process restart; the prepared cache
// is rebuilt lazily on the first Recommend after a load.

#ifndef DBDESIGN_CORE_SESSION_H_
#define DBDESIGN_CORE_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "core/designer.h"
#include "util/budgeted_lru.h"
#include "util/cache_budget.h"
#include "workload/compress.h"

namespace dbdesign {

/// Output of the session's deployment-planning stage: how to take the
/// recommended index set live. Index positions in `edges`, `clusters`
/// and `schedule` refer to `indexes`.
struct DeploymentPlan {
  /// The recommendation being deployed (last Recommend/Refine result).
  std::vector<IndexDef> indexes;
  /// Pairwise degree-of-interaction edges, heaviest first.
  std::vector<InteractionEdge> edges;
  /// Independent interaction clusters: indexes in different clusters do
  /// not interact, so their benefits compose independently.
  std::vector<std::vector<int>> clusters;
  /// Constraint-aware materialization order (pins first, vetoes
  /// impossible, storage budget respected at every intermediate step).
  MaterializationSchedule schedule;
  /// True when the previous plan's schedule was reused outright (the
  /// refine changed neither the index set, the class weights, nor any
  /// schedule-relevant constraint).
  bool schedule_reused = false;
  /// Per-template-class DoI row cache telemetry: rows served from the
  /// incremental cache vs rows (re)computed this call.
  size_t doi_rows_reused = 0;
  size_t doi_rows_computed = 0;
  /// Set when the backend was unreachable and this plan is a cached
  /// previous plan rather than a fresh one (see PlanDeployment).
  DegradedResult degraded;

  /// Figure-2 rendering of the interaction structure.
  InteractionGraph Graph(const Catalog& catalog) const {
    return InteractionGraph(catalog, indexes, edges);
  }
};

class DesignSession {
 public:
  explicit DesignSession(Designer& designer);
  ~DesignSession();

  // --- What-if mutations (logged, undoable) ---
  Status CreateIndex(const IndexDef& index);
  Status DropIndex(const IndexDef& index);
  Status SetVerticalPartitioning(VerticalPartitioning p);
  Status ClearVerticalPartitioning(TableId table);
  Status SetHorizontalPartitioning(HorizontalPartitioning p);
  Status ClearHorizontalPartitioning(TableId table);

  /// Reverts the most recent mutation. Returns false if nothing to undo.
  bool Undo();
  /// Re-applies the most recently undone mutation.
  bool Redo();
  /// Number of undoable / redoable steps.
  size_t undo_depth() const { return undo_stack_.size(); }
  size_t redo_depth() const { return redo_stack_.size(); }

  // --- Workload under tuning ---
  /// Replaces the session workload (invalidates the prepared state).
  /// The workload is compressed into template classes up front; all
  /// costing downstream (INUM populate, CoPhy atoms, weights, base
  /// costs) is per class, not per query.
  void SetWorkload(Workload workload);
  /// Appends queries. A query matching an existing template class is a
  /// pure weight bump: no candidate mining, no atom building, zero new
  /// backend cost calls — and when the bumped classes were already
  /// served at their cheapest possible atom, the optimality certificate
  /// survives, so the next Recommend() is instant. Queries opening new
  /// classes mine candidates from the new representatives (stats-only);
  /// if nothing new surfaces only the new classes' atoms are built,
  /// otherwise the universe extends and atoms rebuild from the warm
  /// INUM cache. Either way: no backend cost calls for already-seen
  /// templates.
  void AddQueries(const std::vector<BoundQuery>& queries,
                  double weight = 1.0);
  /// Removes queries by workload position (descending-safe: positions
  /// refer to the current workload). Each removal decrements its
  /// template class's weight; a class whose instance count hits zero is
  /// dropped together with its atoms — the other classes stay valid.
  Status RemoveQueries(std::vector<size_t> positions);
  const Workload& workload() const { return workload_; }

  // --- Template classes ---
  /// The session's template-class table: one entry per structurally
  /// distinct query template (signature, representative, summed weight,
  /// instance count), in first-seen order. Class ids index the prepared
  /// CoPhy state.
  const std::vector<TemplateClass>& template_classes() const {
    return classes_.classes();
  }
  size_t num_template_classes() const { return classes_.size(); }

  // --- DBA constraints ---
  const DesignConstraints& constraints() const { return constraints_; }
  /// Replaces the whole constraint state (validated; logged). Prefer
  /// Refine(delta) inside the loop — it re-solves immediately.
  Status SetConstraints(DesignConstraints constraints);

  // --- The recommendation loop ---
  /// Solves for the best index set under the current constraints and
  /// applies it to the hypothetical design as ONE undoable step
  /// (partitions are preserved; the previous index overlay is
  /// replaced). The first call prepares the INUM cost cache + CoPhy
  /// atom matrix; the session keeps both for later Refines.
  ///
  /// Degradation contract: a backend failure during preparation never
  /// aborts. With a warm prepared state the solve is client-side and
  /// succeeds normally even when the backend is down. On a cold cache
  /// the session falls back to the last certified recommendation,
  /// marked `degraded` with the causing Status; with no fallback the
  /// failure surfaces as a clean Status.
  Result<IndexRecommendation> Recommend();

  /// Applies one DBA constraint edit and re-recommends incrementally.
  /// Two tiers, both free of backend optimizer calls and INUM
  /// populations after a constraints-only delta:
  ///
  ///   1. Certificate reuse: when the edit only *tightens* the solved
  ///      constraints (more pins/vetoes, smaller budget, lower caps)
  ///      and the previous proven-optimal recommendation is still
  ///      feasible, it is still optimal — Refine answers instantly with
  ///      no solver work at all. This covers the demo's most common
  ///      reactions: pinning recommended indexes, vetoing unused ones,
  ///      trimming headroom out of the budget.
  ///   2. BIP re-solve: otherwise the solve reuses the prepared atom
  ///      matrix (pinning a never-seen index extends the candidate
  ///      universe from the warm cache; still no backend calls).
  ///
  /// Either way the result is identical to a from-scratch Recommend
  /// under the same constraints. Backend failures degrade exactly like
  /// Recommend (certificate reuse and warm re-solves need no backend;
  /// a cold rebuild falls back to the last certified recommendation,
  /// marked `degraded`).
  Result<IndexRecommendation> Refine(const ConstraintDelta& delta);

  /// The most recent successful Recommend/Refine result.
  const IndexRecommendation* last_recommendation() const {
    return last_rec_.has_value() ? &*last_rec_ : nullptr;
  }

  // --- Deployment planning (the loop's last stage) ---
  /// Plans how to take the last recommendation live: computes the
  /// pairwise DoI matrix over the compressed template-class workload
  /// (batched on the thread pool, bit-identical at any thread count),
  /// partitions the interaction graph into independent clusters, and
  /// emits a constraint-aware materialization schedule (pinned indexes
  /// first, storage budget respected at every intermediate step,
  /// vetoed indexes impossible by construction).
  ///
  /// Incremental like the rest of the loop: after a warm Recommend the
  /// whole stage runs on cached INUM atoms — ZERO new backend optimizer
  /// calls and ZERO new populations. Per-class DoI contribution rows
  /// are cached by template, so workload deltas recompute only the rows
  /// whose atoms changed (a same-template weight bump recomputes
  /// nothing and just re-weights the sums), and a Refine that leaves
  /// the recommended index set, class weights and schedule-relevant
  /// constraints unchanged reuses the previous schedule outright.
  ///
  /// Degradation contract: when a backend failure prevents a fresh
  /// plan, the previous plan (if any) is returned marked `degraded`
  /// with the causing Status; otherwise the Status surfaces directly.
  Result<DeploymentPlan> PlanDeployment();

  /// The most recent successful PlanDeployment result (invalidated by
  /// workload replacement and session load).
  const DeploymentPlan* last_deployment() const {
    return deployment_.has_value() ? &*deployment_ : nullptr;
  }

  /// True when a prepared atom matrix is live (Refine will be
  /// incremental).
  bool prepared() const { return prepared_valid_; }

  /// The live prepared CoPhy state (empty until the first Recommend).
  /// Exposed for the tuning server and its tests: atom rows are shared
  /// immutable snapshots, so pointer equality across sessions proves
  /// cross-session reuse, and pointer stability across another
  /// session's Refine proves copy-on-write isolation.
  const CoPhyPrepared& prepared_state() const { return prepared_; }

  /// Attaches a cross-session atom source (non-owning; must outlive
  /// the session or be detached with nullptr). Preparing the session
  /// then reuses rows other sessions built for the same (schema, query,
  /// candidate universe) and publishes its own — results stay
  /// bit-identical either way (see CoPhyAdvisor::set_atom_source).
  void SetAtomSource(CoPhyAtomSource* source) {
    atom_source_ = source;
    if (cophy_ != nullptr) cophy_->set_atom_source(source);
  }

  /// Bounds the session-owned cache tiers (DoI contribution rows and
  /// the CoPhy solver cache; the shared AtomStore is budgeted by its
  /// owner — see server/server.h). Applies immediately: a shrink trims
  /// both tiers now, not at the next call. Budgets bound memory only —
  /// evicted rows/frontiers are recomputed transparently and every
  /// Recommend/Refine/PlanDeployment result stays bit-identical to the
  /// unbounded session. Zero fields (the default) mean unbounded.
  void SetCacheBudget(const CacheBudget& budget);

  /// Lifetime count of DoI contribution rows evicted by the budget
  /// (each one is recomputed from cached atoms if its class is still
  /// live at the next PlanDeployment).
  uint64_t doi_rows_evicted() const { return doi_rows_evicted_; }

  /// The session's solver cache (exposed for budget/trim telemetry:
  /// ApproxBytes, trims, points_dropped, entries_invalidated).
  const CoPhySolverCache& solver_cache() const { return solver_cache_; }

  /// Counters behind the "refinement makes zero new cost calls" claim:
  /// expensive backend optimizer invocations and INUM populate runs so
  /// far. Tests and benches snapshot these around Refine.
  uint64_t backend_optimizer_calls() const;
  uint64_t inum_populate_count() const;

  // --- Snapshots ---
  /// Saves the current hypothetical design under `name` (overwrites).
  void SaveSnapshot(const std::string& name);
  /// Restores a named snapshot (undoable as a single step).
  Status RestoreSnapshot(const std::string& name);
  std::vector<std::string> SnapshotNames() const;

  /// Workload benefit of a named snapshot vs the empty baseline.
  Result<BenefitReport> CompareSnapshot(const std::string& name,
                                        const Workload& workload);

  // --- Persistence ---
  /// Serializes constraints, workload (as SQL), snapshots, the current
  /// design and the action log. Undo/redo stacks and the prepared cache
  /// are not persisted (the cache rebuilds on first use).
  Json ToJson() const;
  Status LoadFromJson(const Json& j);
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

  // --- Introspection ---
  const PhysicalDesign& design() const {
    return designer_->whatif().hypothetical_design();
  }
  /// Human-readable action log ("CREATE INDEX idx_photoobj_ra", ...).
  const std::vector<std::string>& log() const { return log_; }
  Designer& designer() const { return *designer_; }

 private:
  /// Pushes the current design for undo and clears the redo stack.
  void Checkpoint(std::string action);
  /// Replaces the what-if overlay wholesale.
  void Apply(const PhysicalDesign& design);
  /// Replaces the design's index overlay with `rec` as one undoable step.
  void ApplyRecommendation(const IndexRecommendation& rec,
                           std::string action);
  /// Builds (or incrementally extends) the prepared CoPhy state over
  /// the compressed class workload.
  Status EnsurePrepared();
  /// True when the previous proven-optimal recommendation certifiably
  /// remains optimal under the current constraints (tightening-only
  /// edit + still feasible).
  bool CertificateHolds() const;
  /// Rebuilds the class table and class_of_ map from workload_.
  void RebuildClasses();
  /// Mirrors class weights into the prepared state and refreshes its
  /// weighted base cost (call after any weight change).
  void SyncPreparedWeights();
  /// Maps the per-class costs of a solve back onto raw workload
  /// positions (the public per_query_cost contract predates classes).
  std::vector<double> ExpandPerQueryCost(
      const std::vector<double>& class_cost) const;
  /// The last recommendation re-weighted to the current class weights
  /// (identical to last_rec_ unless same-template appends bumped them).
  IndexRecommendation ReweightedLastRecommendation() const;
  /// "snapshot 'x' not found (available: a, b)" helper.
  Status SnapshotNotFound(const std::string& name) const;
  /// Computes a fresh deployment plan (the fallible body of
  /// PlanDeployment); backend failures surface as Status.
  Result<DeploymentPlan> BuildDeploymentPlan();
  /// The degraded Recommend/Refine answer: the last certified
  /// recommendation marked with `cause`, or `cause` itself when no
  /// fallback exists.
  Result<IndexRecommendation> DegradedRecommendation(Status cause);
  /// The shared Recommend/Refine tail under the current constraints:
  /// certificate reuse when it holds (logged with a "(certificate
  /// reuse)" suffix), else a solve against the prepared state. Applies
  /// the result as one undoable step logged as `action` + a summary.
  Result<IndexRecommendation> RecommendAndApply(const std::string& action);
  /// Drops every cached deployment artifact (DoI rows + plan).
  void InvalidateDeployment();
  /// True when the cached schedule is still exactly what a rebuild
  /// under the current class workload (identified by `keys` and
  /// `weights`) and constraints would produce.
  bool ScheduleStillValid(const std::vector<IndexDef>& indexes,
                          const std::vector<std::string>& keys,
                          const std::vector<double>& weights) const;

  Designer* designer_;
  Workload workload_;
  /// Template classes of workload_ (collision-verified); class ids are
  /// the row indexes of the prepared CoPhy state.
  TemplateClassTable classes_;
  /// Raw workload position -> class id (parallel to workload_).
  std::vector<size_t> class_of_;
  DesignConstraints constraints_;

  /// Owns the INUM cost cache reused across the whole session.
  std::unique_ptr<CoPhyAdvisor> cophy_;
  /// Cross-session atom reuse seam (server-installed; may be null).
  CoPhyAtomSource* atom_source_ = nullptr;
  CoPhyPrepared prepared_;
  bool prepared_valid_ = false;
  /// Per-cluster solver state (proven optima, signatures, warm bases)
  /// reused across Recommend/Refine calls: a constraint edit re-solves
  /// only the clusters it touches, warm-starting them from their
  /// previous root basis. Session-owned — prepared_ stays read-only
  /// during a solve, so COW sharing of atom rows across sessions is
  /// unaffected. Cleared whenever the prepared row space changes shape
  /// (the cache also self-validates against the universe fingerprint
  /// and row count, so a stale pointer can at worst cost a cold solve,
  /// never a wrong answer).
  CoPhySolverCache solver_cache_;
  std::optional<IndexRecommendation> last_rec_;
  /// Per-class costs of last_rec_ (per_query_cost before expansion to
  /// raw positions) — the basis for re-weighting after weight bumps.
  std::vector<double> last_class_cost_;
  /// Constraints the last solve ran under + whether its optimality
  /// certificate is still tied to the current workload.
  DesignConstraints solved_constraints_;
  bool certificate_valid_ = false;

  // --- Deployment-stage cache ---
  /// Unweighted per-class DoI contribution rows, keyed by the class
  /// representative's SQL rendering and valid for doi_indexes_ only.
  /// The SQL text is structurally faithful (it is what session
  /// persistence round-trips through the parser), so unlike a 64-bit
  /// hash it cannot collide across different templates — the same
  /// reason CompressWorkload verifies every signature hit. Workload
  /// deltas leave untouched rows valid; stale keys are pruned lazily.
  /// Each row is charged its ContributionRowBytes once, on insert, and
  /// cache_budget_.doi_rows_bytes evicts least-recently-used rows
  /// (recomputed from cached atoms when needed again). Every plan build
  /// touches the live rows in class order, so recency — and with it
  /// eviction order — is deterministic.
  BudgetedLru<std::string, std::vector<double>> doi_rows_;
  uint64_t doi_rows_evicted_ = 0;
  CacheBudget cache_budget_;
  /// The index set doi_rows_ was computed against.
  std::vector<IndexDef> doi_indexes_;
  std::optional<DeploymentPlan> deployment_;
  /// Class identities (SQL keys), weights and constraints the cached
  /// schedule was built at — the reuse-outright certificate.
  std::vector<std::string> deployment_class_keys_;
  std::vector<double> deployment_weights_;
  DesignConstraints deployment_constraints_;

  std::vector<PhysicalDesign> undo_stack_;
  std::vector<PhysicalDesign> redo_stack_;
  std::map<std::string, PhysicalDesign> snapshots_;
  std::vector<std::string> log_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_CORE_SESSION_H_
