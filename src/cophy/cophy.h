// CoPhy: index selection as a binary integer program (paper §3.2.1,
// ref [4] — Dash & Ailamaki, CMU-CS-10-109).
//
// Per query, INUM's cached internal plans are expanded into *atomic
// configurations*: (internal plan, one access option per slot) pairs
// with a precomputed cost and the set of candidate indexes they use.
// The BIP then selects one atom per query and a set of indexes:
//
//   minimize    sum_q w_q sum_a cost(q,a) x_{q,a}
//   subject to  sum_a x_{q,a} = 1                        for each q
//               sum_{a uses i} x_{q,a} <= y_i            for each (q, i)
//               sum_i size_i y_i <= storage budget
//               x, y binary
//
// The LP relaxation bound gives the advisor's quality guarantee; the
// branch & bound node/time budget is the time-vs-quality knob the paper
// describes.

#ifndef DBDESIGN_COPHY_COPHY_H_
#define DBDESIGN_COPHY_COPHY_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cophy/candidates.h"
#include "core/constraints.h"
#include "interaction/doi.h"
#include "inum/inum.h"
#include "solver/bnb.h"
#include "util/budgeted_lru.h"

namespace dbdesign {

/// How SolvePrepared runs the BIP.
enum class CoPhySolveMode {
  /// Decompose by interaction clusters, solve per-cluster BIPs and split
  /// the budget across them exactly; fall back to the monolithic BIP
  /// when a table cap binds across clusters (or a size guard trips).
  /// Always returns the same recommendation as kMonolithic (see
  /// SolvePrepared).
  kAuto,
  /// Always solve the single monolithic BIP (the differential-testing
  /// reference; also useful for benchmarking the decomposition win).
  kMonolithic,
};

struct CoPhyOptions {
  /// Storage budget for the selected indexes, in pages.
  double storage_budget_pages = std::numeric_limits<double>::infinity();
  /// Atom cap per query (cheapest kept; the index-free atom always stays).
  int max_atoms_per_query = 48;
  CandidateOptions candidates;
  BnbOptions bnb;
  /// Cost-model options for the advisor's INUM instance (the session
  /// keeps it for the whole loop); see InumOptions.
  InumOptions inum;
  /// Cluster decomposition knob (see CoPhySolveMode).
  CoPhySolveMode solve_mode = CoPhySolveMode::kAuto;
};

/// An atomic configuration: cost of serving one query one way, plus the
/// candidate indexes (by candidate id) that way requires.
struct CoPhyAtom {
  double cost = 0.0;
  std::vector<int> used;  ///< sorted candidate ids
};

/// B&B work of one kind of BIP solve.
struct SolveKindWork {
  int solves = 0;
  int bnb_nodes = 0;
  int lp_pivots = 0;
};

/// The solver work of one SolvePrepared call, TOTALLED over every BIP it
/// solved: each cluster frontier point and tail certificate, plus the
/// monolithic BIP when it ran (a fallback included). An answer from the
/// solver cache or from a session's certificate reports zeros.
struct SolverWork {
  int bnb_nodes = 0;
  double solve_time_sec = 0.0;
  size_t num_variables = 0;    ///< BIP columns, summed over the BIPs
  size_t num_constraints = 0;  ///< BIP rows, summed over the BIPs
  int lp_pivots = 0;           ///< simplex pivots
  // Sums of the BnbResult counters of the same names.
  int nodes_cut_off = 0;
  int vars_fixed_by_reduced_cost = 0;
  int node_cold_solves = 0;
  int root_warm_fallbacks = 0;

  /// The B&B work split by the kind of solve; per-kind nodes and pivots
  /// sum to bnb_nodes and lp_pivots.
  SolveKindWork top_points;         ///< a cluster's top frontier point
  SolveKindWork deeper_points;      ///< a point below the last footprint
  SolveKindWork tail_certificates;  ///< a tail solve stopped at a bound
  SolveKindWork monolithic_bips;    ///< the monolithic BIP

  int clusters_solved = 0;   ///< clusters with at least one BIP this call
  int clusters_reused = 0;  ///< from the solver cache, live or recalled
  bool solved_monolithic = false;  ///< the monolithic BIP ran (mode/fallback)
};

struct IndexRecommendation : SolverWork {
  std::vector<IndexDef> indexes;
  double total_size_pages = 0.0;

  double base_cost = 0.0;         ///< workload cost with no indexes
  double recommended_cost = 0.0;  ///< workload cost under the recommendation
  std::vector<double> per_query_cost;  ///< under the recommendation

  /// Pinned indexes that could not be honored because they do not fit
  /// the storage budget (greedily admitted smallest-first). Never
  /// silently dropped: callers surface these to the DBA.
  std::vector<IndexDef> infeasible_pins;

  /// Solver quality telemetry.
  double lower_bound = 0.0;
  double gap = 0.0;
  bool proven_optimal = false;
  size_t num_candidates = 0;
  size_t num_atoms = 0;
  int num_clusters = 0;  ///< interaction clusters in the prepared state

  /// Set when this recommendation was served from cached session state
  /// because the backend was down (see util/status.h). A degraded
  /// recommendation is the last certified answer, possibly stale.
  DegradedResult degraded;

  double improvement() const {
    return base_cost > 0 ? 1.0 - recommended_cost / base_cost : 0.0;
  }
};

/// One query's share of a prepared state: its atomic configurations
/// plus its empty-design base cost. Immutable once built and shared by
/// shared_ptr — across duplicate queries within one prepared state,
/// across copy-on-write snapshots of a session, and (through the
/// server's atom store) across sessions tuning the same schema. A
/// candidate-universe change builds fresh rows; it never mutates a
/// published one.
struct CoPhyAtomRow {
  /// Atomic configurations, cheapest-first; candidate ids in
  /// CoPhyAtom::used index into the universe the row was built against.
  std::vector<CoPhyAtom> atoms;
  double base_cost = 0.0;  ///< cost of the query under the empty design
  /// The INUM plan set the row was built from. An adopter installs it
  /// into its own cost model (InumCostModel::AdoptPlanSet), so its later
  /// INUM pricing of the query (DoI, scheduling) skips the populate.
  /// Held weakly: plan sets live only while some session's cost model
  /// holds them, the row is charged only the handle's bytes, and the
  /// spill codec drops it. Expired or absent, the adopter populates as
  /// usual.
  std::weak_ptr<const InumCostModel::PlanSet> plan_set;
};

/// Order-sensitive fingerprint of a candidate universe (structural keys
/// + sizes). Atom rows are only interchangeable between prepared states
/// whose universes fingerprint identically, because CoPhyAtom::used
/// stores positional candidate ids.
uint64_t CandidateUniverseFingerprint(
    const std::vector<CandidateIndex>& candidates);

/// Outcome of a single-flight lookup (CoPhyAtomSource::Claim).
struct CoPhyAtomClaim {
  /// The stored row: a hit, to be adopted as-is.
  std::shared_ptr<const CoPhyAtomRow> row;
  /// No stored row and nobody building it: the caller now owns the
  /// build and must Publish the row or Release the claim.
  bool claimed = false;
  /// The call blocked on another caller's build of the key (telemetry).
  bool waited = false;

  /// Neither a row nor a claim: another caller is building the row.
  bool pending() const { return row == nullptr && !claimed; }
};

/// Cross-session atom-reuse seam. Implemented by the tuning server's
/// AtomStore; consulted by CoPhyAdvisor::TryPrepare once per structurally
/// distinct query. Implementations must be thread-safe, and must only
/// return rows built against the same cost substrate (schema, stats,
/// cost params — the store's keying contract) as the requesting
/// advisor's backend.
class CoPhyAtomSource {
 public:
  virtual ~CoPhyAtomSource() = default;

  /// The cached row for (sql_key, universe fingerprint), or nullptr on
  /// a miss. `sql_key` is the query's full SQL text — collision-free by
  /// construction, the same keying the INUM cache tripwires verify.
  virtual std::shared_ptr<const CoPhyAtomRow> Lookup(
      const std::string& sql_key, uint64_t universe_fingerprint) = 0;

  /// Single-flight lookup: the stored row, or else a claim on the key
  /// when nobody is building it. A key another caller is building comes
  /// back pending — or, with `wait`, blocks until that caller publishes
  /// (a hit) or releases its claim (the claim passes to this caller).
  /// A caller must not wait while it holds a claim (build each claimed
  /// row at once); then no cycle of waits can form.
  virtual CoPhyAtomClaim Claim(const std::string& sql_key,
                               uint64_t universe_fingerprint, bool wait) = 0;

  /// Publishes a freshly built row, ends the caller's claim on the key
  /// and returns the canonical entry: the first writer wins, so
  /// concurrent builders of the same row converge on one shared object
  /// (later publishes return the already-stored row and drop their
  /// duplicate).
  virtual std::shared_ptr<const CoPhyAtomRow> Publish(
      const std::string& sql_key, uint64_t universe_fingerprint,
      std::shared_ptr<const CoPhyAtomRow> row) = 0;

  /// Gives up the caller's claim without publishing (its build failed);
  /// a caller waiting on the key claims it and builds the row itself.
  virtual void Release(const std::string& sql_key,
                       uint64_t universe_fingerprint) = 0;
};

/// Everything CoPhy needs to (re-)solve one workload: the candidate
/// universe, the per-query atom rows, weights, and baseline costs.
/// Building it is the expensive half of a recommendation (INUM populate
/// + atom expansion); solving against it is pure BIP work. A DBA edit
/// that only changes constraints re-solves against the same prepared
/// state with zero new INUM or backend cost calls — the machinery
/// behind DesignSession::Refine.
///
/// Rows are shared, immutable snapshots (see CoPhyAtomRow): copying a
/// CoPhyPrepared is cheap (vector of shared_ptr + weights), which is
/// what makes the server's copy-on-write session snapshots affordable.
struct CoPhyPrepared {
  std::vector<CandidateIndex> candidates;
  /// Fingerprint of `candidates` (see CandidateUniverseFingerprint).
  uint64_t universe_fingerprint = 0;
  /// rows[q] = atom row of workload query q (atoms + base cost;
  /// candidate ids index into `candidates`). Never null while q exists.
  std::vector<std::shared_ptr<const CoPhyAtomRow>> rows;
  std::vector<double> weights;  ///< per workload query
  double base_cost = 0.0;       ///< weighted total, empty design
  size_t num_atoms = 0;

  /// Interaction clusters over the CANDIDATE universe (plain value data,
  /// so copy-on-write snapshots share it like everything else here).
  /// Two candidates land in one cluster iff some query's atom row can
  /// use both (possibly transitively): the one-atom-per-query rows are
  /// the only coupling between y variables besides the global budget and
  /// table caps, so distinct clusters share no BIP row except those —
  /// which is exactly what lets SolvePrepared solve them independently.
  ClusterPartition clusters;
  /// Per query row: the cluster its atoms' candidates belong to, or -1
  /// when no atom uses any candidate (the row then contributes only a
  /// constant — its cheapest atom — to any solve).
  std::vector<int> row_cluster;

  /// Rebuilds `clusters` / `row_cluster` from the current rows and
  /// candidates. TryPrepare calls this; incremental row edits (session
  /// add/remove-queries paths) must call it again before the next solve.
  void RefreshClusters();

  bool empty() const { return rows.empty(); }
};

/// Per-cluster solver state carried between SolvePrepared calls by a
/// session (one cache per tuning session; the shared prepared state
/// stays read-only). For each cluster the cache remembers the signature
/// of the subproblem it solved (the pages its allocation may use,
/// pins/vetoes/caps touching the cluster, row weights) plus the proven
/// optimum and the root LP basis. On the next solve, clusters whose
/// signature is unchanged reuse their optimum without solving anything;
/// dirtied clusters re-solve warm-started from the cached basis/
/// incumbent. This is what makes a DBA veto cost one small cluster BIP
/// instead of a full re-solve.
///
/// A budget that binds ACROSS clusters does not force a monolithic
/// solve: each cluster entry carries a lazily enumerated budget/cost
/// frontier (see Entry::frontier), AllocateBudget splits the budget over
/// them, and the decomposed path deepens a frontier only when the
/// optimal split might lie below its last point. Only a per-table cap
/// binding across clusters falls back to the monolithic path, whose one
/// entry (no frontier) answers an unchanged re-solve outright and
/// otherwise warm-starts it, as a cluster entry does its top point.
///
/// Proven entries of EARLIER signatures are kept too, so that a DBA who
/// toggles a constraint and back (veto then un-veto, cut the budget then
/// restore it, cap a table then un-cap it) gets the earlier optimum
/// without a search. Every slot, cluster or mono, takes the same
/// freshness step: a matching signature keeps the live entry; else an
/// entry parked under the new signature is moved back (Recall), and the
/// cluster counts as reused; else the live entry is parked (Park) and
/// the slot re-solves, warm-started from it. Entries only ever move.
struct CoPhySolverCache {
  struct Entry {
    bool valid = false;
    uint64_t signature = 0;
    std::vector<int> chosen;  ///< proven-optimal y set (global candidate ids)
    double objective = 0.0;   ///< subproblem objective (incl. tie-break)
    double lower_bound = 0.0;
    LpBasis root_basis;  ///< canonical basis of the last root solved

    /// One proven point on a cluster's budget/cost frontier: the optimum
    /// of the cluster BIP under "footprint <= some budget", recorded as
    /// the footprint it actually uses and the objective it achieves.
    struct ParetoPoint {
      double footprint = 0.0;   ///< pages used by `chosen` (pins included)
      double cost = 0.0;        ///< proven cluster optimum at this footprint
      std::vector<int> chosen;  ///< global candidate ids (pins included)
    };
    /// The cluster's budget/cost frontier, footprint strictly decreasing
    /// (cost nondecreasing), enumerated lazily top-down from the full
    /// budget. AllocateBudget splits the budget over these; the
    /// decomposed solve deepens the frontier only when the optimal split
    /// might lie below the last enumerated point.
    std::vector<ParetoPoint> frontier;
    /// True once the frontier bottoms out (pin floor reached, or no
    /// feasible configuration below the last point).
    bool frontier_complete = false;
    /// Lower bound on the cost of every configuration BELOW the last
    /// frontier point (the unexplored tail). At least the last point's
    /// cost (budget monotonicity); tightened by bound CERTIFICATES — a
    /// branch-and-bound run at the tail's budget stopped as soon as its
    /// global bound showed the tail cannot win (BnbOptions::
    /// stop_at_bound), sparing the cost of the tail's exact optimum.
    double tail_bound = 0.0;
  };
  /// Slot of the monolithic entry in `proven`; clusters use their index.
  static constexpr int kMonoSlot = -1;

  uint64_t universe_fingerprint = 0;
  size_t num_rows = 0;
  std::vector<Entry> entries;  ///< one per cluster
  Entry mono;  ///< the monolithic BIP (mode or fallback); no frontier
  /// Proven entries of earlier signatures, keyed by (slot, signature).
  /// A few per slot (a file-local count in cophy.cc); TrimToBytes drops
  /// them, least recently parked first, before any live state.
  BudgetedLru<std::pair<int, uint64_t>, Entry> proven;

  /// Telemetry (session-lifetime; Clear() keeps them so tests and
  /// benches can observe trims and hits across workload edits).
  uint64_t trims = 0;                 ///< TrimToBytes calls that cut live state
  uint64_t points_dropped = 0;        ///< frontier points discarded
  uint64_t entries_invalidated = 0;   ///< whole entries reset to cold
  uint64_t proven_hits = 0;           ///< entries moved back by Recall

  /// Approximate in-memory footprint (struct overhead + chosen/basis
  /// ids + frontier points, live and parked). Deterministic — it reads
  /// sizes, not capacities — so trim decisions are bit-stable across
  /// runs.
  size_t ApproxBytes() const;

  /// Trims the cache to at most `max_bytes` (0 = unbounded, no-op).
  /// Parked entries go first, least recently parked first, so the live
  /// state a budget admits is the same as without them. Then frontier
  /// points are dropped deepest-first from the longest frontier (ties:
  /// lowest cluster index, mono last), restoring exactly the
  /// "enumeration stopped earlier" state the lazy top-down frontier
  /// protocol already handles — the decomposed path re-deepens on demand,
  /// so results are bit-identical, only re-solve work is traded. If
  /// shortening frontiers is not enough, whole entries are invalidated
  /// largest-first (their next solve is cold). Never touches signatures
  /// of entries it leaves alone.
  void TrimToBytes(size_t max_bytes);

  /// Moves `live` into `proven` under (slot, live.signature), leaving a
  /// fresh Entry behind, when it holds a proven answer: it is valid
  /// and, for a cluster, has a frontier point. Returns the parked entry
  /// (valid until the next Park, Recall, TrimToBytes or Clear), or
  /// nullptr when nothing was parked. May drop the slot's least
  /// recently parked entry to hold the per-slot count.
  const Entry* Park(int slot, Entry& live);

  /// When an entry is parked under (slot, signature): parks `live`,
  /// moves the parked entry into `live` and returns true. Otherwise
  /// leaves everything as is.
  bool Recall(int slot, uint64_t signature, Entry& live);

  void Clear() {
    universe_fingerprint = 0;
    num_rows = 0;
    entries.clear();
    mono = Entry{};
    proven.Clear();
  }
};

/// One active cluster's frontier as AllocateBudget sees it (see Entry).
struct BudgetFrontier {
  std::span<const CoPhySolverCache::Entry::ParetoPoint> points;
  bool complete = false;     ///< no tail below the last point
  double floor_pages = 0.0;  ///< the cluster's pinned pages
  double tail_bound = 0.0;   ///< lower bound on the tail's cost
};

/// One point (or tail) per frontier and the summed cost of the pick.
struct BudgetSplit {
  std::vector<int> pick;  ///< per frontier: a point index, or -1 = its tail
  double cost = 0.0;      ///< summed in frontier order
};

/// AllocateBudget's verdict for one round of the decomposed solve.
struct BudgetAllocation {
  /// The cheapest split of real points; none when no split fits.
  std::optional<BudgetSplit> real;
  /// The cheapest split when each incomplete frontier may also pick its
  /// tail, a sentinel at (floor_pages, tail_bound): a lower bound on
  /// every split. When it costs no more than `real`, `real` is optimal.
  std::optional<BudgetSplit> bound;
  bool guard_tripped = false;  ///< a pass passed kMaxAllocationStates
};

/// Pareto states one AllocateBudget pass may keep per frontier.
inline constexpr size_t kMaxAllocationStates = 65536;

/// Splits `dp_budget` pages over cluster frontiers by a DP over Pareto
/// (pages, cost) states; calls no solver. A split fits when its pages
/// are at most dp_budget + 1e-6. Among equal-cost splits the one with
/// fewer pages wins, then the lexicographically smaller pick. A pass
/// whose states pass kMaxAllocationStates gives up: its split is empty.
BudgetAllocation AllocateBudget(std::span<const BudgetFrontier> frontiers,
                                double dp_budget);

class CoPhyAdvisor {
 public:
  /// Attaches to a backend (non-owning); cost parameters come from it.
  explicit CoPhyAdvisor(DbmsBackend& backend, CoPhyOptions options = {});

  /// Recommends an index set for the workload under the storage budget
  /// and DBA constraints: pins become y_i = 1 fixings, vetoes y_i = 0,
  /// per-table caps extra BIP rows, and the effective budget is
  /// min(options budget, constraint budget). Pinned indexes that do not
  /// fit the budget are reported in IndexRecommendation::infeasible_pins
  /// (smallest pins admitted first) rather than silently dropped.
  /// Invalid constraints and backend failures surface as Status.
  Result<IndexRecommendation> TryRecommend(
      const Workload& workload, const DesignConstraints& constraints = {});
  /// Recommends from a caller-supplied candidate set (the paper's
  /// interactive mode: the DBA seeds the search with their own
  /// candidates); otherwise as TryRecommend.
  Result<IndexRecommendation> TryRecommendWithCandidates(
      const Workload& workload, const std::vector<CandidateIndex>& candidates,
      const DesignConstraints& constraints = {});

  // --- Incremental API (prepare once, re-solve many times) ---
  /// Populates INUM for the workload and expands every query into atoms
  /// against `candidates` — the expensive half of a recommendation.
  /// Populate and atom expansion are client-side, but base-cost
  /// evaluation can fall back to the backend; a backend failure there
  /// (e.g. the connection is down) surfaces as its Status instead of
  /// aborting or poisoning the prepared state. The first failing
  /// parallel shard cancels the rest.
  Result<CoPhyPrepared> TryPrepare(const Workload& workload,
                                   std::vector<CandidateIndex> candidates);

  /// Solves the BIP against an existing prepared state under
  /// `constraints`. Makes no INUM and no backend cost calls: after a
  /// constraints-only edit this is the entire cost of re-recommending.
  ///
  /// With solve_mode == kAuto the decomposed path runs first: each
  /// cluster's BIP is the restriction of the monolithic one to the
  /// cluster's variables and rows, with its budget row at an allocation
  /// of pages and its cap rows at their FULL right-hand sides (a
  /// relaxation). Each cluster exposes a lazily enumerated
  /// budget/cost frontier, and AllocateBudget splits the global budget
  /// over the frontiers exactly. When the stitched union also satisfies
  /// the caps it attains the lower bound and — optima being unique under
  /// the tie-break objective — IS the monolithic optimum. Otherwise (a
  /// cap binds across clusters, a size guard trips, or a cluster point
  /// is not proven) the monolithic path solves the whole BIP, so both
  /// modes always return the same recommendation.
  ///
  /// Both paths build, round, warm-start and count every BIP with the
  /// same code; the result's SolverWork totals all of them.
  ///
  /// `cache` (optional, owned by the calling session) carries
  /// per-cluster optima and LP bases between calls: unchanged clusters
  /// are reused without solving, dirtied clusters warm-start. A cache
  /// keyed to another universe, row space or cluster count is reset
  /// first. Pass nullptr for a stateless solve: the call then runs the
  /// same code over a fresh cache of its own.
  Result<IndexRecommendation> SolvePrepared(
      const CoPhyPrepared& prepared, const DesignConstraints& constraints,
      CoPhySolverCache* cache = nullptr) const;

  /// Expands one query into atomic configurations against `candidates`
  /// (exposed for tests and benchmarks). It reads the query's INUM plan
  /// set and the leaf and lookup prices INUM binds for the candidates
  /// (InumCostModel::BindSubsets): an atom is one cached plan plus one
  /// priced option per slot, so no access path is priced here. Binding
  /// fills the query's INUM price memos, so it is safe to call
  /// concurrently only for structurally *distinct* queries once their
  /// INUM caches are populated (TryPrepare populates them, then fans
  /// atom building out across the pool).
  std::vector<CoPhyAtom> BuildAtoms(
      const BoundQuery& query, const std::vector<CandidateIndex>& candidates);

  InumCostModel& inum() { return inum_; }

  /// Atom rows of structurally distinct `queries` against `candidates`
  /// (whose CandidateUniverseFingerprint is `universe_fingerprint`),
  /// resolved exactly as TryPrepare resolves its rows — through the atom
  /// source when one is attached. The session's incremental
  /// AddQueries path uses it to extend a prepared state row by row.
  Result<std::vector<std::shared_ptr<const CoPhyAtomRow>>> TryResolveRows(
      std::span<const BoundQuery> queries,
      const std::vector<CandidateIndex>& candidates,
      uint64_t universe_fingerprint);

  /// Attaches a cross-session atom source (non-owning; nullptr detaches).
  /// TryPrepare then serves structurally distinct queries from the source
  /// when possible — a hit skips that query's INUM populate entirely,
  /// here and (through the row's plan set) in later INUM pricing — and
  /// publishes every row it builds. Keys are claimed single-flight: a
  /// key another session is building is waited for, not built twice.
  /// Results are bit-identical with or without a source: a cached row
  /// is exactly what TryPrepare would have built, because the source key
  /// pins schema, stats, cost params, SQL text, and candidate universe.
  void set_atom_source(CoPhyAtomSource* source) { atom_source_ = source; }

 private:
  /// TryPrepare's body; backend failures throw StatusException.
  CoPhyPrepared Prepare(const Workload& workload,
                        std::vector<CandidateIndex> candidates);

  /// The one row builder: INUM populate of every query up front (in
  /// parallel), atom expansion (in parallel), then base costs (and, with
  /// an atom source, plan-set handles) serially in query order.
  std::vector<std::shared_ptr<const CoPhyAtomRow>> BuildRows(
      const std::vector<const BoundQuery*>& queries,
      const std::vector<CandidateIndex>& candidates);
  /// Rows of distinct queries: built outright without an atom source,
  /// else resolved single-flight through it (ClaimRow per query, the
  /// keys other sessions hold deferred until this session holds no
  /// claim). Backend failures throw StatusException.
  std::vector<std::shared_ptr<const CoPhyAtomRow>> ResolveRows(
      const std::vector<const BoundQuery*>& queries,
      const std::vector<CandidateIndex>& candidates, uint64_t universe);
  /// One key through the atom source: a hit is adopted along with its
  /// plan set; a claim is built at once (thread-pool calls inline),
  /// published, and the canonical row returned — a failed build
  /// releases the claim and rethrows. nullptr when another session
  /// holds the key and `wait` is false.
  std::shared_ptr<const CoPhyAtomRow> ClaimRow(
      const BoundQuery& query, const std::string& sql_key,
      const std::vector<CandidateIndex>& candidates, uint64_t universe,
      bool wait);

  DbmsBackend* backend_;
  CostParams params_;
  CoPhyOptions options_;
  InumCostModel inum_;
  CoPhyAtomSource* atom_source_ = nullptr;  // non-owning
};

}  // namespace dbdesign

#endif  // DBDESIGN_COPHY_COPHY_H_
