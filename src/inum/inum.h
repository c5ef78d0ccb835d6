// INUM: cache-based what-if cost model (paper §3.1/§3.2.1, ref [9]).
//
// Key insight (Papadomanolakis, Dash, Ailamaki, VLDB'07): for a fixed
// query, the optimal *internal* plan (join order, join methods, sorts,
// aggregation) depends only on which *interesting orders* the leaf
// access paths deliver — not on which physical index delivers them, nor
// on what the leaves cost. INUM therefore:
//
//   1. (populate) per query, enumerates per-slot order signatures —
//      none / a specific sort order / a parameterized index lookup —
//      and for each signature combination invokes the real join
//      enumerator with zero-cost abstract leaves, caching the resulting
//      internal-plan cost,
//   2. (reuse) costs the query under an arbitrary PhysicalDesign by
//      pricing only the leaves: min over cached plans of
//      internal_cost + best leaf cost per slot consistent with the
//      signature (+ actual index-nested-loop lookup costs).
//
// Our extension (the paper's "cache table partitions and partial
// plans"): leaf prices are computed by the partition-aware access-path
// generator, so one populated cache serves designs that add or change
// vertical/horizontal partitions as well as indexes.
//
// Concurrency: the model is thread-compatible (concurrent calls on one
// instance need external synchronization), but the batched entry points
// (PrepareQueries, WorkloadCost, CostMatrix) parallelize internally —
// per-query caches are sharded so each worker owns whole queries, and
// results are bit-identical to serial execution at any num_threads.
// A query's cache has two halves: the plan set populate derives from the
// query alone (PlanSet — immutable, shared read-only by shared_ptr, so
// models on one cost substrate can adopt each other's populates; see
// AdoptPlanSet) and the model's own leaf/lookup price memos, which only
// that model's callers touch.

#ifndef DBDESIGN_INUM_INUM_H_
#define DBDESIGN_INUM_INUM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "optimizer/optimizer.h"
#include "whatif/whatif.h"

namespace dbdesign {

struct InumOptions {
  /// Hard cap on signature combinations enumerated per query; beyond it,
  /// parameterized-lookup signatures are dropped first.
  int max_combos = 128;
  /// Consider index-nested-loop (parameterized) signatures.
  bool enable_param_signatures = true;
  /// Route every costing call through the exact (backend-backed)
  /// optimizer instead of the client-side reuse cache. Models a port
  /// whose reuse layer is unavailable: every cost call traverses the
  /// DbmsBackend seam and can therefore fail. The fault-injection
  /// tests drive the full session loop under this configuration.
  bool force_exact = false;
};

/// Counters exposed for the E3 benchmark.
struct InumStats {
  uint64_t populate_optimizations = 0;  ///< abstract DP runs (one per combo)
  uint64_t reuse_calls = 0;             ///< fast cost evaluations served
  uint64_t fallback_calls = 0;          ///< full optimizer fallbacks
  size_t queries_cached = 0;
  size_t plans_cached = 0;
};

class InumCostModel {
 public:
  /// Attaches to a backend (non-owning). Cost parameters come from the
  /// backend so client-side reuse formulas agree with backend calls.
  explicit InumCostModel(DbmsBackend& backend, InumOptions options = {});

  /// Fast what-if cost of `query` under `design`. Populates the cache on
  /// first sight of the query.
  ///
  /// Error contract (applies to every double-returning costing entry
  /// point here): population and reuse are client-side and infallible,
  /// but the exact-optimizer fallback paths reach the backend. A
  /// backend failure there propagates as a StatusException (the
  /// engine-layer carrier — see util/status.h) rather than a silent
  /// sentinel cost. TryCost converts it for a single query; the
  /// advisors and the session convert it at their own public
  /// boundaries. With an infallible backend these entry points never
  /// throw.
  double Cost(const BoundQuery& query, const PhysicalDesign& design);

  /// Status-returning form of Cost: a backend failure in the fallback
  /// path surfaces as the backend's Status.
  Result<double> TryCost(const BoundQuery& query,
                         const PhysicalDesign& design);

  /// Weighted workload cost. Structurally distinct queries are costed
  /// once and fanned out across backend cost_params().num_threads
  /// workers (shard-by-query: one worker owns a query's cache end to
  /// end), then reduced in workload order — the total and the stats
  /// counters are bit-identical at any thread count.
  double WorkloadCost(const Workload& workload,
                      const PhysicalDesign& design);

  /// Per-(design, query) cost matrix: result[d][i] is the cost of
  /// workload query i under designs[d]. The batched engine behind
  /// WorkloadCost and Designer::TryEvaluateDesigns — each distinct query's
  /// populate + per-design repricing runs on one worker.
  std::vector<std::vector<double>> CostMatrix(
      const Workload& workload, std::span<const PhysicalDesign> designs);

  /// Prices one populated query under subsets of a fixed index list
  /// (defined below the class).
  class SubsetPricer;

  /// Binds `query` to the index list `indexes` for subset pricing. The
  /// query's cache is resolved once and every listed index's leaf and
  /// lookup price is read through the memos once, so each later
  /// SubsetPricer::Cost is a plain minimum over the cached plans: no
  /// hashing, no design assembly, no backend optimizer calls. Binding
  /// needs only a populated query: it binds under force_exact and for
  /// an over-wide query too, whose Cost then falls back (an unpopulated
  /// query binds nothing and prices every subset exactly). The bound
  /// prices are also readable (SubsetPricer::plan_set and the views
  /// beside it), which is how CoPhy expands its atoms. Reuse/fallback
  /// counters go to `stats` when given — shard-local counters for
  /// parallel drivers such as the DoI matrix, merged afterwards with
  /// AccumulateStats — else to stats(). `query` and `indexes` must
  /// outlive the pricer. Thread-compatibility matches CostMatrix:
  /// concurrent binders must shard by query (one worker owns a query's
  /// leaf memos end to end).
  SubsetPricer BindSubsets(const BoundQuery& query,
                           std::span<const IndexDef> indexes,
                           InumStats* stats = nullptr);

  /// Merges shard-local reuse/fallback counters gathered by subset
  /// pricers back into stats() (populate/cache counters are owned by
  /// the model itself and ignored here).
  void AccumulateStats(const InumStats& delta) {
    stats_.reuse_calls += delta.reuse_calls;
    stats_.fallback_calls += delta.fallback_calls;
  }

  /// Forces population for a query (useful to front-load cache warmup).
  void Prepare(const BoundQuery& query);

  /// Populates every structurally distinct query in `queries`, running
  /// the independent per-query abstract enumerations across the pool.
  /// Cache contents and stats match serial Prepare calls in order.
  void PrepareQueries(std::span<const BoundQuery> queries);
  void PrepareQueries(std::span<const BoundQuery* const> queries);
  void PrepareWorkload(const Workload& workload) {
    PrepareQueries(std::span<const BoundQuery>(workload.queries.data(),
                                               workload.queries.size()));
  }

  const InumStats& stats() const { return stats_; }
  void ResetStats() { stats_ = InumStats{}; }

  /// The underlying exact optimizer (for tests and fallback).
  const WhatIfOptimizer& exact() const { return exact_; }

  /// The backend this cost model is attached to.
  DbmsBackend& backend() const { return *backend_; }

  /// Per-slot leaf requirement of a cached plan.
  struct SlotSignature {
    enum class Kind { kAny, kOrdered, kParamLookup };
    Kind kind = Kind::kAny;
    std::vector<BoundColumn> order;  ///< kOrdered
    BoundColumn lookup_col;          ///< kParamLookup: inner join column
  };

  /// One cached internal plan.
  struct CachedPlan {
    double internal_cost = 0.0;  ///< plan cost minus all leaf/lookup costs
    std::vector<SlotSignature> slots;
    /// Per slot: index into the query's order-requirement list when the
    /// signature is kOrdered, -1 otherwise (reuse-path acceleration).
    std::vector<int> order_req;
    /// Index-nested-loop contributions: (slot, inner col, outer rows),
    /// plus the term's position in the query's lookup-group list (the
    /// distinct (slot, inner col) pairs — reuse-path acceleration).
    struct InljTerm {
      int slot;
      BoundColumn inner_col;
      double outer_rows;
      int group = -1;
    };
    std::vector<InljTerm> inlj_terms;
  };

  /// One distinct parameterized lookup of a query: the (slot, inner
  /// join column) its INLJ terms probe.
  struct LookupGroup {
    int slot;
    BoundColumn col;
  };

  /// A query's plan set: everything populate derives from the query,
  /// the cost substrate (catalog, statistics, cost parameters) and the
  /// populate options — nothing from any design. Immutable once built.
  struct PlanSet {
    /// Canonical SQL of the query this set was built for — the
    /// collision tripwire for the 64-bit StructuralHash cache key
    /// (debug builds verify every hit and every adoption, as
    /// CompressWorkload verifies template-signature hits).
    std::string sql_key;
    std::vector<CachedPlan> plans;
    /// Distinct kOrdered requirements per slot, in first-seen order
    /// (indexes into LeafEntry::satisfies_mask bits).
    std::vector<std::vector<std::vector<BoundColumn>>> slot_orders;
    /// Distinct lookups over all plans' INLJ terms, in first-seen order
    /// (InljTerm::group indexes into it).
    std::vector<LookupGroup> lookup_groups;
    /// The populate options it was built under (InumOptions).
    int max_combos = 0;
    bool enable_param_signatures = false;
  };

  /// The plan set of a populated query, or null when it is not cached.
  std::shared_ptr<const PlanSet> PlanSetFor(const BoundQuery& query) const;

  /// Installs a plan set another model populated for `query`, so this
  /// model prices the query without populating it (no populate
  /// optimizations are counted). The caller guarantees the other model
  /// ran on the same cost substrate — the atom store's schema
  /// fingerprint pins exactly that. Results are bit-identical to
  /// populating locally: populate is a pure function of the query, the
  /// substrate and the populate options. Returns false and changes
  /// nothing when `plans` is null, was built for another query or under
  /// other populate options, or the query is already cached.
  bool AdoptPlanSet(const BoundQuery& query,
                    std::shared_ptr<const PlanSet> plans);

 private:
  /// Reuse scratch capacity: slots per query and order requirements per
  /// slot (a query wider than kMaxReuseSlots always prices exactly).
  static constexpr int kMaxReuseSlots = 16;
  static constexpr int kMaxSlotOrders = 16;

  /// Memoized leaf price of one index for one slot: the best scan cost
  /// plus a bitmask of which of the query's order requirements the
  /// index satisfies. Keyed by (slot, index key, partition fingerprint),
  /// so the paper's partition extension falls out: changing a table's
  /// partitioning changes only that table's fingerprint.
  struct LeafEntry {
    double scan_cost = 0.0;        ///< plain index scan (may be +inf)
    double index_only_cost = 0.0;  ///< covering scan (may be +inf)
    uint32_t satisfies_mask = 0;   ///< bit k: provides slot order-req k
  };

  /// Everything cached for one query: its (possibly shared) plan set
  /// and this model's price memos over it.
  struct QueryCache {
    std::shared_ptr<const PlanSet> set;  ///< never null
    /// mix(slot, index hash, partition hash) -> leaf price.
    std::unordered_map<uint64_t, LeafEntry> leaf_memo;
    /// mix(slot, partition hash) -> sequential scan price.
    std::unordered_map<uint64_t, double> seq_memo;
    /// mix(slot, lookup column, index hash) -> per-probe lookup price
    /// (+inf = index unusable for that lookup).
    std::unordered_map<uint64_t, double> param_memo;
  };

  /// One design's per-slot leaf prices: any[s] = cheapest unordered
  /// leaf, order[s][k] = cheapest leaf delivering order requirement k.
  /// Hot-path scratch: each call fills only the query's slots and order
  /// requirements, and PlanMinimum reads nothing else.
  struct LeafPrices {
    double any[kMaxReuseSlots];
    double order[kMaxReuseSlots][kMaxSlotOrders];
  };

  /// A fully built (but not yet inserted) plan set.
  struct BuiltCache {
    std::shared_ptr<const PlanSet> set;
    uint64_t combos = 0;  ///< abstract DP runs performed
  };

  /// Builds the plan set for one query: enumerates signature combinations
  /// and runs the abstract DP per combo across the pool. Mutates no
  /// member state besides the (atomic) optimizer call counter, so
  /// distinct queries build concurrently; plans are assembled in combo
  /// order, bit-identical to a serial build.
  BuiltCache BuildCache(const BoundQuery& query);

  QueryCache& Populate(const BoundQuery& query);
  /// Inserts a query's plan set under `key` and counts it as cached.
  QueryCache& Insert(uint64_t key, std::shared_ptr<const PlanSet> set);
  void PreparePtrs(const std::vector<const BoundQuery*>& missing);
  /// Whether `query` may be priced from its plan cache at all.
  bool ReuseEligible(const BoundQuery& query) const {
    return !options_.force_exact && query.num_slots() <= kMaxReuseSlots;
  }
  /// Exact-optimizer fallback: backend failures throw StatusException
  /// instead of returning a +inf sentinel cost.
  double ExactCost(const BoundQuery& query, const PhysicalDesign& design);
  double ReuseCost(const BoundQuery& query, QueryCache& qc,
                   const PhysicalDesign& design);
  /// Reuse-or-fallback costing against a resolved cache (`qc` null: not
  /// reuse-eligible or not populated, so the answer is exact);
  /// reuse/fallback counters accumulate into `stats` (shard-local in
  /// parallel runs, merged afterwards).
  double CostResolved(const BoundQuery& query, QueryCache* qc,
                      const PhysicalDesign& design, InumStats* stats);

  /// Memoized leaf and lookup prices (partition hash 0 = the table is
  /// unpartitioned, as in every index-only design).
  static double SeqPrice(QueryCache& qc, const PlannerContext& ctx, int slot,
                         uint64_t partition_hash);
  static const LeafEntry& LeafPrice(QueryCache& qc, const PlannerContext& ctx,
                                    int slot, const IndexDef& index,
                                    uint64_t partition_hash);
  static double LookupPrice(QueryCache& qc, const PlannerContext& ctx,
                            int slot, const BoundColumn& col,
                            const IndexDef& index);

  /// The reuse minimum shared by ReuseCost and SubsetPricer: min over
  /// the cached plans of internal cost + leaf prices + INLJ lookups,
  /// where `term_price(term)` is the design's per-probe price of one
  /// INLJ term. +inf when no cached plan is usable.
  template <typename TermPrice>
  static double PlanMinimum(const PlanSet& set, int num_slots,
                            const LeafPrices& leaves, TermPrice&& term_price);

  DbmsBackend* backend_;
  CostParams params_;
  InumOptions options_;
  WhatIfOptimizer exact_;
  Optimizer optimizer_;  // all knobs enabled; used for abstract DP runs
  std::unordered_map<uint64_t, QueryCache> cache_;
  InumStats stats_;
};

/// One query bound to a fixed index list (InumCostModel::BindSubsets).
/// Binding reads every listed index's leaf entry per slot and its lookup
/// price per lookup group; Cost then only takes minima over the members
/// of a subset. Every subset counts one reuse call and falls back to the
/// exact optimizer on the assembled design exactly where
/// InumCostModel::Cost would (force_exact, an over-wide or unpopulated
/// query, no usable cached plan), so results and counters match
/// costing the assembled design through the model bit for bit.
///
/// The bound prices are read-only views (plan_set, seq_prices, Leaves,
/// Lookups): INUM is the one place that prices a listed index's leaf or
/// lookup, and CoPhy's atom builder (CoPhyAdvisor::BuildAtoms) expands
/// its atoms from these views rather than pricing access paths itself.
/// The views are filled whenever the query has a plan set, whether or
/// not Cost may reuse it.
///
/// The reuse path reads only the membership of ReusePositions(): the
/// listed indexes with a usable leaf in some slot or a finite price in
/// some lookup group. Any other listed index (on a table the query does
/// not read, or unusable wherever it could appear) never changes a
/// reuse price, so a subset that prices by reuse costs exactly what its
/// intersection with ReusePositions() costs. Callers that price many
/// subsets of one query (the DoI rows, interaction/doi.h) memoize on
/// that intersection.
class InumCostModel::SubsetPricer {
 public:
  /// Cost of the query under the design of the listed indexes whose
  /// `members` entry is nonzero (one entry per listed index, any list
  /// length). Allocation-free unless it falls back.
  double Cost(std::span<const uint8_t> members);

  /// The listed positions whose membership the reuse path reads,
  /// ascending. Empty when Cost cannot reuse (no plan set, force_exact,
  /// an over-wide query): every subset then prices exactly, on the
  /// assembled design.
  std::vector<size_t> ReusePositions() const;

  /// A listed index usable by one slot: its best scan price and the
  /// slot order requirements it satisfies (bit k: the slot's k-th
  /// PlanSet::slot_orders entry).
  struct Leaf {
    size_t pos;
    double best;
    uint32_t satisfies_mask;
  };
  /// A listed index usable for one lookup group, with its probe price.
  struct Lookup {
    size_t pos;
    double price;
  };

  /// The bound plan set, or null when the query was not populated. The
  /// views below are valid only when it is non-null.
  const PlanSet* plan_set() const { return set_; }
  /// Sequential-scan price per slot.
  std::span<const double> seq_prices() const { return seq_; }
  /// Slot `slot`'s usable leaves, by ascending position.
  std::span<const Leaf> Leaves(int slot) const {
    size_t s = static_cast<size_t>(slot);
    return std::span<const Leaf>(leaves_).subspan(
        leaf_begin_[s], leaf_begin_[s + 1] - leaf_begin_[s]);
  }
  /// Lookup group `group`'s usable lookups (PlanSet::lookup_groups,
  /// InljTerm::group), by ascending position.
  std::span<const Lookup> Lookups(int group) const {
    size_t g = static_cast<size_t>(group);
    return std::span<const Lookup>(lookups_).subspan(
        lookup_begin_[g], lookup_begin_[g + 1] - lookup_begin_[g]);
  }

 private:
  friend class InumCostModel;

  PhysicalDesign Assemble(std::span<const uint8_t> members) const;

  InumCostModel* model_ = nullptr;
  const BoundQuery* query_ = nullptr;
  std::span<const IndexDef> indexes_;
  InumStats* stats_ = nullptr;
  const PlanSet* set_ = nullptr;      ///< null: not populated
  bool reuse_ = false;                ///< Cost may price from set_
  std::vector<double> seq_;           ///< per slot
  std::vector<Leaf> leaves_;          ///< grouped by slot
  std::vector<size_t> leaf_begin_;    ///< slot s: [begin[s], begin[s+1])
  std::vector<Lookup> lookups_;       ///< grouped by lookup group
  std::vector<size_t> lookup_begin_;  ///< group g: [begin[g], begin[g+1])
  std::vector<double> group_price_;   ///< Cost scratch, one per group
};

}  // namespace dbdesign

#endif  // DBDESIGN_INUM_INUM_H_
