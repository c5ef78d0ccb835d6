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

#ifndef DBDESIGN_INUM_INUM_H_
#define DBDESIGN_INUM_INUM_H_

#include <cstdint>
#include <map>
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

  /// Cached-atom costing: prices `query` under `design` purely from the
  /// already-populated plan cache (leaf repricing only — no backend
  /// optimizer calls, no new populations for cached queries; an unseen
  /// query falls back to the exact optimizer). Reuse/fallback counters
  /// accumulate into caller-owned `stats` instead of the model's, so
  /// parallel drivers (the interaction analyzer's DoI matrix, the cost
  /// matrix) keep shard-local counters and merge them deterministically
  /// via AccumulateStats. Thread-compatibility contract matches the rest
  /// of the engine: concurrent callers must shard by query (one worker
  /// owns a query's leaf memos end to end).
  double CostCached(const BoundQuery& query, const PhysicalDesign& design,
                    InumStats* stats);

  /// Merges shard-local reuse/fallback counters gathered around
  /// CostCached back into stats() (populate/cache counters are owned by
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
    /// Index-nested-loop contributions: (slot, inner col, outer rows).
    struct InljTerm {
      int slot;
      BoundColumn inner_col;
      double outer_rows;
    };
    std::vector<InljTerm> inlj_terms;
  };

  /// Cached plans for a query (exposed for tests/benchmarks).
  const std::vector<CachedPlan>* CachedPlansFor(const BoundQuery& query) const;

 private:
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

  /// Everything cached for one query.
  struct QueryCache {
    /// Canonical SQL of the query this cache was built for — the
    /// collision tripwire for the 64-bit StructuralHash cache key
    /// (debug builds verify every hit; the PR 4 template-signature
    /// collision lesson applied to the atom cache).
    std::string sql_key;
    std::vector<CachedPlan> plans;
    /// Distinct kOrdered requirements per slot, in first-seen order
    /// (indexes into satisfies_mask bits).
    std::vector<std::vector<std::vector<BoundColumn>>> slot_orders;
    /// mix(slot, index hash, partition hash) -> leaf price.
    std::unordered_map<uint64_t, LeafEntry> leaf_memo;
    /// mix(slot, partition hash) -> sequential scan price.
    std::unordered_map<uint64_t, double> seq_memo;
    /// mix(slot, lookup column, index hash) -> per-probe lookup price
    /// (+inf = index unusable for that lookup).
    std::unordered_map<uint64_t, double> param_memo;
  };

  /// A fully built (but not yet inserted) query cache.
  struct BuiltCache {
    QueryCache qc;
    uint64_t combos = 0;  ///< abstract DP runs performed
  };

  /// Builds the cache for one query: enumerates signature combinations
  /// and runs the abstract DP per combo across the pool. Mutates no
  /// member state besides the (atomic) optimizer call counter, so
  /// distinct queries build concurrently; plans are assembled in combo
  /// order, bit-identical to a serial build.
  BuiltCache BuildCache(const BoundQuery& query);

  QueryCache& Populate(const BoundQuery& query);
  void PreparePtrs(const std::vector<const BoundQuery*>& missing);
  /// Exact-optimizer fallback: backend failures throw StatusException
  /// instead of returning a +inf sentinel cost.
  double ExactCost(const BoundQuery& query, const PhysicalDesign& design);
  double ReuseCost(const BoundQuery& query, QueryCache& qc,
                   const PhysicalDesign& design);
  /// Reuse-or-fallback costing against an already populated cache;
  /// reuse/fallback counters accumulate into `stats` (shard-local in
  /// parallel runs, merged afterwards).
  double CostPrepared(const BoundQuery& query, const PhysicalDesign& design,
                      InumStats* stats);

  DbmsBackend* backend_;
  CostParams params_;
  InumOptions options_;
  WhatIfOptimizer exact_;
  Optimizer optimizer_;  // all knobs enabled; used for abstract DP runs
  std::unordered_map<uint64_t, QueryCache> cache_;
  InumStats stats_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_INUM_INUM_H_
