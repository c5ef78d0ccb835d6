// Access-path generation and leaf costing.
//
// Produces the candidate scans for one FROM slot under a physical
// design: sequential scan (partition-aware), index scan, index-only
// scan, and full-index-order scan. Also costs parameterized index
// lookups used by index-nested-loop joins.
//
// The PathProvider interface lets INUM substitute abstract leaves while
// reusing the same join enumeration (see src/inum).

#ifndef DBDESIGN_OPTIMIZER_ACCESS_PATHS_H_
#define DBDESIGN_OPTIMIZER_ACCESS_PATHS_H_

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "catalog/design.h"
#include "optimizer/cost_params.h"
#include "optimizer/plan.h"
#include "sql/bound_query.h"

namespace dbdesign {

/// A costed candidate leaf for one slot.
struct AccessPath {
  PlanNodeRef node;                      ///< fully formed leaf plan
  double rows = 0.0;                     ///< output rows (post-filter)
  std::vector<BoundColumn> order;        ///< provided sort order
};

/// A parameterized index lookup (the inner side of an index-nested-loop
/// join): cost and output of one probe with a bound join key.
struct ParamLookupPath {
  std::optional<IndexDef> index;  ///< nullopt only for abstract (INUM) paths
  Cost per_lookup;                ///< cost of one probe
  double rows_per_lookup = 0.0;   ///< post-filter rows per probe
};

/// Everything leaf costing needs; cheap to copy around the planner.
struct PlannerContext {
  const Catalog* catalog = nullptr;
  const std::vector<TableStats>* stats = nullptr;
  const BoundQuery* query = nullptr;
  const PhysicalDesign* design = nullptr;
  CostParams params;
  PlannerKnobs knobs;

  const TableStats& StatsFor(int slot) const {
    return (*stats)[(*query).tables[slot]];
  }
  const TableDef& DefFor(int slot) const {
    return (*catalog).table((*query).tables[slot]);
  }
};

/// Abstract source of leaves for the join enumerator.
class PathProvider {
 public:
  virtual ~PathProvider() = default;

  /// All candidate access paths for `slot`.
  virtual std::vector<AccessPath> Paths(int slot) const = 0;

  /// Best parameterized lookup on `inner_col` (a join column of `slot`),
  /// or nullopt if none is possible under the design.
  virtual std::optional<ParamLookupPath> ParamLookup(
      int slot, const BoundColumn& inner_col) const = 0;
};

/// Catalog-backed provider: real paths from the design's indexes and
/// partitions.
class CatalogPathProvider : public PathProvider {
 public:
  explicit CatalogPathProvider(const PlannerContext& ctx) : ctx_(ctx) {}

  std::vector<AccessPath> Paths(int slot) const override;
  std::optional<ParamLookupPath> ParamLookup(
      int slot, const BoundColumn& inner_col) const override;

 private:
  const PlannerContext& ctx_;
};

/// --- Shared costing helpers (used by INUM's reuse formulas too) ---

/// PostgreSQL's Mackert-Lohman approximation of heap page fetches when
/// retrieving `tuples` random tuples from a `pages`-page relation with
/// `cache_pages` of buffer. Matches index_pages_fetched(): when the
/// relation exceeds the cache the result counts *fetches* including
/// cache-miss refetches, so it may exceed `pages` (by design).
double IndexPagesFetched(double tuples, double pages, double cache_pages);

/// Heap pages read by a sequential scan of `slot` given the design's
/// partitions and the query's referenced columns (fragment set-cover for
/// vertical partitioning, partition pruning for horizontal).
double EffectiveScanPages(const PlannerContext& ctx, int slot,
                          double* rows_scanned_fraction);

/// Output row width for `slot` = sum of referenced column widths.
double SlotOutputWidth(const PlannerContext& ctx, int slot);

/// Cost of sorting `rows` rows of `width` bytes (PG-style n log n +
/// external merge IO when exceeding work_mem).
Cost SortCost(const CostParams& params, double rows, double width);

/// Builds a Sort node on top of `input` delivering `order`.
PlanNodeRef MakeSortNode(const CostParams& params, PlanNodeRef input,
                         std::vector<BoundColumn> order);

/// Costs a parameterized lookup on `inner_col` through one specific
/// index, or nullopt if the index cannot serve the lookup (the join
/// column must follow an equality-matched prefix). Used by the join
/// enumerator (via CatalogPathProvider) and by INUM's lookup memo, whose
/// prices CoPhy's atoms and every reuse-path cost read.
std::optional<ParamLookupPath> CostIndexParamLookup(
    const PlannerContext& ctx, int slot, const BoundColumn& inner_col,
    const IndexDef& index);

/// Cost-only view of one index's leaf alternatives for a slot — the same
/// numbers Paths() puts into plan nodes, without allocating nodes. INUM's
/// reuse phase memoizes these (plan-node construction would dominate the
/// microsecond-scale reuse path).
struct IndexLeafCost {
  /// Plain index scan (heap fetches); +inf when not applicable.
  double scan_cost = std::numeric_limits<double>::infinity();
  /// Covering index-only scan; +inf when the index does not cover.
  double index_only_cost = std::numeric_limits<double>::infinity();
  /// Sort order the index delivers (its column sequence).
  std::vector<BoundColumn> order;

  double best() const { return std::min(scan_cost, index_only_cost); }
  bool usable() const { return std::isfinite(best()); }
};

IndexLeafCost CostIndexLeaf(const PlannerContext& ctx, int slot,
                            const IndexDef& index);

/// Sequential-scan leaf cost for `slot` (partition-aware).
double CostSeqLeaf(const PlannerContext& ctx, int slot);

}  // namespace dbdesign

#endif  // DBDESIGN_OPTIMIZER_ACCESS_PATHS_H_
