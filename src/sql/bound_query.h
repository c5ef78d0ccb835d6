// BoundQuery: the resolved query representation consumed by the
// optimizer, executor, INUM, CoPhy, AutoPart, COLT and the interaction
// analyzer. Produced by the binder from a parsed AstQuery.

#ifndef DBDESIGN_SQL_BOUND_QUERY_H_
#define DBDESIGN_SQL_BOUND_QUERY_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "catalog/design.h"
#include "catalog/schema.h"
#include "sql/ast.h"

namespace dbdesign {

/// A resolved column: FROM-list slot + column position in that table.
struct BoundColumn {
  int slot = -1;          ///< index into BoundQuery::tables
  ColumnId column = kInvalidColumnId;

  bool operator==(const BoundColumn&) const = default;
  bool operator<(const BoundColumn& o) const {
    if (slot != o.slot) return slot < o.slot;
    return column < o.column;
  }
};

/// Single-table filter predicate (conjunct).
struct BoundPredicate {
  BoundColumn column;
  CompareOp op = CompareOp::kEq;
  Value value;                  ///< comparison value / BETWEEN lower bound
  std::optional<Value> value2;  ///< BETWEEN upper bound

  bool IsEquality() const {
    return op == CompareOp::kEq && !value2.has_value();
  }
  bool IsRange() const {
    return value2.has_value() || op == CompareOp::kLt ||
           op == CompareOp::kLe || op == CompareOp::kGt ||
           op == CompareOp::kGe;
  }
};

/// Equijoin predicate between two slots.
struct BoundJoin {
  BoundColumn left;
  BoundColumn right;

  /// Returns the join column on `slot`, or nullopt if not involved.
  std::optional<BoundColumn> SideOn(int slot) const {
    if (left.slot == slot) return left;
    if (right.slot == slot) return right;
    return std::nullopt;
  }
};

/// Aggregate output.
struct BoundAggregate {
  AggFn fn = AggFn::kCount;
  bool star = false;           ///< COUNT(*)
  BoundColumn column;          ///< unused when star
};

struct BoundOrderItem {
  BoundColumn column;
  bool descending = false;
};

/// A fully resolved SELECT query.
struct BoundQuery {
  /// Workload-assigned identifier (stable across what-if calls; INUM and
  /// CoPhy key caches by it). -1 until the workload assigns one.
  int id = -1;

  std::vector<TableId> tables;        ///< FROM slots
  std::vector<std::string> aliases;   ///< effective name per slot

  std::vector<BoundColumn> select_columns;
  std::vector<BoundAggregate> aggregates;
  std::vector<BoundPredicate> filters;  ///< conjunctive
  std::vector<BoundJoin> joins;
  std::vector<BoundColumn> group_by;
  std::vector<BoundOrderItem> order_by;
  int64_t limit = -1;

  int num_slots() const { return static_cast<int>(tables.size()); }
  bool HasAggregates() const { return !aggregates.empty(); }

  /// Filters restricted to one slot.
  std::vector<BoundPredicate> FiltersOn(int slot) const;

  /// Join predicates touching one slot.
  std::vector<BoundJoin> JoinsOn(int slot) const;

  /// Sorted, deduplicated set of columns of `slot` referenced anywhere in
  /// the query (select, aggregates, filters, joins, group by, order by).
  std::vector<ColumnId> ReferencedColumns(int slot) const;

  /// Columns of `slot` referenced by filter/join predicates only (the
  /// "sargable" surface used for candidate index generation).
  std::vector<ColumnId> PredicateColumns(int slot) const;

  /// Renders the query back to SQL against `catalog` (used by tests for
  /// round-trips and by AutoPart to save rewritten queries).
  std::string ToSql(const Catalog& catalog) const;

  /// Structural 64-bit hash over all query content (tables, predicates
  /// with constants, joins, grouping, ordering, limit). Two structurally
  /// identical queries hash equal regardless of their ids; INUM keys its
  /// cache with this.
  uint64_t StructuralHash() const;
};

/// A weighted set of queries — the unit of tuning input. The paper's
/// offline components take a Workload; COLT consumes queries one at a
/// time from a stream.
struct Workload {
  std::vector<BoundQuery> queries;
  std::vector<double> weights;  ///< same length; empty = all 1.0

  void Add(BoundQuery q, double weight = 1.0) {
    q.id = static_cast<int>(queries.size());
    queries.push_back(std::move(q));
    weights.push_back(weight);
  }
  double WeightOf(size_t i) const {
    return weights.empty() ? 1.0 : weights[i];
  }
  /// Weighted sum of per-query costs (`costs[i]` belongs to query i),
  /// accumulated in workload order.
  double WeightedTotal(std::span<const double> costs) const {
    double total = 0.0;
    for (size_t i = 0; i < costs.size(); ++i) total += WeightOf(i) * costs[i];
    return total;
  }
  size_t size() const { return queries.size(); }
  bool empty() const { return queries.empty(); }
};

/// Structural deduplication of a query sequence: `distinct[u]` is the
/// input index of the u-th first-seen distinct query and `owner[i]`
/// maps every input index to its distinct slot. First-seen order is a
/// *determinism invariant*: the parallel costing engine (CostBatch,
/// INUM CostMatrix, CoPhy atom building) assigns work and reports
/// errors by distinct slot, so this order must match what a serial
/// first-occurrence scan produces.
struct StructuralDedup {
  std::vector<size_t> distinct;
  std::vector<size_t> owner;
};

StructuralDedup DedupByStructure(std::span<const BoundQuery> queries);

}  // namespace dbdesign

#endif  // DBDESIGN_SQL_BOUND_QUERY_H_
