// CacheBudget: the one knob that bounds every cache tier in the
// process.
//
// Three caches grow with workload variety rather than workload size,
// so a long-lived multi-tenant server would otherwise grow without
// bound: the shared AtomStore (one atom row per (schema, template,
// universe)), each session's DoI contribution-row cache (one row per
// template class), and each session's CoPhy solver cache (one frontier
// per interaction cluster). A CacheBudget carries a byte ceiling for
// each tier; 0 means unbounded (the pre-budget behavior, and the
// default). The atom store and the DoI rows evict least-recently-used
// entries through the one eviction primitive, util/budgeted_lru.h; the
// solver cache trims frontiers instead (CoPhySolverCache::TrimToBytes).
// Budgets bound MEMORY only — eviction is always transparent: evicted
// state is reloaded from the spill tier or recomputed, and results stay
// bit-identical to the unbounded run.

#ifndef DBDESIGN_UTIL_CACHE_BUDGET_H_
#define DBDESIGN_UTIL_CACHE_BUDGET_H_

#include <cstddef>

namespace dbdesign {

struct CacheBudget {
  /// Ceiling on the server-wide AtomStore's hot (in-memory) rows.
  /// 0 = unbounded.
  size_t atom_store_bytes = 0;
  /// Ceiling on each session's per-class DoI contribution-row cache.
  /// 0 = unbounded.
  size_t doi_rows_bytes = 0;
  /// Ceiling on each session's CoPhy solver cache (cluster frontiers,
  /// warm bases). 0 = unbounded.
  size_t solver_cache_bytes = 0;
};

}  // namespace dbdesign

#endif  // DBDESIGN_UTIL_CACHE_BUDGET_H_
