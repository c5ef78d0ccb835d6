// Cost-model parameters and planner knobs.
//
// Parameter names and defaults mirror PostgreSQL's cost GUCs so that the
// cost model's shape (seq vs index crossover, hash vs merge choices)
// matches the system the paper instruments. The PlannerKnobs struct is
// the "what-if join component" of the paper (§3.1c): it lets the tool
// control which join methods and access paths the optimizer may use.

#ifndef DBDESIGN_OPTIMIZER_COST_PARAMS_H_
#define DBDESIGN_OPTIMIZER_COST_PARAMS_H_

namespace dbdesign {

/// Cost units follow PostgreSQL: 1.0 = one sequential page fetch.
struct CostParams {
  double seq_page_cost = 1.0;
  double random_page_cost = 4.0;
  double cpu_tuple_cost = 0.01;
  double cpu_index_tuple_cost = 0.005;
  double cpu_operator_cost = 0.0025;
  /// Pages assumed cached across repeated index descents (PG GUC).
  double effective_cache_size_pages = 16384.0;  // 128 MB
  /// Memory budget for sorts and hash tables, in bytes.
  double work_mem_bytes = 4.0 * 1024 * 1024;  // 4 MB
  /// Minimum number of rows an estimate may produce.
  double min_rows = 1.0;
  /// Worker threads for batched costing (CostBatch, INUM populate and
  /// workload costing, TryEvaluateDesigns, CoPhy atom building). 0 = use
  /// hardware concurrency, 1 = serial. Results are bit-identical at any
  /// setting; this knob trades only wall time. Not a PostgreSQL GUC —
  /// it configures the designer's client-side costing engine.
  int num_threads = 0;
};

/// Enables/disables plan operators, PostgreSQL enable_* style. The
/// what-if join component toggles these to steer plans.
struct PlannerKnobs {
  bool enable_seqscan = true;
  bool enable_indexscan = true;
  bool enable_indexonlyscan = true;
  bool enable_nestloop = true;
  bool enable_indexnestloop = true;
  bool enable_hashjoin = true;
  bool enable_mergejoin = true;
  bool enable_sort = true;

  bool AllowsAnyJoin() const {
    return enable_nestloop || enable_indexnestloop || enable_hashjoin ||
           enable_mergejoin;
  }
};

/// Startup/total cost pair, PostgreSQL style. `startup` is the cost to
/// produce the first row (relevant under LIMIT), `total` the cost to
/// produce all rows.
struct Cost {
  double startup = 0.0;
  double total = 0.0;

  Cost operator+(const Cost& o) const {
    return Cost{startup + o.startup, total + o.total};
  }
};

}  // namespace dbdesign

#endif  // DBDESIGN_OPTIMIZER_COST_PARAMS_H_
