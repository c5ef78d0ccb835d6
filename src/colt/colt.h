// COLT: continuous on-line tuning (paper §3.2.2, ref [11] — Schnaitter,
// Abiteboul, Milo, Polyzotis, SIGMOD 2006).
//
// COLT monitors the incoming query stream in epochs. Per epoch it
//   * extracts candidate single-column indexes from query predicates
//     (the paper: "the new proposed configuration includes only single
//     column indexes"),
//   * profiles a bounded number of candidates with what-if calls
//     (INUM-backed, so profiling is cheap) and tracks per-candidate
//     benefit with an exponentially weighted moving average,
//   * selects a configuration under the space budget (density-greedy
//     knapsack with pairwise improvement),
//   * raises an alert when the selection differs from the current
//     configuration, and materializes/drops indexes subject to a
//     build-cost hysteresis so oscillating workloads do not thrash.
//
// The tuner models costs; it can optionally physically build indexes
// when attached to a mutable Database.

#ifndef DBDESIGN_COLT_COLT_H_
#define DBDESIGN_COLT_COLT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "inum/inum.h"
#include "workload/compress.h"

namespace dbdesign {

struct ColtOptions {
  int epoch_length = 25;  ///< queries per epoch
  double storage_budget_pages = 1e9;
  /// What-if profiling budget: candidate evaluations per epoch.
  int whatif_budget_per_epoch = 24;
  double ewma_alpha = 0.4;
  /// Build only when EWMA benefit × horizon > build cost × hysteresis.
  double build_hysteresis = 1.5;
  /// Amortization horizon, in epochs.
  double amortization_epochs = 4.0;
  /// Drop a built index when its EWMA benefit falls below this fraction
  /// of its amortized build cost.
  double drop_fraction = 0.1;
  /// Candidate pool cap (least-recently-seen evicted).
  int max_candidates = 48;
  /// Cost-model options for the tuner's INUM instance; force_exact
  /// routes every profiling call through the backend (fault testing).
  InumOptions inum;
};

/// Estimated cost of physically building an index (page writes + sort
/// CPU), in optimizer cost units.
double EstimateIndexBuildCost(const DbmsBackend& backend,
                              const IndexDef& index,
                              const CostParams& params);

struct ColtEvent {
  enum class Type { kBuild, kDrop, kAlert };
  Type type = Type::kAlert;
  int epoch = 0;
  IndexDef index;
  double expected_benefit_per_epoch = 0.0;
};

struct ColtEpochReport {
  int epoch = 0;
  double observed_cost = 0.0;  ///< epoch queries under the live design
  double baseline_cost = 0.0;  ///< same queries with no indexes at all
  int whatif_calls = 0;
  int config_size = 0;  ///< indexes materialized at epoch end
  /// Distinct template classes seen this epoch; the epoch's profiling
  /// cost scales with this, not with epoch_length.
  int epoch_templates = 0;
};

class ColtTuner {
 public:
  /// Attaches to a backend (non-owning); cost parameters come from it.
  explicit ColtTuner(DbmsBackend& backend, ColtOptions options = {});

  /// Feeds one query from the stream; returns its observed (modeled)
  /// cost under the current configuration. Bookkeeping is keyed by
  /// TemplateSignature (collision-verified): repeated instances of one
  /// template share its epoch statistics and its cached representative
  /// cost, so a template-heavy stream costs one INUM population per
  /// template — not per distinct constant instantiation.
  double OnQuery(const BoundQuery& query);

  /// Template classes observed so far (signature, representative,
  /// cumulative weight/count), in first-seen order.
  const std::vector<TemplateClass>& template_classes() const {
    return templates_.classes();
  }
  size_t num_template_classes() const { return templates_.size(); }

  /// Cost-model counters (tests assert populations scale with template
  /// classes, not stream length).
  const InumStats& inum_stats() const { return inum_.stats(); }

  /// The paper: continuous tuning "can be enabled or disabled in
  /// accordance with workload or administrator's will". While disabled,
  /// queries are still observed but no changes are made.
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Installs DBA constraints on the online tuner. Pinned indexes are
  /// materialized immediately (paying their build cost) and never
  /// dropped; vetoed indexes/columns are dropped if built and never
  /// profiled again; per-table caps and the storage budget bound every
  /// future selection. Partitioning fields are ignored (COLT only
  /// manages indexes).
  Status SetConstraints(DesignConstraints constraints);
  const DesignConstraints& constraints() const { return constraints_; }

  const PhysicalDesign& current_design() const { return current_; }
  const std::vector<ColtEvent>& events() const { return events_; }
  const std::vector<ColtEpochReport>& epochs() const { return epochs_; }

  double cumulative_query_cost() const { return cumulative_query_cost_; }
  double cumulative_build_cost() const { return cumulative_build_cost_; }
  double cumulative_cost() const {
    return cumulative_query_cost_ + cumulative_build_cost_;
  }

  // --- Degraded operation (backend down) ---
  // Continuous tuning must survive a flaky backend: a failed cost call
  // skips that query's cost accounting (the query is still observed and
  // its template interned), and a failed epoch rollup skips profiling
  // and configuration changes for that epoch — the tuner never aborts
  // and never bakes a sentinel cost into its EWMA state.
  /// Queries whose cost call failed (observed but not costed).
  uint64_t backend_errors() const { return backend_errors_; }
  /// Epochs that ended without profiling/selection because the backend
  /// was unreachable.
  uint64_t degraded_epochs() const { return degraded_epochs_; }
  /// The most recent backend failure (OK if none).
  const Status& last_backend_error() const { return last_backend_error_; }

 private:
  struct Candidate {
    IndexDef index;
    double size_pages = 0.0;
    double build_cost = 0.0;
    double ewma_benefit = 0.0;  ///< per-epoch benefit estimate
    int last_seen_epoch = 0;
    int hits = 0;  ///< queries referencing the column this epoch
    bool built = false;
    bool pinned = false;  ///< DBA-mandated: always selected, never dropped
  };

  void ExtractCandidates(const BoundQuery& query);
  void EndEpoch();
  /// Epoch rollup body; throws StatusException on backend failure
  /// (EndEpoch converts that into a degraded epoch).
  void EndEpochImpl();
  /// Rolls epoch bookkeeping forward (shared by the normal and
  /// degraded epoch paths).
  void RollEpoch(ColtEpochReport report);

  DbmsBackend* backend_;
  CostParams params_;
  ColtOptions options_;
  InumCostModel inum_;
  bool enabled_ = true;
  DesignConstraints constraints_;

  PhysicalDesign current_;
  std::map<std::string, Candidate> candidates_;
  /// Template classes over the whole stream (class ids are stable;
  /// COLT never drops a class).
  TemplateClassTable templates_;
  /// class id -> instances seen this epoch (ordered for determinism).
  std::map<size_t, double> epoch_counts_;
  int epoch_instances_ = 0;
  int epoch_ = 0;

  std::vector<ColtEvent> events_;
  std::vector<ColtEpochReport> epochs_;
  double cumulative_query_cost_ = 0.0;
  double cumulative_build_cost_ = 0.0;
  uint64_t backend_errors_ = 0;
  uint64_t degraded_epochs_ = 0;
  Status last_backend_error_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_COLT_COLT_H_
