// Designer: the public facade of the automated, interactive and
// portable DB designer. Wires the what-if component, INUM, CoPhy,
// AutoPart, COLT and the interaction tools into the paper's three
// demonstration scenarios:
//
//   Scenario 1 — interactive what-if design: the user creates
//     hypothetical indexes/partitions, sees per-query and average
//     benefits, and inspects the index interaction graph.
//   Scenario 2 — automatic tuning: CoPhy indexes + AutoPart partitions
//     under a storage budget, with an interaction-aware materialization
//     schedule for the suggested indexes.
//   Scenario 3 — continuous tuning: COLT monitors the stream and alerts
//     on beneficial configuration changes.
//
// Portability: the Designer talks to the engine only through the
// DbmsBackend interface (optimizer cost calls, statistics, join knobs),
// realizing the paper's claim that the tool "can be ported to any
// relational DBMS which offers a query optimizer, a way to extract and
// create statistics, and control over join operations" — implement
// src/backend/backend.h for your engine and every component here works
// unchanged.

#ifndef DBDESIGN_CORE_DESIGNER_H_
#define DBDESIGN_CORE_DESIGNER_H_

#include <memory>
#include <vector>

#include "autopart/autopart.h"
#include "colt/colt.h"
#include "cophy/cophy.h"
#include "cophy/greedy.h"
#include "interaction/graph.h"
#include "interaction/schedule.h"
#include "whatif/whatif.h"

namespace dbdesign {

/// Per-component options. Cost parameters are not among them: they
/// belong to the DbmsBackend the Designer attaches to.
struct DesignerOptions {
  CoPhyOptions cophy;
  AutoPartOptions autopart;
  ColtOptions colt;
  DoiOptions doi;
};

/// Per-query and aggregate benefit of a new design vs a baseline —
/// the numbers behind the demo's Figure 3 panel.
struct BenefitReport {
  std::vector<double> base_costs;
  std::vector<double> new_costs;
  double base_total = 0.0;
  double new_total = 0.0;

  /// Average workload benefit, in [0, 1] (1 = all cost eliminated).
  double average_benefit() const {
    return base_total > 0 ? 1.0 - new_total / base_total : 0.0;
  }
  double query_benefit(size_t i) const {
    return base_costs[i] > 0 ? 1.0 - new_costs[i] / base_costs[i] : 0.0;
  }
};

/// Output of the automatic (scenario 2) pipeline.
struct OfflineRecommendation {
  IndexRecommendation indexes;
  PartitionRecommendation partitions;
  MaterializationSchedule schedule;
  /// Partitions + indexes together.
  PhysicalDesign combined;
  double combined_cost = 0.0;
  double base_cost = 0.0;

  double improvement() const {
    return base_cost > 0 ? 1.0 - combined_cost / base_cost : 0.0;
  }
};

class Designer {
 public:
  /// Attaches to a backend (non-owning; the backend must outlive this).
  explicit Designer(DbmsBackend& backend, DesignerOptions options = {});

  // --- Scenario 1: interactive session ---
  /// The what-if sub-system (hypothetical indexes/partitions, join knobs).
  WhatIfOptimizer& whatif() { return whatif_; }

  // Every operation below reports a backend failure in the costing
  // fallback paths as its Status, never as a sentinel cost or an abort.

  /// Costs the workload under each of `designs` vs the empty baseline,
  /// per query, in one pass: INUM populates each query's plan cache
  /// once and reprices only the leaves per design, so evaluating K
  /// designs costs far less than K independent passes — the hot path
  /// of scenario 2.
  Result<std::vector<BenefitReport>> TryEvaluateDesigns(
      const Workload& workload, const std::vector<PhysicalDesign>& designs);

  /// Builds the interaction graph (Figure 2) for a set of indexes.
  Result<InteractionGraph> AnalyzeInteractions(
      const Workload& workload, const std::vector<IndexDef>& indexes);

  // --- Scenario 2: automatic tuning ---
  /// Full pipeline: CoPhy indexes + AutoPart partitions + schedule.
  /// CoPhy honors pins/vetoes/per-table caps under
  /// min(storage_budget_pages, constraint budget); AutoPart honors the
  /// partitioning allow/deny lists. Invalid constraints surface as
  /// Status.
  Result<OfflineRecommendation> TryRecommendOffline(
      const Workload& workload, double storage_budget_pages,
      const DesignConstraints& constraints = {});

  /// Index-only recommendation with user-seeded candidates (the paper's
  /// "control the physical design search by suggesting a candidate set
  /// of indexes as the starting point").
  Result<IndexRecommendation> RecommendIndexes(
      const Workload& workload,
      const std::vector<CandidateIndex>& seed_candidates);

  /// Interaction-aware materialization schedule for a set of indexes.
  Result<MaterializationSchedule> ScheduleMaterialization(
      const Workload& workload, const std::vector<IndexDef>& indexes);

  // --- Scenario 3: continuous tuning ---
  /// Creates a fresh COLT tuner attached to this backend.
  std::unique_ptr<ColtTuner> StartContinuousTuning() const;

  InumCostModel& inum() { return inum_; }
  DbmsBackend& backend() const { return *backend_; }
  const DesignerOptions& options() const { return options_; }

 private:
  DbmsBackend* backend_;
  DesignerOptions options_;
  WhatIfOptimizer whatif_;
  InumCostModel inum_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_CORE_DESIGNER_H_
