// What-if component (paper §3.1).
//
// Lets callers simulate the benefit of physical structures without
// building them. Three sub-components, as in the paper:
//   (a) what-if indexes  — hypothetical IndexDefs overlaid on the
//       materialized design (with honest, non-zero size estimates),
//   (b) what-if tables   — hypothetical vertical/horizontal partitions,
//   (c) what-if joins    — PlannerKnobs controlling join methods.
//
// The component owns a hypothetical PhysicalDesign overlay; TryCost()
// optimizes queries as if the overlay were materialized. All engine
// interaction goes through the DbmsBackend interface — this class
// compiles against any backend, which is what makes the tool portable.

#ifndef DBDESIGN_WHATIF_WHATIF_H_
#define DBDESIGN_WHATIF_WHATIF_H_

#include <vector>

#include "backend/backend.h"

namespace dbdesign {

class WhatIfOptimizer {
 public:
  /// Attaches to a backend (non-owning; the backend must outlive this).
  explicit WhatIfOptimizer(DbmsBackend& backend);

  // --- (a) What-if index sub-component ---
  /// Adds a hypothetical index. Fails if it already exists in the overlay.
  Status CreateHypotheticalIndex(const IndexDef& index);
  Status DropHypotheticalIndex(const IndexDef& index);
  /// Size the hypothetical index would occupy (pages). Never zero — the
  /// paper notes zero-size what-if indexes "severely affect" accuracy.
  IndexSizeEstimate HypotheticalIndexSize(const IndexDef& index) const;

  // --- (b) What-if table (partition) sub-component ---
  void SetHypotheticalVerticalPartitioning(VerticalPartitioning p);
  void ClearHypotheticalVerticalPartitioning(TableId table);
  void SetHypotheticalHorizontalPartitioning(HorizontalPartitioning p);
  void ClearHypotheticalHorizontalPartitioning(TableId table);

  /// Resets the overlay to the backend's materialized design.
  void ResetHypothetical();

  /// The current overlay design (materialized + hypothetical).
  const PhysicalDesign& hypothetical_design() const { return design_; }

  // --- (c) What-if join sub-component ---
  PlannerKnobs& knobs() { return knobs_; }
  const PlannerKnobs& knobs() const { return knobs_; }

  // --- Costing (errors surface as Status) ---
  /// Optimizer cost of `query` under the overlay design.
  Result<double> TryCost(const BoundQuery& query) const;
  /// Cost under an explicit design (ignores the overlay).
  Result<double> TryCostUnder(const BoundQuery& query,
                              const PhysicalDesign& design) const;
  /// Full plan under the overlay design.
  Result<PlanResult> TryPlan(const BoundQuery& query) const;
  Result<PlanResult> TryPlanUnder(const BoundQuery& query,
                                  const PhysicalDesign& design) const;
  /// Per-query costs of the whole workload in ONE backend round-trip
  /// (DbmsBackend::CostBatch) — the batched hot path. Parallelism comes
  /// from the backend: InMemoryBackend fans distinct queries across
  /// cost_params().num_threads workers with bit-identical results.
  Result<std::vector<double>> TryCostWorkload(
      const Workload& workload, const PhysicalDesign& design) const;

  DbmsBackend& backend() const { return *backend_; }
  const CostParams& params() const { return backend_->cost_params(); }

  /// Number of (expensive) backend optimizer invocations so far.
  uint64_t num_optimizer_calls() const {
    return backend_->num_optimizer_calls();
  }
  void ResetCallCount() { backend_->ResetCallCount(); }

 private:
  DbmsBackend* backend_;
  PlannerKnobs knobs_;
  PhysicalDesign design_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_WHATIF_WHATIF_H_
