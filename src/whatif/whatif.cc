#include "whatif/whatif.h"

namespace dbdesign {

WhatIfOptimizer::WhatIfOptimizer(DbmsBackend& backend)
    : backend_(&backend), design_(backend.CurrentDesign()) {}

Status WhatIfOptimizer::CreateHypotheticalIndex(const IndexDef& index) {
  if (index.table < 0 || index.table >= backend_->catalog().num_tables()) {
    return Status::InvalidArgument("bad table id in index definition");
  }
  const TableDef& def = backend_->catalog().table(index.table);
  if (index.columns.empty()) {
    return Status::InvalidArgument("index must have at least one column");
  }
  for (ColumnId c : index.columns) {
    if (c < 0 || c >= def.num_columns()) {
      return Status::InvalidArgument("bad column id in index definition");
    }
  }
  if (!design_.AddIndex(index)) {
    return Status::AlreadyExists("hypothetical index " + index.Key());
  }
  return Status::OK();
}

Status WhatIfOptimizer::DropHypotheticalIndex(const IndexDef& index) {
  if (!design_.RemoveIndex(index)) {
    return Status::NotFound("hypothetical index " + index.Key());
  }
  return Status::OK();
}

IndexSizeEstimate WhatIfOptimizer::HypotheticalIndexSize(
    const IndexDef& index) const {
  return backend_->EstimateIndexSize(index);
}

void WhatIfOptimizer::SetHypotheticalVerticalPartitioning(
    VerticalPartitioning p) {
  design_.SetVerticalPartitioning(std::move(p));
}

void WhatIfOptimizer::ClearHypotheticalVerticalPartitioning(TableId table) {
  design_.ClearVerticalPartitioning(table);
}

void WhatIfOptimizer::SetHypotheticalHorizontalPartitioning(
    HorizontalPartitioning p) {
  design_.SetHorizontalPartitioning(std::move(p));
}

void WhatIfOptimizer::ClearHypotheticalHorizontalPartitioning(TableId table) {
  design_.ClearHorizontalPartitioning(table);
}

void WhatIfOptimizer::ResetHypothetical() {
  design_ = backend_->CurrentDesign();
}

Result<double> WhatIfOptimizer::TryCost(const BoundQuery& query) const {
  return TryCostUnder(query, design_);
}

Result<double> WhatIfOptimizer::TryCostUnder(
    const BoundQuery& query, const PhysicalDesign& design) const {
  return backend_->CostQuery(query, design, knobs_);
}

Result<PlanResult> WhatIfOptimizer::TryPlan(const BoundQuery& query) const {
  return TryPlanUnder(query, design_);
}

Result<PlanResult> WhatIfOptimizer::TryPlanUnder(
    const BoundQuery& query, const PhysicalDesign& design) const {
  return backend_->OptimizeQuery(query, design, knobs_);
}

Result<std::vector<double>> WhatIfOptimizer::TryCostWorkload(
    const Workload& workload, const PhysicalDesign& design) const {
  return backend_->CostBatch(
      std::span<const BoundQuery>(workload.queries.data(),
                                  workload.queries.size()),
      design, knobs_);
}

}  // namespace dbdesign
