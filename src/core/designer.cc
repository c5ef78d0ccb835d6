#include "core/designer.h"

#include <span>

namespace dbdesign {

Designer::Designer(DbmsBackend& backend, DesignerOptions options)
    : backend_(&backend),
      options_(std::move(options)),
      whatif_(backend),
      inum_(backend, options_.cophy.inum) {}

Result<std::vector<BenefitReport>> Designer::TryEvaluateDesigns(
    const Workload& workload, const std::vector<PhysicalDesign>& designs) {
  // One INUM populate per query serves the baseline and every candidate
  // design; each additional design reprices only the plan leaves. The
  // cost matrix shards distinct queries across the pool (baseline is
  // row 0), so K candidates evaluate in parallel with results identical
  // to the serial loops.
  std::vector<PhysicalDesign> all;
  all.reserve(designs.size() + 1);
  all.emplace_back();  // empty baseline design
  for (const PhysicalDesign& d : designs) all.push_back(d);
  std::vector<std::vector<double>> matrix;
  try {
    matrix = inum_.CostMatrix(
        workload, std::span<const PhysicalDesign>(all.data(), all.size()));
  } catch (const StatusException& e) {
    return e.status();
  }

  std::vector<BenefitReport> reports;
  reports.reserve(designs.size());
  for (size_t d = 0; d < designs.size(); ++d) {
    BenefitReport report;
    report.base_costs = matrix[0];
    report.new_costs = std::move(matrix[d + 1]);
    report.base_total = workload.WeightedTotal(report.base_costs);
    report.new_total = workload.WeightedTotal(report.new_costs);
    reports.push_back(std::move(report));
  }
  return reports;
}

Result<InteractionGraph> Designer::AnalyzeInteractions(
    const Workload& workload, const std::vector<IndexDef>& indexes) {
  InteractionAnalyzer analyzer(inum_, options_.doi);
  try {
    return InteractionGraph(backend_->catalog(), indexes,
                            analyzer.Analyze(workload, indexes));
  } catch (const StatusException& e) {
    return e.status();
  }
}

Result<OfflineRecommendation> Designer::TryRecommendOffline(
    const Workload& workload, double storage_budget_pages,
    const DesignConstraints& constraints) {
  OfflineRecommendation rec;

  CoPhyOptions copts = options_.cophy;
  copts.storage_budget_pages = storage_budget_pages;
  CoPhyAdvisor cophy(*backend_, copts);
  Result<IndexRecommendation> indexes =
      cophy.TryRecommend(workload, constraints);
  if (!indexes.ok()) return indexes.status();
  rec.indexes = std::move(indexes).value();

  AutoPartAdvisor autopart(*backend_, options_.autopart);
  Result<PartitionRecommendation> partitions =
      autopart.Recommend(workload, constraints);
  if (!partitions.ok()) return partitions.status();
  rec.partitions = std::move(partitions).value();

  // Combined design: partitions plus the recommended indexes.
  rec.combined = rec.partitions.design;
  for (const IndexDef& idx : rec.indexes.indexes) rec.combined.AddIndex(idx);

  try {
    rec.base_cost = inum_.WorkloadCost(workload, PhysicalDesign{});
    rec.combined_cost = inum_.WorkloadCost(workload, rec.combined);
    MaterializationScheduler scheduler(inum_);
    rec.schedule = scheduler.Greedy(workload, rec.indexes.indexes);
  } catch (const StatusException& e) {
    return e.status();
  }
  return rec;
}

Result<IndexRecommendation> Designer::RecommendIndexes(
    const Workload& workload,
    const std::vector<CandidateIndex>& seed_candidates) {
  CoPhyAdvisor cophy(*backend_, options_.cophy);
  // Seed candidates are merged with mined ones (the DBA's suggestions
  // become part of the search space, as in the demo's interactive mode).
  std::vector<CandidateIndex> merged =
      GenerateCandidates(*backend_, workload, options_.cophy.candidates);
  for (const CandidateIndex& seed : seed_candidates) {
    bool dup = false;
    for (const CandidateIndex& c : merged) dup |= c.index == seed.index;
    if (!dup) merged.push_back(seed);
  }
  return cophy.TryRecommendWithCandidates(workload, merged);
}

Result<MaterializationSchedule> Designer::ScheduleMaterialization(
    const Workload& workload, const std::vector<IndexDef>& indexes) {
  MaterializationScheduler scheduler(inum_);
  try {
    return scheduler.Greedy(workload, indexes);
  } catch (const StatusException& e) {
    return e.status();
  }
}

std::unique_ptr<ColtTuner> Designer::StartContinuousTuning() const {
  return std::make_unique<ColtTuner>(*backend_, options_.colt);
}

}  // namespace dbdesign
