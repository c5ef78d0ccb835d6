#include "interaction/schedule.h"

#include <cmath>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace dbdesign {

double MaterializationSchedule::BenefitArea() const {
  // Step k's standing benefit (base - cost_after_k) accrues while step
  // k+1 builds; the final configuration's benefit accrues for one more
  // normalized unit.
  double area = 0.0;
  for (size_t k = 0; k + 1 < steps.size(); ++k) {
    double standing = base_cost - steps[k].cost_after;
    area += standing * std::max(1.0, steps[k + 1].build_pages);
  }
  if (!steps.empty()) {
    area += (base_cost - final_cost) * 1.0;
  }
  // Normalize by total build effort so schedules over the same set are
  // comparable regardless of page units.
  double effort = 0.0;
  for (const ScheduleStep& s : steps) effort += std::max(1.0, s.build_pages);
  return effort > 0 ? area / effort : 0.0;
}

MaterializationSchedule MaterializationScheduler::Build(
    const Workload& workload, const std::vector<IndexDef>& indexes,
    const std::vector<int>& order, const DesignConstraints& constraints) {
  MaterializationSchedule sched;
  PhysicalDesign built;
  sched.base_cost = inum_->WorkloadCost(workload, built);
  double prev_cost = sched.base_cost;
  double budget = constraints.storage_budget_pages;
  double pages = 0.0;

  const DbmsBackend& backend = inum_->backend();
  for (int i : order) {
    const IndexDef& idx = indexes[static_cast<size_t>(i)];
    double build = backend.EstimateIndexSize(idx).total_pages();
    if (pages + build > budget) {
      // Budget respected at every intermediate step, by construction.
      sched.skipped.push_back(idx);
      continue;
    }
    DBD_DCHECK_GE(build, 0.0);
    built.AddIndex(idx);
    pages += build;
    double cost = inum_->WorkloadCost(workload, built);
    ScheduleStep step;
    step.index = idx;
    step.build_pages = build;
    step.cumulative_pages = pages;
    step.marginal_benefit = prev_cost - cost;
    step.cost_after = cost;
    step.pinned = constraints.IsPinned(idx);
    prev_cost = cost;
    // Cumulative pages are monotone non-decreasing and never exceed the
    // budget at ANY intermediate step — the schedule's core contract.
    DBD_DCHECK_GE(step.cumulative_pages,
                  sched.steps.empty() ? 0.0
                                      : sched.steps.back().cumulative_pages);
    DBD_DCHECK_LE(step.cumulative_pages, budget);
    sched.steps.push_back(std::move(step));
  }
  sched.total_pages = pages;

  // Invariant: the last step's incrementally maintained cost must equal
  // a from-scratch evaluation of the full scheduled design — the same
  // number Designer::TryEvaluateDesigns reports for it. Recomputing from a
  // freshly assembled design (rather than trusting `built`) is what
  // catches bookkeeping drift; tests compare it to steps.back().
  PhysicalDesign full;
  for (const ScheduleStep& s : sched.steps) full.AddIndex(s.index);
  sched.final_cost = inum_->WorkloadCost(workload, full);
  return sched;
}

void MaterializationScheduler::GreedyPhase(
    const Workload& workload, const std::vector<IndexDef>& indexes,
    std::vector<int> candidates, PhysicalDesign* built, double* current,
    std::vector<int>* order) {
  const DbmsBackend& backend = inum_->backend();
  while (!candidates.empty()) {
    int best_pos = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    double best_cost = *current;
    for (size_t p = 0; p < candidates.size(); ++p) {
      const IndexDef& idx = indexes[static_cast<size_t>(candidates[p])];
      PhysicalDesign trial = *built;
      trial.AddIndex(idx);
      double cost = inum_->WorkloadCost(workload, trial);
      double build = backend.EstimateIndexSize(idx).total_pages();
      // Benefit rate: early cheap high-benefit builds maximize the area.
      double score = (*current - cost) / std::max(1.0, build);
      if (score > best_score) {
        best_score = score;
        best_pos = static_cast<int>(p);
        best_cost = cost;
      }
    }
    int chosen = candidates[static_cast<size_t>(best_pos)];
    candidates.erase(candidates.begin() + best_pos);
    order->push_back(chosen);
    built->AddIndex(indexes[static_cast<size_t>(chosen)]);
    *current = best_cost;
  }
}

MaterializationSchedule MaterializationScheduler::Greedy(
    const Workload& workload, const std::vector<IndexDef>& indexes) {
  return Greedy(workload, indexes, DesignConstraints{});
}

MaterializationSchedule MaterializationScheduler::Greedy(
    const Workload& workload, const std::vector<IndexDef>& indexes,
    const DesignConstraints& constraints) {
  // Vetoes are impossible by construction: a vetoed index never enters
  // the candidate phases, so no step can contain one. Pins build first
  // (greedy among themselves), then the rest.
  std::vector<int> pinned;
  std::vector<int> rest;
  std::vector<int> vetoed;
  for (size_t i = 0; i < indexes.size(); ++i) {
    if (constraints.IsVetoed(indexes[i])) {
      vetoed.push_back(static_cast<int>(i));
    } else if (constraints.IsPinned(indexes[i])) {
      pinned.push_back(static_cast<int>(i));
    } else {
      rest.push_back(static_cast<int>(i));
    }
  }

  std::vector<int> order;
  PhysicalDesign built;
  double current = inum_->WorkloadCost(workload, built);
  GreedyPhase(workload, indexes, std::move(pinned), &built, &current, &order);
  GreedyPhase(workload, indexes, std::move(rest), &built, &current, &order);

  MaterializationSchedule sched =
      Build(workload, indexes, order, constraints);
  for (int v : vetoed) sched.skipped.push_back(indexes[static_cast<size_t>(v)]);
  return sched;
}

MaterializationSchedule MaterializationScheduler::FixedOrder(
    const Workload& workload, const std::vector<IndexDef>& indexes,
    const std::vector<int>& order) {
  return Build(workload, indexes, order, DesignConstraints{});
}

MaterializationSchedule MaterializationScheduler::SoloBenefitOrder(
    const Workload& workload, const std::vector<IndexDef>& indexes) {
  double base = inum_->WorkloadCost(workload, PhysicalDesign{});
  std::vector<std::pair<double, int>> ranked;
  for (size_t i = 0; i < indexes.size(); ++i) {
    PhysicalDesign solo;
    solo.AddIndex(indexes[i]);
    double benefit = base - inum_->WorkloadCost(workload, solo);
    ranked.emplace_back(-benefit, static_cast<int>(i));
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int> order;
  for (auto& [neg, i] : ranked) order.push_back(i);
  return Build(workload, indexes, order, DesignConstraints{});
}

}  // namespace dbdesign
