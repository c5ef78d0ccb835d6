#include "interaction/schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

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

namespace {

/// Prices the workload under subsets of one index list: one
/// SubsetPricer per structurally distinct query, fanned back out to
/// workload order and reduced with Workload::WeightedTotal — exactly
/// InumCostModel::WorkloadCost's reduction, so each total (and each
/// reuse/fallback count) is bit-identical to WorkloadCost on the
/// assembled design. Construction populates the workload first, as
/// WorkloadCost would.
class WorkloadPricer {
 public:
  WorkloadPricer(InumCostModel& inum, const Workload& workload,
                 const std::vector<IndexDef>& indexes)
      : workload_(&workload),
        dedup_(DedupByStructure(std::span<const BoundQuery>(
            workload.queries.data(), workload.queries.size()))),
        per_distinct_(dedup_.distinct.size(), 0.0),
        costs_(workload.size(), 0.0) {
    inum.PrepareWorkload(workload);
    pricers_.reserve(dedup_.distinct.size());
    for (size_t u : dedup_.distinct) {
      pricers_.push_back(inum.BindSubsets(workload.queries[u], indexes));
    }
  }

  /// Weighted workload cost under the listed indexes `members` selects.
  double Cost(std::span<const uint8_t> members) {
    for (size_t u = 0; u < pricers_.size(); ++u) {
      per_distinct_[u] = pricers_[u].Cost(members);
    }
    for (size_t i = 0; i < costs_.size(); ++i) {
      costs_[i] = per_distinct_[dedup_.owner[i]];
    }
    return workload_->WeightedTotal(costs_);
  }

 private:
  const Workload* workload_;
  StructuralDedup dedup_;
  std::vector<InumCostModel::SubsetPricer> pricers_;
  std::vector<double> per_distinct_;
  std::vector<double> costs_;
};

/// Greedy benefit-rate ordering of `candidates` given the built set
/// `built` (membership over `indexes`); appends chosen positions to
/// `order` and updates built/current.
void GreedyPhase(const DbmsBackend& backend, WorkloadPricer& pricer,
                 const std::vector<IndexDef>& indexes,
                 std::vector<int> candidates, std::vector<uint8_t>* built,
                 double* current, std::vector<int>* order) {
  while (!candidates.empty()) {
    int best_pos = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    double best_cost = *current;
    for (size_t p = 0; p < candidates.size(); ++p) {
      size_t i = static_cast<size_t>(candidates[p]);
      (*built)[i] = 1;
      double cost = pricer.Cost(*built);
      (*built)[i] = 0;
      double build = backend.EstimateIndexSize(indexes[i]).total_pages();
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
    (*built)[static_cast<size_t>(chosen)] = 1;
    *current = best_cost;
  }
}

/// Materializes `order` into a schedule under the (possibly
/// unconstrained) budget, pricing each step as a subset of `indexes`,
/// then re-derives final_cost from a freshly assembled design.
MaterializationSchedule Build(InumCostModel& inum, WorkloadPricer& pricer,
                              const Workload& workload,
                              const std::vector<IndexDef>& indexes,
                              const std::vector<int>& order,
                              const DesignConstraints& constraints) {
  MaterializationSchedule sched;
  std::vector<uint8_t> built(indexes.size(), 0);
  sched.base_cost = pricer.Cost(built);
  double prev_cost = sched.base_cost;
  double budget = constraints.storage_budget_pages;
  double pages = 0.0;

  const DbmsBackend& backend = inum.backend();
  for (int i : order) {
    const IndexDef& idx = indexes[static_cast<size_t>(i)];
    double build = backend.EstimateIndexSize(idx).total_pages();
    if (pages + build > budget) {
      // Budget respected at every intermediate step, by construction.
      sched.skipped.push_back(idx);
      continue;
    }
    DBD_DCHECK_GE(build, 0.0);
    built[static_cast<size_t>(i)] = 1;
    pages += build;
    double cost = pricer.Cost(built);
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

  // Invariant: the last step's subset-priced cost must equal a
  // from-scratch evaluation of the full scheduled design — the same
  // number Designer::TryEvaluateDesigns reports for it. Recomputing
  // through WorkloadCost on a freshly assembled design (rather than
  // trusting the pricer) cross-checks the subset pricer against the
  // model's per-design reuse path; tests compare it to steps.back().
  PhysicalDesign full;
  for (const ScheduleStep& s : sched.steps) full.AddIndex(s.index);
  sched.final_cost = inum.WorkloadCost(workload, full);
  return sched;
}

}  // namespace

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

  WorkloadPricer pricer(*inum_, workload, indexes);
  std::vector<uint8_t> built(indexes.size(), 0);
  double current = pricer.Cost(built);
  std::vector<int> order;
  const DbmsBackend& backend = inum_->backend();
  GreedyPhase(backend, pricer, indexes, std::move(pinned), &built, &current,
              &order);
  GreedyPhase(backend, pricer, indexes, std::move(rest), &built, &current,
              &order);

  MaterializationSchedule sched =
      Build(*inum_, pricer, workload, indexes, order, constraints);
  for (int v : vetoed) sched.skipped.push_back(indexes[static_cast<size_t>(v)]);
  return sched;
}

MaterializationSchedule MaterializationScheduler::FixedOrder(
    const Workload& workload, const std::vector<IndexDef>& indexes,
    const std::vector<int>& order) {
  WorkloadPricer pricer(*inum_, workload, indexes);
  return Build(*inum_, pricer, workload, indexes, order, DesignConstraints{});
}

MaterializationSchedule MaterializationScheduler::SoloBenefitOrder(
    const Workload& workload, const std::vector<IndexDef>& indexes) {
  WorkloadPricer pricer(*inum_, workload, indexes);
  std::vector<uint8_t> solo(indexes.size(), 0);
  double base = pricer.Cost(solo);
  std::vector<std::pair<double, int>> ranked;
  for (size_t i = 0; i < indexes.size(); ++i) {
    solo[i] = 1;
    double benefit = base - pricer.Cost(solo);
    solo[i] = 0;
    ranked.emplace_back(-benefit, static_cast<int>(i));
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int> order;
  for (auto& [neg, i] : ranked) order.push_back(i);
  return Build(*inum_, pricer, workload, indexes, order, DesignConstraints{});
}

}  // namespace dbdesign
