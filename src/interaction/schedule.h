// Interaction-aware index materialization scheduling (paper §3.5).
//
// Building a recommended index set takes time; the order matters because
// the workload runs while indexes materialize and because interactions
// make an index's benefit depend on what is already built. The scheduler
// orders builds to maximize the cumulative benefit curve ("an
// appropriately scheduled materialization of indexes can lead to higher
// benefit in contrast with a schedule that does not take into account
// index interaction").
//
// The scheduler is constraint-aware (the deployment stage of the
// session loop): pinned indexes are materialized first — the DBA said
// "keep these no matter what", so they come online before speculative
// picks — vetoed indexes are impossible by construction (they land in
// `skipped`, never in a step), and the storage budget is respected at
// every intermediate step: a build that would push cumulative pages
// past the budget is skipped, not deferred, so no prefix of the
// schedule ever exceeds the budget.
//
// Every cost below is an INUM cached-atom reprice: scheduling a warm
// workload makes zero backend optimizer calls. Each structurally
// distinct query is bound once to the index list
// (InumCostModel::BindSubsets), and every greedy trial and schedule
// step prices a membership subset of it, reduced in workload order
// exactly like InumCostModel::WorkloadCost — so a trial's cost is
// bit-identical to WorkloadCost of the assembled design, without
// assembling one.

#ifndef DBDESIGN_INTERACTION_SCHEDULE_H_
#define DBDESIGN_INTERACTION_SCHEDULE_H_

#include <algorithm>
#include <vector>

#include "core/constraints.h"
#include "inum/inum.h"

namespace dbdesign {

struct ScheduleStep {
  IndexDef index;
  double build_pages = 0.0;      ///< proxy for build time
  double cumulative_pages = 0.0; ///< storage in use once this build lands
  double marginal_benefit = 0.0; ///< workload cost drop from this build
  double cost_after = 0.0;       ///< workload cost once this step finishes
  bool pinned = false;           ///< DBA-pinned (scheduled first)
  int cluster = -1;              ///< interaction cluster (-1 = unassigned)
};

struct MaterializationSchedule {
  std::vector<ScheduleStep> steps;
  double base_cost = 0.0;    ///< workload cost before any build
  double final_cost = 0.0;   ///< workload cost with all scheduled indexes
  double total_pages = 0.0;  ///< cumulative pages of the last step
  /// Indexes never scheduled: vetoed, or over the storage budget at
  /// every point they could have been built. Empty whenever the input
  /// set is constraint-feasible (the session path: recommendations are
  /// feasible by construction).
  std::vector<IndexDef> skipped;

  /// Cumulative workload benefit standing after the first k builds
  /// (k = 0 is 0; k = steps.size() is base_cost - final_cost).
  double BenefitAtPrefix(size_t k) const {
    if (k == 0 || steps.empty()) return 0.0;
    return base_cost - steps[std::min(k, steps.size()) - 1].cost_after;
  }

  /// Area under the cumulative-benefit curve, weighting each step's
  /// standing benefit by the build effort of the *next* step (benefit
  /// accrues while later indexes are still building). Higher is better.
  double BenefitArea() const;
};

class MaterializationScheduler {
 public:
  explicit MaterializationScheduler(InumCostModel& inum) : inum_(&inum) {}

  /// Greedy interaction-aware schedule: each step builds the index with
  /// the maximum marginal workload benefit rate given what is already
  /// built. The constraint-aware overload honors `constraints`: pins
  /// first, vetoes skipped, budget respected at every step.
  MaterializationSchedule Greedy(const Workload& workload,
                                 const std::vector<IndexDef>& indexes);
  MaterializationSchedule Greedy(const Workload& workload,
                                 const std::vector<IndexDef>& indexes,
                                 const DesignConstraints& constraints);

  /// Schedule following a fixed order (used for oblivious baselines:
  /// solo-benefit order, random order, adversarial order).
  MaterializationSchedule FixedOrder(const Workload& workload,
                                     const std::vector<IndexDef>& indexes,
                                     const std::vector<int>& order);

  /// Interaction-oblivious baseline: order by each index's solo benefit
  /// (descending), ignoring interactions.
  MaterializationSchedule SoloBenefitOrder(
      const Workload& workload, const std::vector<IndexDef>& indexes);

 private:
  InumCostModel* inum_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_INTERACTION_SCHEDULE_H_
