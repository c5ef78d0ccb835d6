#include "cophy/greedy.h"

#include <algorithm>
#include <chrono>
#include <map>

namespace dbdesign {

GreedyAdvisor::GreedyAdvisor(DbmsBackend& backend, GreedyOptions options)
    : backend_(&backend), options_(options), inum_(backend) {}

Result<GreedyResult> GreedyAdvisor::TryRecommend(
    const Workload& workload, const DesignConstraints& constraints) {
  return TryRecommendWithCandidates(
      workload, GenerateCandidates(*backend_, workload, options_.candidates),
      constraints);
}

Result<GreedyResult> GreedyAdvisor::TryRecommendWithCandidates(
    const Workload& workload,
    const std::vector<CandidateIndex>& candidates,
    const DesignConstraints& constraints) {
  try {
    return Search(workload, candidates, constraints);
  } catch (const StatusException& e) {
    return e.status();
  }
}

Result<GreedyResult> GreedyAdvisor::Search(
    const Workload& workload,
    const std::vector<CandidateIndex>& candidates,
    const DesignConstraints& constraints) {
  Status s = constraints.Validate(backend_->catalog());
  if (!s.ok()) return s;
  auto t0 = std::chrono::steady_clock::now();  // NOLINT(determinism): solve_time_sec telemetry only; never feeds candidate choice or costs
  GreedyResult result;
  inum_.ResetStats();

  std::vector<CandidateIndex> pool = candidates;
  MergePinnedCandidates(*backend_, constraints, &pool);
  RemoveVetoedCandidates(constraints, &pool);
  double budget = constraints.EffectiveBudget(options_.storage_budget_pages);

  PhysicalDesign current;
  result.base_cost = inum_.WorkloadCost(workload, current);

  // Seed the configuration with the DBA's pins before any benefit math:
  // they are mandatory, not candidates to be ranked.
  std::vector<bool> used(pool.size(), false);
  double used_pages = 0.0;
  std::map<TableId, int> per_table;
  for (const IndexDef& pin : constraints.pinned_indexes) {
    for (size_t i = 0; i < pool.size(); ++i) {
      if (!(pool[i].index == pin) || used[i]) continue;
      if (used_pages + pool[i].size_pages > budget) {
        return Status::ResourceExhausted(
            "pinned index " + pin.DisplayName(backend_->catalog()) +
            " does not fit the storage budget");
      }
      used[i] = true;
      used_pages += pool[i].size_pages;
      per_table[pin.table]++;
      current.AddIndex(pin);
    }
  }
  double current_cost = current.indexes().empty()
                            ? result.base_cost
                            : inum_.WorkloadCost(workload, current);

  while (true) {
    int best = -1;
    double best_score = 0.0;
    double best_cost = current_cost;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (used[i]) continue;
      if (used_pages + pool[i].size_pages > budget) continue;
      if (per_table[pool[i].index.table] + 1 >
          constraints.TableCapOrUnlimited(pool[i].index.table)) {
        continue;
      }
      PhysicalDesign trial = current;
      trial.AddIndex(pool[i].index);
      double cost = inum_.WorkloadCost(workload, trial);
      double benefit = current_cost - cost;
      if (benefit <= 1e-9) continue;
      double score = options_.benefit_per_page
                         ? benefit / std::max(1.0, pool[i].size_pages)
                         : benefit;
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(i);
        best_cost = cost;
      }
    }
    if (best < 0) break;
    used[static_cast<size_t>(best)] = true;
    used_pages += pool[static_cast<size_t>(best)].size_pages;
    per_table[pool[static_cast<size_t>(best)].index.table]++;
    current.AddIndex(pool[static_cast<size_t>(best)].index);
    current_cost = best_cost;
    ++result.iterations;
  }

  result.indexes = current.indexes();
  result.total_size_pages = used_pages;
  result.final_cost = current_cost;
  result.cost_evaluations = inum_.stats().reuse_calls;
  result.solve_time_sec =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() -  // NOLINT(determinism): solve_time_sec telemetry only; never feeds candidate choice or costs
          t0)
          .count();
  return result;
}

}  // namespace dbdesign
