// Reference pricing for the deployment stage: DoI samples and greedy
// schedule trials priced one assembled PhysicalDesign at a time through
// InumCostModel::Cost / WorkloadCost. This is the straightforward form
// of the algorithm; the library prices the same configurations as
// subsets of a bound index list, and the interaction tests and
// bench_schedule assert that both agree bit for bit.

#ifndef DBDESIGN_TESTS_INTERACTION_REFERENCE_H_
#define DBDESIGN_TESTS_INTERACTION_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "interaction/doi.h"
#include "interaction/schedule.h"

namespace dbdesign::reference {

inline PhysicalDesign DesignOf(const std::vector<IndexDef>& indexes,
                               const std::vector<int>& members) {
  PhysicalDesign d;
  for (int i : members) d.AddIndex(indexes[static_cast<size_t>(i)]);
  return d;
}

/// Query `q`'s unweighted worst-case interaction of pair (a < b).
inline double Worst(InumCostModel& inum, const InteractionAnalyzer& analyzer,
                    const BoundQuery& q, const std::vector<IndexDef>& indexes,
                    int a, int b, double base) {
  int n = static_cast<int>(indexes.size());
  double worst = 0.0;
  for (std::vector<int> x : analyzer.PairSamples(n, a, b)) {
    double cx = inum.Cost(q, DesignOf(indexes, x));
    x.push_back(a);
    double cxa = inum.Cost(q, DesignOf(indexes, x));
    x.back() = b;
    double cxb = inum.Cost(q, DesignOf(indexes, x));
    x.push_back(a);
    double cxab = inum.Cost(q, DesignOf(indexes, x));
    worst = std::max(worst, std::abs((cx - cxa) - (cxb - cxab)) / base);
  }
  return worst;
}

/// One query's contribution row, in DoiMatrix::PairIndex order.
inline std::vector<double> Row(InumCostModel& inum,
                               const InteractionAnalyzer& analyzer,
                               const BoundQuery& q,
                               const std::vector<IndexDef>& indexes) {
  int n = static_cast<int>(indexes.size());
  std::vector<double> row;
  double base = inum.Cost(q, PhysicalDesign{});
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      row.push_back(base <= 0 ? 0.0
                              : Worst(inum, analyzer, q, indexes, a, b, base));
    }
  }
  return row;
}

inline DoiMatrix Matrix(InumCostModel& inum,
                        const InteractionAnalyzer& analyzer,
                        const Workload& w,
                        const std::vector<IndexDef>& indexes) {
  DoiMatrix m;
  m.num_indexes = static_cast<int>(indexes.size());
  m.doi.assign(indexes.size() * (indexes.size() - 1) / 2, 0.0);
  for (size_t i = 0; i < w.size(); ++i) {
    m.contributions.push_back(Row(inum, analyzer, w.queries[i], indexes));
    for (size_t p = 0; p < m.doi.size(); ++p) {
      m.doi[p] += w.WeightOf(i) * m.contributions[i][p];
    }
  }
  return m;
}

inline double PairDoi(InumCostModel& inum, const InteractionAnalyzer& analyzer,
                      const Workload& w, const std::vector<IndexDef>& indexes,
                      int a, int b) {
  if (a == b) return 0.0;
  if (a > b) std::swap(a, b);
  double total = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    double base = inum.Cost(w.queries[i], PhysicalDesign{});
    if (base <= 0) continue;
    total += w.WeightOf(i) *
             Worst(inum, analyzer, w.queries[i], indexes, a, b, base);
  }
  return total;
}

/// The constraint-aware greedy schedule: pins first, vetoes skipped,
/// each trial a WorkloadCost of the assembled design, budget-checked
/// steps.
inline MaterializationSchedule Greedy(InumCostModel& inum, const Workload& w,
                                      const std::vector<IndexDef>& indexes,
                                      const DesignConstraints& c) {
  const DbmsBackend& backend = inum.backend();
  auto pages = [&](int i) {
    return backend.EstimateIndexSize(indexes[static_cast<size_t>(i)])
        .total_pages();
  };
  std::vector<int> pinned, rest, order;
  for (int i = 0; i < static_cast<int>(indexes.size()); ++i) {
    const IndexDef& idx = indexes[static_cast<size_t>(i)];
    if (c.IsVetoed(idx)) continue;
    (c.IsPinned(idx) ? pinned : rest).push_back(i);
  }
  double current = inum.WorkloadCost(w, PhysicalDesign{});
  for (std::vector<int>* phase : {&pinned, &rest}) {
    while (!phase->empty()) {
      size_t best_pos = 0;
      double best_score = -std::numeric_limits<double>::infinity();
      double best_cost = current;
      for (size_t p = 0; p < phase->size(); ++p) {
        std::vector<int> trial = order;
        trial.push_back((*phase)[p]);
        double cost = inum.WorkloadCost(w, DesignOf(indexes, trial));
        double score = (current - cost) / std::max(1.0, pages((*phase)[p]));
        if (score > best_score) {
          best_score = score;
          best_pos = p;
          best_cost = cost;
        }
      }
      order.push_back((*phase)[best_pos]);
      phase->erase(phase->begin() + static_cast<std::ptrdiff_t>(best_pos));
      current = best_cost;
    }
  }

  MaterializationSchedule s;
  s.base_cost = inum.WorkloadCost(w, PhysicalDesign{});
  std::vector<int> built;
  double prev = s.base_cost;
  for (int i : order) {
    const IndexDef& idx = indexes[static_cast<size_t>(i)];
    if (s.total_pages + pages(i) > c.storage_budget_pages) {
      s.skipped.push_back(idx);
      continue;
    }
    built.push_back(i);
    s.total_pages += pages(i);
    ScheduleStep step;
    step.index = idx;
    step.build_pages = pages(i);
    step.cumulative_pages = s.total_pages;
    step.cost_after = inum.WorkloadCost(w, DesignOf(indexes, built));
    step.marginal_benefit = prev - step.cost_after;
    step.pinned = c.IsPinned(idx);
    prev = step.cost_after;
    s.steps.push_back(step);
  }
  s.final_cost = inum.WorkloadCost(w, DesignOf(indexes, built));
  for (const IndexDef& idx : indexes) {
    if (c.IsVetoed(idx)) s.skipped.push_back(idx);
  }
  return s;
}

/// Field-by-field bit equality of two schedules (cluster annotations
/// aside: the scheduler leaves them unassigned).
inline bool SameSchedule(const MaterializationSchedule& x,
                         const MaterializationSchedule& y) {
  if (x.steps.size() != y.steps.size() || !(x.skipped == y.skipped) ||
      x.base_cost != y.base_cost || x.final_cost != y.final_cost ||
      x.total_pages != y.total_pages) {
    return false;
  }
  for (size_t k = 0; k < x.steps.size(); ++k) {
    const ScheduleStep& a = x.steps[k];
    const ScheduleStep& b = y.steps[k];
    if (!(a.index == b.index) || a.build_pages != b.build_pages ||
        a.cumulative_pages != b.cumulative_pages ||
        a.marginal_benefit != b.marginal_benefit ||
        a.cost_after != b.cost_after || a.pinned != b.pinned) {
      return false;
    }
  }
  return true;
}

}  // namespace dbdesign::reference

#endif  // DBDESIGN_TESTS_INTERACTION_REFERENCE_H_
