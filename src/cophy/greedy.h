// Greedy index advisor — the DTA-style baseline the paper contrasts
// CoPhy against ("these tools are based on greedy heuristics ... and
// often suggest locally optimal solutions instead of the globally
// optimal one").
//
// Classic greedy loop: repeatedly add the candidate with the best
// workload benefit (optionally per storage page) until the budget is
// exhausted or no candidate helps. Cost evaluations go through INUM so
// the comparison against CoPhy isolates search quality, not cost-model
// speed.

#ifndef DBDESIGN_COPHY_GREEDY_H_
#define DBDESIGN_COPHY_GREEDY_H_

#include <limits>
#include <vector>

#include "cophy/candidates.h"
#include "inum/inum.h"

namespace dbdesign {

struct GreedyOptions {
  double storage_budget_pages = std::numeric_limits<double>::infinity();
  /// Rank by benefit/size instead of raw benefit.
  bool benefit_per_page = true;
  CandidateOptions candidates;
};

struct GreedyResult {
  std::vector<IndexDef> indexes;
  double total_size_pages = 0.0;
  double base_cost = 0.0;
  double final_cost = 0.0;
  int iterations = 0;
  uint64_t cost_evaluations = 0;
  double solve_time_sec = 0.0;

  double improvement() const {
    return base_cost > 0 ? 1.0 - final_cost / base_cost : 0.0;
  }
};

class GreedyAdvisor {
 public:
  /// Attaches to a backend (non-owning); cost parameters come from it.
  explicit GreedyAdvisor(DbmsBackend& backend, GreedyOptions options = {});

  /// Constraint-aware recommendation: vetoed candidates are filtered
  /// out, pinned indexes are seeded into the configuration before the
  /// greedy loop (consuming budget and table caps), and the loop honors
  /// per-table caps plus min(options budget, constraint budget). Pins
  /// that do not fit the budget are an error — the greedy baseline has
  /// no partial-feasibility story to fall back on. Backend failures
  /// surface as Status.
  Result<GreedyResult> TryRecommend(
      const Workload& workload, const DesignConstraints& constraints = {});
  Result<GreedyResult> TryRecommendWithCandidates(
      const Workload& workload, const std::vector<CandidateIndex>& candidates,
      const DesignConstraints& constraints = {});

  InumCostModel& inum() { return inum_; }

 private:
  /// TryRecommendWithCandidates' greedy loop; backend failures throw
  /// StatusException.
  Result<GreedyResult> Search(const Workload& workload,
                              const std::vector<CandidateIndex>& candidates,
                              const DesignConstraints& constraints);

  DbmsBackend* backend_;
  GreedyOptions options_;
  InumCostModel inum_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_COPHY_GREEDY_H_
