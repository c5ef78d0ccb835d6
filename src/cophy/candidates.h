// Candidate index generation for the advisors (CoPhy, greedy baseline,
// interaction analysis).
//
// Candidates are mined from the workload's sargable surface: equality
// and range predicate columns, join columns, and GROUP BY / ORDER BY
// prefixes. Multi-column candidates follow the classic recipe of
// equality columns first (most selective leading), then one range
// column, optionally widened into a covering index. Mining needs only
// catalog + statistics, so it runs against any DbmsBackend.

#ifndef DBDESIGN_COPHY_CANDIDATES_H_
#define DBDESIGN_COPHY_CANDIDATES_H_

#include <vector>

#include "backend/backend.h"
#include "catalog/design.h"
#include "core/constraints.h"
#include "sql/bound_query.h"

namespace dbdesign {

struct CandidateOptions {
  /// Maximum total candidates (kept by workload relevance).
  int max_candidates = 64;
  /// Maximum key columns per candidate.
  int max_key_columns = 3;
  /// Also emit covering candidates (key + referenced columns) when the
  /// widened key stays within max_key_columns + 2.
  bool covering_candidates = true;
};

/// A candidate with its estimated size.
struct CandidateIndex {
  IndexDef index;
  double size_pages = 0.0;
  /// Number of workload queries whose predicates the candidate matches.
  int relevant_queries = 0;
};

/// Mines candidates from the workload.
std::vector<CandidateIndex> GenerateCandidates(
    const DbmsBackend& backend, const Workload& workload,
    const CandidateOptions& options = {});

/// Appends the constraints' pinned indexes to `candidates` (sized via
/// the backend) unless already present. CoPhy keeps vetoed candidates
/// in the universe (they become y = 0 fixings so a later un-veto
/// re-solves without re-preparing); advisors without a solver filter
/// them out with RemoveVetoedCandidates instead.
void MergePinnedCandidates(const DbmsBackend& backend,
                           const DesignConstraints& constraints,
                           std::vector<CandidateIndex>* candidates);

/// Drops candidates the constraints veto (directly or via a vetoed
/// column). Used by the greedy baseline and COLT, which enumerate
/// candidates instead of fixing solver variables.
void RemoveVetoedCandidates(const DesignConstraints& constraints,
                            std::vector<CandidateIndex>* candidates);

}  // namespace dbdesign

#endif  // DBDESIGN_COPHY_CANDIDATES_H_
