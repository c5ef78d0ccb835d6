// AutoPart: automatic partition suggestion (paper §3.3, ref [8] —
// Papadomanolakis & Ailamaki, SSDBM'04).
//
// Vertical partitioning follows AutoPart's algorithm shape:
//   1. *Atomic fragments*: group each table's columns by identical
//      query-access patterns (two columns fuse iff exactly the same
//      workload queries touch them).
//   2. *Greedy combination*: repeatedly merge the fragment pair whose
//      union lowers the estimated workload cost the most (fragments are
//      only considered when some query co-accesses them).
//   3. *Replication*: columns may additionally be copied into other
//      fragments while total storage stays within the space constraint
//      ("space limitations for replicating columns in the partition").
// Horizontal partitioning derives range bounds from the workload's
// predicate columns and keeps them when they reduce cost.
//
// Cost evaluation uses the partition-aware INUM extension, so the
// greedy loop runs without full optimizer calls.

#ifndef DBDESIGN_AUTOPART_AUTOPART_H_
#define DBDESIGN_AUTOPART_AUTOPART_H_

#include <string>
#include <vector>

#include "core/constraints.h"
#include "inum/inum.h"

namespace dbdesign {

struct AutoPartOptions {
  /// Stored-bytes / original-bytes ceiling for column replication.
  double replication_budget_factor = 1.2;
  int max_merge_iterations = 64;
  bool enable_horizontal = true;
  /// Number of range partitions to propose per table.
  int horizontal_partitions = 12;
  /// Only tables at least this many pages are worth partitioning.
  double min_table_pages = 8.0;
};

struct PartitionRecommendation {
  /// Vertical + horizontal partitionings (no indexes).
  PhysicalDesign design;

  double base_cost = 0.0;
  double final_cost = 0.0;
  std::vector<double> per_query_cost;       ///< under `design`
  std::vector<double> per_query_base_cost;  ///< under the original schema

  struct TableReport {
    TableId table = kInvalidTableId;
    int num_fragments = 0;
    double replication_factor = 1.0;
    bool horizontal = false;
    int horizontal_parts = 0;
  };
  std::vector<TableReport> tables;

  double improvement() const {
    return base_cost > 0 ? 1.0 - final_cost / base_cost : 0.0;
  }
  double AverageBenefit() const { return improvement(); }
};

class AutoPartAdvisor {
 public:
  /// Attaches to a backend (non-owning); cost parameters come from it.
  explicit AutoPartAdvisor(DbmsBackend& backend, AutoPartOptions options = {});

  /// Recommends vertical and horizontal partitions for the workload.
  /// Tables outside the constraints' partitioning allow list (or on its
  /// deny list, or everything when partitioning is disabled) are left
  /// untouched — no vertical fragments, no horizontal ranges. Backend
  /// failures surface as Status.
  Result<PartitionRecommendation> Recommend(
      const Workload& workload, const DesignConstraints& constraints = {});

  /// Rewrites a query onto the fragments of `design` (the demo's "save
  /// the rewritten queries" feature): fragments joined back on the
  /// implicit row id.
  std::string RewriteQuery(const BoundQuery& query,
                           const PhysicalDesign& design) const;

  InumCostModel& inum() { return inum_; }

 private:
  /// Recommend's body; backend failures throw StatusException.
  PartitionRecommendation Search(const Workload& workload,
                                 const DesignConstraints& constraints);

  /// Builds atomic fragments for one table from query access patterns.
  std::vector<VerticalFragment> AtomicFragments(
      TableId table, const Workload& workload) const;

  DbmsBackend* backend_;
  AutoPartOptions options_;
  InumCostModel inum_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_AUTOPART_AUTOPART_H_
