// Degree of interaction between indexes (paper §3.5, ref [12] —
// Schnaitter, Polyzotis, Getoor, PVLDB 2009).
//
// The benefit of index a under configuration X is
//   b_q(a, X) = cost(q, X) - cost(q, X ∪ {a}).
// Indexes a and b interact in query q when adding b changes a's benefit:
//   doi_q(a, b) = max over X ⊆ S∖{a,b} of
//                 |b_q(a, X) - b_q(a, X ∪ {b})| / cost(q, ∅),
// and the workload degree is the weighted sum over queries. Exhaustive
// maximization over X is exponential; following the paper's stability
// observation we sample structured subsets (empty, singletons, the full
// remainder, plus random subsets), each needing the 4 costs of X,
// X∪{a}, X∪{b} and X∪{a,b}. Each query is bound once to the candidate
// list (InumCostModel::BindSubsets), and every cost is a subset reprice
// of that binding — a minimum over the cached plans with no per-call
// hashing or design assembly: once the workload is populated, a full
// DoI matrix makes ZERO backend optimizer calls.
//
// Most of those costs repeat. A query's reuse price reads only its
// relevant indexes R (SubsetPricer::ReusePositions: a usable leaf in
// some slot or a lookup price in some lookup group), so whenever the
// empty design prices by reuse — and then every subset does, since
// reuse prices are monotone in the design — a query's row
//   * writes an exact 0 for every pair with a member outside R
//     (adding it changes no cost, bit for bit), and
//   * prices every other sample through a per-row table indexed by the
//     bitmask of X ∩ R (cost(X) == cost(X ∩ R)): at most 2^|R| prices,
//     each computed once, on first use. The table is used only when its
//     2^|R| entries are no more than the subsets the direct path would
//     price for the row's relevant pairs; a wider row prices those
//     pairs directly.
// A row whose empty design falls back to the exact optimizer (the
// pricer has no plan set: force_exact, an over-wide or unpopulated
// query) prices every sample directly, making exactly the backend calls
// the assembled designs would, in the same order. InumStats::
// reuse_calls counts the subsets actually priced, so a table hit is
// not a reuse call.
//
// Hard properties (tested in properties_test):
//   * symmetry: PairDoi(a, b) == PairDoi(b, a) bit-for-bit (pairs are
//     canonicalized to (min, max) before any arithmetic or sampling),
//   * zero self-interaction: PairDoi(a, a) == 0,
//   * determinism: AnalyzeMatrix shards work by query over the thread
//     pool and reduces in workload order, so the matrix is bit-identical
//     at any thread count.

#ifndef DBDESIGN_INTERACTION_DOI_H_
#define DBDESIGN_INTERACTION_DOI_H_

#include <vector>

#include "inum/inum.h"

namespace dbdesign {

struct DoiOptions {
  /// Random configuration samples per pair (plus structured ones).
  int random_samples = 8;
  uint64_t seed = 20100610;  // demo date
};

/// One weighted interaction edge between candidate positions a < b.
struct InteractionEdge {
  int a = 0;
  int b = 0;
  double doi = 0.0;

  bool operator==(const InteractionEdge&) const = default;
};

/// Connected components of `num_nodes` vertices under `edges`:
/// singletons included, clusters ordered by smallest member, members
/// ascending. Shared by DoiMatrix::Clusters and
/// InteractionGraph::Clusters.
std::vector<std::vector<int>> ClustersFromEdges(
    int num_nodes, const std::vector<InteractionEdge>& edges);

/// A cluster decomposition with membership lookup: `clusters` is exactly
/// what ClustersFromEdges returns (ordered by smallest member, members
/// ascending — deterministic by construction), and `cluster_of[v]` is
/// the position in `clusters` of the cluster containing node v. This is
/// the form the CoPhy solver consumes: membership is needed per
/// CANDIDATE (to route a pin/veto to the one subproblem it dirties),
/// not just per recommended index.
struct ClusterPartition {
  std::vector<std::vector<int>> clusters;
  std::vector<int> cluster_of;

  int num_nodes() const { return static_cast<int>(cluster_of.size()); }
  int num_clusters() const { return static_cast<int>(clusters.size()); }
  bool empty() const { return clusters.empty(); }
};

/// ClustersFromEdges plus the inverse membership map.
ClusterPartition PartitionFromEdges(int num_nodes,
                                    const std::vector<InteractionEdge>& edges);

/// The full pairwise DoI matrix over a candidate set, plus the
/// per-query contribution rows behind it. The rows are what make the
/// matrix incrementally maintainable: doi(a,b) is the weighted sum of
/// per-query contributions, so a workload delta only has to (re)compute
/// the rows of the queries it touched — DesignSession caches rows per
/// template class and reuses every untouched one.
struct DoiMatrix {
  int num_indexes = 0;
  /// Upper triangle in PairIndex order: weighted workload DoI per pair.
  std::vector<double> doi;
  /// contributions[i][p]: query i's unweighted worst-case interaction
  /// for pair p (doi[p] = sum_i weight_i * contributions[i][p]).
  std::vector<std::vector<double>> contributions;

  /// Dense upper-triangle position of pair (a, b), order-insensitive.
  int PairIndex(int a, int b) const;
  double Doi(int a, int b) const {
    return a == b ? 0.0 : doi[static_cast<size_t>(PairIndex(a, b))];
  }
  size_t num_pairs() const { return doi.size(); }

  /// Edges with doi > min_doi, sorted heaviest first (ties broken by
  /// (a, b) so the order is deterministic).
  std::vector<InteractionEdge> Edges(double min_doi = 1e-6) const;

  /// Connected components of the interaction graph induced by edges
  /// with doi > min_doi: indexes in different clusters do not interact,
  /// so their deployment benefits compose independently. Singleton
  /// clusters included; clusters ordered by smallest member.
  std::vector<std::vector<int>> Clusters(double min_doi = 1e-6) const;

  /// Clusters plus per-index membership (see ClusterPartition).
  ClusterPartition Partition(double min_doi = 1e-6) const;
};

class InteractionAnalyzer {
 public:
  explicit InteractionAnalyzer(InumCostModel& inum, DoiOptions options = {})
      : inum_(&inum), options_(options) {}

  /// Degree of interaction for one pair within candidate set `indexes`.
  /// Exactly symmetric in (a, b); zero when a == b.
  double PairDoi(const Workload& workload,
                 const std::vector<IndexDef>& indexes, int a, int b);

  /// The full pairwise matrix. Populates INUM for the workload once,
  /// then computes every query's contribution row via cached-atom
  /// repricing — queries fan out across the thread pool (shard by
  /// query, matching the costing engine's ownership model) and the
  /// weighted reduction runs in workload order, so the result is
  /// bit-identical at any backend num_threads setting.
  DoiMatrix AnalyzeMatrix(const Workload& workload,
                          const std::vector<IndexDef>& indexes);

  /// Contribution rows for `queries` only (each row in input order),
  /// against the same pair layout AnalyzeMatrix uses for `indexes`.
  /// The incremental entry point: DesignSession calls this for the
  /// template classes whose atoms changed and stitches the rows into
  /// its cached matrix.
  std::vector<std::vector<double>> ContributionRows(
      const std::vector<BoundQuery>& queries,
      const std::vector<IndexDef>& indexes);

  /// Status-returning form of ContributionRows: cached-atom repricing
  /// is client-side, but an unseen query (or an over-wide one) falls
  /// back to the backend — a backend failure there cancels the
  /// remaining per-query shards and returns as its Status instead of
  /// aborting or poisoning the matrix.
  Result<std::vector<std::vector<double>>> TryContributionRows(
      const std::vector<BoundQuery>& queries,
      const std::vector<IndexDef>& indexes);

  /// All pairwise interactions; edges with doi ~ 0 are dropped.
  std::vector<InteractionEdge> Analyze(const Workload& workload,
                                       const std::vector<IndexDef>& indexes);

  /// Individual benefit of indexes[a] on the empty configuration.
  double SoloBenefit(const Workload& workload,
                     const std::vector<IndexDef>& indexes, int a);

  /// The sampled configurations X ⊆ S∖{a,b} (positions into the
  /// candidate list) for one (canonical, a < b) pair. Depends only on
  /// (n, a, b, options) — query-independent, so the matrix entry points
  /// draw each pair's samples once and share them read-only across the
  /// per-query workers.
  std::vector<std::vector<int>> PairSamples(int n, int a, int b) const;

 private:
  InumCostModel* inum_;
  DoiOptions options_;
};

/// Approximate in-memory footprint of one cached contribution row under
/// its cache key (DesignSession keys rows by the template class's SQL
/// rendering) — the accounting unit for CacheBudget::doi_rows_bytes.
/// Deterministic (it reads sizes, not capacities), so eviction order
/// under a budget is bit-stable across runs.
size_t ContributionRowBytes(const std::string& key,
                            const std::vector<double>& row);

}  // namespace dbdesign

#endif  // DBDESIGN_INTERACTION_DOI_H_
