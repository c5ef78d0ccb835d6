#include "interaction/doi.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dbdesign {

namespace {

/// One query's worst-case interaction over one pair's samples,
/// normalized by `base` (the query's empty-design cost). `members` is
/// all zeros on entry and on exit; each sample X is priced as X,
/// X∪{a}, X∪{b}, X∪{a,b}, in that order.
double WorstInteraction(InumCostModel::SubsetPricer& pricer, int a, int b,
                        const std::vector<std::vector<int>>& samples,
                        double base, std::vector<uint8_t>& members) {
  uint8_t& in_a = members[static_cast<size_t>(a)];
  uint8_t& in_b = members[static_cast<size_t>(b)];
  double worst = 0.0;
  for (const std::vector<int>& x : samples) {
    for (int i : x) members[static_cast<size_t>(i)] = 1;
    double cx = pricer.Cost(members);
    in_a = 1;
    double cxa = pricer.Cost(members);
    in_a = 0;
    in_b = 1;
    double cxb = pricer.Cost(members);
    in_a = 1;
    double cxab = pricer.Cost(members);
    in_a = 0;
    in_b = 0;
    for (int i : x) members[static_cast<size_t>(i)] = 0;
    double benefit_without_b = cx - cxa;
    double benefit_with_b = cxb - cxab;
    worst = std::max(worst,
                     std::abs(benefit_without_b - benefit_with_b) / base);
  }
  return worst;
}

/// One query's unweighted contribution row (all pairs, PairIndex
/// order), priced purely from the populated cache; reuse counters land
/// in `stats`.
std::vector<double> QueryRow(
    InumCostModel& inum, const BoundQuery& query,
    const std::vector<IndexDef>& indexes,
    const std::vector<std::vector<std::vector<int>>>& pair_samples,
    InumStats* stats) {
  std::vector<double> row(pair_samples.size(), 0.0);
  InumCostModel::SubsetPricer pricer =
      inum.BindSubsets(query, indexes, stats);
  std::vector<uint8_t> members(indexes.size(), 0);
  double base = pricer.Cost(members);
  if (base <= 0) return row;
  int n = static_cast<int>(indexes.size());
  size_t p = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b, ++p) {
      row[p] = WorstInteraction(pricer, a, b, pair_samples[p], base, members);
    }
  }
  return row;
}

}  // namespace

int DoiMatrix::PairIndex(int a, int b) const {
  DBD_DCHECK_NE(a, b);  // self-pairs have no triangle slot (DoI is 0)
  if (a > b) std::swap(a, b);
  DBD_DCHECK_GE(a, 0);
  DBD_DCHECK_LT(b, num_indexes);
  return a * (2 * num_indexes - a - 1) / 2 + (b - a - 1);
}

std::vector<InteractionEdge> DoiMatrix::Edges(double min_doi) const {
  std::vector<InteractionEdge> edges;
  for (int a = 0; a < num_indexes; ++a) {
    for (int b = a + 1; b < num_indexes; ++b) {
      double d = doi[static_cast<size_t>(PairIndex(a, b))];
      if (d > min_doi) edges.push_back(InteractionEdge{a, b, d});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const InteractionEdge& x, const InteractionEdge& y) {
              if (x.doi != y.doi) return x.doi > y.doi;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  return edges;
}

std::vector<std::vector<int>> ClustersFromEdges(
    int num_nodes, const std::vector<InteractionEdge>& edges) {
  // Union-find, smaller root wins so roots stay ascending.
  std::vector<int> parent(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) parent[static_cast<size_t>(i)] = i;
  auto find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const InteractionEdge& e : edges) {
    int ra = find(e.a);
    int rb = find(e.b);
    if (ra != rb) {
      parent[static_cast<size_t>(std::max(ra, rb))] = std::min(ra, rb);
    }
  }
  // Group by root; roots appear in ascending order, so clusters are
  // ordered by smallest member and members are sorted.
  std::vector<std::vector<int>> clusters;
  std::vector<int> slot(static_cast<size_t>(num_nodes), -1);
  for (int i = 0; i < num_nodes; ++i) {
    int r = find(i);
    if (slot[static_cast<size_t>(r)] < 0) {
      slot[static_cast<size_t>(r)] = static_cast<int>(clusters.size());
      clusters.emplace_back();
    }
    clusters[static_cast<size_t>(slot[static_cast<size_t>(r)])].push_back(i);
  }
  return clusters;
}

ClusterPartition PartitionFromEdges(int num_nodes,
                                    const std::vector<InteractionEdge>& edges) {
  ClusterPartition part;
  part.clusters = ClustersFromEdges(num_nodes, edges);
  part.cluster_of.assign(static_cast<size_t>(num_nodes), -1);
  for (size_t k = 0; k < part.clusters.size(); ++k) {
    for (int v : part.clusters[k]) {
      part.cluster_of[static_cast<size_t>(v)] = static_cast<int>(k);
    }
  }
  return part;
}

std::vector<std::vector<int>> DoiMatrix::Clusters(double min_doi) const {
  return ClustersFromEdges(num_indexes, Edges(min_doi));
}

ClusterPartition DoiMatrix::Partition(double min_doi) const {
  return PartitionFromEdges(num_indexes, Edges(min_doi));
}

std::vector<std::vector<int>> InteractionAnalyzer::PairSamples(int n, int a,
                                                               int b) const {
  std::vector<int> others;
  for (int i = 0; i < n; ++i) {
    if (i != a && i != b) others.push_back(i);
  }
  // Structured samples: empty, full remainder, each singleton.
  std::vector<std::vector<int>> samples;
  samples.push_back({});
  if (!others.empty()) samples.push_back(others);
  for (int o : others) samples.push_back({o});
  // Random subsets. The seed mixes the canonical (min, max) pair so the
  // sample set — and therefore the DoI — is exactly symmetric.
  int lo = std::min(a, b);
  int hi = std::max(a, b);
  Rng rng(options_.seed ^ (static_cast<uint64_t>(lo) << 32) ^
          static_cast<uint64_t>(hi));
  for (int s = 0; s < options_.random_samples && others.size() >= 2; ++s) {
    std::vector<int> x;
    for (int o : others) {
      if (rng.Bernoulli(0.5)) x.push_back(o);
    }
    samples.push_back(std::move(x));
  }
  return samples;
}

std::vector<std::vector<double>> InteractionAnalyzer::ContributionRows(
    const std::vector<BoundQuery>& queries,
    const std::vector<IndexDef>& indexes) {
  inum_->PrepareQueries(
      std::span<const BoundQuery>(queries.data(), queries.size()));
  // Sample configurations depend only on the pair, not the query: draw
  // them once, share them read-only.
  int n = static_cast<int>(indexes.size());
  std::vector<std::vector<std::vector<int>>> pair_samples;
  pair_samples.reserve(static_cast<size_t>(n) * (static_cast<size_t>(n) - 1) /
                       2);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) pair_samples.push_back(PairSamples(n, a, b));
  }
  // Shard by query: one worker owns a query's cache memos end to end
  // (the engine's ownership model), each writing its own pre-sized row —
  // bit-identical to the serial loop at any thread count. Duplicate
  // queries would race on shared memos, so duplicates of an earlier
  // query are computed by that query's owner.
  StructuralDedup dedup = DedupByStructure(
      std::span<const BoundQuery>(queries.data(), queries.size()));
  std::vector<std::vector<double>> per_distinct(dedup.distinct.size());
  std::vector<InumStats> deltas(dedup.distinct.size());
  int threads =
      ThreadPool::Resolve(inum_->backend().cost_params().num_threads);
  ThreadPool::Shared().ParallelFor(
      dedup.distinct.size(), threads, [&](size_t u) {
        per_distinct[u] = QueryRow(*inum_, queries[dedup.distinct[u]],
                                   indexes, pair_samples, &deltas[u]);
      });
  for (const InumStats& delta : deltas) inum_->AccumulateStats(delta);

  std::vector<std::vector<double>> rows(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    rows[i] = per_distinct[dedup.owner[i]];
  }
  return rows;
}

Result<std::vector<std::vector<double>>>
InteractionAnalyzer::TryContributionRows(
    const std::vector<BoundQuery>& queries,
    const std::vector<IndexDef>& indexes) {
  try {
    return ContributionRows(queries, indexes);
  } catch (const StatusException& e) {
    return e.status();
  }
}

DoiMatrix InteractionAnalyzer::AnalyzeMatrix(
    const Workload& workload, const std::vector<IndexDef>& indexes) {
  DoiMatrix m;
  m.num_indexes = static_cast<int>(indexes.size());
  m.contributions = ContributionRows(workload.queries, indexes);
  size_t num_pairs = indexes.size() * (indexes.size() - 1) / 2;
  m.doi.assign(num_pairs, 0.0);
  // Weighted reduction in workload order — the determinism invariant.
  for (size_t i = 0; i < workload.size(); ++i) {
    // Every contribution row must cover exactly the pair triangle; a
    // short row would silently zero the heaviest pairs.
    DBD_DCHECK_EQ(m.contributions[i].size(), num_pairs);
    double w = workload.WeightOf(i);
    for (size_t p = 0; p < num_pairs; ++p) {
      m.doi[p] += w * m.contributions[i][p];
    }
  }
  return m;
}

double InteractionAnalyzer::PairDoi(const Workload& workload,
                                    const std::vector<IndexDef>& indexes,
                                    int a, int b) {
  if (a == b) return 0.0;  // an index never interacts with itself
  // Canonicalize so PairDoi(a, b) and PairDoi(b, a) run the exact same
  // arithmetic — symmetry holds bit-for-bit, not just mathematically.
  if (a > b) std::swap(a, b);
  inum_->PrepareWorkload(workload);
  int n = static_cast<int>(indexes.size());
  std::vector<std::vector<int>> samples = PairSamples(n, a, b);

  InumStats stats;
  std::vector<uint8_t> members(indexes.size(), 0);
  double total = 0.0;
  for (size_t qi = 0; qi < workload.size(); ++qi) {
    InumCostModel::SubsetPricer pricer =
        inum_->BindSubsets(workload.queries[qi], indexes, &stats);
    double base = pricer.Cost(members);
    if (base <= 0) continue;
    total += workload.WeightOf(qi) *
             WorstInteraction(pricer, a, b, samples, base, members);
  }
  inum_->AccumulateStats(stats);
  return total;
}

std::vector<InteractionEdge> InteractionAnalyzer::Analyze(
    const Workload& workload, const std::vector<IndexDef>& indexes) {
  return AnalyzeMatrix(workload, indexes).Edges();
}

double InteractionAnalyzer::SoloBenefit(const Workload& workload,
                                        const std::vector<IndexDef>& indexes,
                                        int a) {
  PhysicalDesign with;
  with.AddIndex(indexes[static_cast<size_t>(a)]);
  return inum_->WorkloadCost(workload, PhysicalDesign{}) -
         inum_->WorkloadCost(workload, with);
}

size_t ContributionRowBytes(const std::string& key,
                            const std::vector<double>& row) {
  // Flat-rated map-node + string + vector-header overhead; the row
  // payload dominates for any realistic pair count.
  constexpr size_t kEntryOverhead = 96;
  return kEntryOverhead + key.size() + row.size() * sizeof(double);
}

}  // namespace dbdesign
