#include "interaction/doi.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dbdesign {

namespace {

/// One canonical pair (a < b) and its sampled configurations
/// X ⊆ S∖{a,b} (InteractionAnalyzer::PairSamples).
struct SampledPair {
  int a = 0;
  int b = 0;
  std::vector<std::vector<int>> samples;
};

/// How much adding b changes a's benefit on one sample X, normalized by
/// `base` (the query's empty-design cost).
double Interaction(double cx, double cxa, double cxb, double cxab,
                   double base) {
  double benefit_without_b = cx - cxa;
  double benefit_with_b = cxb - cxab;
  return std::abs(benefit_without_b - benefit_with_b) / base;
}

/// One query's worst-case interaction over one pair's samples, every
/// sample priced directly: X, X∪{a}, X∪{b}, X∪{a,b}, in that order.
/// `members` is all zeros on entry and on exit.
double WorstInteraction(InumCostModel::SubsetPricer& pricer,
                        const SampledPair& pair, double base,
                        std::vector<uint8_t>& members) {
  uint8_t& in_a = members[static_cast<size_t>(pair.a)];
  uint8_t& in_b = members[static_cast<size_t>(pair.b)];
  double worst = 0.0;
  for (const std::vector<int>& x : pair.samples) {
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
    worst = std::max(worst, Interaction(cx, cxa, cxb, cxab, base));
  }
  return worst;
}

/// One query's unweighted worst-case interaction for each of `pairs`
/// (out[k] for pairs[k]), priced through `pricer`, which was bound with
/// `stats` as its counter sink.
///
/// When the empty design prices by reuse, so does every subset (reuse
/// prices are monotone: members only lower slot minima and make more
/// plans usable), and a reuse price reads only the members among the
/// pricer's ReusePositions R. Hence a pair with a member outside R
/// interacts exactly 0, and cost(X) == cost(X ∩ R): the row prices each
/// distinct X ∩ R once, through a table indexed by its bitmask over R,
/// whenever that table (2^|R| entries) is no larger than the number of
/// subsets the direct path would price. Otherwise — the empty design
/// fell back to the exact optimizer, or the pricer has no plan set —
/// every pair prices directly, exactly as the assembled designs would.
std::vector<double> QueryContributions(InumCostModel::SubsetPricer& pricer,
                                       size_t n,
                                       std::span<const SampledPair> pairs,
                                       const InumStats& stats) {
  std::vector<double> out(pairs.size(), 0.0);
  std::vector<uint8_t> members(n, 0);
  uint64_t fallbacks = stats.fallback_calls;
  double base = pricer.Cost(members);
  if (base <= 0) return out;
  if (stats.fallback_calls != fallbacks) {
    for (size_t k = 0; k < pairs.size(); ++k) {
      out[k] = WorstInteraction(pricer, pairs[k], base, members);
    }
    return out;
  }

  std::vector<size_t> relevant = pricer.ReusePositions();
  std::vector<int> bit(n, -1);
  for (size_t k = 0; k < relevant.size(); ++k) {
    bit[relevant[k]] = static_cast<int>(k);
  }
  auto sees = [&](const SampledPair& p) {
    return bit[static_cast<size_t>(p.a)] >= 0 &&
           bit[static_cast<size_t>(p.b)] >= 0;
  };
  uint64_t direct = 0;
  for (const SampledPair& p : pairs) {
    if (sees(p)) direct += 4 * p.samples.size();
  }
  if (relevant.size() >= 64 || (uint64_t{1} << relevant.size()) > direct) {
    for (size_t k = 0; k < pairs.size(); ++k) {
      if (sees(pairs[k])) {
        out[k] = WorstInteraction(pricer, pairs[k], base, members);
      }
    }
    return out;
  }

  // Unpriced entries hold NaN; every reuse price is finite.
  std::vector<double> memo(size_t{1} << relevant.size(),
                           std::numeric_limits<double>::quiet_NaN());
  memo[0] = base;
  auto cost = [&](uint64_t mask) {
    double& c = memo[mask];
    if (std::isnan(c)) {
      for (size_t k = 0; k < relevant.size(); ++k) {
        members[relevant[k]] = static_cast<uint8_t>((mask >> k) & 1);
      }
      c = pricer.Cost(members);
    }
    return c;
  };
  for (size_t k = 0; k < pairs.size(); ++k) {
    const SampledPair& p = pairs[k];
    if (!sees(p)) continue;
    uint64_t in_a = uint64_t{1} << bit[static_cast<size_t>(p.a)];
    uint64_t in_b = uint64_t{1} << bit[static_cast<size_t>(p.b)];
    double worst = 0.0;
    for (const std::vector<int>& x : p.samples) {
      uint64_t mx = 0;
      for (int i : x) {
        int j = bit[static_cast<size_t>(i)];
        if (j >= 0) mx |= uint64_t{1} << j;
      }
      double cx = cost(mx);
      double cxa = cost(mx | in_a);
      double cxb = cost(mx | in_b);
      double cxab = cost(mx | in_a | in_b);
      worst = std::max(worst, Interaction(cx, cxa, cxb, cxab, base));
    }
    out[k] = worst;
  }
  return out;
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
  std::vector<SampledPair> pairs;
  pairs.reserve(static_cast<size_t>(n) * (static_cast<size_t>(n) - 1) / 2);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      pairs.push_back(SampledPair{a, b, PairSamples(n, a, b)});
    }
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
        InumCostModel::SubsetPricer pricer = inum_->BindSubsets(
            queries[dedup.distinct[u]], indexes, &deltas[u]);
        per_distinct[u] =
            QueryContributions(pricer, indexes.size(), pairs, deltas[u]);
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
  SampledPair pair{a, b, PairSamples(static_cast<int>(indexes.size()), a, b)};

  InumStats stats;
  double total = 0.0;
  for (size_t qi = 0; qi < workload.size(); ++qi) {
    InumCostModel::SubsetPricer pricer =
        inum_->BindSubsets(workload.queries[qi], indexes, &stats);
    total += workload.WeightOf(qi) *
             QueryContributions(pricer, indexes.size(),
                                std::span<const SampledPair>(&pair, 1),
                                stats)[0];
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
