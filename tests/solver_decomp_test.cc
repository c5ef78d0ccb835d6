// Differential tests for cluster-decomposed BIP solving: for every
// synthetic workload and constraint mix, SolvePrepared in kAuto mode
// (decomposed, cached, warm-started) must return a recommendation
// bit-identical to a forced monolithic solve of the same problem —
// indexes, total size, per-query costs and recommended cost compared
// with exact double equality. The 1e-5/page tie-break makes the BIP
// optimum unique, which is what licenses the exact comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "backend/inmemory_backend.h"
#include "cophy/cophy.h"
#include "core/constraints.h"
#include "synthetic_cophy.h"
#include "util/rng.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

using synthetic::EnumerateIndexDefs;
using synthetic::TotalSize;

class DecompTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SdssConfig cfg;
    cfg.photoobj_rows = 800;
    cfg.seed = 3;
    db_ = new Database(BuildSdssDatabase(cfg));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* DecompTest::db_ = nullptr;

struct PreparedSpec {
  uint64_t seed = 1;
  int num_groups = 4;        ///< independent candidate groups
  int cands_per_group = 4;   ///< candidates per group
  int rows_per_group = 3;    ///< query rows confined to one group
  int cross_rows = 0;        ///< rows straddling two groups (merges them)
  int free_rows = 1;         ///< rows with only the index-free atom
};

// Builds a synthetic prepared state whose cluster structure is exactly
// the group structure: each row's atoms reference only its group's
// candidates (plus the index-free anchor), so PartitionFromEdges yields
// one cluster per group unless cross_rows merge some.
CoPhyPrepared MakePrepared(const Database& db, const PreparedSpec& spec) {
  Rng rng(spec.seed);
  int ny = spec.num_groups * spec.cands_per_group;
  std::vector<IndexDef> defs = EnumerateIndexDefs(db.catalog(), ny);
  EXPECT_EQ(static_cast<int>(defs.size()), ny) << "catalog too small";

  CoPhyPrepared prep;
  for (int i = 0; i < ny; ++i) {
    CandidateIndex c;
    c.index = defs[static_cast<size_t>(i)];
    c.size_pages = rng.UniformDouble(50.0, 400.0);
    c.relevant_queries = 1;
    prep.candidates.push_back(std::move(c));
  }
  prep.universe_fingerprint = CandidateUniverseFingerprint(prep.candidates);

  auto add_row = [&](const std::vector<int>& group_cands, double weight) {
    auto row = std::make_shared<CoPhyAtomRow>();
    double base = rng.UniformDouble(80.0, 160.0);
    row->base_cost = base;
    row->atoms.push_back(CoPhyAtom{base, {}});  // index-free anchor
    for (int i : group_cands) {
      row->atoms.push_back(CoPhyAtom{base * rng.UniformDouble(0.3, 0.95), {i}});
    }
    // A few pair atoms: cheaper than either single, coupling the pair.
    for (size_t t = 0; t + 1 < group_cands.size(); t += 2) {
      std::vector<int> used = {group_cands[t], group_cands[t + 1]};
      std::sort(used.begin(), used.end());
      row->atoms.push_back(
          CoPhyAtom{base * rng.UniformDouble(0.15, 0.4), std::move(used)});
    }
    std::sort(row->atoms.begin(), row->atoms.end(),
              [](const CoPhyAtom& a, const CoPhyAtom& b) {
                return a.cost < b.cost;
              });
    prep.num_atoms += row->atoms.size();
    prep.rows.push_back(std::move(row));
    prep.weights.push_back(weight);
    prep.base_cost += weight * base;
  };

  for (int g = 0; g < spec.num_groups; ++g) {
    std::vector<int> members;
    for (int j = 0; j < spec.cands_per_group; ++j) {
      members.push_back(g * spec.cands_per_group + j);
    }
    for (int r = 0; r < spec.rows_per_group; ++r) {
      add_row(members, rng.UniformDouble(0.5, 2.0));
    }
  }
  for (int r = 0; r < spec.cross_rows; ++r) {
    // Straddle two adjacent groups (rotating), merging their clusters.
    int g = r % std::max(1, spec.num_groups - 1);
    std::vector<int> members = {g * spec.cands_per_group,
                                (g + 1) * spec.cands_per_group};
    add_row(members, rng.UniformDouble(0.5, 2.0));
  }
  for (int r = 0; r < spec.free_rows; ++r) {
    add_row({}, rng.UniformDouble(0.5, 2.0));  // row_cluster == -1
  }
  prep.RefreshClusters();
  return prep;
}

IndexRecommendation Solve(
    const Database& db, const CoPhyPrepared& prep,
    const DesignConstraints& cons, CoPhySolveMode mode, double budget_pages,
    CoPhySolverCache* cache = nullptr) {
  CoPhyOptions opts;
  opts.storage_budget_pages = budget_pages;
  opts.solve_mode = mode;
  InMemoryBackend backend(db);
  CoPhyAdvisor advisor(backend, opts);
  Result<IndexRecommendation> rec = advisor.SolvePrepared(prep, cons, cache);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  return std::move(rec).value();
}

// The bit-identity contract: everything derived from the chosen y set
// must match EXACTLY (not approximately) between the two solve paths.
// Telemetry (lower_bound, gap, node/pivot counts) may differ.
void ExpectBitIdentical(const IndexRecommendation& a,
                        const IndexRecommendation& b) {
  ASSERT_EQ(a.indexes.size(), b.indexes.size());
  for (size_t i = 0; i < a.indexes.size(); ++i) {
    EXPECT_TRUE(a.indexes[i] == b.indexes[i]) << "index " << i;
  }
  EXPECT_EQ(a.total_size_pages, b.total_size_pages);
  EXPECT_EQ(a.recommended_cost, b.recommended_cost);
  ASSERT_EQ(a.per_query_cost.size(), b.per_query_cost.size());
  for (size_t q = 0; q < a.per_query_cost.size(); ++q) {
    EXPECT_EQ(a.per_query_cost[q], b.per_query_cost[q]) << "query " << q;
  }
  EXPECT_EQ(a.infeasible_pins.size(), b.infeasible_pins.size());
  // Both paths prove optimality (decomposed falls back when it cannot).
  EXPECT_EQ(a.proven_optimal, b.proven_optimal);
  EXPECT_NEAR(a.lower_bound, b.lower_bound,
              1e-6 * std::max(1.0, std::abs(a.lower_bound)));
}

TEST_F(DecompTest, UnconstrainedMatchesMonolithicAcrossSeeds) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    PreparedSpec spec;
    spec.seed = seed;
    CoPhyPrepared prep = MakePrepared(*db_, spec);
    ASSERT_GE(prep.clusters.num_clusters(), spec.num_groups);
    DesignConstraints cons;
    double budget = TotalSize(prep);  // generous: clusters never compete
    IndexRecommendation mono =
        Solve(*db_, prep, cons, CoPhySolveMode::kMonolithic, budget);
    IndexRecommendation decomp =
        Solve(*db_, prep, cons, CoPhySolveMode::kAuto, budget);
    EXPECT_TRUE(mono.solved_monolithic);
    EXPECT_FALSE(decomp.solved_monolithic)
        << "seed " << seed << ": generous budget must not fall back";
    EXPECT_EQ(decomp.clusters_solved, spec.num_groups);
    ExpectBitIdentical(decomp, mono);
  }
}

TEST_F(DecompTest, ConstraintMixesMatchMonolithic) {
  for (uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    PreparedSpec spec;
    spec.seed = seed;
    spec.num_groups = 3;
    spec.cands_per_group = 5;
    CoPhyPrepared prep = MakePrepared(*db_, spec);
    double budget = TotalSize(prep);

    // Pins (one per group boundary), vetoes, and per-table caps at once.
    DesignConstraints cons;
    cons.pinned_indexes.push_back(prep.candidates[0].index);
    cons.pinned_indexes.push_back(
        prep.candidates[static_cast<size_t>(spec.cands_per_group)].index);
    cons.vetoed_indexes.push_back(prep.candidates[1].index);
    cons.vetoed_indexes.push_back(
        prep.candidates[prep.candidates.size() - 1].index);
    for (const CandidateIndex& c : prep.candidates) {
      cons.max_indexes_per_table[c.index.table] = 4;
    }
    ASSERT_TRUE(cons.Validate(db_->catalog()).ok());

    IndexRecommendation mono =
        Solve(*db_, prep, cons, CoPhySolveMode::kMonolithic, budget);
    IndexRecommendation decomp =
        Solve(*db_, prep, cons, CoPhySolveMode::kAuto, budget);
    ExpectBitIdentical(decomp, mono);
  }
}

TEST_F(DecompTest, TightBudgetStraddlingClustersArbitratedExactly) {
  PreparedSpec spec;
  spec.seed = 21;
  CoPhyPrepared prep = MakePrepared(*db_, spec);
  // Pick a budget each of the two cheapest clusters can afford alone
  // but not together: both want to build (every single-index atom beats
  // the index-free anchor by far more than the tie-break), so the
  // budget genuinely binds ACROSS clusters. The allocation DP must
  // arbitrate the split over per-cluster frontiers — staying decomposed
  // — and still land on the exact monolithic optimum.
  std::vector<double> cluster_min;
  for (const std::vector<int>& ck : prep.clusters.clusters) {
    double m = std::numeric_limits<double>::infinity();
    for (int i : ck) {
      m = std::min(m, prep.candidates[static_cast<size_t>(i)].size_pages);
    }
    cluster_min.push_back(m);
  }
  std::sort(cluster_min.begin(), cluster_min.end());
  ASSERT_GE(cluster_min.size(), 2u);
  double straddle = (cluster_min[0] + cluster_min[1]) * 0.95;
  ASSERT_GE(straddle, cluster_min[1]);  // both clusters can afford theirs

  DesignConstraints cons;
  for (double budget :
       {straddle, cluster_min[0] * 1.05, TotalSize(prep) * 0.5}) {
    IndexRecommendation mono =
        Solve(*db_, prep, cons, CoPhySolveMode::kMonolithic, budget);
    IndexRecommendation decomp =
        Solve(*db_, prep, cons, CoPhySolveMode::kAuto, budget);
    ExpectBitIdentical(decomp, mono);
  }
  IndexRecommendation straddled =
      Solve(*db_, prep, cons, CoPhySolveMode::kAuto, straddle);
  EXPECT_FALSE(straddled.solved_monolithic)
      << "a binding cross-cluster budget must be arbitrated by the "
         "allocation DP, not punted to the monolithic fallback";
}

TEST_F(DecompTest, CapStraddlingClustersFallsBackAndMatches) {
  // Per-table caps are the one coupling the decomposition only relaxes:
  // each cluster solves under the FULL cap. All candidates here are
  // single-column indexes on the same table, so a cap of 1 binds across
  // every cluster at once; each per-cluster optimum builds its best
  // index, the stitched union overshoots the cap, and the solver must
  // detect the violation and arbitrate via the monolithic fallback.
  PreparedSpec spec;
  spec.seed = 22;
  CoPhyPrepared prep = MakePrepared(*db_, spec);
  for (const CandidateIndex& c : prep.candidates) {
    ASSERT_EQ(c.index.table, prep.candidates[0].index.table);
  }
  DesignConstraints cons;
  cons.max_indexes_per_table[prep.candidates[0].index.table] = 1;
  ASSERT_TRUE(cons.Validate(db_->catalog()).ok());
  double budget = TotalSize(prep);  // storage is free; only the cap binds
  IndexRecommendation mono =
      Solve(*db_, prep, cons, CoPhySolveMode::kMonolithic, budget);
  IndexRecommendation decomp =
      Solve(*db_, prep, cons, CoPhySolveMode::kAuto, budget);
  EXPECT_TRUE(decomp.solved_monolithic)
      << "a cap binding across clusters must force the fallback";
  ExpectBitIdentical(decomp, mono);
  // Size telemetry totals every BIP the call solved: the cluster
  // attempts plus the monolithic fallback, not the fallback alone.
  EXPECT_GT(decomp.clusters_solved, 0);
  EXPECT_GT(decomp.num_variables, mono.num_variables);
  EXPECT_GT(decomp.num_constraints, mono.num_constraints);
}

TEST_F(DecompTest, SingleClusterDegeneracyMatches) {
  // Enough cross rows to weld every group into ONE cluster: the
  // decomposed path then solves exactly one subproblem — the monolithic
  // BIP in different clothes — and must still agree.
  PreparedSpec spec;
  spec.seed = 31;
  spec.num_groups = 3;
  spec.cross_rows = 3;
  CoPhyPrepared prep = MakePrepared(*db_, spec);
  ASSERT_EQ(prep.clusters.num_clusters(), 1);
  DesignConstraints cons;
  double budget = TotalSize(prep);
  IndexRecommendation mono =
      Solve(*db_, prep, cons, CoPhySolveMode::kMonolithic, budget);
  IndexRecommendation decomp =
      Solve(*db_, prep, cons, CoPhySolveMode::kAuto, budget);
  EXPECT_EQ(decomp.clusters_solved, 1);
  ExpectBitIdentical(decomp, mono);
}

TEST_F(DecompTest, CacheReusesCleanClustersAcrossVeto) {
  PreparedSpec spec;
  spec.seed = 41;
  spec.num_groups = 4;
  CoPhyPrepared prep = MakePrepared(*db_, spec);
  double budget = TotalSize(prep);
  CoPhySolverCache cache;

  DesignConstraints cons;
  IndexRecommendation first =
      Solve(*db_, prep, cons, CoPhySolveMode::kAuto, budget, &cache);
  ASSERT_FALSE(first.solved_monolithic);
  EXPECT_EQ(first.clusters_solved, spec.num_groups);
  EXPECT_EQ(first.clusters_reused, 0);

  // Identical re-solve: every cluster signature matches, nothing runs.
  IndexRecommendation again =
      Solve(*db_, prep, cons, CoPhySolveMode::kAuto, budget, &cache);
  EXPECT_EQ(again.clusters_solved, 0);
  EXPECT_EQ(again.clusters_reused, spec.num_groups);
  EXPECT_EQ(again.bnb_nodes, 0);
  EXPECT_EQ(again.lp_pivots, 0);
  ExpectBitIdentical(again, first);

  // Veto one recommended index: only ITS cluster re-solves (warm), the
  // other clusters' optima are reused verbatim — and the answer still
  // matches a cold monolithic solve under the same constraints.
  ASSERT_FALSE(first.indexes.empty());
  DesignConstraints vetoed = cons;
  vetoed.vetoed_indexes.push_back(first.indexes.front());
  IndexRecommendation refined =
      Solve(*db_, prep, vetoed, CoPhySolveMode::kAuto, budget, &cache);
  EXPECT_EQ(refined.clusters_solved, 1);
  EXPECT_EQ(refined.clusters_reused, spec.num_groups - 1);
  IndexRecommendation mono =
      Solve(*db_, prep, vetoed, CoPhySolveMode::kMonolithic, budget);
  ExpectBitIdentical(refined, mono);
}

TEST_F(DecompTest, CacheSelfInvalidatesOnUniverseChange) {
  PreparedSpec spec;
  spec.seed = 51;
  CoPhyPrepared prep = MakePrepared(*db_, spec);
  double budget = TotalSize(prep);
  CoPhySolverCache cache;
  DesignConstraints cons;
  Solve(*db_, prep, cons, CoPhySolveMode::kAuto, budget, &cache);
  EXPECT_EQ(cache.universe_fingerprint, prep.universe_fingerprint);

  // A different universe (new seed => new sizes) must not reuse entries
  // keyed to the old one, even though cluster counts coincide.
  PreparedSpec spec2 = spec;
  spec2.seed = 52;
  CoPhyPrepared prep2 = MakePrepared(*db_, spec2);
  ASSERT_NE(prep2.universe_fingerprint, prep.universe_fingerprint);
  IndexRecommendation rec =
      Solve(*db_, prep2, cons, CoPhySolveMode::kAuto, budget, &cache);
  EXPECT_EQ(rec.clusters_reused, 0);
  EXPECT_EQ(cache.universe_fingerprint, prep2.universe_fingerprint);
  IndexRecommendation mono =
      Solve(*db_, prep2, cons, CoPhySolveMode::kMonolithic, budget);
  ExpectBitIdentical(rec, mono);
}

TEST_F(DecompTest, PinnedAndCappedTightBudgetSweep) {
  // The adversarial corner: pins forcing storage use, caps at 1, and a
  // budget just above the pin floor — straddling configurations where
  // per-cluster optima and the global optimum genuinely diverge.
  for (uint64_t seed : {61ull, 62ull, 63ull}) {
    PreparedSpec spec;
    spec.seed = seed;
    spec.num_groups = 3;
    CoPhyPrepared prep = MakePrepared(*db_, spec);
    DesignConstraints cons;
    cons.pinned_indexes.push_back(prep.candidates[0].index);
    for (const CandidateIndex& c : prep.candidates) {
      cons.max_indexes_per_table[c.index.table] = 1;
    }
    ASSERT_TRUE(cons.Validate(db_->catalog()).ok());
    double pin_size = prep.candidates[0].size_pages;
    for (double budget : {pin_size * 1.01, pin_size * 1.8, pin_size * 4.0}) {
      IndexRecommendation mono =
          Solve(*db_, prep, cons, CoPhySolveMode::kMonolithic, budget);
      IndexRecommendation decomp =
          Solve(*db_, prep, cons, CoPhySolveMode::kAuto, budget);
      ExpectBitIdentical(decomp, mono);
    }
  }
}

TEST_F(DecompTest, SolverBenchSweepHoldsItsGates) {
  // bench_solver's sweep instances and gates: at every universe size the
  // cold decomposed solve stays decomposed and equals the monolithic
  // optimum bit for bit; a veto of one recommended index re-solves only
  // its own cluster, warm, and still equals a cold monolithic solve; and
  // no B&B node LP or warm root is ever solved from scratch.
  auto expect_no_cold_lp = [](const IndexRecommendation& rec, int n,
                              const char* op) {
    EXPECT_EQ(rec.node_cold_solves, 0) << op << " " << n;
    EXPECT_EQ(rec.root_warm_fallbacks, 0) << op << " " << n;
    // The work per solve kind partitions the totals.
    const SolveKindWork* kinds[] = {&rec.top_points, &rec.deeper_points,
                                    &rec.tail_certificates,
                                    &rec.monolithic_bips};
    int nodes = 0;
    int pivots = 0;
    for (const SolveKindWork* kind : kinds) {
      nodes += kind->bnb_nodes;
      pivots += kind->lp_pivots;
    }
    EXPECT_EQ(nodes, rec.bnb_nodes) << op << " " << n;
    EXPECT_EQ(pivots, rec.lp_pivots) << op << " " << n;
  };
  for (int n : {50, 200, 1000, 4000}) {
    CoPhyPrepared prep = synthetic::MakeClusteredPrepared(*db_, n);
    ASSERT_EQ(prep.candidates.size(), static_cast<size_t>(n));
    double budget = TotalSize(prep);
    DesignConstraints cons;
    CoPhySolverCache cache;

    IndexRecommendation mono =
        Solve(*db_, prep, cons, CoPhySolveMode::kMonolithic, budget);
    IndexRecommendation decomp = Solve(*db_, prep, cons, CoPhySolveMode::kAuto,
                                       budget, &cache);
    EXPECT_FALSE(decomp.solved_monolithic) << n;
    ExpectBitIdentical(decomp, mono);

    ASSERT_FALSE(decomp.indexes.empty());
    DesignConstraints vetoed = cons;
    vetoed.vetoed_indexes.push_back(decomp.indexes.front());
    IndexRecommendation warm = Solve(*db_, prep, vetoed,
                                     CoPhySolveMode::kAuto, budget, &cache);
    EXPECT_EQ(warm.clusters_solved, 1) << n;
    IndexRecommendation mono_veto =
        Solve(*db_, prep, vetoed, CoPhySolveMode::kMonolithic, budget);
    ExpectBitIdentical(warm, mono_veto);

    expect_no_cold_lp(mono, n, "monolithic");
    expect_no_cold_lp(decomp, n, "decomposed");
    expect_no_cold_lp(warm, n, "decomposed_warm");
    expect_no_cold_lp(mono_veto, n, "monolithic_veto");
  }
  // The sweep's binding-budget rows: at 0.05x and 0.1x of the universe's
  // size both paths branch, and they must still agree bit for bit. Each
  // path's nodes stay at or below its count before reduced-cost fixing.
  struct BindingRow {
    int n;
    double fraction;
    int mono_nodes;
    int decomp_nodes;
  };
  const BindingRow rows[] = {{50, 0.05, 83, 564},
                             {50, 0.1, 133, 346},
                             {200, 0.05, 337, 2836},
                             {200, 0.1, 189, 2292}};
  for (const BindingRow& row : rows) {
    SCOPED_TRACE(row.fraction);
    const int n = row.n;
    CoPhyPrepared prep = synthetic::MakeClusteredPrepared(*db_, n);
    double budget = TotalSize(prep) * row.fraction;
    CoPhySolverCache cache;
    IndexRecommendation mono = Solve(*db_, prep, DesignConstraints{},
                                     CoPhySolveMode::kMonolithic, budget);
    IndexRecommendation decomp = Solve(*db_, prep, DesignConstraints{},
                                       CoPhySolveMode::kAuto, budget, &cache);
    EXPECT_FALSE(decomp.solved_monolithic) << n;
    ExpectBitIdentical(decomp, mono);
    expect_no_cold_lp(mono, n, "monolithic");
    expect_no_cold_lp(decomp, n, "decomposed");
    EXPECT_LE(mono.bnb_nodes, row.mono_nodes) << n;
    EXPECT_LE(decomp.bnb_nodes, row.decomp_nodes) << n;
    // One monolithic BIP on one side; on the other, a cold cache solves
    // each active cluster's top point once and then deepens frontiers.
    EXPECT_EQ(mono.monolithic_bips.solves, 1) << n;
    EXPECT_EQ(decomp.monolithic_bips.solves, 0) << n;
    EXPECT_EQ(decomp.top_points.solves, decomp.clusters_solved) << n;
    EXPECT_GT(decomp.deeper_points.solves, 0) << n;
  }
}

TEST_F(DecompTest, DualCutoffKeepsTheSearchAndSavesPivots) {
  // Monolithic B&B on two fixed synthetic instances under a binding
  // budget. Optimum and chosen set are pinned at the numbers the solver
  // produced before node LPs stopped at the incumbent, and the pivot
  // count must stay below its value then. Nodes are pinned at the count
  // with reduced-cost fixing, and must stay below the count without it.
  struct Case {
    double budget_fraction;
    int nodes;
    int old_nodes;  ///< before reduced-cost fixing
    double cost;
    std::vector<size_t> chosen;  ///< positions in prep.candidates
    int old_pivots;
  };
  const Case cases[] = {
      {0.05, 21, 83, 0x1.9683cb4d7793fp+9, {2, 3, 14, 30, 43}, 1497},
      {0.10, 49, 133, 0x1.08a5a08a97625p+9, {2, 3, 14, 21, 36, 37, 44, 45},
       2553},
  };
  CoPhyPrepared prep = synthetic::MakeClusteredPrepared(*db_, 50);
  for (const Case& c : cases) {
    IndexRecommendation rec =
        Solve(*db_, prep, DesignConstraints{}, CoPhySolveMode::kMonolithic,
              TotalSize(prep) * c.budget_fraction);
    std::vector<size_t> chosen;
    for (const IndexDef& d : rec.indexes) {
      for (size_t i = 0; i < prep.candidates.size(); ++i) {
        if (prep.candidates[i].index == d) chosen.push_back(i);
      }
    }
    std::sort(chosen.begin(), chosen.end());
    EXPECT_TRUE(rec.proven_optimal) << c.budget_fraction;
    EXPECT_EQ(rec.bnb_nodes, c.nodes) << c.budget_fraction;
    EXPECT_LT(rec.bnb_nodes, c.old_nodes) << c.budget_fraction;
    EXPECT_GT(rec.vars_fixed_by_reduced_cost, 0) << c.budget_fraction;
    EXPECT_EQ(rec.recommended_cost, c.cost) << c.budget_fraction;
    EXPECT_EQ(chosen, c.chosen) << c.budget_fraction;
    EXPECT_GT(rec.nodes_cut_off, 0) << c.budget_fraction;
    EXPECT_LT(rec.lp_pivots, c.old_pivots) << c.budget_fraction;
  }
}

// The cheapest split by exhaustive enumeration: every pick of one point
// per frontier, plus each incomplete frontier's tail (-1) when
// `with_tails`. Pages and costs are summed in frontier order, as
// AllocateBudget sums them. Ties go to fewer pages, then the smaller
// pick.
std::optional<BudgetSplit> BruteForceSplit(
    const std::vector<BudgetFrontier>& frontiers, double budget,
    bool with_tails) {
  std::optional<BudgetSplit> best;
  double best_pages = 0.0;
  std::vector<int> pick;
  auto visit = [&](auto& self, double pages, double cost) -> void {
    size_t k = pick.size();
    if (k == frontiers.size()) {
      if (pages > budget) return;
      bool better =
          !best.has_value() || cost < best->cost ||
          (cost == best->cost &&
           (pages < best_pages || (pages == best_pages && pick < best->pick)));
      if (better) {
        best = BudgetSplit{pick, cost};
        best_pages = pages;
      }
      return;
    }
    const BudgetFrontier& fr = frontiers[k];
    bool tail = with_tails && !fr.complete;
    for (int p = tail ? -1 : 0; p < static_cast<int>(fr.points.size()); ++p) {
      pick.push_back(p);
      if (p < 0) {
        self(self, pages + fr.floor_pages, cost + fr.tail_bound);
      } else {
        const auto& point = fr.points[static_cast<size_t>(p)];
        self(self, pages + point.footprint, cost + point.cost);
      }
      pick.pop_back();
    }
  };
  visit(visit, 0.0, 0.0);
  return best;
}

TEST(AllocateBudgetTest, MatchesBruteForceOnRandomFrontiers) {
  // Integer pages and costs keep every sum exact, so the optimum, its
  // pick and every tie-break are compared exactly. Costs tie often, and
  // a tail bound often equals its frontier's last cost, as after a
  // proven point.
  Rng rng(20260117);
  int fitting = 0;
  int empty = 0;
  int tail_picked = 0;
  int bound_below_real = 0;
  for (int instance = 0; instance < 600; ++instance) {
    SCOPED_TRACE(instance);
    size_t num_frontiers = static_cast<size_t>(rng.UniformInt(1, 4));
    std::vector<std::vector<CoPhySolverCache::Entry::ParetoPoint>> points(
        num_frontiers);
    std::vector<BudgetFrontier> frontiers(num_frontiers);
    double max_pages = 0.0;
    for (size_t k = 0; k < num_frontiers; ++k) {
      BudgetFrontier& fr = frontiers[k];
      fr.floor_pages =
          rng.Bernoulli(0.5) ? static_cast<double>(rng.UniformInt(1, 20)) : 0.0;
      // Footprints strictly decreasing down to the floor, costs
      // nondecreasing.
      std::vector<int> sample = rng.SampleWithoutReplacement(
          60, static_cast<int>(rng.UniformInt(1, 5)));
      std::sort(sample.rbegin(), sample.rend());
      double cost = static_cast<double>(rng.UniformInt(0, 40));
      for (int footprint : sample) {
        CoPhySolverCache::Entry::ParetoPoint p;
        p.footprint = fr.floor_pages + footprint;
        p.cost = cost;
        points[k].push_back(p);
        cost += static_cast<double>(rng.UniformInt(0, 15));
      }
      fr.points = points[k];
      fr.complete = rng.Bernoulli(0.4);
      fr.tail_bound =
          points[k].back().cost +
          (rng.Bernoulli(0.5) ? 0.0
                              : static_cast<double>(rng.UniformInt(1, 30)));
      max_pages += points[k].front().footprint;
    }
    double budget = static_cast<double>(
        rng.UniformInt(0, static_cast<int64_t>(max_pages)));
    if (rng.Bernoulli(0.1)) budget = std::numeric_limits<double>::infinity();
    if (rng.Bernoulli(0.1)) budget = -1.0;  // admits nothing at all

    BudgetAllocation alloc = AllocateBudget(frontiers, budget);
    EXPECT_FALSE(alloc.guard_tripped);
    std::optional<BudgetSplit> real =
        BruteForceSplit(frontiers, budget, /*with_tails=*/false);
    std::optional<BudgetSplit> bound =
        BruteForceSplit(frontiers, budget, /*with_tails=*/true);
    ASSERT_EQ(alloc.real.has_value(), real.has_value());
    ASSERT_EQ(alloc.bound.has_value(), bound.has_value());
    if (real.has_value()) {
      EXPECT_EQ(alloc.real->cost, real->cost);
      EXPECT_EQ(alloc.real->pick, real->pick);
      ++fitting;
    }
    if (!bound.has_value()) {
      ++empty;
      continue;
    }
    EXPECT_EQ(alloc.bound->cost, bound->cost);
    EXPECT_EQ(alloc.bound->pick, bound->pick);
    if (std::count(bound->pick.begin(), bound->pick.end(), -1) > 0) {
      ++tail_picked;
    }
    if (real.has_value() && bound->cost < real->cost) ++bound_below_real;
  }
  // Every verdict the decomposed solve acts on occurred.
  EXPECT_GT(fitting, 100);
  EXPECT_GT(empty, 20);
  EXPECT_GT(tail_picked, 50);
  EXPECT_GT(bound_below_real, 20);
}

TEST(AllocateBudgetTest, GuardTripsPastTheStateCap) {
  // Frontier k offers (2^k pages, cost 0) or (0 pages, cost 2^k): every
  // split has pages + cost = 2^n - 1, so all 2^n splits are Pareto
  // optimal. 16 frontiers keep exactly kMaxAllocationStates states; a
  // 17th passes the cap.
  std::vector<std::vector<CoPhySolverCache::Entry::ParetoPoint>> points;
  for (int k = 0; k < 17; ++k) {
    double w = std::ldexp(1.0, k);
    points.push_back({{w, 0.0, {}}, {0.0, w, {}}});
  }
  std::vector<BudgetFrontier> frontiers;
  for (const auto& p : points) frontiers.push_back({p, /*complete=*/true});
  double inf = std::numeric_limits<double>::infinity();

  BudgetAllocation at_cap = AllocateBudget(
      std::span<const BudgetFrontier>(frontiers.data(), 16), inf);
  ASSERT_EQ(size_t{1} << 16, kMaxAllocationStates);
  EXPECT_FALSE(at_cap.guard_tripped);
  ASSERT_TRUE(at_cap.real.has_value());
  EXPECT_EQ(at_cap.real->cost, 0.0);
  EXPECT_EQ(at_cap.real->pick, std::vector<int>(16, 0));

  BudgetAllocation past_cap = AllocateBudget(frontiers, inf);
  EXPECT_TRUE(past_cap.guard_tripped);
  EXPECT_FALSE(past_cap.real.has_value());
  EXPECT_FALSE(past_cap.bound.has_value());
}

}  // namespace
}  // namespace dbdesign
