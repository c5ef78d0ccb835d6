// CoPhy advisor tests: candidate generation, atom construction, BIP
// optimality vs exhaustive search, budget compliance, and dominance
// over the greedy baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "backend/inmemory_backend.h"
#include "cophy/cophy.h"
#include "cophy/greedy.h"
#include "sql/binder.h"
#include "util/rng.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

class CoPhyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SdssConfig cfg;
    cfg.photoobj_rows = 6000;
    cfg.seed = 5;
    db_ = new Database(BuildSdssDatabase(cfg));
    backend_ = new InMemoryBackend(*db_);
    workload_ = new Workload(
        GenerateWorkload(*db_, TemplateMix::OfflineDefault(), 14, 71));
  }
  static void TearDownTestSuite() {
    delete backend_;
    backend_ = nullptr;
    delete db_;
    delete workload_;
    db_ = nullptr;
    workload_ = nullptr;
  }

  static Database* db_;
  static InMemoryBackend* backend_;
  static Workload* workload_;
};

Database* CoPhyTest::db_ = nullptr;
InMemoryBackend* CoPhyTest::backend_ = nullptr;
Workload* CoPhyTest::workload_ = nullptr;

TEST_F(CoPhyTest, CandidatesCoverPredicateColumns) {
  std::vector<CandidateIndex> cands = GenerateCandidates(*backend_, *workload_);
  ASSERT_FALSE(cands.empty());
  // Every candidate must be structurally valid and sized.
  std::set<std::string> keys;
  for (const CandidateIndex& c : cands) {
    EXPECT_GE(c.index.table, 0);
    EXPECT_FALSE(c.index.columns.empty());
    EXPECT_GT(c.size_pages, 0.0);
    EXPECT_GE(c.relevant_queries, 1);
    EXPECT_TRUE(keys.insert(c.index.Key()).second) << "duplicate candidate";
  }
  // The workload contains cone searches: an ra (or ra,dec) candidate on
  // photoobj must be present.
  TableId photo = db_->catalog().FindTable(kPhotoObj);
  ColumnId ra = db_->catalog().table(photo).FindColumn("ra");
  bool has_ra = false;
  for (const CandidateIndex& c : cands) {
    has_ra |= c.index.table == photo && c.index.columns[0] == ra;
  }
  EXPECT_TRUE(has_ra);
}

TEST_F(CoPhyTest, CandidateCapRespected) {
  CandidateOptions opts;
  opts.max_candidates = 10;
  std::vector<CandidateIndex> cands =
      GenerateCandidates(*backend_, *workload_, opts);
  EXPECT_LE(cands.size(), 10u);
}

TEST_F(CoPhyTest, AtomsIncludeIndexFreeAnchor) {
  CoPhyAdvisor advisor(*backend_);
  std::vector<CandidateIndex> cands = GenerateCandidates(*backend_, *workload_);
  for (const BoundQuery& q : workload_->queries) {
    std::vector<CoPhyAtom> atoms = advisor.BuildAtoms(q, cands);
    ASSERT_FALSE(atoms.empty()) << q.ToSql(db_->catalog());
    bool has_free = false;
    for (const CoPhyAtom& a : atoms) {
      has_free |= a.used.empty();
      EXPECT_GT(a.cost, 0.0);
      for (int i : a.used) {
        EXPECT_GE(i, 0);
        EXPECT_LT(i, static_cast<int>(cands.size()));
      }
    }
    EXPECT_TRUE(has_free) << "no index-free atom for "
                          << q.ToSql(db_->catalog());
  }
}

TEST_F(CoPhyTest, AtomCostsLowerBoundedByBestPlan) {
  // The cheapest atom must match INUM's cost under the all-candidates
  // design: same plan space and the same memoized leaf and lookup
  // prices, so the two differ only in summation order.
  CoPhyAdvisor advisor(*backend_);
  std::vector<CandidateIndex> cands = GenerateCandidates(*backend_, *workload_);
  PhysicalDesign all;
  for (const CandidateIndex& c : cands) all.AddIndex(c.index);
  for (const BoundQuery& q : workload_->queries) {
    std::vector<CoPhyAtom> atoms = advisor.BuildAtoms(q, cands);
    double best_atom = std::numeric_limits<double>::infinity();
    for (const CoPhyAtom& a : atoms) best_atom = std::min(best_atom, a.cost);
    double inum_cost = advisor.inum().Cost(q, all);
    EXPECT_NEAR(best_atom / inum_cost, 1.0, 1e-9) << q.ToSql(db_->catalog());
  }
}

TEST_F(CoPhyTest, ForceExactAdvisorBuildsTheSameAtoms) {
  // force_exact sends costing to the backend, but atoms come from the
  // plan set and the prices INUM binds for the candidates: the same
  // rows, in the same order, with no backend optimizer call.
  CoPhyAdvisor reuse(*backend_);
  CoPhyOptions exact_opts;
  exact_opts.inum.force_exact = true;
  CoPhyAdvisor exact(*backend_, exact_opts);
  std::vector<CandidateIndex> cands = GenerateCandidates(*backend_, *workload_);
  size_t atoms_seen = 0;
  for (const BoundQuery& q : workload_->queries) {
    std::vector<CoPhyAtom> want = reuse.BuildAtoms(q, cands);
    uint64_t calls = backend_->num_optimizer_calls();
    std::vector<CoPhyAtom> got = exact.BuildAtoms(q, cands);
    EXPECT_EQ(backend_->num_optimizer_calls(), calls);
    ASSERT_EQ(got.size(), want.size()) << q.ToSql(db_->catalog());
    for (size_t a = 0; a < got.size(); ++a) {
      EXPECT_EQ(got[a].cost, want[a].cost) << q.ToSql(db_->catalog());
      EXPECT_EQ(got[a].used, want[a].used) << q.ToSql(db_->catalog());
    }
    atoms_seen += got.size();
  }
  EXPECT_GT(atoms_seen, workload_->size());
}

TEST_F(CoPhyTest, RecommendationImprovesAndFitsBudget) {
  CoPhyOptions opts;
  double data_pages = 0.0;
  for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
    data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
  }
  opts.storage_budget_pages = data_pages;  // 1x data size
  CoPhyAdvisor advisor(*backend_, opts);
  IndexRecommendation rec = advisor.TryRecommend(*workload_).value();

  EXPECT_FALSE(rec.indexes.empty());
  EXPECT_LT(rec.recommended_cost, rec.base_cost);
  EXPECT_GT(rec.improvement(), 0.2) << "expected >20% improvement on the "
                                       "selection-heavy SDSS mix";
  EXPECT_LE(rec.total_size_pages, opts.storage_budget_pages + 1e-6);
  EXPECT_GE(rec.gap, 0.0);
  EXPECT_LE(rec.lower_bound, rec.recommended_cost + 1e-6);

  // The recommendation's claimed cost must agree with an independent
  // INUM evaluation of the recommended design.
  PhysicalDesign design;
  for (const IndexDef& idx : rec.indexes) design.AddIndex(idx);
  double check = advisor.inum().WorkloadCost(*workload_, design);
  EXPECT_NEAR(check / rec.recommended_cost, 1.0, 0.05);
}

TEST_F(CoPhyTest, TightBudgetYieldsSmallerConfiguration) {
  double data_pages = 0.0;
  for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
    data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
  }
  CoPhyOptions big;
  big.storage_budget_pages = 2.0 * data_pages;
  CoPhyOptions small;
  small.storage_budget_pages = 0.1 * data_pages;

  CoPhyAdvisor a_big(*backend_, big);
  CoPhyAdvisor a_small(*backend_, small);
  IndexRecommendation r_big = a_big.TryRecommend(*workload_).value();
  IndexRecommendation r_small = a_small.TryRecommend(*workload_).value();

  EXPECT_LE(r_small.total_size_pages, small.storage_budget_pages + 1e-6);
  // More storage can only help the optimum.
  EXPECT_LE(r_big.recommended_cost, r_small.recommended_cost + 1e-6);
}

TEST_F(CoPhyTest, MatchesExhaustiveOnSmallInstance) {
  // Small candidate pool + tiny workload: compare the BIP against brute
  // force over all candidate subsets within budget.
  Workload small;
  for (int i = 0; i < 5; ++i) small.Add(workload_->queries[i]);
  CandidateOptions copts;
  copts.max_candidates = 8;
  copts.covering_candidates = false;
  std::vector<CandidateIndex> cands =
      GenerateCandidates(*backend_, small, copts);
  ASSERT_LE(cands.size(), 8u);

  double budget = 0.0;
  for (const CandidateIndex& c : cands) budget += c.size_pages;
  budget *= 0.5;

  CoPhyOptions opts;
  opts.storage_budget_pages = budget;
  opts.candidates = copts;
  CoPhyAdvisor advisor(*backend_, opts);
  IndexRecommendation rec =
      advisor.TryRecommendWithCandidates(small, cands).value();

  // Brute force with the same cost oracle (INUM).
  double best = std::numeric_limits<double>::infinity();
  int n = static_cast<int>(cands.size());
  for (int mask = 0; mask < (1 << n); ++mask) {
    double pages = 0.0;
    PhysicalDesign d;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        pages += cands[static_cast<size_t>(i)].size_pages;
        d.AddIndex(cands[static_cast<size_t>(i)].index);
      }
    }
    if (pages > budget) continue;
    best = std::min(best, advisor.inum().WorkloadCost(small, d));
  }
  EXPECT_NEAR(rec.recommended_cost / best, 1.0, 0.05)
      << "CoPhy " << rec.recommended_cost << " vs exhaustive " << best;

  // Exact oracle under the atom model, over random constraint mixes:
  // enumerate every subset of at most 12 candidates that honors the
  // pins, vetoes, per-table caps and budget, price each by every row's
  // cheapest compatible atom, and require both solve modes to reach the
  // minimum — exactly under CoPhy's 1e-5/page tie-break objective, and
  // within the tie-break's reach on atom cost alone.
  constexpr double kTieBreakPerPage = 1e-5;
  CoPhyAdvisor preparer(*backend_);
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Workload slice;
    for (int q : rng.SampleWithoutReplacement(
             static_cast<int>(workload_->size()),
             static_cast<int>(rng.UniformInt(3, 6)))) {
      slice.Add(workload_->queries[static_cast<size_t>(q)],
                rng.UniformDouble(0.5, 2.0));
    }
    CandidateOptions slice_opts;
    slice_opts.max_candidates = 12;
    slice_opts.covering_candidates = rng.Bernoulli(0.5);
    Result<CoPhyPrepared> prepared = preparer.TryPrepare(
        slice, GenerateCandidates(*backend_, slice, slice_opts));
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    const CoPhyPrepared& prep = prepared.value();
    const std::vector<CandidateIndex>& pool = prep.candidates;
    int np = static_cast<int>(pool.size());
    ASSERT_LE(np, 12);
    ASSERT_GE(np, 2);

    // Random pins and vetoes (disjoint), caps no pin set violates, and a
    // budget every pin fits.
    DesignConstraints cons;
    std::vector<int> order(static_cast<size_t>(np));
    for (int i = 0; i < np; ++i) order[static_cast<size_t>(i)] = i;
    rng.Shuffle(order);
    int num_pins = static_cast<int>(rng.UniformInt(0, 2));
    int num_vetoes = static_cast<int>(rng.UniformInt(0, 2));
    double pin_pages = 0.0;
    double free_pages = 0.0;
    std::map<TableId, int> pins_on;
    for (int k = 0; k < np; ++k) {
      const CandidateIndex& c = pool[static_cast<size_t>(order[k])];
      if (k < num_pins) {
        cons.pinned_indexes.push_back(c.index);
        pin_pages += c.size_pages;
        pins_on[c.index.table]++;
      } else if (k < num_pins + num_vetoes) {
        cons.vetoed_indexes.push_back(c.index);
      } else {
        free_pages += c.size_pages;
      }
    }
    for (const CandidateIndex& c : pool) {
      if (cons.max_indexes_per_table.count(c.index.table) == 0 &&
          rng.Bernoulli(0.5)) {
        cons.max_indexes_per_table[c.index.table] = std::max(
            pins_on[c.index.table], static_cast<int>(rng.UniformInt(1, 3)));
      }
    }
    cons.storage_budget_pages =
        pin_pages + rng.UniformDouble(0.1, 0.8) * free_pages;
    ASSERT_TRUE(cons.Validate(db_->catalog()).ok());

    // The oracle: the cheapest feasible subset, by atom cost alone and
    // by the tie-broken objective.
    double best_atoms = std::numeric_limits<double>::infinity();
    double best_tied = std::numeric_limits<double>::infinity();
    for (int mask = 0; mask < (1 << np); ++mask) {
      double pages = 0.0;
      std::map<TableId, int> per_table;
      bool feasible = true;
      for (int i = 0; i < np && feasible; ++i) {
        const CandidateIndex& c = pool[static_cast<size_t>(i)];
        bool in = (mask >> i) & 1;
        feasible &= in ? !cons.IsVetoed(c.index) : !cons.IsPinned(c.index);
        if (!in) continue;
        pages += c.size_pages;
        feasible &= ++per_table[c.index.table] <=
                    cons.TableCapOrUnlimited(c.index.table);
      }
      if (!feasible || pages > cons.storage_budget_pages) continue;
      double cost = 0.0;
      for (size_t q = 0; q < prep.rows.size(); ++q) {
        double row_best = std::numeric_limits<double>::infinity();
        for (const CoPhyAtom& a : prep.rows[q]->atoms) {
          if (std::all_of(a.used.begin(), a.used.end(),
                          [&](int i) { return (mask >> i) & 1; })) {
            row_best = std::min(row_best, a.cost);
          }
        }
        cost += prep.weights[q] * row_best;
      }
      best_atoms = std::min(best_atoms, cost);
      best_tied = std::min(best_tied, cost + kTieBreakPerPage * pages);
    }
    ASSERT_TRUE(std::isfinite(best_atoms));

    std::vector<IndexDef> auto_indexes;
    for (CoPhySolveMode mode :
         {CoPhySolveMode::kAuto, CoPhySolveMode::kMonolithic}) {
      CoPhyOptions mode_opts;
      mode_opts.solve_mode = mode;
      CoPhyAdvisor solver(*backend_, mode_opts);
      Result<IndexRecommendation> solved = solver.SolvePrepared(prep, cons);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
      const IndexRecommendation& r = solved.value();
      EXPECT_TRUE(r.proven_optimal);
      EXPECT_TRUE(r.infeasible_pins.empty());
      EXPECT_LE(r.total_size_pages, cons.storage_budget_pages);
      double scale = 1e-9 * std::max(1.0, best_atoms);
      EXPECT_NEAR(r.recommended_cost + kTieBreakPerPage * r.total_size_pages,
                  best_tied, scale);
      EXPECT_GE(r.recommended_cost, best_atoms - scale);
      EXPECT_LE(r.recommended_cost,
                best_atoms + kTieBreakPerPage * cons.storage_budget_pages);
      if (mode == CoPhySolveMode::kAuto) {
        auto_indexes = r.indexes;
      } else {
        EXPECT_EQ(r.indexes, auto_indexes);
      }
    }
  }
}

TEST_F(CoPhyTest, NeverWorseThanGreedyOnSharedCandidates) {
  std::vector<CandidateIndex> cands = GenerateCandidates(*backend_, *workload_);
  double data_pages = 0.0;
  for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
    data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
  }
  for (double factor : {0.15, 0.5, 1.0}) {
    CoPhyOptions copts;
    copts.storage_budget_pages = factor * data_pages;
    CoPhyAdvisor cophy(*backend_, copts);
    IndexRecommendation rec =
        cophy.TryRecommendWithCandidates(*workload_, cands).value();

    GreedyOptions gopts;
    gopts.storage_budget_pages = factor * data_pages;
    GreedyAdvisor greedy(*backend_, gopts);
    GreedyResult g =
        greedy.TryRecommendWithCandidates(*workload_, cands).value();

    // Evaluate both recommendations with one oracle.
    PhysicalDesign cophy_design;
    for (const IndexDef& i : rec.indexes) cophy_design.AddIndex(i);
    PhysicalDesign greedy_design;
    for (const IndexDef& i : g.indexes) greedy_design.AddIndex(i);
    double cophy_cost = cophy.inum().WorkloadCost(*workload_, cophy_design);
    double greedy_cost = cophy.inum().WorkloadCost(*workload_, greedy_design);
    EXPECT_LE(cophy_cost, greedy_cost * 1.02)
        << "budget factor " << factor;
  }
}

TEST_F(CoPhyTest, GreedyRespectsBudgetAndImproves) {
  double data_pages = 0.0;
  for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
    data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
  }
  GreedyOptions opts;
  opts.storage_budget_pages = 0.5 * data_pages;
  GreedyAdvisor greedy(*backend_, opts);
  GreedyResult r = greedy.TryRecommend(*workload_).value();
  EXPECT_FALSE(r.indexes.empty());
  EXPECT_LT(r.final_cost, r.base_cost);
  EXPECT_LE(r.total_size_pages, opts.storage_budget_pages + 1e-6);
  EXPECT_GT(r.cost_evaluations, 0u);
}

TEST_F(CoPhyTest, TimeQualityKnob) {
  // A starved node budget must still produce a feasible recommendation
  // with a (possibly loose) reported gap.
  CoPhyOptions opts;
  opts.bnb.max_nodes = 1;
  double data_pages = 0.0;
  for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
    data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
  }
  opts.storage_budget_pages = 0.3 * data_pages;
  CoPhyAdvisor advisor(*backend_, opts);
  IndexRecommendation rec = advisor.TryRecommend(*workload_).value();
  EXPECT_LE(rec.recommended_cost, rec.base_cost + 1e-6);
  EXPECT_GE(rec.gap, 0.0);
}

// --- Solver cache: proven answers of earlier signatures ---

// Parked entries a slot keeps (kMaxProvenPerSlot in cophy.cc).
constexpr size_t kProvenPerSlot = 4;

// A session-shaped solver cache driven directly: one prepared state of
// the suite's workload under a binding budget, re-solved under edited
// constraints.
class ProvenMemoTest : public CoPhyTest {
 protected:
  void SetUp() override {
    double data_pages = 0.0;
    for (TableId t = 0; t < db_->catalog().num_tables(); ++t) {
      data_pages += db_->stats(t).HeapPages(db_->catalog().table(t));
    }
    opts_.storage_budget_pages = 0.3 * data_pages;
    advisor_ = std::make_unique<CoPhyAdvisor>(*backend_, opts_);
    Result<CoPhyPrepared> prepared = advisor_->TryPrepare(
        *workload_,
        GenerateCandidates(*backend_, *workload_, opts_.candidates));
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    prepared_ = std::move(prepared).value();
  }

  IndexRecommendation Solve(const DesignConstraints& constraints,
                            CoPhySolverCache* cache) {
    Result<IndexRecommendation> rec =
        advisor_->SolvePrepared(prepared_, constraints, cache);
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    return rec.ok() ? std::move(rec).value() : IndexRecommendation{};
  }

  // Every parked entry is a proven one, filed under its own signature,
  // within the per-slot count. Returns the largest number any slot
  // holds.
  static size_t ExpectParkedEntriesWellFormed(const CoPhySolverCache& cache) {
    std::map<int, size_t> per_slot;
    cache.proven.ForEach([&](const std::pair<int, uint64_t>& key,
                             const CoPhySolverCache::Entry& e) {
      EXPECT_TRUE(e.valid);
      EXPECT_EQ(e.signature, key.second);
      if (key.first != CoPhySolverCache::kMonoSlot) {
        EXPECT_FALSE(e.frontier.empty());
      }
      ++per_slot[key.first];
    });
    size_t fullest = 0;
    for (const auto& [slot, n] : per_slot) {
      EXPECT_LE(n, kProvenPerSlot) << "slot " << slot;
      fullest = std::max(fullest, n);
    }
    return fullest;
  }

  CoPhyOptions opts_;
  std::unique_ptr<CoPhyAdvisor> advisor_;
  CoPhyPrepared prepared_;
};

TEST_F(ProvenMemoTest, TogglesHitEveryTimeWithinTheSlotCount) {
  CoPhySolverCache cache;
  DesignConstraints base;
  IndexRecommendation cold = Solve(base, &cache);
  ASSERT_FALSE(cold.indexes.empty());
  EXPECT_EQ(cache.proven.size(), 0u);
  DesignConstraints vetoed = base;
  vetoed.vetoed_indexes.push_back(cold.indexes.front());
  IndexRecommendation veto = Solve(vetoed, &cache);
  EXPECT_GT(veto.clusters_solved, 0);
  EXPECT_EQ(cache.proven_hits, 0u);

  // Veto, un-veto, veto, ...: every step after the first returns to a
  // proven state, so each one hits and solves nothing, and a toggle only
  // swaps the live and parked entries.
  size_t parked = cache.proven.size();
  EXPECT_GE(parked, 1u);
  for (int round = 0; round < 3; ++round) {
    for (const DesignConstraints* c : {&base, &vetoed}) {
      SCOPED_TRACE(round);
      const IndexRecommendation& want = c == &base ? cold : veto;
      uint64_t hits = cache.proven_hits;
      IndexRecommendation r = Solve(*c, &cache);
      EXPECT_GT(cache.proven_hits, hits);
      EXPECT_EQ(r.bnb_nodes, 0);
      EXPECT_EQ(r.lp_pivots, 0);
      EXPECT_EQ(r.clusters_solved, 0);
      EXPECT_GT(r.clusters_reused, 0);
      EXPECT_EQ(r.indexes, want.indexes);
      EXPECT_EQ(r.recommended_cost, want.recommended_cost);
      EXPECT_EQ(cache.proven.size(), parked);
      ExpectParkedEntriesWellFormed(cache);
    }
  }

  // More distinct budgets than a slot keeps: the count holds, the least
  // recently parked entries go first, and a return to one of them
  // re-solves to the same answer.
  size_t fullest = 0;
  for (double f : {0.9, 0.8, 0.7, 0.6, 0.5, 0.4}) {
    DesignConstraints cut = vetoed;
    cut.storage_budget_pages = f * cold.total_size_pages;
    Solve(cut, &cache);
    fullest = ExpectParkedEntriesWellFormed(cache);
  }
  EXPECT_EQ(fullest, kProvenPerSlot);
  uint64_t hits = cache.proven_hits;
  IndexRecommendation again = Solve(base, &cache);
  EXPECT_EQ(cache.proven_hits, hits);
  EXPECT_GT(again.clusters_solved, 0);
  EXPECT_EQ(again.indexes, cold.indexes);
  EXPECT_EQ(again.recommended_cost, cold.recommended_cost);
}

TEST_F(ProvenMemoTest, ParksOnlyProvenEntriesAndMovesThemWhole) {
  // An entry that proves nothing is never parked: an invalid one, or a
  // valid cluster entry that holds only warm material (no frontier).
  CoPhySolverCache cache;
  CoPhySolverCache::Entry e;
  e.signature = 7;
  e.frontier.push_back({10.0, 1.0, {0}});
  EXPECT_EQ(cache.Park(0, e), nullptr);
  EXPECT_EQ(cache.proven.size(), 0u);
  EXPECT_EQ(e.frontier.size(), 1u);
  e.valid = true;
  e.frontier.clear();
  e.chosen = {0};
  EXPECT_EQ(cache.Park(0, e), nullptr);
  EXPECT_EQ(cache.proven.size(), 0u);
  EXPECT_EQ(e.chosen.size(), 1u);

  // A proven one moves whole, basis included, and leaves a fresh entry;
  // Recall moves it back as it was.
  e.frontier.push_back({10.0, 1.0, {0}});
  e.root_basis.basic = {3, 1, 4};
  e.tail_bound = 2.5;
  const CoPhySolverCache::Entry* parked = cache.Park(0, e);
  ASSERT_NE(parked, nullptr);
  EXPECT_EQ(parked->root_basis.basic, std::vector<int>({3, 1, 4}));
  EXPECT_EQ(parked->frontier.size(), 1u);
  EXPECT_EQ(parked->tail_bound, 2.5);
  EXPECT_FALSE(e.valid);
  EXPECT_TRUE(e.frontier.empty());
  EXPECT_TRUE(e.root_basis.empty());
  EXPECT_FALSE(cache.Recall(0, 8, e));
  EXPECT_TRUE(cache.Recall(0, 7, e));
  EXPECT_EQ(cache.proven.size(), 0u);
  EXPECT_EQ(cache.proven_hits, 1u);
  EXPECT_TRUE(e.valid);
  EXPECT_EQ(e.signature, 7u);
  EXPECT_EQ(e.chosen, std::vector<int>({0}));
  EXPECT_EQ(e.root_basis.basic, std::vector<int>({3, 1, 4}));
  EXPECT_EQ(e.frontier.size(), 1u);

  // A starved node budget leaves cluster solves unproven, and however
  // the constraints toggle, no entry of a failed solve is ever parked.
  CoPhyOptions starved_opts = opts_;
  starved_opts.bnb.max_nodes = 1;
  CoPhyAdvisor starved(*backend_, starved_opts);
  CoPhySolverCache session;
  std::set<std::pair<int, uint64_t>> failed;
  auto solve = [&](const DesignConstraints& c) {
    Result<IndexRecommendation> r =
        starved.SolvePrepared(prepared_, c, &session);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    for (size_t k = 0; k < session.entries.size(); ++k) {
      const CoPhySolverCache::Entry& live = session.entries[k];
      if (!live.valid && live.signature != 0) {
        failed.insert({static_cast<int>(k), live.signature});
      }
    }
    for (const auto& key : failed) EXPECT_FALSE(session.proven.Contains(key));
    ExpectParkedEntriesWellFormed(session);
    return r.ok() ? std::move(r).value() : IndexRecommendation{};
  };
  DesignConstraints base;
  IndexRecommendation cold = solve(base);
  ASSERT_FALSE(cold.indexes.empty());
  DesignConstraints vetoed = base;
  vetoed.vetoed_indexes.push_back(cold.indexes.front());
  for (int round = 0; round < 2; ++round) {
    solve(vetoed);
    solve(base);
  }
  EXPECT_FALSE(failed.empty()) << "no cluster solve failed: starve harder";
}

TEST_F(ProvenMemoTest, TrimDropsParkedEntriesBeforeLiveState) {
  CoPhySolverCache cache;
  DesignConstraints base;
  IndexRecommendation cold = Solve(base, &cache);
  ASSERT_FALSE(cold.indexes.empty());
  DesignConstraints vetoed = base;
  vetoed.vetoed_indexes.push_back(cold.indexes.front());
  DesignConstraints cut = base;
  cut.storage_budget_pages = 0.6 * cold.total_size_pages;
  for (const DesignConstraints* c : {&vetoed, &base, &cut, &base}) {
    Solve(*c, &cache);
  }
  ASSERT_GE(cache.proven.size(), 2u);

  CoPhySolverCache without = cache;  // the same live state, nothing parked
  without.proven.Clear();
  size_t live = without.ApproxBytes();
  ASSERT_GT(cache.ApproxBytes(), live);
  using Shape = std::tuple<bool, uint64_t, size_t, double>;
  auto live_shape = [](const CoPhySolverCache& c) {
    std::vector<Shape> shape;
    for (const CoPhySolverCache::Entry& e : c.entries) {
      shape.emplace_back(e.valid, e.signature, e.frontier.size(),
                         e.tail_bound);
    }
    shape.emplace_back(c.mono.valid, c.mono.signature, c.mono.chosen.size(),
                       c.mono.lower_bound);
    return shape;
  };

  // Room for some parked entries: the least recently parked go, and the
  // live state and the trim counters are untouched.
  auto parked_keys = [](const CoPhySolverCache& c) {
    std::vector<std::pair<int, uint64_t>> keys;
    c.proven.ForEach([&](const std::pair<int, uint64_t>& key,
                         const CoPhySolverCache::Entry&) {
      keys.push_back(key);
    });
    return keys;
  };
  {
    CoPhySolverCache a = cache;
    EXPECT_EQ(parked_keys(a), parked_keys(cache));  // a copy keeps recency
    a.TrimToBytes(cache.ApproxBytes() - 1);
    std::vector<std::pair<int, uint64_t>> all = parked_keys(cache);
    std::vector<std::pair<int, uint64_t>> kept = parked_keys(a);
    ASSERT_LT(kept.size(), all.size());
    EXPECT_TRUE(std::equal(kept.begin(), kept.end(),
                           all.end() - static_cast<ptrdiff_t>(kept.size())));
    EXPECT_EQ(live_shape(a), live_shape(cache));
    EXPECT_EQ(a.trims, cache.trims);
  }
  // Room for the live entries only: every parked entry goes, nothing
  // else.
  {
    CoPhySolverCache a = cache;
    a.TrimToBytes(live);
    EXPECT_EQ(a.proven.size(), 0u);
    EXPECT_EQ(live_shape(a), live_shape(cache));
    EXPECT_EQ(a.trims, cache.trims);
    EXPECT_EQ(a.points_dropped, cache.points_dropped);
    EXPECT_EQ(a.entries_invalidated, cache.entries_invalidated);
  }
  // Less: the live state is trimmed exactly as in a cache that never
  // parked anything.
  for (size_t budget : {live - 1, live / 2, size_t{1}}) {
    SCOPED_TRACE(budget);
    CoPhySolverCache a = cache;
    CoPhySolverCache b = without;
    a.TrimToBytes(budget);
    b.TrimToBytes(budget);
    EXPECT_EQ(a.proven.size(), 0u);
    EXPECT_GT(b.points_dropped + b.entries_invalidated,
              without.points_dropped + without.entries_invalidated);
    EXPECT_EQ(a.trims, b.trims);
    EXPECT_EQ(a.points_dropped, b.points_dropped);
    EXPECT_EQ(a.entries_invalidated, b.entries_invalidated);
    EXPECT_EQ(live_shape(a), live_shape(b));
    EXPECT_EQ(a.ApproxBytes(), b.ApproxBytes());
  }

  // Clear() empties the memo and keeps the session-lifetime hit count.
  {
    CoPhySolverCache a = cache;
    a.Clear();
    EXPECT_EQ(a.proven.size(), 0u);
    EXPECT_EQ(a.proven_hits, cache.proven_hits);
    EXPECT_GT(a.proven_hits, 0u);
  }
  // So does a solve against another row space or candidate universe.
  {
    Workload fewer;
    for (size_t i = 0; i + 1 < workload_->size(); ++i) {
      fewer.Add(workload_->queries[i]);
    }
    Result<CoPhyPrepared> rows =
        advisor_->TryPrepare(fewer, prepared_.candidates);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_NE(rows.value().rows.size(), prepared_.rows.size());
    CoPhySolverCache a = cache;
    ASSERT_TRUE(advisor_->SolvePrepared(rows.value(), base, &a).ok());
    EXPECT_EQ(a.proven.size(), 0u);

    std::vector<CandidateIndex> narrower = prepared_.candidates;
    narrower.pop_back();
    Result<CoPhyPrepared> universe =
        advisor_->TryPrepare(*workload_, std::move(narrower));
    ASSERT_TRUE(universe.ok()) << universe.status().ToString();
    ASSERT_NE(universe.value().universe_fingerprint,
              prepared_.universe_fingerprint);
    CoPhySolverCache b = cache;
    ASSERT_TRUE(advisor_->SolvePrepared(universe.value(), base, &b).ok());
    EXPECT_EQ(b.proven.size(), 0u);
  }
}

}  // namespace
}  // namespace dbdesign
