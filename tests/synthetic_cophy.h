// Synthetic CoPhy prepared states with a known cluster structure, shared
// by the solver differential tests and bench_solver: the bench times the
// same instances whose gates the tests assert.

#ifndef DBDESIGN_TESTS_SYNTHETIC_COPHY_H_
#define DBDESIGN_TESTS_SYNTHETIC_COPHY_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "cophy/cophy.h"
#include "storage/database.h"
#include "util/rng.h"

namespace dbdesign::synthetic {

/// Up to `count` structurally valid, distinct IndexDefs over the catalog:
/// singles, then leading pairs, then leading triples — enough to name
/// synthetic candidates without caring what the columns mean (the SDSS
/// catalog has ~60 columns, so triples carry a 4000-candidate universe).
/// Returns fewer only when the catalog runs out.
inline std::vector<IndexDef> EnumerateIndexDefs(const Catalog& catalog,
                                                int count) {
  std::vector<IndexDef> defs;
  auto done = [&] { return static_cast<int>(defs.size()) == count; };
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    ColumnId nc = static_cast<ColumnId>(catalog.table(t).columns().size());
    for (ColumnId a = 0; a < nc; ++a) {
      defs.push_back(IndexDef{t, {a}});
      if (done()) return defs;
    }
  }
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    ColumnId nc = static_cast<ColumnId>(catalog.table(t).columns().size());
    for (ColumnId a = 0; a < nc; ++a) {
      for (ColumnId b = 0; b < nc; ++b) {
        if (a == b) continue;
        defs.push_back(IndexDef{t, {a, b}});
        if (done()) return defs;
      }
    }
  }
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    ColumnId nc = static_cast<ColumnId>(catalog.table(t).columns().size());
    for (ColumnId a = 0; a < nc; ++a) {
      for (ColumnId b = 0; b < nc; ++b) {
        for (ColumnId c = 0; c < nc; ++c) {
          if (a == b || a == c || b == c) continue;
          defs.push_back(IndexDef{t, {a, b, c}});
          if (done()) return defs;
        }
      }
    }
  }
  return defs;
}

/// bench_solver's sweep instance: `num_cands` candidates in groups of 10,
/// two query rows per group whose atoms reference only that group (plus
/// the index-free anchor), so the interaction clusters are precisely the
/// groups. A universe the catalog cannot name comes out smaller.
inline CoPhyPrepared MakeClusteredPrepared(const Database& db,
                                           int num_cands) {
  constexpr int kPerGroup = 10;
  constexpr int kRowsPerGroup = 2;
  Rng rng(static_cast<uint64_t>(num_cands) * 7919 + 1);
  std::vector<IndexDef> defs = EnumerateIndexDefs(db.catalog(), num_cands);
  num_cands = static_cast<int>(defs.size());
  const int groups = num_cands / kPerGroup;

  CoPhyPrepared prep;
  for (int i = 0; i < num_cands; ++i) {
    CandidateIndex c;
    c.index = defs[static_cast<size_t>(i)];
    c.size_pages = rng.UniformDouble(50.0, 400.0);
    c.relevant_queries = 1;
    prep.candidates.push_back(std::move(c));
  }
  prep.universe_fingerprint = CandidateUniverseFingerprint(prep.candidates);

  for (int g = 0; g < groups; ++g) {
    for (int r = 0; r < kRowsPerGroup; ++r) {
      auto row = std::make_shared<CoPhyAtomRow>();
      double base = rng.UniformDouble(80.0, 160.0);
      row->base_cost = base;
      row->atoms.push_back(CoPhyAtom{base, {}});  // index-free anchor
      for (int j = 0; j < kPerGroup; ++j) {
        int i = g * kPerGroup + j;
        row->atoms.push_back(
            CoPhyAtom{base * rng.UniformDouble(0.3, 0.95), {i}});
      }
      for (int j = 0; j + 1 < kPerGroup; j += 2) {
        std::vector<int> used = {g * kPerGroup + j, g * kPerGroup + j + 1};
        row->atoms.push_back(
            CoPhyAtom{base * rng.UniformDouble(0.15, 0.4), std::move(used)});
      }
      std::sort(row->atoms.begin(), row->atoms.end(),
                [](const CoPhyAtom& a, const CoPhyAtom& b) {
                  return a.cost < b.cost;
                });
      prep.num_atoms += row->atoms.size();
      prep.rows.push_back(std::move(row));
      prep.weights.push_back(rng.UniformDouble(0.5, 2.0));
      prep.base_cost += prep.weights.back() * base;
    }
  }
  prep.RefreshClusters();
  return prep;
}

/// Pages of the whole candidate universe (a budget that never binds).
inline double TotalSize(const CoPhyPrepared& prep) {
  double total = 0.0;
  for (const CandidateIndex& c : prep.candidates) total += c.size_pages;
  return total;
}

}  // namespace dbdesign::synthetic

#endif  // DBDESIGN_TESTS_SYNTHETIC_COPHY_H_
