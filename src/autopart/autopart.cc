#include "autopart/autopart.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/logging.h"
#include "util/str.h"

namespace dbdesign {

AutoPartAdvisor::AutoPartAdvisor(DbmsBackend& backend, AutoPartOptions options)
    : backend_(&backend), options_(options), inum_(backend) {}

std::vector<VerticalFragment> AutoPartAdvisor::AtomicFragments(
    TableId table, const Workload& workload) const {
  const TableDef& def = backend_->catalog().table(table);
  // Access signature per column: bitmask over queries touching it.
  std::vector<uint64_t> signature(static_cast<size_t>(def.num_columns()), 0);
  for (size_t qi = 0; qi < workload.size() && qi < 64; ++qi) {
    const BoundQuery& q = workload.queries[qi];
    for (int s = 0; s < q.num_slots(); ++s) {
      if (q.tables[s] != table) continue;
      for (ColumnId c : q.ReferencedColumns(s)) {
        signature[static_cast<size_t>(c)] |= uint64_t{1} << qi;
      }
    }
  }
  std::map<uint64_t, VerticalFragment> groups;
  for (ColumnId c = 0; c < def.num_columns(); ++c) {
    groups[signature[static_cast<size_t>(c)]].columns.push_back(c);
  }
  std::vector<VerticalFragment> fragments;
  for (auto& [sig, frag] : groups) {
    std::sort(frag.columns.begin(), frag.columns.end());
    fragments.push_back(std::move(frag));
  }
  return fragments;
}

Result<PartitionRecommendation> AutoPartAdvisor::Recommend(
    const Workload& workload, const DesignConstraints& constraints) {
  try {
    return Search(workload, constraints);
  } catch (const StatusException& e) {
    return e.status();
  }
}

PartitionRecommendation AutoPartAdvisor::Search(
    const Workload& workload, const DesignConstraints& constraints) {
  PartitionRecommendation rec;
  PhysicalDesign design;
  rec.base_cost = inum_.WorkloadCost(workload, design);
  rec.per_query_base_cost.reserve(workload.size());
  for (const BoundQuery& q : workload.queries) {
    rec.per_query_base_cost.push_back(inum_.Cost(q, PhysicalDesign{}));
  }

  // Tables touched by the workload, largest first.
  std::set<TableId> touched;
  for (const BoundQuery& q : workload.queries) {
    for (TableId t : q.tables) touched.insert(t);
  }

  for (TableId table : touched) {
    const TableDef& def = backend_->catalog().table(table);
    const TableStats& stats = backend_->stats(table);
    if (stats.HeapPages(def) < options_.min_table_pages) continue;
    // DBA partitioning control: a denied (or not-allowed) table keeps
    // its original layout.
    if (!constraints.PartitioningAllowed(table)) continue;

    // --- Vertical: atomic fragments, then greedy merging ---
    std::vector<VerticalFragment> frags = AtomicFragments(table, workload);
    auto apply = [&](const std::vector<VerticalFragment>& f) {
      VerticalPartitioning vp;
      vp.table = table;
      vp.fragments = f;
      PhysicalDesign d = design;
      d.SetVerticalPartitioning(vp);
      return d;
    };
    double current = inum_.WorkloadCost(workload, apply(frags));
    double unpartitioned = inum_.WorkloadCost(workload, design);

    for (int iter = 0; iter < options_.max_merge_iterations; ++iter) {
      if (frags.size() <= 1) break;
      double best_cost = current;
      int best_a = -1;
      int best_b = -1;
      for (size_t a = 0; a < frags.size(); ++a) {
        for (size_t b = a + 1; b < frags.size(); ++b) {
          std::vector<VerticalFragment> trial;
          VerticalFragment merged;
          merged.columns = frags[a].columns;
          merged.columns.insert(merged.columns.end(), frags[b].columns.begin(),
                                frags[b].columns.end());
          std::sort(merged.columns.begin(), merged.columns.end());
          trial.push_back(merged);
          for (size_t k = 0; k < frags.size(); ++k) {
            if (k != a && k != b) trial.push_back(frags[k]);
          }
          double cost = inum_.WorkloadCost(workload, apply(trial));
          if (cost < best_cost - 1e-9) {
            best_cost = cost;
            best_a = static_cast<int>(a);
            best_b = static_cast<int>(b);
          }
        }
      }
      if (best_a < 0) break;
      VerticalFragment merged;
      merged.columns = frags[static_cast<size_t>(best_a)].columns;
      merged.columns.insert(
          merged.columns.end(),
          frags[static_cast<size_t>(best_b)].columns.begin(),
          frags[static_cast<size_t>(best_b)].columns.end());
      std::sort(merged.columns.begin(), merged.columns.end());
      frags.erase(frags.begin() + best_b);
      frags.erase(frags.begin() + best_a);
      frags.push_back(std::move(merged));
      current = best_cost;
    }

    // --- Replication: copy hot columns into fragments when affordable ---
    {
      VerticalPartitioning vp;
      vp.table = table;
      vp.fragments = frags;
      bool improved = true;
      while (improved &&
             vp.ReplicationFactor(def) < options_.replication_budget_factor) {
        improved = false;
        double best_cost = current;
        VerticalPartitioning best_vp = vp;
        for (size_t f = 0; f < vp.fragments.size(); ++f) {
          for (ColumnId c = 0; c < def.num_columns(); ++c) {
            if (vp.fragments[f].Covers(c)) continue;
            VerticalPartitioning trial = vp;
            trial.fragments[f].columns.push_back(c);
            std::sort(trial.fragments[f].columns.begin(),
                      trial.fragments[f].columns.end());
            if (trial.ReplicationFactor(def) >
                options_.replication_budget_factor) {
              continue;
            }
            PhysicalDesign d = design;
            d.SetVerticalPartitioning(trial);
            double cost = inum_.WorkloadCost(workload, d);
            if (cost < best_cost - 1e-9) {
              best_cost = cost;
              best_vp = trial;
              improved = true;
            }
          }
        }
        if (improved) {
          vp = best_vp;
          current = best_cost;
        }
      }
      frags = vp.fragments;
    }

    PartitionRecommendation::TableReport report;
    report.table = table;
    if (current < unpartitioned - 1e-9 && frags.size() > 1) {
      VerticalPartitioning vp;
      vp.table = table;
      vp.fragments = frags;
      report.num_fragments = static_cast<int>(frags.size());
      report.replication_factor = vp.ReplicationFactor(def);
      design.SetVerticalPartitioning(std::move(vp));
    } else {
      report.num_fragments = 1;
    }

    // --- Horizontal: range bounds on the most range-filtered column ---
    if (options_.enable_horizontal) {
      std::map<ColumnId, int> range_hits;
      for (const BoundQuery& q : workload.queries) {
        for (int s = 0; s < q.num_slots(); ++s) {
          if (q.tables[s] != table) continue;
          for (const BoundPredicate& p : q.FiltersOn(s)) {
            if (p.IsRange()) range_hits[p.column.column]++;
          }
        }
      }
      ColumnId best_col = kInvalidColumnId;
      int best_hits = 0;
      for (auto [c, hits] : range_hits) {
        if (hits > best_hits) {
          best_hits = hits;
          best_col = c;
        }
      }
      if (best_col != kInvalidColumnId && best_hits >= 2) {
        const ColumnStats& cs = stats.column(best_col);
        HorizontalPartitioning hp;
        hp.table = table;
        hp.column = best_col;
        int parts = options_.horizontal_partitions;
        if (cs.HasHistogram()) {
          // Equi-depth bounds straight from the histogram.
          const std::vector<Value>& h = cs.histogram;
          for (int p = 1; p < parts; ++p) {
            size_t pos = static_cast<size_t>(
                static_cast<double>(p) / parts * (h.size() - 1));
            if (pos == 0 || pos >= h.size() - 1) continue;
            if (hp.bounds.empty() || h[pos] > hp.bounds.back()) {
              hp.bounds.push_back(h[pos]);
            }
          }
        }
        if (static_cast<int>(hp.bounds.size()) >= 2) {
          PhysicalDesign trial = design;
          trial.SetHorizontalPartitioning(hp);
          double with_h = inum_.WorkloadCost(workload, trial);
          double without_h = inum_.WorkloadCost(workload, design);
          if (with_h < without_h - 1e-9) {
            report.horizontal = true;
            report.horizontal_parts = hp.num_partitions();
            design.SetHorizontalPartitioning(std::move(hp));
          }
        }
      }
    }
    rec.tables.push_back(report);
  }

  rec.design = design;
  rec.final_cost = inum_.WorkloadCost(workload, design);
  rec.per_query_cost.reserve(workload.size());
  for (const BoundQuery& q : workload.queries) {
    rec.per_query_cost.push_back(inum_.Cost(q, design));
  }
  DBD_LOG_INFO(StrFormat("AutoPart: cost %.1f -> %.1f (%.1f%%)",
                         rec.base_cost, rec.final_cost,
                         rec.improvement() * 100.0));
  return rec;
}

std::string AutoPartAdvisor::RewriteQuery(const BoundQuery& query,
                                          const PhysicalDesign& design) const {
  const Catalog& catalog = backend_->catalog();
  // Per slot: fragments needed to cover the referenced columns.
  std::vector<std::string> from_items;
  std::vector<std::string> join_conds;
  auto frag_alias = [&](int slot, size_t frag) {
    return StrFormat("%s_f%zu", query.aliases[slot].c_str(), frag);
  };

  auto column_source = [&](const BoundColumn& c) -> std::string {
    const VerticalPartitioning* vp = design.vertical(query.tables[c.slot]);
    if (vp == nullptr || vp->fragments.empty()) {
      return query.aliases[c.slot];
    }
    for (size_t f = 0; f < vp->fragments.size(); ++f) {
      if (vp->fragments[f].Covers(c.column)) return frag_alias(c.slot, f);
    }
    return query.aliases[c.slot];
  };
  auto col_name = [&](const BoundColumn& c) {
    return column_source(c) + "." +
           catalog.table(query.tables[c.slot]).column(c.column).name;
  };

  for (int s = 0; s < query.num_slots(); ++s) {
    const std::string& tname = catalog.table(query.tables[s]).name();
    const VerticalPartitioning* vp = design.vertical(query.tables[s]);
    if (vp == nullptr || vp->fragments.empty()) {
      from_items.push_back(tname + " " + query.aliases[s]);
      continue;
    }
    // Minimal fragment cover of the referenced columns, in index order.
    std::set<ColumnId> needed;
    for (ColumnId c : query.ReferencedColumns(s)) needed.insert(c);
    std::vector<size_t> used;
    for (size_t f = 0; f < vp->fragments.size() && !needed.empty(); ++f) {
      bool helps = false;
      for (ColumnId c : vp->fragments[f].columns) {
        if (needed.count(c) > 0) helps = true;
      }
      if (!helps) continue;
      for (ColumnId c : vp->fragments[f].columns) needed.erase(c);
      used.push_back(f);
    }
    if (used.empty()) used.push_back(0);
    std::string first = frag_alias(s, used[0]);
    for (size_t u = 0; u < used.size(); ++u) {
      from_items.push_back(StrFormat("%s__f%zu %s", tname.c_str(), used[u],
                                     frag_alias(s, used[u]).c_str()));
      if (u > 0) {
        join_conds.push_back(StrFormat("%s.rid = %s.rid", first.c_str(),
                                       frag_alias(s, used[u]).c_str()));
      }
    }
  }

  std::vector<std::string> items;
  for (const BoundColumn& c : query.select_columns) items.push_back(col_name(c));
  for (const BoundAggregate& a : query.aggregates) {
    items.push_back(a.star ? StrFormat("%s(*)", AggFnName(a.fn))
                           : StrFormat("%s(%s)", AggFnName(a.fn),
                                       col_name(a.column).c_str()));
  }
  std::string sql =
      "SELECT " + (items.empty() ? "*" : StrJoin(items, ", ")) + " FROM " +
      StrJoin(from_items, ", ");

  std::vector<std::string> conds = join_conds;
  for (const BoundJoin& j : query.joins) {
    conds.push_back(col_name(j.left) + " = " + col_name(j.right));
  }
  for (const BoundPredicate& p : query.filters) {
    if (p.value2.has_value()) {
      conds.push_back(col_name(p.column) + " BETWEEN " + p.value.ToString() +
                      " AND " + p.value2->ToString());
    } else {
      conds.push_back(StrFormat("%s %s %s", col_name(p.column).c_str(),
                                CompareOpName(p.op),
                                p.value.ToString().c_str()));
    }
  }
  if (!conds.empty()) sql += " WHERE " + StrJoin(conds, " AND ");
  if (!query.group_by.empty()) {
    std::vector<std::string> g;
    for (const BoundColumn& c : query.group_by) g.push_back(col_name(c));
    sql += " GROUP BY " + StrJoin(g, ", ");
  }
  if (!query.order_by.empty()) {
    std::vector<std::string> o;
    for (const BoundOrderItem& i : query.order_by) {
      o.push_back(col_name(i.column) + (i.descending ? " DESC" : ""));
    }
    sql += " ORDER BY " + StrJoin(o, ", ");
  }
  if (query.limit >= 0) {
    sql += StrFormat(" LIMIT %lld", static_cast<long long>(query.limit));
  }
  return sql;
}

}  // namespace dbdesign
