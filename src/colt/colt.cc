#include "colt/colt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/str.h"

namespace dbdesign {

double EstimateIndexBuildCost(const DbmsBackend& backend,
                              const IndexDef& index,
                              const CostParams& params) {
  const TableDef& def = backend.catalog().table(index.table);
  const TableStats& stats = backend.stats(index.table);
  IndexSizeEstimate size = backend.EstimateIndexSize(index);
  double rows = std::max(1.0, stats.row_count);
  // Read the heap once, sort the keys, write the index pages.
  return stats.HeapPages(def) * params.seq_page_cost +
         2.0 * rows * std::log2(std::max(2.0, rows)) *
             params.cpu_operator_cost +
         size.total_pages() * params.seq_page_cost;
}

ColtTuner::ColtTuner(DbmsBackend& backend, ColtOptions options)
    : backend_(&backend),
      params_(backend.cost_params()),
      options_(options),
      inum_(backend, options_.inum) {}

Status ColtTuner::SetConstraints(DesignConstraints constraints) {
  Status s = constraints.Validate(backend_->catalog());
  if (!s.ok()) return s;
  constraints_ = std::move(constraints);

  // Vetoes take effect immediately: drop built vetoed indexes and purge
  // them from the candidate pool so they are never profiled again.
  for (auto it = candidates_.begin(); it != candidates_.end();) {
    if (constraints_.IsVetoed(it->second.index)) {
      if (it->second.built) {
        current_.RemoveIndex(it->second.index);
        events_.push_back(ColtEvent{ColtEvent::Type::kDrop, epoch_,
                                    it->second.index,
                                    it->second.ewma_benefit});
      }
      it = candidates_.erase(it);
    } else {
      it->second.pinned = false;  // re-derived from the new pin list below
      ++it;
    }
  }

  // Pins materialize immediately (paying their build cost) and are
  // exempt from selection, eviction and the drop hysteresis.
  for (const IndexDef& pin : constraints_.pinned_indexes) {
    auto it = candidates_.find(pin.Key());
    if (it == candidates_.end()) {
      Candidate cand;
      cand.index = pin;
      cand.size_pages = backend_->EstimateIndexSize(pin).total_pages();
      cand.build_cost = EstimateIndexBuildCost(*backend_, pin, params_);
      cand.last_seen_epoch = epoch_;
      it = candidates_.emplace(pin.Key(), std::move(cand)).first;
    }
    it->second.pinned = true;
    if (!it->second.built) {
      current_.AddIndex(pin);
      it->second.built = true;
      cumulative_build_cost_ += it->second.build_cost;
      events_.push_back(ColtEvent{ColtEvent::Type::kBuild, epoch_, pin,
                                  it->second.ewma_benefit});
    }
  }
  return Status::OK();
}

void ColtTuner::ExtractCandidates(const BoundQuery& query) {
  for (int s = 0; s < query.num_slots(); ++s) {
    for (ColumnId c : query.PredicateColumns(s)) {
      IndexDef idx;
      idx.table = query.tables[s];
      idx.columns = {c};  // COLT proposes single-column indexes only
      if (constraints_.IsVetoed(idx)) continue;
      std::string key = idx.Key();
      auto it = candidates_.find(key);
      if (it == candidates_.end()) {
        if (static_cast<int>(candidates_.size()) >=
            options_.max_candidates) {
          // Evict the least recently seen unbuilt candidate.
          auto victim = candidates_.end();
          for (auto cit = candidates_.begin(); cit != candidates_.end();
               ++cit) {
            if (cit->second.built) continue;
            if (victim == candidates_.end() ||
                cit->second.last_seen_epoch <
                    victim->second.last_seen_epoch) {
              victim = cit;
            }
          }
          if (victim == candidates_.end()) continue;
          candidates_.erase(victim);
        }
        Candidate cand;
        cand.index = idx;
        cand.size_pages = backend_->EstimateIndexSize(idx).total_pages();
        cand.build_cost = EstimateIndexBuildCost(*backend_, idx, params_);
        cand.last_seen_epoch = epoch_;
        it = candidates_.emplace(key, std::move(cand)).first;
      }
      it->second.last_seen_epoch = epoch_;
      it->second.hits++;
    }
  }
}

double ColtTuner::OnQuery(const BoundQuery& query) {
  // Intern the query's template (structurally verified on signature
  // hits). Repeated instances share the representative's cached cost:
  // INUM populates once per template, and every later instance is a
  // pure cache reuse regardless of its constants.
  size_t cls = templates_.AddInstance(query);
  const BoundQuery& rep = templates_.classes()[cls].representative;
  Result<double> costed = inum_.TryCost(rep, current_);
  if (!costed.ok()) {
    // Degraded: the query is observed (template interned, candidates
    // extracted) but not costed — no sentinel enters the accounting.
    ++backend_errors_;
    last_backend_error_ = costed.status();
  }
  double cost = costed.value_or(0.0);
  cumulative_query_cost_ += cost;
  if (enabled_) {
    ExtractCandidates(query);
  }
  epoch_counts_[cls] += 1.0;
  ++epoch_instances_;
  if (epoch_instances_ >= options_.epoch_length) {
    EndEpoch();
  }
  return cost;
}

void ColtTuner::EndEpoch() {
  try {
    EndEpochImpl();
  } catch (const StatusException& e) {
    // Backend failure mid-rollup: skip profiling and configuration
    // changes for this epoch (EWMA updates already applied stand —
    // they came from successful calls), keep the current design, and
    // keep tuning. The tuner never aborts on a backend hiccup.
    ++degraded_epochs_;
    last_backend_error_ = e.status();
    DBD_LOG_WARN("COLT epoch " + std::to_string(epoch_) +
                 " degraded (no profiling/selection): " +
                 e.status().ToString());
    ColtEpochReport report;
    report.epoch = epoch_;
    report.epoch_templates = static_cast<int>(epoch_counts_.size());
    RollEpoch(std::move(report));
  }
}

void ColtTuner::RollEpoch(ColtEpochReport report) {
  report.config_size = static_cast<int>(current_.indexes().size());
  epochs_.push_back(std::move(report));
  epoch_counts_.clear();
  epoch_instances_ = 0;
  ++epoch_;
}

void ColtTuner::EndEpochImpl() {
  ColtEpochReport report;
  report.epoch = epoch_;
  report.epoch_templates = static_cast<int>(epoch_counts_.size());

  // Epoch costs under the live design and under the empty baseline,
  // evaluated on the epoch's compressed form: one representative per
  // template class, weighted by its instance count. Profiling work in
  // this function scales with epoch_templates, not epoch_length.
  Workload epoch_w;
  for (const auto& [cls, count] : epoch_counts_) {
    epoch_w.Add(templates_.classes()[cls].representative, count);
  }
  report.observed_cost = inum_.WorkloadCost(epoch_w, current_);
  report.baseline_cost = inum_.WorkloadCost(epoch_w, PhysicalDesign{});

  if (!enabled_) {
    RollEpoch(std::move(report));
    return;
  }

  // --- Profiling under the what-if budget ---
  // Rank candidates by epoch interest (hits), break ties by EWMA.
  std::vector<Candidate*> ranked;
  for (auto& [key, cand] : candidates_) ranked.push_back(&cand);
  std::sort(ranked.begin(), ranked.end(), [](Candidate* a, Candidate* b) {
    if (a->hits != b->hits) return a->hits > b->hits;
    return a->ewma_benefit > b->ewma_benefit;
  });

  int budget = options_.whatif_budget_per_epoch;
  for (Candidate* cand : ranked) {
    double measured;
    if (budget > 0) {
      PhysicalDesign with = current_;
      PhysicalDesign without = current_;
      bool was_built = with.HasIndex(cand->index);
      if (was_built) {
        without.RemoveIndex(cand->index);
      } else {
        with.AddIndex(cand->index);
      }
      measured = inum_.WorkloadCost(epoch_w, without) -
                 inum_.WorkloadCost(epoch_w, with);
      --budget;
      ++report.whatif_calls;
    } else {
      // Unprofiled this epoch: decay toward zero.
      measured = cand->hits > 0 ? cand->ewma_benefit : 0.0;
    }
    cand->ewma_benefit = options_.ewma_alpha * measured +
                         (1.0 - options_.ewma_alpha) * cand->ewma_benefit;
    cand->hits = 0;
  }

  // --- Selection: density-greedy knapsack with pairwise improvement ---
  // DBA pins are pre-selected (never ranked, never displaced); the
  // knapsack fills whatever budget and per-table headroom they leave.
  // Built candidates must clear the drop floor to stay in contention;
  // otherwise a once-useful index would be re-selected forever on the
  // strength of its decaying EWMA tail.
  double space_budget =
      constraints_.EffectiveBudget(options_.storage_budget_pages);
  std::vector<Candidate*> selected;
  double used_pages = 0.0;
  std::map<TableId, int> per_table;
  for (auto& [key, cand] : candidates_) {
    if (cand.pinned) {
      selected.push_back(&cand);
      used_pages += cand.size_pages;
      per_table[cand.index.table]++;
    }
  }
  std::vector<Candidate*> pool;
  for (auto& [key, cand] : candidates_) {
    if (cand.pinned) continue;
    double floor =
        options_.drop_fraction *
        (cand.build_cost / std::max(1.0, options_.amortization_epochs));
    double admission = cand.built ? floor : 0.0;
    if (cand.ewma_benefit > admission) pool.push_back(&cand);
  }
  std::sort(pool.begin(), pool.end(), [](Candidate* a, Candidate* b) {
    return a->ewma_benefit / std::max(1.0, a->size_pages) >
           b->ewma_benefit / std::max(1.0, b->size_pages);
  });
  for (Candidate* c : pool) {
    if (used_pages + c->size_pages > space_budget) continue;
    if (per_table[c->index.table] + 1 >
        constraints_.TableCapOrUnlimited(c->index.table)) {
      continue;
    }
    selected.push_back(c);
    used_pages += c->size_pages;
    per_table[c->index.table]++;
  }
  // Pairwise improvement: try swapping an unselected candidate in for a
  // selected (unpinned) one when it raises total benefit within the
  // budget and table caps.
  bool improved = true;
  while (improved) {
    improved = false;
    for (Candidate* out : pool) {
      if (std::find(selected.begin(), selected.end(), out) !=
          selected.end()) {
        continue;
      }
      for (size_t i = 0; i < selected.size(); ++i) {
        if (selected[i]->pinned) continue;
        double new_pages =
            used_pages - selected[i]->size_pages + out->size_pages;
        if (new_pages > space_budget) continue;
        if (out->index.table != selected[i]->index.table &&
            per_table[out->index.table] + 1 >
                constraints_.TableCapOrUnlimited(out->index.table)) {
          continue;
        }
        if (out->ewma_benefit > selected[i]->ewma_benefit + 1e-9) {
          used_pages = new_pages;
          per_table[selected[i]->index.table]--;
          per_table[out->index.table]++;
          selected[i] = out;
          improved = true;
          break;
        }
      }
      if (improved) break;
    }
  }

  // --- Apply with hysteresis ---
  // Drops first, so freed space is available to new builds this epoch.
  double materialized_pages = 0.0;
  for (auto& [key, cand] : candidates_) {
    if (cand.built) materialized_pages += cand.size_pages;
  }
  for (auto& [key, cand] : candidates_) {
    bool want =
        std::find(selected.begin(), selected.end(), &cand) != selected.end();
    if (!want && cand.built && !cand.pinned) {
      double amortized =
          cand.build_cost / std::max(1.0, options_.amortization_epochs);
      if (cand.ewma_benefit < options_.drop_fraction * amortized) {
        current_.RemoveIndex(cand.index);
        cand.built = false;
        materialized_pages -= cand.size_pages;
        events_.push_back(ColtEvent{ColtEvent::Type::kDrop, epoch_,
                                    cand.index, cand.ewma_benefit});
      }
    }
  }
  for (auto& [key, cand] : candidates_) {
    bool want =
        std::find(selected.begin(), selected.end(), &cand) != selected.end();
    if (want && !cand.built) {
      double amortized_gain =
          cand.ewma_benefit * options_.amortization_epochs;
      events_.push_back(ColtEvent{ColtEvent::Type::kAlert, epoch_,
                                  cand.index, cand.ewma_benefit});
      // The *materialized* configuration must respect the space budget
      // even while older selections are still built.
      bool fits = materialized_pages + cand.size_pages <= space_budget;
      if (fits &&
          amortized_gain > cand.build_cost * options_.build_hysteresis) {
        current_.AddIndex(cand.index);
        cand.built = true;
        materialized_pages += cand.size_pages;
        cumulative_build_cost_ += cand.build_cost;
        events_.push_back(ColtEvent{ColtEvent::Type::kBuild, epoch_,
                                    cand.index, cand.ewma_benefit});
      }
    }
  }

  DBD_LOG_DEBUG(StrFormat(
      "COLT epoch %d: cost %.1f (baseline %.1f), %d indexes, %d whatif, "
      "%d templates",
      epoch_, report.observed_cost, report.baseline_cost,
      static_cast<int>(current_.indexes().size()), report.whatif_calls,
      report.epoch_templates));
  RollEpoch(std::move(report));
}

}  // namespace dbdesign
