#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <span>
#include <sstream>

#include "catalog/design_json.h"
#include "interaction/doi.h"
#include "sql/binder.h"
#include "util/logging.h"
#include "util/str.h"

namespace dbdesign {

DesignSession::DesignSession(Designer& designer) : designer_(&designer) {}

DesignSession::~DesignSession() = default;

void DesignSession::Checkpoint(std::string action) {
  undo_stack_.push_back(design());
  redo_stack_.clear();
  log_.push_back(std::move(action));
}

void DesignSession::Apply(const PhysicalDesign& target) {
  WhatIfOptimizer& whatif = designer_->whatif();
  whatif.ResetHypothetical();
  // Rebuild the overlay from the target design. ResetHypothetical
  // restores the materialized baseline; drop baseline indexes absent
  // from the target (copy first: dropping mutates the design), then add
  // the target's hypothetical indexes.
  std::vector<IndexDef> baseline = whatif.hypothetical_design().indexes();
  for (const IndexDef& idx : baseline) {
    if (!target.HasIndex(idx)) whatif.DropHypotheticalIndex(idx);
  }
  for (const IndexDef& idx : target.indexes()) {
    if (!whatif.hypothetical_design().HasIndex(idx)) {
      whatif.CreateHypotheticalIndex(idx);
    }
  }
  for (TableId t = 0; t < designer_->backend().catalog().num_tables(); ++t) {
    if (const VerticalPartitioning* vp = target.vertical(t)) {
      whatif.SetHypotheticalVerticalPartitioning(*vp);
    } else {
      whatif.ClearHypotheticalVerticalPartitioning(t);
    }
    if (const HorizontalPartitioning* hp = target.horizontal(t)) {
      whatif.SetHypotheticalHorizontalPartitioning(*hp);
    } else {
      whatif.ClearHypotheticalHorizontalPartitioning(t);
    }
  }
}

Status DesignSession::CreateIndex(const IndexDef& index) {
  Checkpoint("CREATE INDEX " +
             index.DisplayName(designer_->backend().catalog()));
  Status s = designer_->whatif().CreateHypotheticalIndex(index);
  if (!s.ok()) {
    undo_stack_.pop_back();
    log_.pop_back();
  }
  return s;
}

Status DesignSession::DropIndex(const IndexDef& index) {
  Checkpoint("DROP INDEX " + index.DisplayName(designer_->backend().catalog()));
  Status s = designer_->whatif().DropHypotheticalIndex(index);
  if (!s.ok()) {
    undo_stack_.pop_back();
    log_.pop_back();
  }
  return s;
}

Status DesignSession::SetVerticalPartitioning(VerticalPartitioning p) {
  const TableDef& def = designer_->backend().catalog().table(p.table);
  if (!p.CoversTable(def)) {
    return Status::InvalidArgument(
        "vertical partitioning does not cover table " + def.name());
  }
  Checkpoint(StrFormat("PARTITION %s INTO %zu FRAGMENTS",
                       def.name().c_str(), p.fragments.size()));
  designer_->whatif().SetHypotheticalVerticalPartitioning(std::move(p));
  return Status::OK();
}

Status DesignSession::ClearVerticalPartitioning(TableId table) {
  Checkpoint("UNPARTITION " +
             designer_->backend().catalog().table(table).name());
  designer_->whatif().ClearHypotheticalVerticalPartitioning(table);
  return Status::OK();
}

Status DesignSession::SetHorizontalPartitioning(HorizontalPartitioning p) {
  for (size_t i = 1; i < p.bounds.size(); ++i) {
    if (!(p.bounds[i - 1] < p.bounds[i])) {
      return Status::InvalidArgument(
          "horizontal partition bounds must be strictly increasing");
    }
  }
  const TableDef& def = designer_->backend().catalog().table(p.table);
  Checkpoint(StrFormat("PARTITION %s BY RANGE (%s), %d PARTITIONS",
                       def.name().c_str(),
                       def.column(p.column).name.c_str(),
                       p.num_partitions()));
  designer_->whatif().SetHypotheticalHorizontalPartitioning(std::move(p));
  return Status::OK();
}

Status DesignSession::ClearHorizontalPartitioning(TableId table) {
  Checkpoint("UNPARTITION RANGE " +
             designer_->backend().catalog().table(table).name());
  designer_->whatif().ClearHypotheticalHorizontalPartitioning(table);
  return Status::OK();
}

bool DesignSession::Undo() {
  if (undo_stack_.empty()) return false;
  redo_stack_.push_back(design());
  Apply(undo_stack_.back());
  undo_stack_.pop_back();
  log_.push_back("UNDO");
  return true;
}

bool DesignSession::Redo() {
  if (redo_stack_.empty()) return false;
  undo_stack_.push_back(design());
  Apply(redo_stack_.back());
  redo_stack_.pop_back();
  log_.push_back("REDO");
  return true;
}

// --- Workload deltas ---

void DesignSession::RebuildClasses() {
  classes_.Clear();
  class_of_.clear();
  class_of_.reserve(workload_.size());
  for (size_t i = 0; i < workload_.size(); ++i) {
    class_of_.push_back(
        classes_.AddInstance(workload_.queries[i], workload_.WeightOf(i)));
  }
}

void DesignSession::SyncPreparedWeights() {
  prepared_.base_cost = 0.0;
  for (size_t c = 0; c < prepared_.weights.size(); ++c) {
    prepared_.weights[c] = classes_.classes()[c].weight;
    prepared_.base_cost += prepared_.weights[c] * prepared_.rows[c]->base_cost;
  }
}

void DesignSession::SetCacheBudget(const CacheBudget& budget) {
  cache_budget_ = budget;
  // Apply immediately so a shrink takes effect now: evicted DoI rows
  // recompute from cached atoms, trimmed frontiers re-enumerate — both
  // transparent to results.
  if (cache_budget_.solver_cache_bytes != 0) {
    solver_cache_.TrimToBytes(cache_budget_.solver_cache_bytes);
  }
  doi_rows_.set_budget(cache_budget_.doi_rows_bytes);
  doi_rows_evicted_ += doi_rows_.EvictToBudget();
}

void DesignSession::InvalidateDeployment() {
  doi_rows_.Clear();
  doi_indexes_.clear();
  deployment_.reset();
  deployment_class_keys_.clear();
  deployment_weights_.clear();
  deployment_constraints_ = DesignConstraints{};
}

void DesignSession::SetWorkload(Workload workload) {
  workload_ = std::move(workload);
  RebuildClasses();
  prepared_ = CoPhyPrepared{};
  prepared_valid_ = false;
  solver_cache_.Clear();
  certificate_valid_ = false;
  InvalidateDeployment();
  log_.push_back(StrFormat("SET WORKLOAD (%zu queries, %zu template classes)",
                           workload_.size(), classes_.size()));
}

void DesignSession::AddQueries(const std::vector<BoundQuery>& queries,
                               double weight) {
  size_t first_new_class = classes_.size();
  std::vector<size_t> bumped;  // pre-existing classes that gained weight
  for (const BoundQuery& q : queries) {
    size_t id = classes_.AddInstance(q, weight);
    workload_.Add(q, weight);
    class_of_.push_back(id);
    if (id < first_new_class) bumped.push_back(id);
  }
  bool new_classes = classes_.size() > first_new_class;

  if (prepared_valid_ && new_classes) {
    // New templates may warrant candidates the original mining never
    // saw (e.g. they touch a table no prior class did). Mine just the
    // new representatives — stats-only, no backend cost calls — and
    // extend the universe when something new surfaces.
    //
    // Extending atoms for new templates is the one workload delta that
    // needs the backend. If it fails the delta still lands (AddQueries
    // never throws): the warm prepared state is dropped and the next
    // Recommend rebuilds it — surfacing the backend Status there.
    try {
      Workload added_only;
      for (size_t c = first_new_class; c < classes_.size(); ++c) {
        const TemplateClass& cls = classes_.classes()[c];
        added_only.Add(cls.representative, cls.weight);
      }
      std::vector<CandidateIndex> fresh =
          GenerateCandidates(designer_->backend(), added_only,
                             designer_->options().cophy.candidates);
      std::vector<CandidateIndex> universe = prepared_.candidates;
      bool grew = false;
      for (const CandidateIndex& c : fresh) {
        bool present = false;
        for (const CandidateIndex& have : universe) {
          present |= have.index == c.index;
        }
        if (!present) {
          universe.push_back(c);
          grew = true;
        }
      }
      if (grew) {
        // The atom matrix is per-candidate-universe: rebuild it from the
        // warm INUM cache (only the new representatives populate).
        Result<CoPhyPrepared> rebuilt =
            cophy_->TryPrepare(classes_.ClassWorkload(), std::move(universe));
        if (!rebuilt.ok()) throw StatusException(rebuilt.status());
        prepared_ = std::move(rebuilt).value();
      } else {
        // Incremental atom maintenance: only the new classes' rows are
        // resolved — through the atom store when one is attached, so a
        // template another session already added is adopted, not
        // populated again. Every existing row of the prepared matrix
        // stays valid (rows are immutable and shared, so this never
        // perturbs a snapshot or another session holding the same row).
        Result<std::vector<std::shared_ptr<const CoPhyAtomRow>>> rows =
            cophy_->TryResolveRows(std::span<const BoundQuery>(
                                       added_only.queries.data(),
                                       added_only.queries.size()),
                                   prepared_.candidates,
                                   prepared_.universe_fingerprint);
        if (!rows.ok()) throw StatusException(rows.status());
        for (size_t m = 0; m < rows.value().size(); ++m) {
          prepared_.num_atoms += rows.value()[m]->atoms.size();
          prepared_.rows.push_back(std::move(rows.value()[m]));
          prepared_.weights.push_back(added_only.WeightOf(m));
        }
        // New rows can couple previously independent candidates: refresh
        // the cluster partition so the decomposed solver sees them.
        prepared_.RefreshClusters();
      }
      // The row space changed shape either way; per-cluster solver state
      // no longer lines up with it.
      solver_cache_.Clear();
    } catch (const StatusException& e) {
      DBD_LOG_WARN("AddQueries: backend failure extending prepared state (" +
                   e.status().ToString() + "); dropping warm cache");
      prepared_ = CoPhyPrepared{};
      prepared_valid_ = false;
      solver_cache_.Clear();
      certificate_valid_ = false;
    }
  }
  if (prepared_valid_) SyncPreparedWeights();

  // Same-template appends are pure weight bumps. The optimality
  // certificate survives one exactly when every bumped class was
  // already served at its cheapest possible atom: scaling w_c up by
  // delta changes any configuration X's objective by
  // delta * cost_c(X) >= delta * cost_c(optimum), so no X can overtake.
  // (Atom rows are sorted cheapest-first, so front() is the floor.
  // The argument needs delta > 0 — a non-positive weight shifts the
  // objective the other way, so it never keeps the certificate.)
  bool bumps_preserve = !new_classes && prepared_valid_ &&
                        certificate_valid_ && last_rec_.has_value() &&
                        (bumped.empty() || weight > 0.0);
  if (bumps_preserve) {
    for (size_t id : bumped) {
      bumps_preserve &=
          id < last_class_cost_.size() && !prepared_.rows[id]->atoms.empty() &&
          last_class_cost_[id] <= prepared_.rows[id]->atoms.front().cost;
    }
  }
  certificate_valid_ = bumps_preserve;
  log_.push_back(StrFormat("ADD %zu QUERIES (%zu new template classes)",
                           queries.size(),
                           classes_.size() - first_new_class));
}

Status DesignSession::RemoveQueries(std::vector<size_t> positions) {
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  if (!positions.empty() && positions.back() >= workload_.size()) {
    return Status::OutOfRange(
        StrFormat("query position %zu out of range (workload has %zu)",
                  positions.back(), workload_.size()));
  }
  for (auto it = positions.rbegin(); it != positions.rend(); ++it) {
    size_t pos = *it;
    size_t id = class_of_[pos];
    double w = workload_.WeightOf(pos);
    workload_.queries.erase(workload_.queries.begin() +
                            static_cast<ptrdiff_t>(pos));
    if (!workload_.weights.empty()) {
      workload_.weights.erase(workload_.weights.begin() +
                              static_cast<ptrdiff_t>(pos));
    }
    class_of_.erase(class_of_.begin() + static_cast<ptrdiff_t>(pos));
    if (classes_.RemoveInstance(id, w)) {
      // Last instance gone: the class and its atoms go with it, and
      // every class id above shifts down by one.
      for (size_t& c : class_of_) {
        if (c > id) --c;
      }
      if (prepared_valid_) {
        prepared_.rows.erase(prepared_.rows.begin() +
                             static_cast<ptrdiff_t>(id));
        prepared_.weights.erase(prepared_.weights.begin() +
                                static_cast<ptrdiff_t>(id));
      }
    }
  }
  if (prepared_valid_) {
    prepared_.num_atoms = 0;
    for (const auto& row : prepared_.rows) {
      prepared_.num_atoms += row->atoms.size();
    }
    SyncPreparedWeights();
    // Removing rows can split clusters (rows are what couple
    // candidates); the old per-cluster solver state is meaningless.
    prepared_.RefreshClusters();
    solver_cache_.Clear();
  }
  certificate_valid_ = false;  // the solved problem no longer matches
  log_.push_back(StrFormat("REMOVE %zu QUERIES", positions.size()));
  return Status::OK();
}

// --- Constraints + the recommendation loop ---

Status DesignSession::SetConstraints(DesignConstraints constraints) {
  Status s = constraints.Validate(designer_->backend().catalog());
  if (!s.ok()) return s;
  constraints_ = std::move(constraints);
  log_.push_back(StrFormat(
      "SET CONSTRAINTS (%zu pins, %zu vetoes, %zu column vetoes, %zu caps)",
      constraints_.pinned_indexes.size(), constraints_.vetoed_indexes.size(),
      constraints_.vetoed_columns.size(),
      constraints_.max_indexes_per_table.size()));
  return Status::OK();
}

Status DesignSession::EnsurePrepared() {
  if (workload_.empty()) {
    return Status::InvalidArgument(
        "session has no workload; call SetWorkload or AddQueries first");
  }
  if (cophy_ == nullptr) {
    cophy_ = std::make_unique<CoPhyAdvisor>(designer_->backend(),
                                            designer_->options().cophy);
    cophy_->set_atom_source(atom_source_);
  }
  if (!prepared_valid_) {
    // Everything downstream runs on the compressed class workload: one
    // INUM populate and one atom row per template class, however many
    // instances the raw trace repeats.
    Workload class_workload = classes_.ClassWorkload();
    std::vector<CandidateIndex> candidates =
        GenerateCandidates(designer_->backend(), class_workload,
                           designer_->options().cophy.candidates);
    MergePinnedCandidates(designer_->backend(), constraints_, &candidates);
    Result<CoPhyPrepared> prepared =
        cophy_->TryPrepare(class_workload, std::move(candidates));
    if (!prepared.ok()) return prepared.status();
    prepared_ = std::move(prepared).value();
    prepared_valid_ = true;
    return Status::OK();
  }
  // Prepared state is live. A pin on an index outside the candidate
  // universe extends it and rebuilds atoms from the warm INUM cache —
  // client-side pricing only, still zero backend optimizer calls.
  bool missing_pin = false;
  for (const IndexDef& pin : constraints_.pinned_indexes) {
    bool present = false;
    for (const CandidateIndex& c : prepared_.candidates) {
      present |= c.index == pin;
    }
    missing_pin |= !present;
  }
  if (missing_pin) {
    std::vector<CandidateIndex> candidates = prepared_.candidates;
    MergePinnedCandidates(designer_->backend(), constraints_, &candidates);
    // On failure the old prepared state (without the pin) is kept
    // untouched; the next call retries the extension.
    Result<CoPhyPrepared> prepared =
        cophy_->TryPrepare(classes_.ClassWorkload(), std::move(candidates));
    if (!prepared.ok()) return prepared.status();
    prepared_ = std::move(prepared).value();
  }
  return Status::OK();
}

namespace {

std::string RecommendationSummary(const std::string& action,
                                  const IndexRecommendation& rec) {
  std::string text = StrFormat("%s -> %zu indexes, cost %.1f -> %.1f",
                               action.c_str(), rec.indexes.size(),
                               rec.base_cost, rec.recommended_cost);
  if (!rec.infeasible_pins.empty()) {
    text += StrFormat(" (%zu pins infeasible)", rec.infeasible_pins.size());
  }
  return text;
}

}  // namespace

void DesignSession::ApplyRecommendation(const IndexRecommendation& rec,
                                        std::string action) {
  Checkpoint(std::move(action));
  PhysicalDesign target = design();
  // The recommendation replaces the index overlay; partitions (and the
  // rest of the hypothetical state) are preserved.
  std::vector<IndexDef> existing = target.indexes();
  for (const IndexDef& idx : existing) target.RemoveIndex(idx);
  for (const IndexDef& idx : rec.indexes) target.AddIndex(idx);
  Apply(target);
}

std::vector<double> DesignSession::ExpandPerQueryCost(
    const std::vector<double>& class_cost) const {
  std::vector<double> out(workload_.size(), 0.0);
  for (size_t i = 0; i < workload_.size(); ++i) {
    out[i] = class_of_[i] < class_cost.size() ? class_cost[class_of_[i]] : 0.0;
  }
  return out;
}

IndexRecommendation DesignSession::ReweightedLastRecommendation() const {
  // Certificate-reuse precondition: the per-class costs of the reused
  // solve must still line up 1:1 with the live class table — a class
  // added or dropped since the solve invalidates the certificate, and
  // the callers are responsible for having checked that already.
  DBD_DCHECK(last_rec_.has_value());
  DBD_DCHECK_EQ(last_class_cost_.size(), classes_.size());
  IndexRecommendation rec = *last_rec_;
  rec.per_query_cost = ExpandPerQueryCost(last_class_cost_);
  rec.recommended_cost = 0.0;
  for (size_t c = 0; c < last_class_cost_.size(); ++c) {
    rec.recommended_cost += classes_.classes()[c].weight * last_class_cost_[c];
  }
  rec.base_cost = prepared_.base_cost;
  // Telemetry must describe THIS answer, not the pre-bump solve: the
  // certificate proves the reused configuration optimal at the current
  // weights, and no solver ran.
  rec.lower_bound = rec.recommended_cost;
  rec.gap = 0.0;
  static_cast<SolverWork&>(rec) = SolverWork{};
  return rec;
}

Result<IndexRecommendation> DesignSession::DegradedRecommendation(
    Status cause) {
  // Only backend unreachability degrades; user errors (empty workload,
  // invalid constraints) surface directly — a cached answer would mask
  // the mistake.
  if (!last_rec_.has_value() || !cause.IsRetryable()) {
    return cause;
  }
  // The last certified recommendation, untouched (no re-weighting: that
  // needs the prepared state, which is exactly what failed to build).
  IndexRecommendation rec = *last_rec_;
  rec.degraded =
      DegradedResult::Because(cause, "last-certified-recommendation");
  log_.push_back("DEGRADED -> last certified recommendation (" +
                 cause.ToString() + ")");
  return rec;
}

Result<IndexRecommendation> DesignSession::Recommend() {
  return RecommendAndApply("RECOMMEND");
}

Result<IndexRecommendation> DesignSession::RecommendAndApply(
    const std::string& action) {
  // Certificate reuse: the previous optimum provably stands (a
  // tightening-only constraint edit it still satisfies, a pure
  // same-template append, or nothing changed at all) — the answer is the
  // old configuration re-weighted, with no solver work and no backend
  // cost calls. The certificate implies a warm prepared state, so this
  // never skips a preparation the solve below would need.
  if (CertificateHolds()) {
    IndexRecommendation rec = ReweightedLastRecommendation();
    ApplyRecommendation(rec, RecommendationSummary(action, rec) +
                                 " (certificate reuse)");
    last_rec_ = rec;
    solved_constraints_ = constraints_;
    return rec;
  }
  // Otherwise re-solve the BIP against the prepared atom matrix.
  Status s = EnsurePrepared();
  if (!s.ok()) return DegradedRecommendation(std::move(s));
  Result<IndexRecommendation> solved =
      cophy_->SolvePrepared(prepared_, constraints_, &solver_cache_);
  if (!solved.ok()) return solved.status();
  if (cache_budget_.solver_cache_bytes != 0) {
    solver_cache_.TrimToBytes(cache_budget_.solver_cache_bytes);
  }
  IndexRecommendation rec = std::move(solved).value();
  last_class_cost_ = rec.per_query_cost;
  rec.per_query_cost = ExpandPerQueryCost(last_class_cost_);
  ApplyRecommendation(rec, RecommendationSummary(action, rec));
  last_rec_ = rec;
  solved_constraints_ = constraints_;
  certificate_valid_ = true;
  return rec;
}

bool DesignSession::CertificateHolds() const {
  // Re-optimization certificate: the previous solve was proven optimal,
  // the edit only tightened the feasible region, and the old solution
  // is still feasible — so it is still optimal (shrinking the feasible
  // set cannot create a better solution, and the old optimum survives).
  if (!certificate_valid_ || !prepared_valid_ || !last_rec_.has_value()) {
    return false;
  }
  const IndexRecommendation& rec = *last_rec_;
  if (!rec.proven_optimal || !rec.infeasible_pins.empty()) return false;
  if (!TightensIndexConstraints(solved_constraints_, constraints_)) {
    return false;
  }
  // Feasibility of the old solution under the new constraints.
  for (const IndexDef& pin : constraints_.pinned_indexes) {
    if (std::find(rec.indexes.begin(), rec.indexes.end(), pin) ==
        rec.indexes.end()) {
      return false;
    }
  }
  for (const IndexDef& idx : rec.indexes) {
    if (constraints_.IsVetoed(idx)) return false;
  }
  double budget = constraints_.EffectiveBudget(
      designer_->options().cophy.storage_budget_pages);
  if (rec.total_size_pages > budget) return false;
  std::map<TableId, int> per_table;
  for (const IndexDef& idx : rec.indexes) per_table[idx.table]++;
  for (const auto& [table, count] : per_table) {
    std::optional<int> cap = constraints_.TableCap(table);
    if (cap.has_value() && count > *cap) return false;
  }
  return true;
}

Result<IndexRecommendation> DesignSession::Refine(
    const ConstraintDelta& delta) {
  Status s = ApplyConstraintDelta(delta, designer_->backend().catalog(),
                                  &constraints_);
  if (!s.ok()) return s;
  if (delta.empty()) return RecommendAndApply("REFINE");
  return RecommendAndApply(
      "REFINE [" + delta.Describe(designer_->backend().catalog()) + "]");
}

// --- Deployment planning ---

bool DesignSession::ScheduleStillValid(
    const std::vector<IndexDef>& indexes,
    const std::vector<std::string>& keys,
    const std::vector<double>& weights) const {
  if (!deployment_.has_value() || deployment_->indexes != indexes) {
    return false;
  }
  // A schedule that had to skip anything is rebuilt rather than reasoned
  // about (the session path never produces one: recommendations are
  // constraint-feasible by construction).
  if (!deployment_->schedule.skipped.empty()) return false;
  // Same classes at the same weights. Identity matters, not just the
  // weight vector: a remove-class + add-class edit can reproduce the
  // old weights while the workload the schedule was costed on is gone.
  // And a same-template append re-weights the DoI sums for free but
  // shifts every marginal benefit, so the greedy order must be
  // re-derived.
  if (keys != deployment_class_keys_) return false;
  if (weights != deployment_weights_) return false;
  // Schedule-relevant constraint edits: pins drive the pins-first
  // phases, vetoes would skip a member, and the budget gates every
  // step. Constraint churn outside the recommended set (vetoing an
  // index that was never recommended, pinning one that is not in the
  // set) provably cannot change the schedule and keeps the reuse.
  for (const IndexDef& idx : indexes) {
    if (constraints_.IsPinned(idx) != deployment_constraints_.IsPinned(idx)) {
      return false;
    }
    if (constraints_.IsVetoed(idx)) return false;
  }
  return deployment_->schedule.total_pages <=
         constraints_.storage_budget_pages;
}

Result<DeploymentPlan> DesignSession::PlanDeployment() {
  if (!last_rec_.has_value() || cophy_ == nullptr) {
    return Status::InvalidArgument(
        "no recommendation to deploy; call Recommend() or Refine() first");
  }
  Result<DeploymentPlan> built = BuildDeploymentPlan();
  if (built.ok()) {
    DeploymentPlan plan = std::move(built).value();
    log_.push_back(StrFormat(
        "PLAN DEPLOYMENT -> %zu steps, %zu interactions, %zu clusters%s",
        plan.schedule.steps.size(), plan.edges.size(), plan.clusters.size(),
        plan.schedule_reused ? " (schedule reuse)" : ""));
    deployment_ = plan;
    return plan;
  }
  // Backend failure: fall back to the cached previous plan, explicitly
  // marked. User errors and permanent failures surface directly.
  if (deployment_.has_value() && built.status().IsRetryable()) {
    DeploymentPlan plan = *deployment_;
    plan.degraded =
        DegradedResult::Because(built.status(), "cached-deployment-plan");
    log_.push_back("DEGRADED -> cached deployment plan (" +
                   built.status().ToString() + ")");
    return plan;
  }
  return built.status();
}

Result<DeploymentPlan> DesignSession::BuildDeploymentPlan() {
  const std::vector<IndexDef>& indexes = last_rec_->indexes;
  InumCostModel& inum = cophy_->inum();
  InteractionAnalyzer analyzer(inum, designer_->options().doi);

  DeploymentPlan plan;
  plan.indexes = indexes;

  // Incremental DoI maintenance: a changed index set invalidates every
  // cached row; otherwise only template classes without a row (new
  // templates — their atoms changed) compute one, priced purely from
  // the cached INUM atoms. Rows of dropped classes are pruned.
  if (doi_indexes_ != indexes) {
    doi_rows_.Clear();
    doi_indexes_ = indexes;
  }
  const Catalog& catalog = designer_->backend().catalog();
  const std::vector<TemplateClass>& classes = classes_.classes();
  std::vector<std::string> keys(classes.size());
  std::vector<BoundQuery> missing;
  std::vector<size_t> missing_class;
  for (size_t c = 0; c < classes.size(); ++c) {
    keys[c] = classes[c].representative.ToSql(catalog);
    if (!doi_rows_.Contains(keys[c])) {
      missing.push_back(classes[c].representative);
      missing_class.push_back(c);
    }
  }
  if (!missing.empty()) {
    // DoI repricing reads the local INUM cache, which the analyzer
    // populates first. Queries this session prepared itself are cached,
    // and rows adopted from a cross-session store brought their plan set
    // along (shared read-only), so that populate is normally a no-op:
    // only a row whose plan set had expired, or that was reloaded from a
    // spill file, populates here. Backend failures surface as Status.
    Result<std::vector<std::vector<double>>> rows =
        analyzer.TryContributionRows(missing, indexes);
    if (!rows.ok()) return rows.status();
    for (size_t m = 0; m < missing.size(); ++m) {
      std::vector<double>& row = rows.value()[m];
      size_t bytes = ContributionRowBytes(keys[missing_class[m]], row);
      doi_rows_.Put(keys[missing_class[m]], std::move(row), bytes);
    }
  }
  plan.doi_rows_computed = missing.size();
  plan.doi_rows_reused = classes.size() - missing.size();
  {
    std::set<std::string> live(keys.begin(), keys.end());
    doi_rows_.EraseIf([&live](const std::string& key, const auto&) {
      return live.count(key) == 0;
    });
  }

  // Weighted DoI per pair, reduced in class order — deterministic and
  // identical to a from-scratch AnalyzeMatrix over the class workload.
  DoiMatrix matrix;
  matrix.num_indexes = static_cast<int>(indexes.size());
  size_t num_pairs = indexes.size() * (indexes.size() - 1) / 2;
  matrix.doi.assign(num_pairs, 0.0);
  for (size_t c = 0; c < classes.size(); ++c) {
    // Touched in class order every build: recency — and the eviction
    // order a budget derives from it — is deterministic.
    const std::vector<double>* row = doi_rows_.Find(keys[c]);
    DBD_CHECK(row != nullptr);
    // A cached contribution row is only reusable if it was computed
    // against THIS index set (doi_indexes_ == indexes, checked above):
    // its length must cover the current pair triangle exactly.
    DBD_DCHECK_EQ(row->size(), num_pairs);
    for (size_t p = 0; p < num_pairs; ++p) {
      matrix.doi[p] += classes[c].weight * (*row)[p];
    }
  }
  plan.edges = matrix.Edges();
  plan.clusters = ClustersFromEdges(matrix.num_indexes, plan.edges);

  std::vector<double> weights;
  weights.reserve(classes.size());
  for (const TemplateClass& cls : classes) weights.push_back(cls.weight);
  if (ScheduleStillValid(indexes, keys, weights)) {
    // Reuse outright: the cached schedule is certifiably what a rebuild
    // would produce (steps already carry their cluster annotations).
    plan.schedule = deployment_->schedule;
    plan.schedule_reused = true;
  } else {
    // The greedy scheduler prices marginal benefits through INUM; a
    // backend failure in its fallback paths surfaces as Status here.
    try {
      MaterializationScheduler scheduler(inum);
      plan.schedule =
          scheduler.Greedy(classes_.ClassWorkload(), indexes, constraints_);
    } catch (const StatusException& e) {
      return e.status();
    }
    std::map<std::string, int> cluster_of;
    for (size_t k = 0; k < plan.clusters.size(); ++k) {
      for (int i : plan.clusters[k]) {
        cluster_of[indexes[static_cast<size_t>(i)].Key()] =
            static_cast<int>(k);
      }
    }
    for (ScheduleStep& step : plan.schedule.steps) {
      auto it = cluster_of.find(step.index.Key());
      step.cluster = it == cluster_of.end() ? -1 : it->second;
    }
    deployment_class_keys_ = keys;
    deployment_weights_ = std::move(weights);
    deployment_constraints_ = constraints_;
  }
  // Budget applies only after the plan is built: the build that
  // computed a row always gets to use it, so a tiny budget costs
  // recomputation on the NEXT build, never a failed one.
  doi_rows_evicted_ += doi_rows_.EvictToBudget();
  return plan;
}

uint64_t DesignSession::backend_optimizer_calls() const {
  return designer_->backend().num_optimizer_calls();
}

uint64_t DesignSession::inum_populate_count() const {
  return cophy_ == nullptr ? 0 : cophy_->inum().stats().populate_optimizations;
}

// --- Snapshots ---

void DesignSession::SaveSnapshot(const std::string& name) {
  snapshots_[name] = design();
  log_.push_back("SAVE " + name);
}

Status DesignSession::SnapshotNotFound(const std::string& name) const {
  if (snapshots_.empty()) {
    return Status::NotFound("snapshot '" + name +
                            "' (no snapshots saved yet)");
  }
  return Status::NotFound("snapshot '" + name + "' (available: " +
                          StrJoin(SnapshotNames(), ", ") + ")");
}

Status DesignSession::RestoreSnapshot(const std::string& name) {
  auto it = snapshots_.find(name);
  if (it == snapshots_.end()) return SnapshotNotFound(name);
  Checkpoint("RESTORE " + name);
  Apply(it->second);
  return Status::OK();
}

std::vector<std::string> DesignSession::SnapshotNames() const {
  std::vector<std::string> names;
  names.reserve(snapshots_.size());
  for (const auto& [name, d] : snapshots_) names.push_back(name);
  return names;
}

Result<BenefitReport> DesignSession::CompareSnapshot(
    const std::string& name, const Workload& workload) {
  auto it = snapshots_.find(name);
  if (it == snapshots_.end()) return SnapshotNotFound(name);
  // Status-returning evaluation: a backend failure surfaces as its
  // Status instead of crossing this public API as an exception.
  Result<std::vector<BenefitReport>> reports =
      designer_->TryEvaluateDesigns(workload, {it->second});
  if (!reports.ok()) return reports.status();
  return std::move(reports.value().front());
}

// --- Persistence ---

Json DesignSession::ToJson() const {
  const Catalog& catalog = designer_->backend().catalog();
  Json j = Json::Object();
  j["version"] = Json::Number(1);
  j["constraints"] = constraints_.ToJson();
  j["design"] = PhysicalDesignToJson(design());
  Json snapshots = Json::Object();
  for (const auto& [name, d] : snapshots_) {
    snapshots[name] = PhysicalDesignToJson(d);
  }
  j["snapshots"] = std::move(snapshots);
  Json sql = Json::Array();
  Json weights = Json::Array();
  for (size_t i = 0; i < workload_.size(); ++i) {
    sql.Append(Json::Str(workload_.queries[i].ToSql(catalog)));
    weights.Append(Json::Number(workload_.WeightOf(i)));
  }
  Json workload = Json::Object();
  workload["sql"] = std::move(sql);
  workload["weights"] = std::move(weights);
  j["workload"] = std::move(workload);
  Json log = Json::Array();
  for (const std::string& entry : log_) log.Append(Json::Str(entry));
  j["log"] = std::move(log);
  return j;
}

Status DesignSession::LoadFromJson(const Json& j) {
  const Catalog& catalog = designer_->backend().catalog();
  if (!j.is_object()) return Status::ParseError("session must be an object");

  // Parse everything into locals first; the session only changes when
  // the whole document is valid.
  DesignConstraints constraints;
  if (const Json* c = j.Find("constraints")) {
    Result<DesignConstraints> parsed =
        DesignConstraints::FromJson(*c, catalog);
    if (!parsed.ok()) return parsed.status();
    constraints = std::move(parsed).value();
  }
  PhysicalDesign target;
  if (const Json* d = j.Find("design")) {
    Result<PhysicalDesign> parsed = PhysicalDesignFromJson(*d, catalog);
    if (!parsed.ok()) return parsed.status();
    target = std::move(parsed).value();
  }
  std::map<std::string, PhysicalDesign> snapshots;
  if (const Json* snaps = j.Find("snapshots")) {
    if (!snaps->is_object()) {
      return Status::ParseError("'snapshots' must be an object");
    }
    for (const auto& [name, d] : snaps->members()) {
      Result<PhysicalDesign> parsed = PhysicalDesignFromJson(d, catalog);
      if (!parsed.ok()) return parsed.status();
      snapshots.emplace(name, std::move(parsed).value());
    }
  }
  Workload workload;
  if (const Json* w = j.Find("workload")) {
    const Json* sql = w->Find("sql");
    const Json* weights = w->Find("weights");
    if (sql == nullptr || !sql->is_array()) {
      return Status::ParseError("'workload.sql' must be an array");
    }
    for (size_t i = 0; i < sql->size(); ++i) {
      if (!sql->at(i).is_string()) {
        return Status::ParseError("workload query must be a SQL string");
      }
      Result<BoundQuery> q = ParseAndBind(catalog, sql->at(i).str());
      if (!q.ok()) return q.status();
      double weight = 1.0;
      if (weights != nullptr && weights->is_array() &&
          i < weights->size() && weights->at(i).is_number()) {
        weight = weights->at(i).number();
        if (!std::isfinite(weight) || weight < 0.0) {
          return Status::ParseError(
              StrFormat("workload weight %zu must be finite and >= 0", i));
        }
      }
      workload.Add(std::move(q).value(), weight);
    }
  }
  std::vector<std::string> log;
  if (const Json* l = j.Find("log")) {
    for (const Json& entry : l->items()) {
      if (entry.is_string()) log.push_back(entry.str());
    }
  }

  constraints_ = std::move(constraints);
  workload_ = std::move(workload);
  RebuildClasses();
  snapshots_ = std::move(snapshots);
  log_ = std::move(log);
  undo_stack_.clear();
  redo_stack_.clear();
  prepared_ = CoPhyPrepared{};
  prepared_valid_ = false;
  solver_cache_.Clear();
  last_rec_.reset();
  last_class_cost_.clear();
  certificate_valid_ = false;
  InvalidateDeployment();
  Apply(target);
  log_.push_back("LOAD");
  return Status::OK();
}

Status DesignSession::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open '" + path + "' for writing");
  out << ToJson().Dump() << "\n";
  out.flush();
  if (!out) return Status::Internal("failed writing '" + path + "'");
  return Status::OK();
}

Status DesignSession::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<Json> parsed = Json::Parse(buffer.str());
  if (!parsed.ok()) return parsed.status();
  return LoadFromJson(parsed.value());
}

}  // namespace dbdesign
