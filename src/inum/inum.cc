#include "inum/inum.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "optimizer/selectivity.h"
#include "util/logging.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace dbdesign {

namespace {

/// Cost assigned to marker leaves of parameterized slots so that any
/// plan consuming them other than via an index-nested-loop join is
/// priced out of contention.
constexpr double kForbiddenLeafCost = 1e18;
constexpr double kInfeasibleThreshold = 1e17;

/// Representative per-probe cost of an index lookup on `col` assuming a
/// single-column index exists (populate-time stand-in; reuse substitutes
/// the design's actual best lookup).
ParamLookupPath AbstractLookup(const PlannerContext& ctx, int slot,
                               const BoundColumn& col) {
  const CostParams& P = ctx.params;
  const TableStats& stats = ctx.StatsFor(slot);
  const TableDef& def = ctx.DefFor(slot);
  IndexDef rep;
  rep.table = ctx.query->tables[slot];
  rep.columns = {col.column};
  IndexSizeEstimate size = EstimateIndexSize(rep, def, stats);
  const ColumnStats& jc = stats.column(col.column);
  double rows_per_key =
      std::max(1.0, stats.row_count / std::max(1.0, jc.n_distinct));
  double descent_cpu =
      std::log2(std::max(2.0, stats.row_count)) * P.cpu_operator_cost +
      size.height * 50.0 * P.cpu_operator_cost;
  double heap_pages = IndexPagesFetched(rows_per_key, stats.HeapPages(def),
                                        P.effective_cache_size_pages);
  std::vector<BoundPredicate> preds = ctx.query->FiltersOn(slot);
  double residual_sel = 1.0;
  for (const BoundPredicate& p : preds) {
    residual_sel *= PredicateSelectivity(stats.column(p.column.column), p);
  }
  ParamLookupPath path;
  path.index = std::nullopt;
  path.per_lookup.total =
      descent_cpu + P.random_page_cost + heap_pages * P.random_page_cost * 0.5 +
      rows_per_key * (P.cpu_index_tuple_cost + P.cpu_tuple_cost) +
      rows_per_key * static_cast<double>(preds.size()) * P.cpu_operator_cost;
  path.rows_per_lookup = std::max(0.001, rows_per_key * residual_sel);
  return path;
}

/// PathProvider serving zero-cost abstract leaves per the signature
/// combination.
class AbstractProvider : public PathProvider {
 public:
  AbstractProvider(const PlannerContext& ctx,
                   const std::vector<InumCostModel::SlotSignature>& combo)
      : ctx_(ctx), combo_(combo) {}

  std::vector<AccessPath> Paths(int slot) const override {
    using Kind = InumCostModel::SlotSignature::Kind;
    const auto& sig = combo_[static_cast<size_t>(slot)];
    const TableStats& stats = ctx_.StatsFor(slot);
    double sel = ConjunctionSelectivity(stats, ctx_.query->FiltersOn(slot));
    double rows = std::max(ctx_.params.min_rows, stats.row_count * sel);

    auto node = std::make_shared<PlanNode>();
    node->type = PlanNodeType::kAbstractLeaf;
    node->slot = slot;
    node->rows = rows;
    node->width = SlotOutputWidth(ctx_, slot);
    node->filter = ctx_.query->FiltersOn(slot);
    AccessPath path;
    path.rows = rows;
    if (sig.kind == Kind::kParamLookup) {
      node->cost.total = kForbiddenLeafCost;
    } else if (sig.kind == Kind::kOrdered) {
      node->output_order = sig.order;
      path.order = sig.order;
    }
    path.node = std::move(node);
    return {std::move(path)};
  }

  std::optional<ParamLookupPath> ParamLookup(
      int slot, const BoundColumn& inner_col) const override {
    using Kind = InumCostModel::SlotSignature::Kind;
    const auto& sig = combo_[static_cast<size_t>(slot)];
    if (sig.kind != Kind::kParamLookup || !(sig.lookup_col == inner_col)) {
      return std::nullopt;
    }
    return AbstractLookup(ctx_, slot, inner_col);
  }

 private:
  const PlannerContext& ctx_;
  const std::vector<InumCostModel::SlotSignature>& combo_;
};

/// Collects abstract index-nested-loop terms from a populated plan.
void CollectInljTerms(const PlanNode& node,
                      std::vector<InumCostModel::CachedPlan::InljTerm>* out) {
  if (node.type == PlanNodeType::kIndexNestLoopJoin &&
      !node.index.has_value()) {
    InumCostModel::CachedPlan::InljTerm term;
    term.slot = node.slot;
    term.inner_col = node.join_cond->right;
    term.outer_rows = node.children[0]->rows;
    out->push_back(term);
  }
  for (const PlanNodeRef& c : node.children) CollectInljTerms(*c, out);
}

}  // namespace

InumCostModel::InumCostModel(DbmsBackend& backend, InumOptions options)
    : backend_(&backend),
      params_(backend.cost_params()),
      options_(options),
      exact_(backend),
      optimizer_(backend.catalog(), backend.all_stats(), params_) {}

std::shared_ptr<const InumCostModel::PlanSet> InumCostModel::PlanSetFor(
    const BoundQuery& query) const {
  auto it = cache_.find(query.StructuralHash());
  return it == cache_.end() ? nullptr : it->second.set;
}

bool InumCostModel::AdoptPlanSet(const BoundQuery& query,
                                 std::shared_ptr<const PlanSet> plans) {
  if (plans == nullptr || plans->max_combos != options_.max_combos ||
      plans->enable_param_signatures != options_.enable_param_signatures) {
    return false;
  }
  uint64_t key = query.StructuralHash();
  if (cache_.find(key) != cache_.end()) return false;
  DBD_DCHECK(plans->sql_key == query.ToSql(backend_->catalog()) &&
             "adopted plan set was built for another query");
  Insert(key, std::move(plans));
  return true;
}

void InumCostModel::Prepare(const BoundQuery& query) { Populate(query); }

InumCostModel::QueryCache& InumCostModel::Insert(
    uint64_t key, std::shared_ptr<const PlanSet> set) {
  auto [ins, ok] = cache_.emplace(key, QueryCache{});
  ins->second.set = std::move(set);
  stats_.queries_cached = cache_.size();
  stats_.plans_cached += ins->second.set->plans.size();
  return ins->second;
}

InumCostModel::QueryCache& InumCostModel::Populate(const BoundQuery& query) {
  // Structural key: identical queries share one cache entry regardless
  // of workload-assigned ids.
  uint64_t key = query.StructuralHash();
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    DBD_DCHECK(it->second.set->sql_key == query.ToSql(backend_->catalog()) &&
               "StructuralHash collision: two different queries share an "
               "atom-cache key");
    return it->second;
  }

  BuiltCache built = BuildCache(query);
  stats_.populate_optimizations += built.combos;
  return Insert(key, std::move(built.set));
}

InumCostModel::BuiltCache InumCostModel::BuildCache(const BoundQuery& query) {
  PhysicalDesign empty;
  PlannerContext ctx = optimizer_.MakeContext(query, empty);

  // Per-slot signature options.
  using Kind = SlotSignature::Kind;
  int n = query.num_slots();
  std::vector<std::vector<SlotSignature>> options(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    auto& opts = options[static_cast<size_t>(s)];
    opts.push_back(SlotSignature{});  // kAny

    auto add_order = [&](std::vector<BoundColumn> order) {
      if (order.empty()) return;
      for (const SlotSignature& sig : opts) {
        if (sig.kind == Kind::kOrdered && sig.order == order) return;
      }
      SlotSignature sig;
      sig.kind = Kind::kOrdered;
      sig.order = std::move(order);
      opts.push_back(std::move(sig));
    };
    for (const BoundJoin& j : query.JoinsOn(s)) {
      auto side = j.SideOn(s);
      add_order({*side});
    }
    if (!query.group_by.empty()) {
      bool all_here = true;
      for (const BoundColumn& c : query.group_by) all_here &= c.slot == s;
      if (all_here) add_order(query.group_by);
    }
    if (!query.order_by.empty()) {
      std::vector<BoundColumn> ob;
      for (const BoundOrderItem& o : query.order_by) {
        if (o.descending || o.column.slot != s) break;
        ob.push_back(o.column);
      }
      if (ob.size() == query.order_by.size()) add_order(ob);
    }
    if (options_.enable_param_signatures && n > 1) {
      for (const BoundJoin& j : query.JoinsOn(s)) {
        auto side = j.SideOn(s);
        bool dup = false;
        for (const SlotSignature& sig : opts) {
          if (sig.kind == Kind::kParamLookup && sig.lookup_col == *side) {
            dup = true;
            break;
          }
        }
        if (dup) continue;
        SlotSignature sig;
        sig.kind = Kind::kParamLookup;
        sig.lookup_col = *side;
        opts.push_back(std::move(sig));
      }
    }
  }

  // Bound the combination count (drop param signatures first).
  auto combo_count = [&]() {
    long long c = 1;
    for (const auto& o : options) c *= static_cast<long long>(o.size());
    return c;
  };
  if (combo_count() > options_.max_combos) {
    for (auto& opts : options) {
      opts.erase(std::remove_if(opts.begin(), opts.end(),
                                [](const SlotSignature& s) {
                                  return s.kind == Kind::kParamLookup;
                                }),
                 opts.end());
    }
  }
  while (combo_count() > options_.max_combos) {
    // Still too many: drop the last order option of the widest slot.
    size_t widest = 0;
    for (size_t s = 1; s < options.size(); ++s) {
      if (options[s].size() > options[widest].size()) widest = s;
    }
    if (options[widest].size() <= 1) break;
    options[widest].pop_back();
  }

  // Materialize the combination list (odometer order), then run the
  // independent abstract DP enumerations across the pool. Per-combo
  // results land in their own slots and are collected back in odometer
  // order, so the plan list is bit-identical to a serial build.
  std::vector<std::vector<SlotSignature>> combos;
  std::vector<size_t> idx(static_cast<size_t>(n), 0);
  while (true) {
    std::vector<SlotSignature> combo;
    combo.reserve(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s) {
      combo.push_back(options[static_cast<size_t>(s)][idx[static_cast<size_t>(s)]]);
    }
    combos.push_back(std::move(combo));

    // Advance the odometer.
    int pos = 0;
    while (pos < n) {
      if (++idx[static_cast<size_t>(pos)] <
          options[static_cast<size_t>(pos)].size()) {
        break;
      }
      idx[static_cast<size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == n) break;
  }

  std::vector<std::optional<CachedPlan>> slots_out(combos.size());
  int threads = ThreadPool::Resolve(params_.num_threads);
  ThreadPool::Shared().ParallelFor(combos.size(), threads, [&](size_t c) {
    AbstractProvider provider(ctx, combos[c]);
    PlanResult result = optimizer_.OptimizeWithProvider(query, empty, provider);
    if (result.root != nullptr && result.cost < kInfeasibleThreshold) {
      CachedPlan plan;
      plan.slots = combos[c];
      CollectInljTerms(*result.root, &plan.inlj_terms);
      double inlj_total = 0.0;
      for (const auto& term : plan.inlj_terms) {
        ParamLookupPath lk = AbstractLookup(ctx, term.slot, term.inner_col);
        inlj_total += term.outer_rows * lk.per_lookup.total;
      }
      plan.internal_cost = result.cost - inlj_total;
      slots_out[c] = std::move(plan);
    }
  });

  std::vector<CachedPlan> plans;
  plans.reserve(combos.size());
  for (std::optional<CachedPlan>& p : slots_out) {
    if (p.has_value()) plans.push_back(std::move(*p));
  }

  DBD_LOG_DEBUG(StrFormat("INUM populated %zu plans for query", plans.size()));

  // Assemble the reuse-side acceleration structures: the distinct order
  // requirements per slot and each plan's requirement index, and the
  // distinct lookups and each INLJ term's lookup group. The set gets an
  // allocation of its own, apart from the shared_ptr control block, so
  // an atom row's weak handle on an expired set pins only the block.
  auto set = std::make_unique<PlanSet>();
  set->sql_key = query.ToSql(backend_->catalog());
  set->plans = std::move(plans);
  set->slot_orders.resize(static_cast<size_t>(n));
  set->max_combos = options_.max_combos;
  set->enable_param_signatures = options_.enable_param_signatures;
  for (CachedPlan& plan : set->plans) {
    plan.order_req.assign(static_cast<size_t>(n), -1);
    for (int s = 0; s < n; ++s) {
      const SlotSignature& sig = plan.slots[static_cast<size_t>(s)];
      if (sig.kind != Kind::kOrdered) continue;
      auto& reqs = set->slot_orders[static_cast<size_t>(s)];
      int found = -1;
      for (size_t k = 0; k < reqs.size(); ++k) {
        if (reqs[k] == sig.order) found = static_cast<int>(k);
      }
      if (found < 0) {
        found = static_cast<int>(reqs.size());
        reqs.push_back(sig.order);
      }
      plan.order_req[static_cast<size_t>(s)] = found;
    }
    for (CachedPlan::InljTerm& term : plan.inlj_terms) {
      auto& groups = set->lookup_groups;
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const LookupGroup& g) {
                               return g.slot == term.slot &&
                                      g.col == term.inner_col;
                             });
      if (it == groups.end()) {
        it = groups.insert(groups.end(), LookupGroup{term.slot, term.inner_col});
      }
      term.group = static_cast<int>(it - groups.begin());
    }
  }
  return BuiltCache{std::shared_ptr<const PlanSet>(std::move(set)),
                    combos.size()};
}

void InumCostModel::PreparePtrs(const std::vector<const BoundQuery*>& missing) {
  // Build the missing caches in parallel (each task owns one query),
  // then insert serially in first-seen order so cache contents and
  // stats counters match serial Prepare calls exactly.
  std::vector<BuiltCache> built(missing.size());
  int threads = ThreadPool::Resolve(params_.num_threads);
  ThreadPool::Shared().ParallelFor(missing.size(), threads, [&](size_t u) {
    built[u] = BuildCache(*missing[u]);
  });
  for (size_t u = 0; u < missing.size(); ++u) {
    stats_.populate_optimizations += built[u].combos;
    Insert(missing[u]->StructuralHash(), std::move(built[u].set));
  }
}

void InumCostModel::PrepareQueries(std::span<const BoundQuery> queries) {
  std::vector<const BoundQuery*> ptrs;
  ptrs.reserve(queries.size());
  for (const BoundQuery& q : queries) ptrs.push_back(&q);
  PrepareQueries(ptrs);
}

void InumCostModel::PrepareQueries(std::span<const BoundQuery* const> queries) {
  std::vector<const BoundQuery*> missing;
  std::unordered_set<uint64_t> seen;
  for (const BoundQuery* q : queries) {
    uint64_t key = q->StructuralHash();
    auto hit = cache_.find(key);
    if (hit != cache_.end()) {
      DBD_DCHECK(hit->second.set->sql_key == q->ToSql(backend_->catalog()) &&
                 "StructuralHash collision: two different queries share an "
                 "atom-cache key");
      continue;
    }
    if (seen.insert(key).second) missing.push_back(q);
  }
  PreparePtrs(missing);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t MixHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Structural hash of an index (no allocation).
uint64_t IndexHash(const IndexDef& idx) {
  uint64_t h = MixHash(static_cast<uint64_t>(idx.table) + 0x517cc1b7ULL);
  for (ColumnId c : idx.columns) {
    h = MixHash(h ^ (static_cast<uint64_t>(c) + 0x9e3779b97f4a7c15ULL));
  }
  return h;
}

/// Structural hash of a table's partitioning under `design`
/// (0 = unpartitioned, the common fast path).
uint64_t PartitionHash(const PhysicalDesign& design, TableId t) {
  const VerticalPartitioning* vp = design.vertical(t);
  const HorizontalPartitioning* hp = design.horizontal(t);
  if (vp == nullptr && hp == nullptr) return 0;
  uint64_t h = 0x2545f4914f6cdd1dULL;
  if (vp != nullptr) {
    for (const VerticalFragment& f : vp->fragments) {
      h = MixHash(h ^ 0xf1ea5eedULL);
      for (ColumnId c : f.columns) {
        h = MixHash(h ^ (static_cast<uint64_t>(c) + 1));
      }
    }
  }
  if (hp != nullptr) {
    h = MixHash(h ^ (static_cast<uint64_t>(hp->column) + 0xabcdULL));
    for (const Value& b : hp->bounds) h = MixHash(h ^ b.Hash());
  }
  return h;
}

/// The one fallback-and-counter policy behind every costing entry
/// point: one reuse call per priced design; the exact optimizer answers
/// when the query is not reusable (force_exact, over-wide, unpopulated)
/// or when no cached plan is usable under the design.
template <typename Reuse, typename Exact>
double ReuseOrExact(InumStats* stats, bool reusable, Reuse&& reuse,
                    Exact&& exact) {
  if (!reusable) {
    ++stats->fallback_calls;
    return exact();
  }
  ++stats->reuse_calls;
  double cost = reuse();
  if (std::isfinite(cost)) return cost;
  ++stats->fallback_calls;
  return exact();
}

}  // namespace

double InumCostModel::SeqPrice(QueryCache& qc, const PlannerContext& ctx,
                               int slot, uint64_t partition_hash) {
  uint64_t key =
      MixHash(partition_hash ^ (static_cast<uint64_t>(slot) + 0x51ULL));
  auto [it, inserted] = qc.seq_memo.try_emplace(key, 0.0);
  if (inserted) it->second = CostSeqLeaf(ctx, slot);
  return it->second;
}

const InumCostModel::LeafEntry& InumCostModel::LeafPrice(
    QueryCache& qc, const PlannerContext& ctx, int slot,
    const IndexDef& index, uint64_t partition_hash) {
  uint64_t key = MixHash(IndexHash(index) ^ partition_hash ^
                         (static_cast<uint64_t>(slot) << 32));
  auto [it, inserted] = qc.leaf_memo.try_emplace(key);
  if (inserted) {
    IndexLeafCost lc = CostIndexLeaf(ctx, slot, index);
    it->second.scan_cost = lc.scan_cost;
    it->second.index_only_cost = lc.index_only_cost;
    it->second.satisfies_mask = 0;
    const auto& reqs = qc.set->slot_orders[static_cast<size_t>(slot)];
    for (size_t k = 0; k < reqs.size(); ++k) {
      if (OrderSatisfies(lc.order, reqs[k])) {
        it->second.satisfies_mask |= uint32_t{1} << k;
      }
    }
  }
  return it->second;
}

double InumCostModel::LookupPrice(QueryCache& qc, const PlannerContext& ctx,
                                  int slot, const BoundColumn& col,
                                  const IndexDef& index) {
  uint64_t key = MixHash(IndexHash(index) ^
                         (static_cast<uint64_t>(col.column) + 7) ^
                         (static_cast<uint64_t>(slot) << 48));
  auto [it, inserted] = qc.param_memo.try_emplace(key, kInf);
  if (inserted) {
    auto lk = CostIndexParamLookup(ctx, slot, col, index);
    if (lk.has_value()) it->second = lk->per_lookup.total;
  }
  return it->second;
}

template <typename TermPrice>
double InumCostModel::PlanMinimum(const PlanSet& set, int num_slots,
                                  const LeafPrices& leaves,
                                  TermPrice&& term_price) {
  using Kind = SlotSignature::Kind;
  double best = kInf;
  for (const CachedPlan& plan : set.plans) {
    double cost = plan.internal_cost;
    bool usable = true;
    for (int s = 0; s < num_slots && usable; ++s) {
      const SlotSignature& sig = plan.slots[static_cast<size_t>(s)];
      switch (sig.kind) {
        case Kind::kAny:
          cost += leaves.any[s];
          break;
        case Kind::kOrdered: {
          double leaf = leaves.order[s][plan.order_req[static_cast<size_t>(s)]];
          if (!std::isfinite(leaf)) {
            usable = false;
          } else {
            cost += leaf;
          }
          break;
        }
        case Kind::kParamLookup:
          break;  // priced via the INLJ term below
      }
    }
    if (!usable) continue;
    for (const CachedPlan::InljTerm& term : plan.inlj_terms) {
      double lk = term_price(term);
      if (!std::isfinite(lk)) {
        usable = false;
        break;
      }
      cost += term.outer_rows * lk;
    }
    if (usable && cost < best) best = cost;
  }
  return best;
}

double InumCostModel::ReuseCost(const BoundQuery& query, QueryCache& qc,
                                const PhysicalDesign& design) {
  PlannerContext ctx = optimizer_.MakeContext(query, design);
  int n = query.num_slots();

  // Per-slot leaf prices under this design, via the query's leaf memo.
  LeafPrices leaves;
  for (int s = 0; s < n; ++s) {
    TableId t = query.tables[s];
    uint64_t ph = PartitionHash(design, t);
    double any = SeqPrice(qc, ctx, s, ph);
    double* order_min = leaves.order[s];
    size_t num_orders = qc.set->slot_orders[static_cast<size_t>(s)].size();
    for (size_t k = 0; k < num_orders; ++k) order_min[k] = kInf;

    auto [first, last] = design.IndexRange(t);
    for (const IndexDef* idx = first; idx != last; ++idx) {
      const LeafEntry& e = LeafPrice(qc, ctx, s, *idx, ph);
      double best = std::min(e.scan_cost, e.index_only_cost);
      if (best < any) any = best;
      uint32_t mask = e.satisfies_mask;
      while (mask != 0) {
        int k = std::countr_zero(mask);
        mask &= mask - 1;
        if (best < order_min[k]) order_min[k] = best;
      }
    }
    leaves.any[s] = any;
  }

  // Parameterized lookup price per INLJ term: the design's cheapest
  // index on the term's table for the term's inner column.
  return PlanMinimum(
      *qc.set, n, leaves, [&](const CachedPlan::InljTerm& term) {
        double best = kInf;
        auto [first, last] = design.IndexRange(query.tables[term.slot]);
        for (const IndexDef* idx = first; idx != last; ++idx) {
          best = std::min(
              best, LookupPrice(qc, ctx, term.slot, term.inner_col, *idx));
        }
        return best;
      });
}

double InumCostModel::ExactCost(const BoundQuery& query,
                                const PhysicalDesign& design) {
  Result<double> cost = exact_.TryCostUnder(query, design);
  if (!cost.ok()) {
    // Never a sentinel: the failure travels as a Status (wrapped in the
    // engine-layer exception carrier so it can cross double-returning
    // frames and cancel parallel shards) until an advisor or session
    // boundary converts it back.
    throw StatusException(cost.status());
  }
  return cost.value();
}

double InumCostModel::CostResolved(const BoundQuery& query, QueryCache* qc,
                                   const PhysicalDesign& design,
                                   InumStats* stats) {
  return ReuseOrExact(
      stats, qc != nullptr, [&] { return ReuseCost(query, *qc, design); },
      [&] { return ExactCost(query, design); });
}

double InumCostModel::Cost(const BoundQuery& query,
                           const PhysicalDesign& design) {
  // force_exact routes everything to the backend; kMaxReuseSlots is the
  // reuse scratch capacity (never hit by the engine, which caps FROM
  // lists well below this). Either way: answer exactly, unpopulated.
  QueryCache* qc = ReuseEligible(query) ? &Populate(query) : nullptr;
  return CostResolved(query, qc, design, &stats_);
}

Result<double> InumCostModel::TryCost(const BoundQuery& query,
                                      const PhysicalDesign& design) {
  try {
    return Cost(query, design);
  } catch (const StatusException& e) {
    return e.status();
  }
}

std::vector<std::vector<double>> InumCostModel::CostMatrix(
    const Workload& workload, std::span<const PhysicalDesign> designs) {
  // Shard by query: distinct queries (first-seen order) are the work
  // units, and one worker prices a query under every design so its
  // cache memos never see two threads.
  StructuralDedup dedup = DedupByStructure(std::span<const BoundQuery>(
      workload.queries.data(), workload.queries.size()));
  const std::vector<size_t>& distinct = dedup.distinct;

  // Populate reuse-eligible caches up front (parallel inside), then
  // resolve each distinct query's cache once for every design (map
  // nodes are stable, so the pointers survive later insertions).
  std::vector<uint64_t> keys(distinct.size(), 0);
  std::vector<const BoundQuery*> to_prepare;
  for (size_t u = 0; u < distinct.size(); ++u) {
    const BoundQuery& q = workload.queries[distinct[u]];
    if (q.num_slots() > kMaxReuseSlots) continue;
    keys[u] = q.StructuralHash();
    if (cache_.find(keys[u]) == cache_.end()) to_prepare.push_back(&q);
  }
  PreparePtrs(to_prepare);
  std::vector<QueryCache*> caches(distinct.size(), nullptr);
  for (size_t u = 0; u < distinct.size(); ++u) {
    if (!ReuseEligible(workload.queries[distinct[u]])) continue;
    auto it = cache_.find(keys[u]);
    if (it != cache_.end()) caches[u] = &it->second;
  }

  std::vector<std::vector<double>> per_distinct(
      designs.size(), std::vector<double>(distinct.size(), 0.0));
  std::vector<InumStats> deltas(distinct.size());
  int threads = ThreadPool::Resolve(params_.num_threads);
  ThreadPool::Shared().ParallelFor(distinct.size(), threads, [&](size_t u) {
    const BoundQuery& q = workload.queries[distinct[u]];
    for (size_t d = 0; d < designs.size(); ++d) {
      per_distinct[d][u] = CostResolved(q, caches[u], designs[d], &deltas[u]);
    }
  });
  for (const InumStats& delta : deltas) AccumulateStats(delta);

  std::vector<std::vector<double>> out(
      designs.size(), std::vector<double>(workload.size(), 0.0));
  for (size_t d = 0; d < designs.size(); ++d) {
    for (size_t i = 0; i < workload.size(); ++i) {
      out[d][i] = per_distinct[d][dedup.owner[i]];
    }
  }
  return out;
}

double InumCostModel::WorkloadCost(const Workload& workload,
                                   const PhysicalDesign& design) {
  return workload.WeightedTotal(
      CostMatrix(workload, std::span<const PhysicalDesign>(&design, 1))[0]);
}

InumCostModel::SubsetPricer InumCostModel::BindSubsets(
    const BoundQuery& query, std::span<const IndexDef> indexes,
    InumStats* stats) {
  SubsetPricer p;
  p.model_ = this;
  p.query_ = &query;
  p.indexes_ = indexes;
  p.stats_ = stats != nullptr ? stats : &stats_;
  auto hit = cache_.find(query.StructuralHash());
  if (hit == cache_.end()) return p;
  QueryCache& qc = hit->second;
  p.set_ = qc.set.get();
  p.reuse_ = ReuseEligible(query);

  // Index-only designs leave every table unpartitioned: partition hash
  // 0 and an empty design behind the planner context.
  PhysicalDesign empty;
  PlannerContext ctx = optimizer_.MakeContext(query, empty);
  int n = query.num_slots();
  p.seq_.resize(static_cast<size_t>(n));
  p.leaf_begin_.push_back(0);
  for (int s = 0; s < n; ++s) {
    p.seq_[static_cast<size_t>(s)] = SeqPrice(qc, ctx, s, 0);
    for (size_t i = 0; i < indexes.size(); ++i) {
      if (indexes[i].table != query.tables[s]) continue;
      const LeafEntry& e = LeafPrice(qc, ctx, s, indexes[i], 0);
      double best = std::min(e.scan_cost, e.index_only_cost);
      // An unusable leaf (+inf) never lowers a minimum: drop it.
      if (best < kInf) p.leaves_.push_back({i, best, e.satisfies_mask});
    }
    p.leaf_begin_.push_back(p.leaves_.size());
  }
  p.lookup_begin_.push_back(0);
  for (const LookupGroup& g : qc.set->lookup_groups) {
    for (size_t i = 0; i < indexes.size(); ++i) {
      if (indexes[i].table != query.tables[g.slot]) continue;
      double price = LookupPrice(qc, ctx, g.slot, g.col, indexes[i]);
      if (price < kInf) p.lookups_.push_back({i, price});
    }
    p.lookup_begin_.push_back(p.lookups_.size());
  }
  p.group_price_.resize(qc.set->lookup_groups.size());
  return p;
}

double InumCostModel::SubsetPricer::Cost(std::span<const uint8_t> members) {
  DBD_DCHECK_EQ(members.size(), indexes_.size());
  return ReuseOrExact(
      stats_, reuse_,
      [&] {
        LeafPrices leaves;
        int n = static_cast<int>(seq_.size());
        for (int s = 0; s < n; ++s) {
          double any = seq_[static_cast<size_t>(s)];
          double* order_min = leaves.order[s];
          size_t num_orders = set_->slot_orders[static_cast<size_t>(s)].size();
          for (size_t k = 0; k < num_orders; ++k) order_min[k] = kInf;
          for (size_t l = leaf_begin_[static_cast<size_t>(s)];
               l < leaf_begin_[static_cast<size_t>(s) + 1]; ++l) {
            const Leaf& leaf = leaves_[l];
            if (members[leaf.pos] == 0) continue;
            if (leaf.best < any) any = leaf.best;
            uint32_t mask = leaf.satisfies_mask;
            while (mask != 0) {
              int k = std::countr_zero(mask);
              mask &= mask - 1;
              if (leaf.best < order_min[k]) order_min[k] = leaf.best;
            }
          }
          leaves.any[s] = any;
        }
        for (size_t g = 0; g < group_price_.size(); ++g) {
          double best = kInf;
          for (size_t l = lookup_begin_[g]; l < lookup_begin_[g + 1]; ++l) {
            if (members[lookups_[l].pos] != 0) {
              best = std::min(best, lookups_[l].price);
            }
          }
          group_price_[g] = best;
        }
        return PlanMinimum(*set_, n, leaves,
                           [this](const CachedPlan::InljTerm& term) {
                             return group_price_[static_cast<size_t>(
                                 term.group)];
                           });
      },
      [&] { return model_->ExactCost(*query_, Assemble(members)); });
}

std::vector<size_t> InumCostModel::SubsetPricer::ReusePositions() const {
  std::vector<size_t> positions;
  if (!reuse_) return positions;
  for (const Leaf& leaf : leaves_) positions.push_back(leaf.pos);
  for (const Lookup& lookup : lookups_) positions.push_back(lookup.pos);
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  return positions;
}

PhysicalDesign InumCostModel::SubsetPricer::Assemble(
    std::span<const uint8_t> members) const {
  PhysicalDesign design;
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (members[i] != 0) design.AddIndex(indexes_[i]);
  }
  return design;
}

}  // namespace dbdesign
