#include "cophy/cophy.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace dbdesign {

uint64_t CandidateUniverseFingerprint(
    const std::vector<CandidateIndex>& candidates) {
  // FNV-1a over each candidate's structural key and size, in order —
  // atom `used` ids are positional, so a reordered universe must
  // fingerprint differently. Keys are length-prefixed so adjacent keys
  // cannot alias across the concatenation.
  Fnv1a fnv(kFnvLegacyBasis);
  for (const CandidateIndex& c : candidates) {
    fnv.MixBytes(c.index.Key());
    fnv.MixDouble(c.size_pages);
  }
  return fnv.digest();
}

void CoPhyPrepared::RefreshClusters() {
  int ny = static_cast<int>(candidates.size());
  // Star edges per query row: the one-atom-per-query constraint couples
  // every candidate any of the row's atoms can use, so linking each such
  // candidate to the row's smallest one gives exactly the connectivity
  // of the monolithic BIP (minus the budget/cap rows, which the solver
  // handles via the stitch-or-fallback check).
  std::vector<InteractionEdge> edges;
  std::vector<int> anchor(rows.size(), -1);  // smallest used candidate per row
  std::vector<int> used;
  for (size_t q = 0; q < rows.size(); ++q) {
    used.clear();
    for (const CoPhyAtom& a : rows[q]->atoms) {
      used.insert(used.end(), a.used.begin(), a.used.end());
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    if (used.empty()) continue;
    anchor[q] = used.front();
    for (size_t t = 1; t < used.size(); ++t) {
      edges.push_back(InteractionEdge{used.front(), used[t], 1.0});
    }
  }
  clusters = PartitionFromEdges(ny, edges);
  row_cluster.assign(rows.size(), -1);
  for (size_t q = 0; q < rows.size(); ++q) {
    if (anchor[q] >= 0) {
      row_cluster[q] = clusters.cluster_of[static_cast<size_t>(anchor[q])];
    }
  }
}

namespace {

/// Parked entries kept per solver-cache slot: enough for a DBA to toggle
/// a few constraints and come back, few enough that an unbudgeted
/// session stays small.
constexpr size_t kMaxProvenPerSlot = 4;

size_t SolverEntryBytes(const CoPhySolverCache::Entry& e) {
  size_t bytes = sizeof(CoPhySolverCache::Entry);
  bytes += e.chosen.size() * sizeof(int);
  bytes += (e.root_basis.basic.size() + e.root_basis.at_upper.size()) *
           sizeof(int);
  for (const CoPhySolverCache::Entry::ParetoPoint& p : e.frontier) {
    bytes += sizeof(CoPhySolverCache::Entry::ParetoPoint);
    bytes += p.chosen.size() * sizeof(int);
  }
  return bytes;
}

}  // namespace

size_t CoPhySolverCache::ApproxBytes() const {
  size_t bytes = sizeof(CoPhySolverCache);
  for (const Entry& e : entries) bytes += SolverEntryBytes(e);
  bytes += SolverEntryBytes(mono);
  return bytes + proven.bytes();
}

const CoPhySolverCache::Entry* CoPhySolverCache::Park(int slot, Entry& live) {
  if (!live.valid || (slot != kMonoSlot && live.frontier.empty())) {
    return nullptr;
  }
  std::pair<int, uint64_t> key{slot, live.signature};
  size_t bytes = sizeof(key) + SolverEntryBytes(live);
  proven.Put(key, std::exchange(live, Entry{}), bytes);

  // Hold the slot to its count, dropping its least recently parked.
  if (proven.CountInRange({slot, 0}, {slot + 1, 0}) > kMaxProvenPerSlot) {
    bool dropped = false;
    proven.EraseIf([&](const std::pair<int, uint64_t>& k, const Entry&) {
      if (dropped || k.first != slot) return false;
      dropped = true;
      return true;
    });
  }
  return proven.Find(key);
}

bool CoPhySolverCache::Recall(int slot, uint64_t signature, Entry& live) {
  Entry* parked = proven.Find({slot, signature});
  if (parked == nullptr) return false;
  // Take the entry out before parking `live`, which may drop the slot's
  // least recently parked entry.
  Entry answer = std::move(*parked);
  proven.Erase({slot, signature});
  Park(slot, live);
  live = std::move(answer);
  ++proven_hits;
  return true;
}

void CoPhySolverCache::TrimToBytes(size_t max_bytes) {
  if (max_bytes == 0) return;
  // Phase 0: parked entries, least recently parked first. Live state
  // is trimmed only once none is left, so a budget that fits the live
  // entries trims them exactly as it would without any parked.
  size_t bytes = ApproxBytes();
  if (bytes <= max_bytes) return;
  size_t live = bytes - proven.bytes();
  if (live >= max_bytes) {
    proven.Clear();
  } else {
    proven.set_budget(max_bytes - live);
    proven.EvictToBudget();
  }
  bytes = live + proven.bytes();
  if (bytes <= max_bytes) return;
  ++trims;
  // Entries in deterministic trim order: clusters by index, mono last.
  size_t n = entries.size() + 1;
  auto entry_at = [&](size_t i) -> Entry& {
    return i < entries.size() ? entries[i] : mono;
  };

  // Phase 1: shorten frontiers, always dropping the deepest point of
  // the currently longest frontier (down to one point — the top point
  // doubles as the entry's full-budget optimum). A shortened frontier
  // is exactly the state lazy enumeration passes through, so the next
  // solve deepens it on demand instead of going cold.
  while (ApproxBytes() > max_bytes) {
    size_t best = n;
    size_t best_len = 1;
    for (size_t i = 0; i < n; ++i) {
      if (entry_at(i).frontier.size() > best_len) {
        best = i;
        best_len = entry_at(i).frontier.size();
      }
    }
    if (best == n) break;
    Entry& e = entry_at(best);
    double dropped_cost = e.frontier.back().cost;
    e.frontier.pop_back();
    e.frontier_complete = false;
    // The dropped point's budget band joins the unexplored tail, and
    // by budget monotonicity its cost lower-bounds the whole new tail
    // (any certificate-tightened bound applied only below the dropped
    // point and no longer covers the exposed band).
    e.tail_bound = dropped_cost;
    ++points_dropped;
  }

  // Phase 2: frontiers are all minimal and the cache is still over
  // budget — invalidate whole entries, largest first, freeing their
  // vectors. Their next solve is cold (signature mismatch), which
  // costs work, never correctness.
  while (ApproxBytes() > max_bytes) {
    size_t best = n;
    size_t best_bytes = sizeof(Entry);
    for (size_t i = 0; i < n; ++i) {
      size_t b = SolverEntryBytes(entry_at(i));
      if (b > best_bytes) {
        best = i;
        best_bytes = b;
      }
    }
    if (best == n) break;  // floor: nothing holds freeable data
    entry_at(best) = Entry{};
    ++entries_invalidated;
  }
}

CoPhyAdvisor::CoPhyAdvisor(DbmsBackend& backend, CoPhyOptions options)
    : backend_(&backend),
      params_(backend.cost_params()),
      options_(options),
      inum_(backend, options.inum) {}

namespace {

/// Access options kept per (plan, slot); the no-index option always stays.
constexpr size_t kMaxLeafOptionsPerSlot = 5;

/// Sorts `items` by cost and keeps the `k` cheapest, but never drops the
/// first free item (the feasibility anchor): when the cut would, it
/// takes the last kept place.
template <typename T, typename IsFree>
void KeepCheapest(std::vector<T>& items, size_t k, IsFree is_free) {
  std::sort(items.begin(), items.end(),
            [](const T& a, const T& b) { return a.cost < b.cost; });
  if (items.size() <= k) return;
  DBD_DCHECK(k > 0);
  auto free_item = std::find_if(items.begin(), items.end(), is_free);
  if (free_item != items.end() &&
      free_item - items.begin() >= static_cast<std::ptrdiff_t>(k)) {
    items[k - 1] = *free_item;
  }
  items.resize(k);
}

}  // namespace

std::vector<CoPhyAtom> CoPhyAdvisor::BuildAtoms(
    const BoundQuery& query, const std::vector<CandidateIndex>& candidates) {
  inum_.Prepare(query);
  std::vector<IndexDef> indexes;
  indexes.reserve(candidates.size());
  for (const CandidateIndex& c : candidates) indexes.push_back(c.index);
  // INUM prices every candidate's leaf and lookup (through its memos,
  // which later DoI rows and schedules read too); the pricer's positions
  // are candidate ids.
  InumCostModel::SubsetPricer pricer = inum_.BindSubsets(query, indexes);
  const InumCostModel::PlanSet* set = pricer.plan_set();
  if (set == nullptr || set->plans.empty()) return {};

  // One access option: leaf cost + the candidate it needs (-1 = none).
  struct Option {
    double cost = 0.0;
    int candidate = -1;
  };

  int n = query.num_slots();
  using Kind = InumCostModel::SlotSignature::Kind;
  std::map<std::string, CoPhyAtom> dedup;  // used-set key -> best atom
  // Per-slot option lists: the free option (if any) first, then
  // candidates by ascending id. The sorts are not stable, so this input
  // order decides how cost ties fall.
  std::vector<std::vector<Option>> options(static_cast<size_t>(n));
  for (const InumCostModel::CachedPlan& plan : set->plans) {
    bool feasible = true;
    for (int s = 0; s < n && feasible; ++s) {
      const auto& sig = plan.slots[static_cast<size_t>(s)];
      std::vector<Option>& opts = options[static_cast<size_t>(s)];
      opts.clear();
      switch (sig.kind) {
        case Kind::kAny:
          opts.push_back(
              Option{pricer.seq_prices()[static_cast<size_t>(s)], -1});
          for (const auto& leaf : pricer.Leaves(s)) {
            opts.push_back(Option{leaf.best, static_cast<int>(leaf.pos)});
          }
          break;
        case Kind::kOrdered: {
          uint32_t bit = uint32_t{1}
                         << plan.order_req[static_cast<size_t>(s)];
          for (const auto& leaf : pricer.Leaves(s)) {
            if ((leaf.satisfies_mask & bit) != 0) {
              opts.push_back(Option{leaf.best, static_cast<int>(leaf.pos)});
            }
          }
          break;
        }
        case Kind::kParamLookup: {
          // Priced through the slot's INLJ term: populate drops every
          // plan that leaves a lookup slot without one.
          const InumCostModel::CachedPlan::InljTerm* term = nullptr;
          int terms = 0;
          for (const auto& t : plan.inlj_terms) {
            if (t.slot == s) {
              term = &t;
              ++terms;
            }
          }
          DBD_DCHECK_EQ(terms, 1);
          if (term == nullptr) break;
          for (const auto& lookup : pricer.Lookups(term->group)) {
            opts.push_back(Option{term->outer_rows * lookup.price,
                                  static_cast<int>(lookup.pos)});
          }
          break;
        }
      }
      feasible = !opts.empty();
      KeepCheapest(opts, kMaxLeafOptionsPerSlot,
                   [](const Option& o) { return o.candidate < 0; });
    }
    if (!feasible) continue;

    // Cross product of slot options.
    std::vector<size_t> idx(static_cast<size_t>(n), 0);
    while (true) {
      CoPhyAtom atom;
      atom.cost = plan.internal_cost;
      for (int s = 0; s < n; ++s) {
        const Option& o =
            options[static_cast<size_t>(s)][idx[static_cast<size_t>(s)]];
        atom.cost += o.cost;
        if (o.candidate >= 0) atom.used.push_back(o.candidate);
      }
      std::sort(atom.used.begin(), atom.used.end());
      atom.used.erase(std::unique(atom.used.begin(), atom.used.end()),
                      atom.used.end());
      std::string key;
      for (int u : atom.used) key += StrFormat("%d,", u);
      auto [it, inserted] = dedup.try_emplace(key, atom);
      if (!inserted && atom.cost < it->second.cost) it->second = atom;

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
  }

  std::vector<CoPhyAtom> atoms;
  atoms.reserve(dedup.size());
  for (auto& [k, atom] : dedup) atoms.push_back(std::move(atom));
  // The index-free atom is the row's feasibility anchor. Rows are
  // published and live as long as the store keeps them: hold exactly
  // the kept atoms, not the pre-truncation capacity.
  KeepCheapest(atoms, static_cast<size_t>(options_.max_atoms_per_query),
               [](const CoPhyAtom& a) { return a.used.empty(); });
  atoms.shrink_to_fit();
  return atoms;
}

Result<IndexRecommendation> CoPhyAdvisor::TryRecommend(
    const Workload& workload, const DesignConstraints& constraints) {
  return TryRecommendWithCandidates(
      workload, GenerateCandidates(*backend_, workload, options_.candidates),
      constraints);
}

Result<IndexRecommendation> CoPhyAdvisor::TryRecommendWithCandidates(
    const Workload& workload, const std::vector<CandidateIndex>& candidates,
    const DesignConstraints& constraints) {
  Status s = constraints.Validate(backend_->catalog());
  if (!s.ok()) return s;
  std::vector<CandidateIndex> merged = candidates;
  MergePinnedCandidates(*backend_, constraints, &merged);
  Result<CoPhyPrepared> prepared = TryPrepare(workload, std::move(merged));
  if (!prepared.ok()) return prepared.status();
  return SolvePrepared(prepared.value(), constraints);
}

std::vector<std::shared_ptr<const CoPhyAtomRow>> CoPhyAdvisor::BuildRows(
    const std::vector<const BoundQuery*>& queries,
    const std::vector<CandidateIndex>& candidates) {
  // INUM caches are populated up front (one query per pool task) so the
  // parallel BuildAtoms calls never insert into the cost model's cache,
  // which is not thread-safe; each touches only its own query's price
  // memos (the queries are structurally distinct).
  inum_.PrepareQueries(queries);

  std::vector<std::shared_ptr<CoPhyAtomRow>> built(queries.size());
  int threads = ThreadPool::Resolve(params_.num_threads);
  ThreadPool::Shared().ParallelFor(queries.size(), threads, [&](size_t m) {
    auto row = std::make_shared<CoPhyAtomRow>();
    row->atoms = BuildAtoms(*queries[m], candidates);
    built[m] = std::move(row);
  });
  // Base costs run serially in query order: under force_exact they
  // reach the backend, whose call order must not depend on threads.
  std::vector<std::shared_ptr<const CoPhyAtomRow>> rows;
  rows.reserve(queries.size());
  for (size_t m = 0; m < queries.size(); ++m) {
    built[m]->base_cost = inum_.Cost(*queries[m], PhysicalDesign{});
    // Only a published row can be adopted by another session.
    if (atom_source_ != nullptr) {
      built[m]->plan_set = inum_.PlanSetFor(*queries[m]);
    }
    rows.push_back(std::move(built[m]));
  }
  return rows;
}

std::shared_ptr<const CoPhyAtomRow> CoPhyAdvisor::ClaimRow(
    const BoundQuery& query, const std::string& sql_key,
    const std::vector<CandidateIndex>& candidates, uint64_t universe,
    bool wait) {
  CoPhyAtomClaim claim = atom_source_->Claim(sql_key, universe, wait);
  if (claim.pending()) return nullptr;
  if (!claim.claimed) {
    // A hit also brings the plan set the row was built from (while its
    // builder's session still holds it), so later INUM pricing of the
    // query in this session skips the populate.
    inum_.AdoptPlanSet(query, claim.row->plan_set.lock());
    return claim.row;
  }
  std::shared_ptr<const CoPhyAtomRow> built;
  try {
    // Other sessions may be blocked on this claim, possibly inside a
    // ParallelFor on the shared pool; building inline keeps this thread
    // off the pool's submission lock that such a ParallelFor holds.
    ThreadPool::InlineScope inline_build;
    built = std::move(BuildRows({&query}, candidates).front());
  } catch (...) {
    atom_source_->Release(sql_key, universe);
    throw;
  }
  // The canonical entry is the row just built unless a publisher without
  // a claim got there first; either way every holder shares one object.
  return atom_source_->Publish(sql_key, universe, std::move(built));
}

std::vector<std::shared_ptr<const CoPhyAtomRow>> CoPhyAdvisor::ResolveRows(
    const std::vector<const BoundQuery*>& queries,
    const std::vector<CandidateIndex>& candidates, uint64_t universe) {
  if (atom_source_ == nullptr) return BuildRows(queries, candidates);
  // Single flight, in query order: adopt hits, build every key nobody
  // else holds at once, and defer the keys other sessions are building.
  // Waiting only after this session's own builds are published (it then
  // holds no claim) keeps the waits acyclic.
  const Catalog& catalog = backend_->catalog();
  std::vector<std::shared_ptr<const CoPhyAtomRow>> rows(queries.size());
  std::vector<std::string> keys(queries.size());
  std::vector<size_t> deferred;
  for (size_t u = 0; u < queries.size(); ++u) {
    keys[u] = queries[u]->ToSql(catalog);
    rows[u] = ClaimRow(*queries[u], keys[u], candidates, universe,
                       /*wait=*/false);
    if (rows[u] == nullptr) deferred.push_back(u);
  }
  for (size_t u : deferred) {
    rows[u] =
        ClaimRow(*queries[u], keys[u], candidates, universe, /*wait=*/true);
  }
  return rows;
}

Result<std::vector<std::shared_ptr<const CoPhyAtomRow>>>
CoPhyAdvisor::TryResolveRows(std::span<const BoundQuery> queries,
                             const std::vector<CandidateIndex>& candidates,
                             uint64_t universe_fingerprint) {
  std::vector<const BoundQuery*> ptrs;
  ptrs.reserve(queries.size());
  for (const BoundQuery& q : queries) ptrs.push_back(&q);
  try {
    return ResolveRows(ptrs, candidates, universe_fingerprint);
  } catch (const StatusException& e) {
    return e.status();
  }
}

CoPhyPrepared CoPhyAdvisor::Prepare(const Workload& workload,
                                    std::vector<CandidateIndex> candidates) {
  CoPhyPrepared prep;
  prep.candidates = std::move(candidates);
  prep.universe_fingerprint = CandidateUniverseFingerprint(prep.candidates);

  // Atom rows per query: built once per structurally distinct query
  // (duplicates share the row by pointer — identical queries expand to
  // identical atom sets).
  StructuralDedup dedup = DedupByStructure(std::span<const BoundQuery>(
      workload.queries.data(), workload.queries.size()));
  std::vector<const BoundQuery*> distinct;
  distinct.reserve(dedup.distinct.size());
  for (size_t i : dedup.distinct) distinct.push_back(&workload.queries[i]);
  std::vector<std::shared_ptr<const CoPhyAtomRow>> distinct_rows =
      ResolveRows(distinct, prep.candidates, prep.universe_fingerprint);

  prep.rows.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    prep.rows.push_back(distinct_rows[dedup.owner[i]]);
    prep.num_atoms += prep.rows.back()->atoms.size();
    prep.weights.push_back(workload.WeightOf(i));
    prep.base_cost += prep.weights.back() * prep.rows.back()->base_cost;
  }
  prep.RefreshClusters();
  return prep;
}

Result<CoPhyPrepared> CoPhyAdvisor::TryPrepare(
    const Workload& workload, std::vector<CandidateIndex> candidates) {
  try {
    return Prepare(workload, std::move(candidates));
  } catch (const StatusException& e) {
    return e.status();
  }
}

Result<IndexRecommendation> CoPhyAdvisor::SolvePrepared(
    const CoPhyPrepared& prepared, const DesignConstraints& constraints,
    CoPhySolverCache* cache) const {
  Status s = constraints.Validate(backend_->catalog());
  if (!s.ok()) return s;

  const std::vector<CandidateIndex>& candidates = prepared.candidates;
  auto atoms = [&prepared](size_t q) -> const std::vector<CoPhyAtom>& {
    return prepared.rows[q]->atoms;
  };
  size_t nq = prepared.rows.size();
  int ny = static_cast<int>(candidates.size());
  double budget = constraints.EffectiveBudget(options_.storage_budget_pages);

  IndexRecommendation rec;
  rec.num_candidates = candidates.size();
  rec.num_atoms = prepared.num_atoms;
  rec.base_cost = prepared.base_cost;
  rec.num_clusters = prepared.clusters.num_clusters();

  // --- Resolve constraints against the candidate universe ---
  // Pins must be in the universe (callers merge them via
  // MergePinnedCandidates before Prepare); a pin outside it means the
  // prepared state is stale.
  std::unordered_map<std::string, int> id_by_key;
  id_by_key.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    id_by_key.emplace(candidates[i].index.Key(), static_cast<int>(i));
  }
  std::vector<int> pin_ids;
  for (const IndexDef& pin : constraints.pinned_indexes) {
    auto it = id_by_key.find(pin.Key());
    if (it == id_by_key.end()) {
      return Status::InvalidArgument(
          "pinned index " + pin.DisplayName(backend_->catalog()) +
          " is not in the prepared candidate universe; re-prepare with the "
          "pin merged into the candidates");
    }
    pin_ids.push_back(it->second);
  }
  // Admit pins smallest-first under the budget; the rest are reported
  // as infeasible instead of silently failing the whole solve.
  std::sort(pin_ids.begin(), pin_ids.end(), [&](int a, int b) {
    double sa = candidates[static_cast<size_t>(a)].size_pages;
    double sb = candidates[static_cast<size_t>(b)].size_pages;
    if (sa != sb) return sa < sb;
    return a < b;
  });
  std::set<int> admitted_pins;
  double pin_pages = 0.0;
  for (int i : pin_ids) {
    double sz = candidates[static_cast<size_t>(i)].size_pages;
    if (pin_pages + sz <= budget) {
      admitted_pins.insert(i);
      pin_pages += sz;
    } else {
      rec.infeasible_pins.push_back(candidates[static_cast<size_t>(i)].index);
      DBD_LOG_WARN(StrFormat(
          "CoPhy: pinned index %s (%.0f pages) does not fit the remaining "
          "budget (%.0f of %.0f pages used)",
          candidates[static_cast<size_t>(i)]
              .index.DisplayName(backend_->catalog())
              .c_str(),
          sz, pin_pages, budget));
    }
  }
  std::vector<bool> vetoed(candidates.size(), false);
  for (size_t i = 0; i < candidates.size(); ++i) {
    vetoed[i] = constraints.IsVetoed(candidates[i].index);
  }

  // --- BIP construction ---
  // y variables carry a tiny size-proportional penalty: among equal-cost
  // configurations the solver then uniquely prefers the one with the
  // smallest storage footprint. This deterministic tie-break is what
  // makes an incremental Refine provably bit-identical to a
  // from-scratch solve — a unique optimum of the relaxed problem that
  // stays feasible under tightened constraints is also the unique
  // optimum of the tightened problem. The scale sits well above the
  // simplex tolerances (1e-9) so one page discriminates, and well below
  // any meaningful cost difference (a whole 1000-page configuration
  // adds 0.01 cost units). Uniqueness is also what makes the cluster
  // decomposition exact: the stitched per-cluster optima, when globally
  // feasible, attain the monolithic optimum and therefore ARE it.
  constexpr double kTieBreakPerPage = 1e-5;

  // Cached solver state keyed to a different universe, row space or
  // cluster count must not survive into this solve, whichever path runs.
  int num_k = prepared.clusters.num_clusters();
  if (cache != nullptr &&
      (cache->universe_fingerprint != prepared.universe_fingerprint ||
       cache->num_rows != nq ||
       cache->entries.size() != static_cast<size_t>(num_k))) {
    cache->Clear();
    cache->universe_fingerprint = prepared.universe_fingerprint;
    cache->num_rows = nq;
    cache->entries.assign(static_cast<size_t>(num_k),
                          CoPhySolverCache::Entry{});
  }

  // Membership marker for "the chosen set": the solve is serial, so one
  // marker allocated here serves every incumbent pricing and the final
  // extraction. Callers set it from a chosen set and clear it again, so
  // a use costs O(|chosen| + atoms), never O(candidates).
  std::vector<char> in_chosen(candidates.size(), 0);
  // Row q's cheapest atom whose indexes are all marked (the first one on
  // a cost tie), or nullptr when none is.
  auto cheapest_atom = [&](size_t q) -> const CoPhyAtom* {
    const CoPhyAtom* best = nullptr;
    double best_cost = std::numeric_limits<double>::infinity();
    for (const CoPhyAtom& a : atoms(q)) {
      if (!(a.cost < best_cost) ||
          !std::all_of(a.used.begin(), a.used.end(), [&](int i) {
            return in_chosen[static_cast<size_t>(i)] != 0;
          })) {
        continue;
      }
      best = &a;
      best_cost = a.cost;
    }
    return best;
  };
  // Objective of a y-set over a subset of query rows: the tie-break on
  // the chosen indexes plus each row's cheapest compatible atom — the
  // BIP objective over those rows. Prices every incumbent.
  auto complete_rows = [&](const std::set<int>& chosen_set,
                           const std::vector<int>& row_subset) {
    double obj = 0.0;
    for (int i : chosen_set) {
      obj += kTieBreakPerPage * candidates[static_cast<size_t>(i)].size_pages;
      in_chosen[static_cast<size_t>(i)] = 1;
    }
    for (int q : row_subset) {
      const CoPhyAtom* a = cheapest_atom(static_cast<size_t>(q));
      obj += prepared.weights[static_cast<size_t>(q)] *
             (a != nullptr ? a->cost : std::numeric_limits<double>::infinity());
    }
    for (int i : chosen_set) in_chosen[static_cast<size_t>(i)] = 0;
    return obj;
  };

  // Solves one BIP: the monolithic BIP restricted to candidates `ck`
  // (ascending global ids) and query rows `qk`, with the budget row at
  // `budget_rhs` (omitted when infinite) and every cap row at its full
  // rhs. The monolithic solve passes every candidate, every row and the
  // global budget; a cluster solve passes its own and an allocation.
  // Warm-started from `e` (may be null): its root basis always — the
  // row space is identical across allocations and constraint edits —
  // plus its previous optimum (a cluster's top frontier point) as the
  // initial incumbent when it is still feasible under this allocation
  // and the edited constraints (a deeper allocation excludes it by
  // construction). Adds the B&B telemetry to `rec`. Returns the result
  // and, when feasible, the chosen global ids (pins included) in `ck`
  // order.
  struct BipSolve {
    BnbResult bnb;
    std::vector<int> chosen;
  };
  std::vector<int> local_of(static_cast<size_t>(ny), -1);
  auto solve_bip = [&](const std::vector<int>& ck, const std::vector<int>& qk,
                       double budget_rhs, const CoPhySolverCache::Entry* e,
                       double stop_at) -> BipSolve {
    int nk = static_cast<int>(ck.size());
    auto global = [&](int j) { return ck[static_cast<size_t>(j)]; };
    auto cand = [&](int j) -> const CandidateIndex& {
      return candidates[static_cast<size_t>(global(j))];
    };
    for (int j = 0; j < nk; ++j) local_of[static_cast<size_t>(global(j))] = j;

    MipProblem mip;
    for (int j = 0; j < nk; ++j) {
      mip.lp.AddVariable(kTieBreakPerPage * cand(j).size_pages);
      mip.binary_vars.push_back(j);
    }
    // DBA pins and vetoes are pure variable fixings: the atom matrix and
    // every other row survive a constraint edit untouched.
    for (int j = 0; j < nk; ++j) {
      if (admitted_pins.count(global(j)) > 0) mip.fixed_vars.emplace_back(j, 1);
    }
    for (int j = 0; j < nk; ++j) {
      if (vetoed[static_cast<size_t>(global(j))]) {
        mip.fixed_vars.emplace_back(j, 0);
      }
    }
    // x variables, then one atom per query.
    std::vector<std::vector<int>> xvar(qk.size());
    for (size_t qi = 0; qi < qk.size(); ++qi) {
      size_t q = static_cast<size_t>(qk[qi]);
      for (const CoPhyAtom& a : atoms(q)) {
        xvar[qi].push_back(mip.lp.AddVariable(prepared.weights[q] * a.cost));
      }
    }
    for (size_t qi = 0; qi < qk.size(); ++qi) {
      LpConstraint one;
      for (int v : xvar[qi]) one.terms.emplace_back(v, 1.0);
      one.rel = LpRelation::kEq;
      one.rhs = 1.0;
      mip.lp.AddConstraint(std::move(one));
    }
    // Aggregated linking: sum_{a of q using i} x <= y_i.
    for (size_t qi = 0; qi < qk.size(); ++qi) {
      size_t q = static_cast<size_t>(qk[qi]);
      std::map<int, std::vector<int>> by_index;
      for (size_t a = 0; a < atoms(q).size(); ++a) {
        for (int i : atoms(q)[a].used) by_index[i].push_back(xvar[qi][a]);
      }
      for (auto& [i, xs] : by_index) {
        LpConstraint link;
        for (int v : xs) link.terms.emplace_back(v, 1.0);
        link.terms.emplace_back(local_of[static_cast<size_t>(i)], -1.0);
        link.rel = LpRelation::kLe;
        link.rhs = 0.0;
        mip.lp.AddConstraint(std::move(link));
      }
    }
    if (std::isfinite(budget_rhs)) {
      LpConstraint budget_row;
      for (int j = 0; j < nk; ++j) {
        budget_row.terms.emplace_back(j, cand(j).size_pages);
      }
      budget_row.rel = LpRelation::kLe;
      budget_row.rhs = budget_rhs;
      mip.lp.AddConstraint(std::move(budget_row));
    }
    // Per-table caps: sum_{i on t} y_i <= cap_t.
    for (const auto& [table, cap] : constraints.max_indexes_per_table) {
      LpConstraint cap_row;
      for (int j = 0; j < nk; ++j) {
        if (cand(j).index.table == table) cap_row.terms.emplace_back(j, 1.0);
      }
      if (cap_row.terms.empty()) continue;
      cap_row.rel = LpRelation::kLe;
      cap_row.rhs = static_cast<double>(cap);
      mip.lp.AddConstraint(std::move(cap_row));
    }

    // y values of a chosen set; x is implied (B&B only reads binary
    // positions, and the objective is passed explicitly).
    auto y_values = [&](const std::set<int>& ch, std::vector<double>* out) {
      out->assign(static_cast<size_t>(mip.lp.num_vars), 0.0);
      for (int i : ch) {
        (*out)[static_cast<size_t>(local_of[static_cast<size_t>(i)])] = 1.0;
      }
    };
    // Primal heuristic: pins first, then round y by LP value under the
    // budget/cap/veto constraints, then the cheapest compatible atom per
    // query.
    auto heuristic = [&](const std::vector<double>& lp,
                         std::vector<double>* out, double* obj) {
      std::set<int> ch;
      double used_pages = 0.0;
      std::map<TableId, int> per_table;
      for (int i : ck) {
        if (admitted_pins.count(i) > 0) {
          ch.insert(i);
          used_pages += candidates[static_cast<size_t>(i)].size_pages;
          per_table[candidates[static_cast<size_t>(i)].index.table]++;
        }
      }
      std::vector<std::pair<double, int>> ranked;
      for (int j = 0; j < nk; ++j) {
        int i = global(j);
        if (vetoed[static_cast<size_t>(i)] || ch.count(i) > 0) continue;
        if (lp[static_cast<size_t>(j)] > 1e-6) {
          ranked.emplace_back(-lp[static_cast<size_t>(j)], i);
        }
      }
      std::sort(ranked.begin(), ranked.end());
      for (auto& [neg, i] : ranked) {
        const CandidateIndex& c = candidates[static_cast<size_t>(i)];
        if (used_pages + c.size_pages > budget_rhs) continue;
        if (per_table[c.index.table] + 1 >
            constraints.TableCapOrUnlimited(c.index.table)) {
          continue;
        }
        ch.insert(i);
        used_pages += c.size_pages;
        per_table[c.index.table]++;
      }
      *obj = complete_rows(ch, qk);
      if (!std::isfinite(*obj)) return false;
      y_values(ch, out);
      return true;
    };

    BnbWarmStart warm;
    bool have_warm = false;
    if (e != nullptr && !e->root_basis.empty()) {
      warm.basis = e->root_basis;
      have_warm = true;
    }
    if (e != nullptr && e->valid) {
      std::set<int> ch;
      for (int i : e->chosen) {
        if (!vetoed[static_cast<size_t>(i)]) ch.insert(i);
      }
      for (int i : ck) {
        if (admitted_pins.count(i) > 0) ch.insert(i);
      }
      double used_pages = 0.0;
      std::map<TableId, int> per_table;
      bool feasible = true;
      for (int i : ch) {
        used_pages += candidates[static_cast<size_t>(i)].size_pages;
        TableId t = candidates[static_cast<size_t>(i)].index.table;
        feasible &= ++per_table[t] <= constraints.TableCapOrUnlimited(t);
      }
      feasible &= used_pages <= budget_rhs;
      if (feasible) {
        double obj = complete_rows(ch, qk);
        if (std::isfinite(obj)) {
          y_values(ch, &warm.values);
          warm.objective = obj;
          have_warm = true;
        }
      }
    }

    BnbOptions bopt = options_.bnb;
    bopt.stop_at_bound = stop_at;
    BipSolve out;
    out.bnb =
        SolveBinaryMip(mip, bopt, heuristic, have_warm ? &warm : nullptr);
    rec.bnb_nodes += out.bnb.nodes_explored;
    rec.lp_pivots += out.bnb.lp_pivots;
    rec.nodes_cut_off += out.bnb.nodes_cut_off;
    rec.vars_fixed_by_reduced_cost += out.bnb.vars_fixed_by_reduced_cost;
    rec.node_cold_solves += out.bnb.node_cold_solves;
    rec.root_warm_fallbacks += out.bnb.root_warm_fallbacks;
    rec.solve_time_sec += out.bnb.solve_time_sec;
    rec.num_variables += static_cast<size_t>(mip.lp.num_vars);
    rec.num_constraints += mip.lp.constraints.size();
    // Admitted pins are always chosen, even when the node budget
    // starved the search.
    if (out.bnb.feasible) {
      for (int j = 0; j < nk; ++j) {
        if (admitted_pins.count(global(j)) > 0 ||
            out.bnb.values[static_cast<size_t>(j)] > 0.5) {
          out.chosen.push_back(global(j));
        }
      }
    }
    for (int j = 0; j < nk; ++j) local_of[static_cast<size_t>(global(j))] = -1;
    return out;
  };

  std::set<int> chosen;        // final y set (filled by whichever path runs)
  double solver_lower = 0.0;   // raw solver bound incl. tie-break penalty
  bool solved = false;

  // Signature of a subproblem over candidate subset `ck` and query rows
  // `qk` whose budget row may use `pages`: everything a constraint edit
  // can change about its BIP (pages, pins/vetoes, relevant caps, row
  // weights). Matching signature + proven optimum in the cache => the
  // subproblem is clean and its optimum is reused. Used per cluster by
  // the decomposed path, with the pages the allocation DP distributes
  // (pins outside every active cluster move them), and over the full
  // candidate/row sets and budget by the monolithic path.
  auto subproblem_signature = [&](const std::vector<int>& ck,
                                  const std::vector<int>& qk, double pages) {
    Fnv1a fnv(kFnvLegacyBasis);
    fnv.MixDouble(pages);
    for (int i : ck) {
      uint64_t bits = static_cast<uint64_t>(i) << 2;
      if (admitted_pins.count(i) > 0) bits |= 1;
      if (vetoed[static_cast<size_t>(i)]) bits |= 2;
      fnv.MixU64(bits);
    }
    for (const auto& [table, cap] : constraints.max_indexes_per_table) {
      bool relevant = false;
      for (int i : ck) {
        relevant |= candidates[static_cast<size_t>(i)].index.table == table;
      }
      if (relevant) {
        fnv.MixU64(static_cast<uint64_t>(table));
        fnv.MixU64(static_cast<uint64_t>(cap));
      }
    }
    fnv.MixU64(qk.size());
    for (int q : qk) {
      fnv.MixU64(static_cast<uint64_t>(q));
      fnv.MixDouble(prepared.weights[static_cast<size_t>(q)]);
    }
    return fnv.digest();
  };

  // ---------------- Decomposed path ----------------
  // Each cluster BIP is the monolithic BIP restricted to the cluster's
  // candidates and query rows — coupled to the rest only through the
  // budget row and the per-table cap rows. The budget coupling is
  // arbitrated exactly: every active cluster exposes a budget/cost
  // FRONTIER (its proven optimum as a function of allocated pages,
  // enumerated lazily top-down: solve at the full budget, then re-solve
  // just below the footprint the optimum actually used, and so on), and
  // a deterministic allocation DP picks one frontier point per cluster
  // minimizing total cost under the global budget. Unexplored frontier
  // tails enter the DP as lower-bound sentinels (footprint = the
  // cluster's pin floor, cost = the last enumerated point's cost — a
  // true bound, since shrinking the budget never cheapens an optimum);
  // when the best real combination matches the sentinel-augmented bound,
  // it is the exact optimal split, and by the tie-break uniqueness the
  // stitched union is the monolithic optimum. Otherwise the sentinel
  // clusters deepen their frontiers and the DP repeats.
  //
  // Caps are kept at full rhs per cluster (a relaxation): if the winning
  // combination violates a cap across clusters — or a frontier/DP size
  // guard trips, or a cluster solve fails to prove its point — the code
  // provably falls back to the monolithic solve below.
  if (options_.solve_mode == CoPhySolveMode::kAuto &&
      prepared.clusters.num_nodes() == ny &&
      prepared.row_cluster.size() == nq) {
    solved = [&]() {
      const ClusterPartition& part = prepared.clusters;
      // Must exceed the simplex feasibility tolerance (1e-7): the next
      // frontier budget must genuinely exclude the previous footprint.
      constexpr double kAllocEps = 1e-6;

      // Rows per cluster; rows using no candidate contribute a constant.
      std::vector<std::vector<int>> cluster_rows(
          static_cast<size_t>(num_k));
      double const_cost = 0.0;
      for (size_t q = 0; q < nq; ++q) {
        if (atoms(q).empty()) return false;  // degenerate: let mono handle
        int k = prepared.row_cluster[q];
        if (k < 0) {
          // No atom of the row uses a candidate: none needs a mark.
          const_cost += prepared.weights[q] * cheapest_atom(q)->cost;
        } else {
          cluster_rows[static_cast<size_t>(k)].push_back(static_cast<int>(q));
        }
      }

      // Entries live in the session cache when present, else locally for
      // the duration of this one solve (no reuse, same algorithm).
      std::vector<CoPhySolverCache::Entry> local_entries;
      if (cache == nullptr) {
        local_entries.assign(static_cast<size_t>(num_k),
                             CoPhySolverCache::Entry{});
      }
      auto entry_of = [&](int k) -> CoPhySolverCache::Entry& {
        return cache != nullptr ? cache->entries[static_cast<size_t>(k)]
                                : local_entries[static_cast<size_t>(k)];
      };

      // Split clusters into active (some query row can use them) and
      // inactive. Inactive clusters keep exactly their pins — any other
      // y adds pure tie-break cost — and those pins still consume budget
      // pages, so they are charged against the DP's budget up front.
      double lb_sum = const_cost;
      double outside_pages = 0.0;
      std::vector<int> active;
      std::vector<double> floor_of(static_cast<size_t>(num_k), 0.0);
      for (int k = 0; k < num_k; ++k) {
        const std::vector<int>& ck = part.clusters[static_cast<size_t>(k)];
        double pin_sz = 0.0;
        for (int i : ck) {
          if (admitted_pins.count(i) > 0) {
            pin_sz += candidates[static_cast<size_t>(i)].size_pages;
          }
        }
        if (cluster_rows[static_cast<size_t>(k)].empty()) {
          lb_sum += kTieBreakPerPage * pin_sz;
          outside_pages += pin_sz;
        } else {
          active.push_back(k);
          floor_of[static_cast<size_t>(k)] = pin_sz;
        }
      }
      // Pages the allocation DP may distribute across active clusters.
      double dp_budget = budget - outside_pages;  // inf stays inf

      // Frontier deepening cut per cluster: the next budget must exclude
      // the previous optimum BEYOND the simplex/integrality tolerances,
      // or the LP shaves every y to 1-1e-6 and returns the same set
      // "fitting" the reduced budget. Total shave capacity is
      // sum(sizes) * 1e-6; a 10x margin stays far below any real
      // footprint step (index sizes are tens-to-hundreds of pages).
      std::vector<double> cut_of(static_cast<size_t>(num_k), kAllocEps);
      for (int k : active) {
        double sum = 0.0;
        for (int i : part.clusters[static_cast<size_t>(k)]) {
          sum += candidates[static_cast<size_t>(i)].size_pages;
        }
        cut_of[static_cast<size_t>(k)] = std::max(kAllocEps, sum * 1e-5);
      }

      std::vector<char> ran(static_cast<size_t>(num_k), 0);

      // Solves one frontier point of cluster k: its BIP under an
      // allocation of `budget_rhs` pages, warm-started from `warm` (the
      // cluster's entry, or the one it just parked). A finite `stop_at`
      // lets the branch-and-bound
      // stop as soon as its global lower bound reaches that value: the
      // caller then gets a tail-bound CERTIFICATE (the sentinel can no
      // longer win) at a fraction of a full proof's cost, and no point
      // is appended. Returns +1 on a new proven point, 0 when the tail is
      // certified or provably empty, -1 on failure (monolithic
      // fallback).
      auto solve_point = [&](int k, double budget_rhs, double stop_at,
                             const CoPhySolverCache::Entry* warm) -> int {
        CoPhySolverCache::Entry& e = entry_of(k);
        BipSolve r =
            solve_bip(part.clusters[static_cast<size_t>(k)],
                      cluster_rows[static_cast<size_t>(k)], budget_rhs, warm,
                      stop_at);
        const BnbResult& bnb = r.bnb;
        if (ran[static_cast<size_t>(k)] == 0) {
          ran[static_cast<size_t>(k)] = 1;
          ++rec.clusters_solved;
        }
        if (!bnb.feasible && !std::isfinite(bnb.lower_bound)) {
          if (e.frontier.empty()) {
            e.valid = false;  // even the full allocation failed: fallback
            return -1;
          }
          e.frontier_complete = true;  // nothing fits below the last point
          return 0;
        }
        if (!bnb.proven_optimal) {
          if (bnb.lower_bound >= stop_at) {
            // Early stop: every configuration under this allocation
            // costs at least `lower_bound`, which is all the allocation
            // DP needs to retire the sentinel. No exact point to record.
            e.tail_bound = std::max(e.tail_bound, bnb.lower_bound);
            return 0;
          }
          e.valid = false;
          e.frontier.clear();
          e.frontier_complete = false;
          e.tail_bound = 0.0;
          e.root_basis = bnb.root_basis;  // still warm material
          return -1;  // let the monolithic path (with its own node
                      // budget over the whole tree) arbitrate
        }
        CoPhySolverCache::Entry::ParetoPoint p;
        p.cost = bnb.objective;
        p.chosen = std::move(r.chosen);
        for (int i : p.chosen) {
          p.footprint += candidates[static_cast<size_t>(i)].size_pages;
        }
        e.root_basis = bnb.root_basis;
        if (e.frontier.empty()) {
          e.valid = true;
          e.chosen = p.chosen;
          e.objective = bnb.objective;
          e.lower_bound = bnb.lower_bound;
        } else if (p.footprint >
                   e.frontier.back().footprint - kAllocEps * 0.5) {
          // No strict footprint progress (numerically stuck): stop here
          // rather than loop; the tail keeps its sentinel bound.
          e.frontier_complete = true;
          return 0;
        }
        if (p.footprint <= floor_of[static_cast<size_t>(k)] + kAllocEps) {
          e.frontier_complete = true;  // pins-only: nothing below
        }
        // A new point is itself the strongest monotonicity bound for
        // the tail below it (and never contradicts an earlier
        // certificate, which bounded a superset of that tail).
        e.tail_bound = std::max(e.tail_bound, p.cost);
        e.frontier.push_back(std::move(p));
        return 1;
      };

      // Freshness: a matching signature keeps the cached entry
      // verbatim, and so does a signature the cache proved earlier (the
      // entry parked under it comes back). Any other edit parks the
      // entry and re-enumerates, its first BIP warm-started from the
      // parked entry (basis + previous optimum). Every active cluster
      // needs at least its top point before the DP can run.
      for (int k : active) {
        CoPhySolverCache::Entry& e = entry_of(k);
        const CoPhySolverCache::Entry* warm = &e;
        uint64_t sig = subproblem_signature(
            part.clusters[static_cast<size_t>(k)],
            cluster_rows[static_cast<size_t>(k)], dp_budget);
        if ((e.signature != sig || (!e.valid && !e.frontier.empty())) &&
            (cache == nullptr || !cache->Recall(k, sig, e))) {
          if (cache != nullptr) {
            if (const CoPhySolverCache::Entry* parked = cache->Park(k, e)) {
              warm = parked;
            }
          }
          e.signature = sig;
          e.frontier.clear();
          e.frontier_complete = false;
          e.tail_bound = 0.0;
        }
        if (e.frontier.empty() &&
            solve_point(k, dp_budget, std::numeric_limits<double>::infinity(),
                        warm) != 1) {
          return false;
        }
      }

      // Allocation DP over frontier points. States are Pareto pairs
      // (footprint, cost) with per-cluster picks; `-1` picks a cluster's
      // unexplored tail (sentinel). Two passes per round: best REAL
      // combination (achievable) vs best sentinel-augmented combination
      // (lower bound); equality certifies the split as exactly optimal.
      struct AllocState {
        double f = 0.0;
        double c = 0.0;
        std::vector<int> pick;
      };
      constexpr size_t kMaxDpStates = 65536;
      constexpr size_t kMaxFrontier = 64;
      auto run_dp = [&](bool with_sentinels, AllocState* out) {
        std::vector<AllocState> states(1);
        for (int k : active) {
          CoPhySolverCache::Entry& e = entry_of(k);
          std::vector<AllocState> next;
          for (const AllocState& st : states) {
            for (size_t pi = 0; pi < e.frontier.size(); ++pi) {
              const auto& p = e.frontier[pi];
              double f = st.f + p.footprint;
              if (f > dp_budget + kAllocEps) continue;
              AllocState n = st;
              n.f = f;
              n.c += p.cost;
              n.pick.push_back(static_cast<int>(pi));
              next.push_back(std::move(n));
            }
            if (with_sentinels && !e.frontier_complete) {
              double f = st.f + floor_of[static_cast<size_t>(k)];
              if (f <= dp_budget + kAllocEps) {
                AllocState n = st;
                n.f = f;
                n.c += e.tail_bound;
                n.pick.push_back(-1);
                next.push_back(std::move(n));
              }
            }
          }
          if (next.empty()) return false;
          std::sort(next.begin(), next.end(),
                    [](const AllocState& a, const AllocState& b) {
                      if (a.f != b.f) return a.f < b.f;
                      if (a.c != b.c) return a.c < b.c;
                      return a.pick < b.pick;
                    });
          states.clear();
          double best_c = std::numeric_limits<double>::infinity();
          for (AllocState& st : next) {
            if (st.c < best_c) {
              best_c = st.c;
              states.push_back(std::move(st));
            }
          }
          // Guard on the PRUNED set: only Pareto-optimal (footprint,
          // cost) pairs survive, so this bounds real state growth.
          if (states.size() > kMaxDpStates) return false;
        }
        *out = states.back();  // costs strictly decrease with footprint
        return true;
      };

      for (int round = 0;; ++round) {
        if (round >= 64) return false;
        AllocState real;
        bool have_real = run_dp(/*with_sentinels=*/false, &real);
        AllocState bound;
        if (!run_dp(/*with_sentinels=*/true, &bound)) return false;
        if (have_real &&
            real.c <= bound.c + 1e-9 * std::max(1.0, std::abs(bound.c))) {
          // The achievable split matches the lower bound: exact optimum.
          std::set<int> stitched = admitted_pins;
          for (size_t ai = 0; ai < active.size(); ++ai) {
            const auto& p = entry_of(active[ai])
                                .frontier[static_cast<size_t>(
                                    real.pick[ai])];
            stitched.insert(p.chosen.begin(), p.chosen.end());
          }
          lb_sum += real.c;
          // Caps were relaxed per cluster: the split is only the global
          // optimum when the union honors them too.
          std::map<TableId, int> per_table;
          for (int i : stitched) {
            per_table[candidates[static_cast<size_t>(i)].index.table]++;
          }
          for (const auto& [table, cap] : constraints.max_indexes_per_table) {
            auto it = per_table.find(table);
            if (it != per_table.end() && it->second > cap) return false;
          }
          for (int k : active) {
            if (ran[static_cast<size_t>(k)] == 0) ++rec.clusters_reused;
          }
          chosen = std::move(stitched);
          solver_lower = lb_sum;
          rec.proven_optimal = true;
          return true;
        }
        // The bound lives in an unexplored tail: strengthen every
        // sentinel cluster and re-run. When a real combination exists,
        // the solve only needs to lift this cluster's tail bound past
        // the sentinel's winning margin — a certificate the B&B reaches
        // long before a full proof; without one it must produce exact
        // points until combinations fit the budget at all.
        bool progressed = false;
        double scale = std::max(1.0, std::abs(bound.c));
        for (size_t ai = 0; ai < active.size(); ++ai) {
          if (bound.pick[ai] != -1) continue;
          int k = active[ai];
          CoPhySolverCache::Entry& e = entry_of(k);
          if (e.frontier.size() >= kMaxFrontier) return false;
          double next_rhs = e.frontier.back().footprint -
                            cut_of[static_cast<size_t>(k)];
          double stop_at =
              have_real ? e.tail_bound + (real.c - bound.c) + 1e-7 * scale
                        : std::numeric_limits<double>::infinity();
          if (solve_point(k, next_rhs, stop_at, &e) < 0) return false;
          progressed = true;  // point, certificate, or tail proved empty
        }
        if (!progressed) return false;
      }
    }();
  }

  // ---------------- Monolithic path (mode or fallback) ----------------
  // The same BIP over every candidate, every row and the full budget.
  // The mono cache entry answers an unchanged re-solve outright and
  // otherwise warm-starts it: this is what keeps a DBA edit cheap when a
  // cap binds across clusters and every solve lands here.
  if (!solved) {
    rec.solved_monolithic = true;
    std::vector<int> all_rows(nq);
    for (size_t q = 0; q < nq; ++q) all_rows[q] = static_cast<int>(q);
    std::vector<int> all_cands(static_cast<size_t>(ny));
    for (int i = 0; i < ny; ++i) all_cands[static_cast<size_t>(i)] = i;
    uint64_t mono_sig = subproblem_signature(all_cands, all_rows, budget);
    CoPhySolverCache::Entry* mono_entry =
        cache != nullptr ? &cache->mono : nullptr;
    if (mono_entry != nullptr &&
        ((mono_entry->valid && mono_entry->signature == mono_sig) ||
         cache->Recall(CoPhySolverCache::kMonoSlot, mono_sig, *mono_entry))) {
      // Unchanged or earlier-proven problem: the cached proven optimum
      // IS the answer.
      chosen.insert(mono_entry->chosen.begin(), mono_entry->chosen.end());
      chosen.insert(admitted_pins.begin(), admitted_pins.end());
      solver_lower = mono_entry->lower_bound;
      rec.proven_optimal = true;
    } else {
      // Unlike a cluster point, an incumbent that is not proven optimal
      // is still the answer (the node budget is the time/quality knob).
      // The old optimum is parked first and warm-starts the solve.
      const CoPhySolverCache::Entry* warm = mono_entry;
      if (mono_entry != nullptr) {
        if (const CoPhySolverCache::Entry* parked =
                cache->Park(CoPhySolverCache::kMonoSlot, *mono_entry)) {
          warm = parked;
        }
      }
      BipSolve r = solve_bip(all_cands, all_rows, budget, warm,
                             options_.bnb.stop_at_bound);
      rec.proven_optimal = r.bnb.proven_optimal;
      solver_lower = r.bnb.lower_bound;
      chosen = admitted_pins;
      chosen.insert(r.chosen.begin(), r.chosen.end());
      if (mono_entry != nullptr) {
        mono_entry->root_basis = r.bnb.root_basis;
        mono_entry->valid = r.bnb.feasible && r.bnb.proven_optimal;
        if (mono_entry->valid) {
          mono_entry->signature = mono_sig;
          mono_entry->chosen.assign(chosen.begin(), chosen.end());
          mono_entry->objective = r.bnb.objective;
          mono_entry->lower_bound = r.bnb.lower_bound;
        }
      }
    }
  }

  // ---------------- Shared extraction ----------------
  // Both paths produce the same `chosen` for the same inputs (that is
  // the decomposition theorem above, exercised by the differential
  // suite), and everything below depends only on `chosen` — so the two
  // paths yield bit-identical recommendations.
  // Per-query best atom under the chosen set; drop unpinned indexes no
  // atom uses.
  std::set<int> kept = admitted_pins;
  rec.per_query_cost.resize(nq, 0.0);
  rec.recommended_cost = 0.0;
  for (int i : chosen) in_chosen[static_cast<size_t>(i)] = 1;
  for (size_t q = 0; q < nq; ++q) {
    const CoPhyAtom* best = cheapest_atom(q);
    rec.per_query_cost[q] =
        best != nullptr ? best->cost : std::numeric_limits<double>::infinity();
    rec.recommended_cost += prepared.weights[q] * rec.per_query_cost[q];
    if (best != nullptr) kept.insert(best->used.begin(), best->used.end());
  }
  for (int i : chosen) in_chosen[static_cast<size_t>(i)] = 0;
  for (int i : kept) {
    rec.indexes.push_back(candidates[static_cast<size_t>(i)].index);
    rec.total_size_pages += candidates[static_cast<size_t>(i)].size_pages;
  }

  // The solver bound includes the tie-break penalty; strip a safe cap
  // on it so the reported bound is a true lower bound on the atom-cost
  // objective alone.
  double penalty_cap = 0.0;
  for (const CandidateIndex& c : candidates) {
    penalty_cap += kTieBreakPerPage * c.size_pages;
  }
  if (std::isfinite(budget)) {
    penalty_cap = std::min(penalty_cap, kTieBreakPerPage * budget);
  }
  rec.lower_bound = std::max(0.0, solver_lower - penalty_cap);
  double denom = std::max(1e-12, rec.recommended_cost);
  rec.gap = std::max(0.0, (rec.recommended_cost - rec.lower_bound) / denom);

  DBD_LOG_INFO(StrFormat(
      "CoPhy: %zu candidates, %zu atoms, %zu vars, %zu rows -> %zu indexes, "
      "cost %.1f -> %.1f (gap %.4f, %d nodes, %d cut off, %d vars fixed by "
      "reduced cost, %d pivots, %zu pins, %zu infeasible; %d clusters: %d "
      "solved, %d reused%s)",
      rec.num_candidates, rec.num_atoms, rec.num_variables,
      rec.num_constraints, rec.indexes.size(), rec.base_cost,
      rec.recommended_cost, rec.gap, rec.bnb_nodes, rec.nodes_cut_off,
      rec.vars_fixed_by_reduced_cost, rec.lp_pivots,
      admitted_pins.size(), rec.infeasible_pins.size(), rec.num_clusters,
      rec.clusters_solved, rec.clusters_reused,
      rec.solved_monolithic ? ", monolithic" : ""));
  return rec;
}

}  // namespace dbdesign
