#include "cophy/cophy.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <span>
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

namespace {

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

// Must exceed the simplex feasibility tolerance (1e-7): the next
// frontier budget must genuinely exclude the previous footprint.
constexpr double kAllocEps = 1e-6;
// Size guards of the decomposed path; tripping one falls back to the
// monolithic BIP.
constexpr size_t kMaxFrontier = 64;  // points per cluster frontier
constexpr int kMaxAllocationRounds = 64;

constexpr double kInf = std::numeric_limits<double>::infinity();

using SolverEntry = CoPhySolverCache::Entry;

struct BipSolve {
  BnbResult bnb;
  std::vector<int> chosen;  // global ids (pins included) when feasible
};

// What a solve path hands to the shared extraction.
struct Solution {
  std::set<int> chosen;  // final y set, pins included
  double lower = 0.0;    // raw solver bound incl. tie-break penalty
  bool proven = false;
};

// The BIP context of one SolvePrepared call: the prepared state, the
// resolved constraints and the scratch all its BIPs share, allocated
// once per call. Both paths build, round, warm-start and count every BIP
// with Solve, so they differ only in the subset they pass.
class CoPhyBip {
 public:
  CoPhyBip(const CoPhyPrepared& prepared, const DesignConstraints& constraints,
           const BnbOptions& bnb, std::set<int> admitted_pins,
           SolverWork* work)
      : prepared_(prepared),
        constraints_(constraints),
        bnb_(bnb),
        pins_(std::move(admitted_pins)),
        vetoed_(prepared.candidates.size(), false),
        local_of_(prepared.candidates.size(), -1),
        in_chosen_(prepared.candidates.size(), 0),
        work_(work) {
    for (size_t i = 0; i < vetoed_.size(); ++i) {
      vetoed_[i] = constraints.IsVetoed(prepared.candidates[i].index);
    }
  }

  const std::set<int>& pins() const { return pins_; }
  bool pinned(int i) const { return pins_.count(i) > 0; }
  double pages(int i) const {
    return prepared_.candidates[static_cast<size_t>(i)].size_pages;
  }
  SolverWork& work() { return *work_; }

  // Solves the monolithic BIP restricted to candidates `ck` (ascending
  // global ids) and query rows `qk`, with the budget row at `budget_rhs`
  // (omitted when infinite) and every cap row at its full rhs; the B&B
  // stops once its bound reaches `stop_at`. Warm-started from `warm`
  // (may be null): its root basis always — the row space is identical
  // across allocations and constraint edits — plus its previous optimum
  // as the initial incumbent when that is still feasible under this
  // allocation and the edited constraints. Adds the work to SolverWork,
  // and to the `kind` of solve the caller names.
  BipSolve Solve(const std::vector<int>& ck, const std::vector<int>& qk,
                 double budget_rhs, const SolverEntry* warm, double stop_at,
                 SolveKindWork SolverWork::*kind) {
    int nk = static_cast<int>(ck.size());
    MipProblem mip;
    for (int j = 0; j < nk; ++j) {
      local_of_[static_cast<size_t>(ck[static_cast<size_t>(j)])] = j;
      mip.binary_vars.push_back(mip.lp.AddVariable(
          kTieBreakPerPage * pages(ck[static_cast<size_t>(j)])));
    }
    // DBA pins and vetoes are pure variable fixings: the atom matrix and
    // every other row survive a constraint edit untouched.
    for (int j = 0; j < nk; ++j) {
      if (pinned(ck[static_cast<size_t>(j)])) mip.fixed_vars.emplace_back(j, 1);
    }
    for (int j = 0; j < nk; ++j) {
      if (vetoed_[static_cast<size_t>(ck[static_cast<size_t>(j)])]) {
        mip.fixed_vars.emplace_back(j, 0);
      }
    }
    // x variables, and one atom per query.
    std::vector<std::vector<int>> xvar(qk.size());
    for (size_t qi = 0; qi < qk.size(); ++qi) {
      size_t q = static_cast<size_t>(qk[qi]);
      LpConstraint one{{}, LpRelation::kEq, 1.0};
      for (const CoPhyAtom& a : prepared_.rows[q]->atoms) {
        xvar[qi].push_back(mip.lp.AddVariable(prepared_.weights[q] * a.cost));
        one.terms.emplace_back(xvar[qi].back(), 1.0);
      }
      mip.lp.AddConstraint(std::move(one));
    }
    // Aggregated linking: sum_{a of q using i} x <= y_i. This row and
    // every row below keep LpConstraint's default relation, <=.
    for (size_t qi = 0; qi < qk.size(); ++qi) {
      const std::vector<CoPhyAtom>& atoms =
          prepared_.rows[static_cast<size_t>(qk[qi])]->atoms;
      std::map<int, std::vector<int>> by_index;
      for (size_t a = 0; a < atoms.size(); ++a) {
        for (int i : atoms[a].used) by_index[i].push_back(xvar[qi][a]);
      }
      for (auto& [i, xs] : by_index) {
        LpConstraint link;
        for (int v : xs) link.terms.emplace_back(v, 1.0);
        link.terms.emplace_back(local_of_[static_cast<size_t>(i)], -1.0);
        mip.lp.AddConstraint(std::move(link));
      }
    }
    if (std::isfinite(budget_rhs)) {
      LpConstraint budget_row;
      for (int j = 0; j < nk; ++j) {
        budget_row.terms.emplace_back(j, pages(ck[static_cast<size_t>(j)]));
      }
      budget_row.rhs = budget_rhs;
      mip.lp.AddConstraint(std::move(budget_row));
    }
    // Per-table caps: sum_{i on t} y_i <= cap_t.
    for (const auto& [table, cap] : constraints_.max_indexes_per_table) {
      LpConstraint cap_row;
      for (int j = 0; j < nk; ++j) {
        if (table_of(ck[static_cast<size_t>(j)]) == table) {
          cap_row.terms.emplace_back(j, 1.0);
        }
      }
      if (cap_row.terms.empty()) continue;
      cap_row.rhs = static_cast<double>(cap);
      mip.lp.AddConstraint(std::move(cap_row));
    }

    BnbWarmStart start;
    bool have_start = warm != nullptr && !warm->root_basis.empty();
    if (have_start) start.basis = warm->root_basis;
    if (warm != nullptr && warm->valid) {
      std::set<int> ch;
      for (int i : warm->chosen) {
        if (!vetoed_[static_cast<size_t>(i)]) ch.insert(i);
      }
      for (int i : ck) {
        if (pinned(i)) ch.insert(i);
      }
      double used_pages = 0.0;
      for (int i : ch) used_pages += pages(i);
      double obj = kInf;
      if (CapsHold(ch) && used_pages <= budget_rhs) obj = Price(ch, qk);
      if (std::isfinite(obj)) {
        YValues(ch, mip.lp.num_vars, &start.values);
        start.objective = obj;
        have_start = true;
      }
    }

    BnbOptions bopt = bnb_;
    bopt.stop_at_bound = stop_at;
    auto heuristic = [&](const std::vector<double>& lp,
                         std::vector<double>* values, double* obj) {
      return Round(ck, qk, budget_rhs, mip.lp.num_vars, lp, values, obj);
    };
    BipSolve out;
    out.bnb =
        SolveBinaryMip(mip, bopt, heuristic, have_start ? &start : nullptr);
    const BnbResult& bnb = out.bnb;
    work_->bnb_nodes += bnb.nodes_explored;
    work_->lp_pivots += bnb.lp_pivots;
    work_->nodes_cut_off += bnb.nodes_cut_off;
    work_->vars_fixed_by_reduced_cost += bnb.vars_fixed_by_reduced_cost;
    work_->node_cold_solves += bnb.node_cold_solves;
    work_->root_warm_fallbacks += bnb.root_warm_fallbacks;
    work_->solve_time_sec += bnb.solve_time_sec;
    work_->num_variables += static_cast<size_t>(mip.lp.num_vars);
    work_->num_constraints += mip.lp.constraints.size();
    SolveKindWork& by_kind = work_->*kind;
    ++by_kind.solves;
    by_kind.bnb_nodes += bnb.nodes_explored;
    by_kind.lp_pivots += bnb.lp_pivots;
    // Admitted pins are always chosen, even when the node budget
    // starved the search.
    for (int j = 0; j < nk && bnb.feasible; ++j) {
      int i = ck[static_cast<size_t>(j)];
      if (pinned(i) || bnb.values[static_cast<size_t>(j)] > 0.5) {
        out.chosen.push_back(i);
      }
    }
    for (int i : ck) local_of_[static_cast<size_t>(i)] = -1;
    return out;
  }

  // Objective of a y-set over query rows `rows`: the tie-break on the
  // chosen indexes plus each row's cheapest compatible atom (the first
  // on a cost tie) — the BIP objective over those rows. With `best`,
  // also appends each row's atom (nullptr when none is compatible).
  double Price(const std::set<int>& chosen, const std::vector<int>& rows,
               std::vector<const CoPhyAtom*>* best = nullptr) {
    double obj = 0.0;
    for (int i : chosen) {
      obj += kTieBreakPerPage * pages(i);
      in_chosen_[static_cast<size_t>(i)] = 1;
    }
    for (int q : rows) {
      const CoPhyAtom* a = nullptr;
      double cost = kInf;
      for (const CoPhyAtom& b : prepared_.rows[static_cast<size_t>(q)]->atoms) {
        if (b.cost < cost &&
            std::all_of(b.used.begin(), b.used.end(), [&](int i) {
              return in_chosen_[static_cast<size_t>(i)] != 0;
            })) {
          a = &b;
          cost = b.cost;
        }
      }
      obj += prepared_.weights[static_cast<size_t>(q)] * cost;
      if (best != nullptr) best->push_back(a);
    }
    for (int i : chosen) in_chosen_[static_cast<size_t>(i)] = 0;
    return obj;
  }

  // Everything a constraint edit can change about the BIP over `ck` and
  // `qk` whose budget row may use `budget_pages`: pages, pins/vetoes,
  // relevant caps, row weights. A matching signature and a proven
  // optimum in the cache mean the subproblem is clean: it is reused.
  uint64_t Signature(const std::vector<int>& ck, const std::vector<int>& qk,
                     double budget_pages) const {
    Fnv1a fnv(kFnvLegacyBasis);
    fnv.MixDouble(budget_pages);
    for (int i : ck) {
      uint64_t bits = static_cast<uint64_t>(i) << 2;
      if (pinned(i)) bits |= 1;
      if (vetoed_[static_cast<size_t>(i)]) bits |= 2;
      fnv.MixU64(bits);
    }
    for (const auto& [table, cap] : constraints_.max_indexes_per_table) {
      if (std::any_of(ck.begin(), ck.end(),
                      [&](int i) { return table_of(i) == table; })) {
        fnv.MixU64(static_cast<uint64_t>(table));
        fnv.MixU64(static_cast<uint64_t>(cap));
      }
    }
    fnv.MixU64(qk.size());
    for (int q : qk) {
      fnv.MixU64(static_cast<uint64_t>(q));
      fnv.MixDouble(prepared_.weights[static_cast<size_t>(q)]);
    }
    return fnv.digest();
  }

  // Whether `chosen` honors every per-table cap.
  bool CapsHold(const std::set<int>& chosen) const {
    std::map<TableId, int> per_table;
    for (int i : chosen) per_table[table_of(i)]++;
    for (const auto& [table, count] : per_table) {
      if (count > constraints_.TableCapOrUnlimited(table)) return false;
    }
    return true;
  }

 private:
  TableId table_of(int i) const {
    return prepared_.candidates[static_cast<size_t>(i)].index.table;
  }
  // y values of a chosen set over the BIP being solved; x is implied
  // (B&B only reads binary positions, and the objective is explicit).
  void YValues(const std::set<int>& chosen, int num_vars,
               std::vector<double>* out) const {
    out->assign(static_cast<size_t>(num_vars), 0.0);
    for (int i : chosen) {
      (*out)[static_cast<size_t>(local_of_[static_cast<size_t>(i)])] = 1.0;
    }
  }
  // Primal heuristic: pins first, then round y by LP value under the
  // budget/cap/veto constraints, then the cheapest compatible atom per
  // query.
  bool Round(const std::vector<int>& ck, const std::vector<int>& qk,
             double budget_rhs, int num_vars, const std::vector<double>& lp,
             std::vector<double>* out, double* obj) {
    std::set<int> ch;
    double used_pages = 0.0;
    std::map<TableId, int> per_table;
    for (int i : ck) {
      if (!pinned(i)) continue;
      ch.insert(i);
      used_pages += pages(i);
      per_table[table_of(i)]++;
    }
    std::vector<std::pair<double, int>> ranked;
    for (size_t j = 0; j < ck.size(); ++j) {
      int i = ck[j];
      if (vetoed_[static_cast<size_t>(i)] || ch.count(i) > 0) continue;
      if (lp[j] > 1e-6) ranked.emplace_back(-lp[j], i);
    }
    std::sort(ranked.begin(), ranked.end());
    for (auto& [neg, i] : ranked) {
      if (used_pages + pages(i) > budget_rhs) continue;
      TableId t = table_of(i);
      if (per_table[t] + 1 > constraints_.TableCapOrUnlimited(t)) continue;
      ch.insert(i);
      used_pages += pages(i);
      per_table[t]++;
    }
    *obj = Price(ch, qk);
    if (!std::isfinite(*obj)) return false;
    YValues(ch, num_vars, out);
    return true;
  }

  const CoPhyPrepared& prepared_;
  const DesignConstraints& constraints_;
  const BnbOptions& bnb_;
  std::set<int> pins_;
  std::vector<bool> vetoed_;
  // Local column of each candidate in the BIP being solved, else -1.
  std::vector<int> local_of_;
  // Membership marker for "the chosen set", set and cleared by Price,
  // so a use costs O(|chosen| + atoms), never O(candidates).
  std::vector<char> in_chosen_;
  SolverWork* work_;
};

// The freshness step of a cache slot (see CoPhySolverCache): nullptr
// when `live` answers under `sig` as it stands or recalled; otherwise
// the entry its re-solve warm-starts from, the parked one or `live`.
const SolverEntry* Refresh(CoPhySolverCache& cache, int slot, uint64_t sig,
                           SolverEntry& live) {
  bool proven = live.valid && (slot == CoPhySolverCache::kMonoSlot ||
                               !live.frontier.empty());
  if ((proven && live.signature == sig) || cache.Recall(slot, sig, live)) {
    return nullptr;
  }
  const SolverEntry* parked = cache.Park(slot, live);
  live.signature = sig;
  live.frontier.clear();
  live.frontier_complete = false;
  live.tail_bound = 0.0;
  return parked != nullptr ? parked : &live;
}

// A cluster some query row can use, with its share of the decomposed
// solve.
struct ActiveCluster {
  int k = 0;
  const std::vector<int>* cands = nullptr;  // ascending global ids
  std::vector<int> rows;
  double floor_pages = 0.0;  // admitted pins' pages: the least it uses
  // Frontier deepening cut: the next budget must exclude the previous
  // optimum BEYOND the simplex/integrality tolerances, or the LP shaves
  // every y to 1-1e-6 and returns the same set "fitting" the reduced
  // budget. Total shave capacity is sum(sizes) * 1e-6; a 10x margin
  // stays far below any real footprint step.
  double cut = kAllocEps;
  SolverEntry* entry = nullptr;
  bool ran = false;  // solved at least one BIP this call
};

// Solves one frontier point of cluster `c`: its BIP under an allocation
// of `budget_rhs` pages, warm-started from `warm` (the cluster's entry,
// or the one it just parked). A finite `stop_at` lets the branch-and-
// bound stop as soon as its global lower bound reaches that value: the
// caller then gets a tail-bound CERTIFICATE (the sentinel can no longer
// win) at a fraction of a full proof's cost, and no point is appended.
// Returns +1 on a new proven point, 0 when the tail is certified or
// provably empty, -1 on failure (monolithic fallback).
int SolvePoint(CoPhyBip& bip, ActiveCluster& c, double budget_rhs,
               double stop_at, const SolverEntry* warm,
               SolveKindWork SolverWork::*kind) {
  SolverEntry& e = *c.entry;
  BipSolve r = bip.Solve(*c.cands, c.rows, budget_rhs, warm, stop_at, kind);
  const BnbResult& bnb = r.bnb;
  if (!std::exchange(c.ran, true)) ++bip.work().clusters_solved;
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
      // Early stop: every configuration under this allocation costs at
      // least `lower_bound`, which is all AllocateBudget needs to retire
      // the sentinel. No exact point to record.
      e.tail_bound = std::max(e.tail_bound, bnb.lower_bound);
      return 0;
    }
    e.valid = false;
    e.frontier.clear();
    e.frontier_complete = false;
    e.tail_bound = 0.0;
    e.root_basis = bnb.root_basis;  // still warm material
    return -1;  // let the monolithic path (with its own node budget over
                // the whole tree) arbitrate
  }
  SolverEntry::ParetoPoint p;
  p.cost = bnb.objective;
  p.chosen = std::move(r.chosen);
  for (int i : p.chosen) p.footprint += bip.pages(i);
  e.root_basis = bnb.root_basis;
  if (e.frontier.empty()) {
    e.valid = true;
    e.chosen = p.chosen;
    e.objective = bnb.objective;
    e.lower_bound = bnb.lower_bound;
  } else if (p.footprint > e.frontier.back().footprint - kAllocEps * 0.5) {
    // No strict footprint progress (numerically stuck): stop here rather
    // than loop; the tail keeps its sentinel bound.
    e.frontier_complete = true;
    return 0;
  }
  if (p.footprint <= c.floor_pages + kAllocEps) {
    e.frontier_complete = true;  // pins-only: nothing below
  }
  // A new point is itself the strongest monotonicity bound for the tail
  // below it (and never contradicts an earlier certificate, which
  // bounded a superset of that tail).
  e.tail_bound = std::max(e.tail_bound, p.cost);
  e.frontier.push_back(std::move(p));
  return 1;
}

// The decomposed path. Each cluster BIP is the monolithic BIP restricted
// to the cluster's candidates and query rows — coupled to the rest only
// through the budget row and the per-table cap rows. The budget coupling
// is arbitrated exactly: every active cluster exposes a budget/cost
// FRONTIER (its proven optimum as a function of allocated pages,
// enumerated lazily top-down: solve at the full budget, then re-solve
// just below the footprint the optimum actually used, and so on), and
// AllocateBudget picks one frontier point per cluster minimizing total
// cost under the global budget. Unexplored frontier tails enter it as
// lower-bound sentinels (footprint = the cluster's pin floor, cost = its
// tail bound — a true bound, since shrinking the budget never cheapens
// an optimum); when the best real split matches the sentinel-augmented
// bound, it is the exact optimal split, and by the tie-break uniqueness
// the stitched union is the monolithic optimum. Otherwise the sentinel
// clusters deepen their frontiers and the allocation repeats.
//
// Caps are kept at full rhs per cluster (a relaxation): if the winning
// split violates a cap across clusters — or a frontier/allocation size
// guard trips, or a cluster solve fails to prove its point — this
// returns nothing and the monolithic path arbitrates.
std::optional<Solution> SolveDecomposed(CoPhyBip& bip,
                                        const CoPhyPrepared& prepared,
                                        double budget,
                                        CoPhySolverCache& cache) {
  const ClusterPartition& part = prepared.clusters;
  std::vector<std::vector<int>> cluster_rows(
      static_cast<size_t>(part.num_clusters()));
  std::vector<int> const_rows;  // no atom uses a candidate: a constant
  for (size_t q = 0; q < prepared.rows.size(); ++q) {
    if (prepared.rows[q]->atoms.empty()) return std::nullopt;  // degenerate
    int k = prepared.row_cluster[q];
    (k < 0 ? const_rows : cluster_rows[static_cast<size_t>(k)])
        .push_back(static_cast<int>(q));
  }

  // Split clusters into active (some query row can use them) and
  // inactive. Inactive clusters keep exactly their pins — any other y
  // adds pure tie-break cost — and those pins still consume budget
  // pages, so they are charged against the allocation's budget up front.
  double lb_sum = bip.Price({}, const_rows);
  double outside_pages = 0.0;
  std::vector<ActiveCluster> active;
  for (size_t k = 0; k < cluster_rows.size(); ++k) {
    const std::vector<int>& ck = part.clusters[k];
    double pin_sz = 0.0;
    double sum = 0.0;
    for (int i : ck) {
      if (bip.pinned(i)) pin_sz += bip.pages(i);
      sum += bip.pages(i);
    }
    if (cluster_rows[k].empty()) {
      lb_sum += kTieBreakPerPage * pin_sz;
      outside_pages += pin_sz;
      continue;
    }
    active.push_back(ActiveCluster{static_cast<int>(k), &ck,
                                   std::move(cluster_rows[k]), pin_sz,
                                   std::max(kAllocEps, sum * 1e-5),
                                   &cache.entries[k]});
  }
  double dp_budget = budget - outside_pages;  // inf stays inf

  // Every active cluster needs at least its top point before the
  // allocation can run.
  for (ActiveCluster& c : active) {
    const SolverEntry* warm = Refresh(
        cache, c.k, bip.Signature(*c.cands, c.rows, dp_budget), *c.entry);
    if (warm != nullptr && SolvePoint(bip, c, dp_budget, kInf, warm,
                                      &SolverWork::top_points) != 1) {
      return std::nullopt;
    }
  }

  std::vector<BudgetFrontier> frontiers(active.size());
  for (int round = 0; round < kMaxAllocationRounds; ++round) {
    for (size_t a = 0; a < active.size(); ++a) {
      const SolverEntry& e = *active[a].entry;
      frontiers[a] = BudgetFrontier{e.frontier, e.frontier_complete,
                                    active[a].floor_pages, e.tail_bound};
    }
    BudgetAllocation alloc = AllocateBudget(frontiers, dp_budget);
    if (!alloc.bound.has_value()) return std::nullopt;
    const std::optional<BudgetSplit>& real = alloc.real;
    const BudgetSplit& bound = *alloc.bound;
    if (real.has_value() &&
        real->cost <= bound.cost + 1e-9 * std::max(1.0, std::abs(bound.cost))) {
      // The achievable split matches the lower bound: exact optimum.
      Solution out{bip.pins(), lb_sum + real->cost, true};
      for (size_t a = 0; a < active.size(); ++a) {
        const std::vector<int>& chosen =
            active[a].entry->frontier[static_cast<size_t>(real->pick[a])]
                .chosen;
        out.chosen.insert(chosen.begin(), chosen.end());
      }
      // Caps were relaxed per cluster: the split is only the global
      // optimum when the union honors them too.
      if (!bip.CapsHold(out.chosen)) return std::nullopt;
      for (const ActiveCluster& c : active) {
        if (!c.ran) ++bip.work().clusters_reused;
      }
      return out;
    }
    // The bound lives in an unexplored tail: strengthen every sentinel
    // cluster and re-run. When a real split exists, the solve only needs
    // to lift this cluster's tail bound past the sentinel's winning
    // margin — a certificate the B&B reaches long before a full proof;
    // without one it must produce exact points until splits fit the
    // budget at all.
    bool progressed = false;
    double scale = std::max(1.0, std::abs(bound.cost));
    for (size_t a = 0; a < active.size(); ++a) {
      if (bound.pick[a] != -1) continue;
      ActiveCluster& c = active[a];
      SolverEntry& e = *c.entry;
      if (e.frontier.size() >= kMaxFrontier) return std::nullopt;
      double next_rhs = e.frontier.back().footprint - c.cut;
      double stop_at = kInf;
      SolveKindWork SolverWork::*kind = &SolverWork::deeper_points;
      if (real.has_value()) {
        stop_at = e.tail_bound + (real->cost - bound.cost) + 1e-7 * scale;
        kind = &SolverWork::tail_certificates;
      }
      if (SolvePoint(bip, c, next_rhs, stop_at, &e, kind) < 0) {
        return std::nullopt;
      }
      progressed = true;  // point, certificate, or tail proved empty
    }
    if (!progressed) return std::nullopt;
  }
  return std::nullopt;
}

// The monolithic path (mode or fallback): the same BIP over every
// candidate, every row and the full budget. The mono cache entry answers
// an unchanged re-solve outright and otherwise warm-starts it: this is
// what keeps a DBA edit cheap when a cap binds across clusters and every
// solve lands here. Unlike a cluster point, an incumbent that is not
// proven optimal is still the answer (the node budget is the
// time/quality knob).
Solution SolveMonolithic(CoPhyBip& bip, const std::vector<int>& all_cands,
                         const std::vector<int>& all_rows, double budget,
                         double stop_at, CoPhySolverCache& cache) {
  bip.work().solved_monolithic = true;
  SolverEntry& mono = cache.mono;
  const SolverEntry* warm =
      Refresh(cache, CoPhySolverCache::kMonoSlot,
              bip.Signature(all_cands, all_rows, budget), mono);
  if (warm == nullptr) {  // the cached proven optimum IS the answer
    Solution out{bip.pins(), mono.lower_bound, true};
    out.chosen.insert(mono.chosen.begin(), mono.chosen.end());
    return out;
  }
  BipSolve r = bip.Solve(all_cands, all_rows, budget, warm, stop_at,
                         &SolverWork::monolithic_bips);
  Solution out{bip.pins(), r.bnb.lower_bound, r.bnb.proven_optimal};
  out.chosen.insert(r.chosen.begin(), r.chosen.end());
  mono.root_basis = r.bnb.root_basis;
  mono.valid = r.bnb.feasible && r.bnb.proven_optimal;
  if (mono.valid) {
    mono.chosen.assign(out.chosen.begin(), out.chosen.end());
    mono.objective = r.bnb.objective;
    mono.lower_bound = r.bnb.lower_bound;
  }
  return out;
}

}  // namespace

BudgetAllocation AllocateBudget(std::span<const BudgetFrontier> frontiers,
                                double dp_budget) {
  struct State {
    double f = 0.0;
    double c = 0.0;
    std::vector<int> pick;
  };
  BudgetAllocation out;
  // One pass: the cheapest split over real points, or `with_tails` also
  // over each incomplete frontier's tail sentinel (pick -1).
  auto pass = [&](bool with_tails) -> std::optional<BudgetSplit> {
    std::vector<State> states(1);
    for (const BudgetFrontier& fr : frontiers) {
      size_t options =
          fr.points.size() + (with_tails && !fr.complete ? 1 : 0);
      std::vector<State> next;
      for (const State& st : states) {
        for (size_t pi = 0; pi < options; ++pi) {
          bool tail = pi == fr.points.size();
          double f = st.f + (tail ? fr.floor_pages : fr.points[pi].footprint);
          if (f > dp_budget + kAllocEps) continue;
          State n = st;
          n.f = f;
          n.c += tail ? fr.tail_bound : fr.points[pi].cost;
          n.pick.push_back(tail ? -1 : static_cast<int>(pi));
          next.push_back(std::move(n));
        }
      }
      if (next.empty()) return std::nullopt;
      std::sort(next.begin(), next.end(), [](const State& a, const State& b) {
        if (a.f != b.f) return a.f < b.f;
        if (a.c != b.c) return a.c < b.c;
        return a.pick < b.pick;
      });
      // Keep only Pareto-optimal (pages, cost) pairs.
      states.clear();
      double best_c = kInf;
      for (State& st : next) {
        if (st.c < best_c) {
          best_c = st.c;
          states.push_back(std::move(st));
        }
      }
      // Guard on the PRUNED set, which bounds real state growth.
      if (states.size() > kMaxAllocationStates) {
        out.guard_tripped = true;
        return std::nullopt;
      }
    }
    // Costs strictly decrease with pages: the last state is the cheapest.
    return BudgetSplit{std::move(states.back().pick), states.back().c};
  };
  out.real = pass(/*with_tails=*/false);
  out.bound = pass(/*with_tails=*/true);
  return out;
}

Result<IndexRecommendation> CoPhyAdvisor::SolvePrepared(
    const CoPhyPrepared& prepared, const DesignConstraints& constraints,
    CoPhySolverCache* cache) const {
  Status s = constraints.Validate(backend_->catalog());
  if (!s.ok()) return s;

  const std::vector<CandidateIndex>& candidates = prepared.candidates;
  size_t nq = prepared.rows.size();
  double budget = constraints.EffectiveBudget(options_.storage_budget_pages);

  IndexRecommendation rec;
  rec.num_candidates = candidates.size();
  rec.num_atoms = prepared.num_atoms;
  rec.base_cost = prepared.base_cost;
  rec.num_clusters = prepared.clusters.num_clusters();

  // Pins must be in the candidate universe (callers merge them via
  // MergePinnedCandidates before Prepare); a pin outside it means the
  // prepared state is stale.
  std::vector<int> pin_ids;
  for (const IndexDef& pin : constraints.pinned_indexes) {
    auto it = std::find_if(
        candidates.begin(), candidates.end(),
        [&](const CandidateIndex& c) { return c.index == pin; });
    if (it == candidates.end()) {
      return Status::InvalidArgument(
          "pinned index " + pin.DisplayName(backend_->catalog()) +
          " is not in the prepared candidate universe; re-prepare with the "
          "pin merged into the candidates");
    }
    pin_ids.push_back(static_cast<int>(it - candidates.begin()));
  }
  // Admit pins smallest-first under the budget; the rest are reported
  // as infeasible instead of silently failing the whole solve.
  std::sort(pin_ids.begin(), pin_ids.end(), [&](int a, int b) {
    return std::pair(candidates[static_cast<size_t>(a)].size_pages, a) <
           std::pair(candidates[static_cast<size_t>(b)].size_pages, b);
  });
  std::set<int> admitted_pins;
  double pin_pages = 0.0;
  for (int i : pin_ids) {
    const CandidateIndex& pin = candidates[static_cast<size_t>(i)];
    if (pin_pages + pin.size_pages <= budget) {
      admitted_pins.insert(i);
      pin_pages += pin.size_pages;
    } else {
      rec.infeasible_pins.push_back(pin.index);
      DBD_LOG_WARN(StrFormat(
          "CoPhy: pinned index %s (%.0f pages) does not fit the remaining "
          "budget (%.0f of %.0f pages used)",
          pin.index.DisplayName(backend_->catalog()).c_str(), pin.size_pages,
          pin_pages, budget));
    }
  }

  // A stateless call runs the same code over a fresh cache of its own.
  // Cached solver state keyed to a different universe, row space or
  // cluster count must not survive into this solve, whichever path runs.
  std::optional<CoPhySolverCache> own_cache;
  if (cache == nullptr) cache = &own_cache.emplace();
  size_t num_k = prepared.clusters.clusters.size();
  if (cache->universe_fingerprint != prepared.universe_fingerprint ||
      cache->num_rows != nq || cache->entries.size() != num_k) {
    cache->Clear();
    cache->universe_fingerprint = prepared.universe_fingerprint;
    cache->num_rows = nq;
    cache->entries.assign(num_k, CoPhySolverCache::Entry{});
  }

  CoPhyBip bip(prepared, constraints, options_.bnb, std::move(admitted_pins),
               &rec);
  std::vector<int> all_cands(candidates.size());
  std::iota(all_cands.begin(), all_cands.end(), 0);
  std::vector<int> all_rows(nq);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::optional<Solution> solution;
  if (options_.solve_mode == CoPhySolveMode::kAuto &&
      prepared.clusters.num_nodes() == static_cast<int>(candidates.size()) &&
      prepared.row_cluster.size() == nq) {
    solution = SolveDecomposed(bip, prepared, budget, *cache);
  }
  if (!solution.has_value()) {
    solution = SolveMonolithic(bip, all_cands, all_rows, budget,
                               options_.bnb.stop_at_bound, *cache);
  }
  rec.proven_optimal = solution->proven;

  // ---------------- Shared extraction ----------------
  // Both paths produce the same chosen set for the same inputs (that is
  // the decomposition theorem, exercised by the differential suite),
  // and everything below depends only on it — so the two paths yield
  // bit-identical recommendations. Per-query best atom under the chosen
  // set; drop unpinned indexes no atom uses.
  std::vector<const CoPhyAtom*> best;
  bip.Price(solution->chosen, all_rows, &best);
  std::set<int> kept = bip.pins();
  rec.per_query_cost.resize(nq, 0.0);
  for (size_t q = 0; q < nq; ++q) {
    rec.per_query_cost[q] = best[q] != nullptr ? best[q]->cost : kInf;
    rec.recommended_cost += prepared.weights[q] * rec.per_query_cost[q];
    if (best[q] != nullptr) {
      kept.insert(best[q]->used.begin(), best[q]->used.end());
    }
  }
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
  rec.lower_bound = std::max(0.0, solution->lower - penalty_cap);
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
      rec.vars_fixed_by_reduced_cost, rec.lp_pivots, bip.pins().size(),
      rec.infeasible_pins.size(), rec.num_clusters, rec.clusters_solved,
      rec.clusters_reused, rec.solved_monolithic ? ", monolithic" : ""));
  return rec;
}

}  // namespace dbdesign
