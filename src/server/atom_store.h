// Shared, reference-counted atom substrate for the multi-tenant tuning
// server — now with a memory budget.
//
// The expensive half of a recommendation is per (schema, query,
// candidate universe): INUM populate + CoPhy atom expansion. Nothing
// about it is per *session* — two DBAs tuning the same schema against
// the same templates pay the same populate twice. The AtomStore
// deduplicates that work across sessions: immutable CoPhyAtomRow
// snapshots (cophy/cophy.h) are published under a composite key of
//
//   (schema fingerprint, query SQL text, candidate-universe fingerprint)
//
// and handed out by shared_ptr. A session whose Prepare hits the store
// adopts the row as-is and skips its own populate; a miss builds the
// row locally and publishes it for the next session. Rows are never
// mutated after publication — constraint edits, weight bumps, and
// universe extensions all produce *new* rows — so sharing is safe by
// construction and results stay bit-identical to the single-session
// path.
//
// Single flight. Concurrent sessions on one schema miss the same keys
// at once, so a miss is a *claim*: Claim hands the key to the first
// caller, and every later caller finds it pending until the claimant
// publishes (the pending callers then hit) or releases it after a
// failed build (one of them claims it next). A caller builds each key
// it claims at once and waits only while it holds no claim, so waits
// never form a cycle; sessions preparing the same workload split its
// keys between them instead of each building all of them.
//
// Plan sets. A row carries a weak handle on the INUM plan set it was
// built from; an adopter installs that plan set into its own cost model
// (read-only: plan sets are immutable and shared by shared_ptr), so its
// later INUM pricing of the query skips the populate too. The store
// never owns a plan set: it lives while some session's cost model holds
// it, costs the store only the handle inside each row, and is absent
// from spilled rows — an expired or reloaded row's adopter simply
// populates.
//
// Tiering. A store without a budget keeps every row hot forever, which
// on a long-lived server tuning hundreds of schemas is unbounded
// growth. With AtomStoreOptions::budget_bytes set, rows live in up to
// three tiers:
//
//   hot   — shared_ptr rows in a BudgetedLru (util/budgeted_lru.h),
//           the only tier that counts against the budget; one entry
//           per (schema, template class): the SQL key is the template
//           class's representative rendering.
//   cold  — rows spilled on their first eviction to a compact
//           versioned little-endian file (cophy/atom_codec.h) under
//           AtomStoreOptions::spill_dir; a later lookup reloads,
//           promotes the row back to hot, and re-evicts to budget.
//   gone  — with no spill_dir (or an unwritable one), eviction drops
//           the entry outright and the next lookup misses; the session
//           rebuilds and republishes (a `repopulate`).
//
// Every transition is counted (evictions / spills / reloads /
// reload_failures) and the LRU DBD_CHECKs hot bytes against the budget
// after every insertion, so benches can hard-assert bounded memory.
// Eviction never touches `seen_queries_`, which is what keeps the
// repopulate-vs-fresh-publish distinction exact across evictions.
//
// Keying notes. The SQL text component is collision-free by
// construction (same lesson as the INUM cache tripwires: text keys,
// not hashes, for the part that varies per query). The schema and
// universe components are 64-bit FNV-1a over canonical renderings that
// include every cost-relevant input — catalog shape, statistics
// (including histogram bounds and MCV values/frequencies), cost
// parameters, candidate keys + sizes — so substrates that could cost
// differently fingerprint differently. Spill FILES are named by a hash
// of the composite key, but each file embeds the full key and the
// reload path verifies it, so a filename collision degrades to a miss,
// never to serving another key's row.
//
// The cluster partition used by the decomposed solver is deliberately
// NOT part of the key: it is a pure function of the rows (which
// candidates each row's atoms use), recomputed per session by
// CoPhyPrepared::RefreshClusters. Keys and published rows are byte-for-
// byte what they were before cluster decomposition existed, so stores
// populated by old and new sessions interoperate.

#ifndef DBDESIGN_SERVER_ATOM_STORE_H_
#define DBDESIGN_SERVER_ATOM_STORE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "backend/backend.h"
#include "cophy/cophy.h"
#include "util/budgeted_lru.h"
#include "util/thread_annotations.h"

namespace dbdesign {

/// Cache counters — server-wide on AtomStore::stats(), per session on
/// AtomStoreView::session_stats(). Counters describe work saved/spent
/// (a hit = one INUM populate avoided); they are interleaving-dependent
/// under concurrency and deliberately outside the bit-identical
/// contract, which covers results only. Counters cover the store's
/// CURRENT lifetime: Clear() resets them along with the entries, so
/// hit_rate() never mixes epochs. lookups == hits + misses always. The
/// per-session counters sum to the server-wide lookups, hits, misses,
/// inflight_waits, publishes and races_discarded; the repopulate and
/// tiering counters are kept server-wide only.
struct AtomStoreStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;    ///< rows served shared — populate skipped
  uint64_t misses = 0;  ///< rows the session had to build itself
  /// Lookups that blocked on another session's build of the key (each
  /// also counts as a hit, or as a miss when that build failed).
  uint64_t inflight_waits = 0;
  uint64_t publishes = 0;  ///< fresh rows inserted (populates paid)
  /// Publishes for a query that was already stored under a *different*
  /// candidate universe — OR whose entry was evicted without a
  /// reloadable spill copy: either way the row had to be rebuilt.
  uint64_t repopulates = 0;
  /// Concurrent duplicate publishes dropped in favor of the canonical
  /// first-written row.
  uint64_t races_discarded = 0;

  // --- Tiering counters (all zero on an unbounded store) ---
  uint64_t evictions = 0;  ///< hot rows pushed out by the budget
  uint64_t spills = 0;     ///< evicted rows written to the cold tier
  uint64_t reloads = 0;    ///< hits served by decoding a spill file
  /// Spill files that failed to read back (deleted, corrupt, or a
  /// filename-hash collision overwrote them); each one became a miss.
  uint64_t reload_failures = 0;

  double hit_rate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// Fingerprint of a backend's cost substrate: catalog shape (table and
/// column names, types, widths), per-table statistics (row counts,
/// per-column NDV/null fraction/correlation, every histogram bound and
/// every MCV value/frequency), and cost parameters. Two backends with
/// equal fingerprints produce identical atom rows for identical queries
/// and candidate universes, which is exactly the sharing contract the
/// AtomStore needs.
uint64_t SchemaFingerprint(const DbmsBackend& backend);

/// Memory policy for an AtomStore. Defaults reproduce the pre-budget
/// store: everything hot forever, nothing on disk.
struct AtomStoreOptions {
  /// Ceiling on hot (in-memory) row bytes, as measured by AtomRowBytes.
  /// 0 = unbounded. AtomRowBytes is a deterministic lower bound on the
  /// heap an entry really holds: it leaves out the key (its SQL text),
  /// the LRU and map nodes, the shared_ptr control blocks and allocator
  /// overhead. Measured with mallinfo2 over 1,593 entries (8-session
  /// groups of 64-query Uniform workloads on a 5,000-row SDSS schema):
  /// 1,820 heap bytes per entry against 731 charged, a ratio of 2.5.
  size_t budget_bytes = 0;
  /// Directory for the cold tier. Empty = no spilling (eviction drops
  /// rows outright). Created on construction; if creation fails the
  /// store logs a warning and runs without a cold tier.
  std::string spill_dir;
};

/// The server-wide shared substrate. Thread-safe; all state behind an
/// annotated Mutex, with a CondVar for single-flight waits. Entries are
/// immutable shared_ptrs, so readers hold rows with zero locking after
/// lookup and a Clear(), an eviction, or store destruction never
/// invalidates rows sessions already adopted — reference counting keeps
/// them alive.
class AtomStore {
 public:
  AtomStore() = default;
  explicit AtomStore(AtomStoreOptions options);
  ~AtomStore();

  AtomStore(const AtomStore&) = delete;
  AtomStore& operator=(const AtomStore&) = delete;

  /// Cached row for the composite key, or nullptr on a miss. A spilled
  /// row is transparently reloaded (and promoted back to hot); an
  /// unreadable spill file degrades to a miss.
  std::shared_ptr<const CoPhyAtomRow> Lookup(uint64_t schema_fingerprint,
                                             const std::string& sql_key,
                                             uint64_t universe_fingerprint);

  /// Single-flight lookup (see CoPhyAtomSource::Claim): the row, a
  /// claim on the key, or — without `wait` — pending while another
  /// caller builds it. Counts a lookup (and a hit or a miss) only when
  /// the key resolves, so a pending answer counts nothing until the
  /// key is claimed again.
  CoPhyAtomClaim Claim(uint64_t schema_fingerprint, const std::string& sql_key,
                       uint64_t universe_fingerprint, bool wait);

  /// Publishes a row and ends any claim on its key; returns the
  /// canonical entry (first writer wins — a concurrent duplicate is
  /// discarded and the caller adopts the stored row, so all sessions
  /// share one object per key).
  std::shared_ptr<const CoPhyAtomRow> Publish(
      uint64_t schema_fingerprint, const std::string& sql_key,
      uint64_t universe_fingerprint, std::shared_ptr<const CoPhyAtomRow> row);

  /// Ends a claim without publishing (the claimant's build failed) and
  /// wakes the callers waiting on the key.
  void Release(uint64_t schema_fingerprint, const std::string& sql_key,
               uint64_t universe_fingerprint);

  AtomStoreStats stats() const;
  /// Entries in any tier (hot + spilled).
  size_t entries() const;
  /// Entries currently hot (holding an in-memory row).
  size_t hot_entries() const;
  /// Current / high-water hot-tier bytes (the budgeted gauge).
  size_t hot_bytes() const;
  size_t peak_hot_bytes() const;

  /// Drops every entry AND every spill file, and resets counters and
  /// gauges to a fresh store (rows sessions hold stay alive via
  /// shared_ptr). Unlike eviction, this also forgets seen_queries_:
  /// after a Clear the next publish of any key is a fresh publish, not
  /// a repopulate, and hit_rate() restarts from zero. Claims of builds
  /// in flight survive: their claimants still publish or release them.
  void Clear();

 private:
  using Key = std::tuple<uint64_t, std::string, uint64_t>;
  using Row = std::shared_ptr<const CoPhyAtomRow>;

  /// Makes `row` hot under `key`, evicts least-recently-used rows to
  /// the budget (spilling each on its first eviction when the cold
  /// tier is available) and updates the peak gauge.
  void PutHot(const Key& key, Row row) DBD_REQUIRES(mu_);
  /// The row under `key`, or nullptr. A cold row is promoted back to
  /// hot from its spill file (and returned even if that evicts it
  /// again); an unreadable file is counted, deleted and forgotten.
  Row FindRow(const Key& key) DBD_REQUIRES(mu_);
  /// Reads + decodes + key-verifies the spill file; nullptr on any
  /// failure.
  Row ReadSpill(const Key& key) DBD_REQUIRES(mu_);
  /// Writes the spill file for (key, row); false on I/O failure.
  bool WriteSpill(const Key& key, const CoPhyAtomRow& row) DBD_REQUIRES(mu_);
  std::string SpillPath(const Key& key) const;
  /// Best-effort removal of every spill file of the cold tier.
  void RemoveSpillFiles() DBD_REQUIRES(mu_);

  const AtomStoreOptions options_;
  /// Cold tier usable (spill_dir set and created). Immutable after
  /// construction.
  bool spill_enabled_ = false;

  mutable Mutex mu_;
  /// Hot tier, bytes as measured by AtomRowBytes.
  BudgetedLru<Key, Row> hot_ DBD_GUARDED_BY(mu_);
  /// Cold tier: keys with a spill file. Rows are immutable, so a key
  /// may stay here while hot again after a reload.
  std::set<Key> spilled_ DBD_GUARDED_BY(mu_);
  size_t peak_hot_bytes_ DBD_GUARDED_BY(mu_) = 0;
  /// (schema, sql) pairs ever published — distinguishes a repopulate
  /// (same query, new universe or evicted entry) from a first-time
  /// publish. Deliberately NOT trimmed by eviction (a uint64 + the SQL
  /// text per template is noise next to one atom row), and reset only
  /// by Clear().
  std::set<std::pair<uint64_t, std::string>> seen_queries_
      DBD_GUARDED_BY(mu_);
  /// Keys claimed by a caller that is building their row.
  std::set<Key> building_ DBD_GUARDED_BY(mu_);
  /// Signalled whenever a claim ends (publish or release).
  CondVar claim_ended_;
  AtomStoreStats stats_ DBD_GUARDED_BY(mu_);
};

/// A per-session lens onto the shared store: fixes the schema
/// fingerprint (sessions are bound to one schema) and keeps
/// session-local counters next to the server-wide ones. This is the
/// CoPhyAtomSource a session's advisor talks to.
///
/// Thread-compatible, not thread-safe: a view belongs to one session,
/// and the server serializes each session's requests, so the local
/// counters need no lock (the underlying store handles all cross-
/// session concurrency).
class AtomStoreView final : public CoPhyAtomSource {
 public:
  AtomStoreView(AtomStore* store, uint64_t schema_fingerprint)
      : store_(store), schema_fingerprint_(schema_fingerprint) {}

  std::shared_ptr<const CoPhyAtomRow> Lookup(
      const std::string& sql_key, uint64_t universe_fingerprint) override {
    std::shared_ptr<const CoPhyAtomRow> row =
        store_->Lookup(schema_fingerprint_, sql_key, universe_fingerprint);
    ++local_.lookups;
    row == nullptr ? ++local_.misses : ++local_.hits;
    return row;
  }

  CoPhyAtomClaim Claim(const std::string& sql_key,
                       uint64_t universe_fingerprint, bool wait) override {
    CoPhyAtomClaim claim = store_->Claim(schema_fingerprint_, sql_key,
                                         universe_fingerprint, wait);
    if (!claim.pending()) {
      ++local_.lookups;
      claim.claimed ? ++local_.misses : ++local_.hits;
      if (claim.waited) ++local_.inflight_waits;
    }
    return claim;
  }

  std::shared_ptr<const CoPhyAtomRow> Publish(
      const std::string& sql_key, uint64_t universe_fingerprint,
      std::shared_ptr<const CoPhyAtomRow> row) override {
    const CoPhyAtomRow* built = row.get();
    std::shared_ptr<const CoPhyAtomRow> canonical = store_->Publish(
        schema_fingerprint_, sql_key, universe_fingerprint, std::move(row));
    canonical.get() == built ? ++local_.publishes : ++local_.races_discarded;
    return canonical;
  }

  void Release(const std::string& sql_key,
               uint64_t universe_fingerprint) override {
    store_->Release(schema_fingerprint_, sql_key, universe_fingerprint);
  }

  const AtomStoreStats& session_stats() const { return local_; }
  uint64_t schema_fingerprint() const { return schema_fingerprint_; }

 private:
  AtomStore* store_;  // non-owning; the server outlives its sessions
  uint64_t schema_fingerprint_;
  AtomStoreStats local_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_SERVER_ATOM_STORE_H_
