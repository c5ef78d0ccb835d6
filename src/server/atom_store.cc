#include "server/atom_store.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "catalog/stats.h"
#include "cophy/atom_codec.h"
#include "util/binio.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/str.h"

namespace dbdesign {

namespace {

// Spill-file header: "DBAS" little-endian (DBdesign Atom Spill) + a
// format version + the FULL composite key. Files are NAMED by a hash
// of the key, so the reload path must verify the embedded key before
// trusting the payload — a filename collision then degrades to a
// reload failure (miss + repopulate), never to another key's row.
constexpr uint32_t kSpillMagic = 0x53414244u;
constexpr uint32_t kSpillVersion = 1;

}  // namespace

uint64_t SchemaFingerprint(const DbmsBackend& backend) {
  Fnv1a fnv(kFnvLegacyBasis);

  const Catalog& catalog = backend.catalog();
  fnv.MixInt(catalog.num_tables());
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    const TableDef& table = catalog.table(t);
    fnv.MixBytes(table.name());
    fnv.MixInt(table.num_columns());
    for (const ColumnDef& col : table.columns()) {
      fnv.MixBytes(col.name);
      fnv.MixInt(static_cast<int>(col.type));
      fnv.MixInt(col.Width());
    }
  }

  // Statistics summary: everything selectivity and IO estimation read.
  // Histogram bounds and MCV values/frequencies are mixed in full:
  // selectivity estimation walks them value by value, so two substrates
  // that differ ONLY in histogram interiors (equal resolution, equal
  // extrema — e.g. the same schema before and after a skewed data load)
  // cost queries differently and must never share atom rows. Size +
  // extrema summaries let exactly that pair collide.
  for (const TableStats& stats : backend.all_stats()) {
    fnv.MixDouble(stats.row_count);
    fnv.MixInt(static_cast<int>(stats.columns.size()));
    for (const ColumnStats& col : stats.columns) {
      fnv.MixDouble(col.n_distinct);
      fnv.MixDouble(col.null_frac);
      fnv.MixDouble(col.correlation);
      fnv.MixInt(static_cast<int>(col.histogram.size()));
      for (const Value& bound : col.histogram) {
        fnv.MixBytes(bound.ToString());
      }
      fnv.MixInt(static_cast<int>(col.mcv.size()));
      for (const McvEntry& entry : col.mcv) {
        fnv.MixBytes(entry.value.ToString());
        fnv.MixDouble(entry.frequency);
      }
      fnv.MixBytes(col.min.ToString());
      fnv.MixBytes(col.max.ToString());
    }
  }

  const CostParams& p = backend.cost_params();
  fnv.MixDouble(p.seq_page_cost);
  fnv.MixDouble(p.random_page_cost);
  fnv.MixDouble(p.cpu_tuple_cost);
  fnv.MixDouble(p.cpu_index_tuple_cost);
  fnv.MixDouble(p.cpu_operator_cost);
  fnv.MixDouble(p.effective_cache_size_pages);
  fnv.MixDouble(p.work_mem_bytes);
  fnv.MixDouble(p.min_rows);
  // num_threads is deliberately excluded: it trades wall time only,
  // results are bit-identical at any setting.

  return fnv.digest();
}

AtomStore::AtomStore(AtomStoreOptions options)
    : options_(std::move(options)), hot_(options_.budget_bytes) {
  if (options_.spill_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options_.spill_dir, ec);
  if (ec) {
    DBD_LOG_WARN(StrFormat(
        "atom store: cannot create spill dir '%s' (%s); running without "
        "a cold tier — evictions will drop rows outright",
        options_.spill_dir.c_str(), ec.message().c_str()));
    return;
  }
  spill_enabled_ = true;
}

AtomStore::~AtomStore() {
  MutexLock lock(mu_);
  RemoveSpillFiles();
  if (spill_enabled_) {
    // Best-effort: removes the directory only when empty (it may be
    // shared with another store or hold unrelated files).
    std::error_code ec;
    std::filesystem::remove(options_.spill_dir, ec);
  }
}

std::string AtomStore::SpillPath(const Key& key) const {
  Fnv1a fnv(kFnvLegacyBasis);
  fnv.MixU64(std::get<0>(key));
  fnv.MixBytes(std::get<1>(key));
  fnv.MixU64(std::get<2>(key));
  return options_.spill_dir +
         StrFormat("/atoms-%016llx.bin",
                   static_cast<unsigned long long>(fnv.digest()));
}

bool AtomStore::WriteSpill(const Key& key, const CoPhyAtomRow& row) {
  BinaryWriter w;
  w.PutU32(kSpillMagic);
  w.PutU32(kSpillVersion);
  w.PutU64(std::get<0>(key));
  w.PutU64(std::get<2>(key));
  w.PutString(std::get<1>(key));
  w.PutString(EncodeAtomRow(row));
  std::ofstream out(SpillPath(key), std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return false;
  const std::string& bytes = w.bytes();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return out.good();
}

AtomStore::Row AtomStore::ReadSpill(const Key& key) {
  std::ifstream in(SpillPath(key), std::ios::binary);
  if (!in.is_open()) return nullptr;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return nullptr;
  std::string bytes = std::move(buf).str();

  BinaryReader r(bytes);
  if (r.U32() != kSpillMagic || r.U32() != kSpillVersion) return nullptr;
  uint64_t schema = r.U64();
  uint64_t universe = r.U64();
  std::string sql = r.String();
  if (!r.ok() || schema != std::get<0>(key) ||
      universe != std::get<2>(key) || sql != std::get<1>(key)) {
    // Wrong key: a filename-hash collision overwrote this file (or the
    // file is corrupt). Treated as unreadable.
    return nullptr;
  }
  Result<CoPhyAtomRow> row = DecodeAtomRow(r.String());
  if (!r.ok() || !r.AtEnd() || !row.ok()) return nullptr;
  return std::make_shared<const CoPhyAtomRow>(std::move(row).value());
}

void AtomStore::PutHot(const Key& key, Row row) {
  size_t bytes = AtomRowBytes(*row);
  hot_.Put(key, std::move(row), bytes);
  // Victims are spilled after the pass, so every guarded access stays
  // in this annotated scope: the thread-safety analysis treats a
  // closure as an unannotated function.
  std::vector<std::pair<Key, Row>> victims;
  hot_.EvictToBudget([&victims](const Key& victim, const Row& victim_row) {
    victims.emplace_back(victim, victim_row);
  });
  for (const auto& [victim, victim_row] : victims) {
    ++stats_.evictions;
    // First eviction writes the cold copy; rows are immutable, so a
    // reload-then-re-evict cycle never rewrites the file. A write
    // failure leaves the key without a cold copy: the next lookup
    // misses and the session repopulates.
    if (spill_enabled_ && spilled_.count(victim) == 0 &&
        WriteSpill(victim, *victim_row)) {
      spilled_.insert(victim);
      ++stats_.spills;
    }
  }
  // Recorded after evicting, so the peak tracks the gauge hot_bytes()
  // can observe: on a bounded store it never exceeds the budget.
  if (hot_.bytes() > peak_hot_bytes_) peak_hot_bytes_ = hot_.bytes();
}

AtomStore::Row AtomStore::FindRow(const Key& key) {
  if (const Row* hot = hot_.Find(key)) return *hot;
  if (spilled_.count(key) == 0) return nullptr;
  Row row = ReadSpill(key);
  if (row == nullptr) {
    ++stats_.reload_failures;
    std::error_code ec;
    std::filesystem::remove(SpillPath(key), ec);
    spilled_.erase(key);
    return nullptr;
  }
  ++stats_.reloads;
  PutHot(key, row);
  return row;
}

std::shared_ptr<const CoPhyAtomRow> AtomStore::Lookup(
    uint64_t schema_fingerprint, const std::string& sql_key,
    uint64_t universe_fingerprint) {
  MutexLock lock(mu_);
  ++stats_.lookups;
  Row row = FindRow(Key(schema_fingerprint, sql_key, universe_fingerprint));
  row == nullptr ? ++stats_.misses : ++stats_.hits;
  return row;
}

CoPhyAtomClaim AtomStore::Claim(uint64_t schema_fingerprint,
                                const std::string& sql_key,
                                uint64_t universe_fingerprint, bool wait) {
  MutexLock lock(mu_);
  Key key(schema_fingerprint, sql_key, universe_fingerprint);
  CoPhyAtomClaim claim;
  while (true) {
    claim.row = FindRow(key);
    if (claim.row == nullptr) claim.claimed = building_.insert(key).second;
    if (!claim.pending()) break;
    if (!wait) return claim;
    // Counted when the wait begins, so it is observable while it lasts.
    if (!claim.waited) ++stats_.inflight_waits;
    claim.waited = true;
    claim_ended_.Wait(mu_);
  }
  ++stats_.lookups;
  claim.claimed ? ++stats_.misses : ++stats_.hits;
  return claim;
}

void AtomStore::Release(uint64_t schema_fingerprint,
                        const std::string& sql_key,
                        uint64_t universe_fingerprint) {
  MutexLock lock(mu_);
  building_.erase(Key(schema_fingerprint, sql_key, universe_fingerprint));
  // Waiters wake into the mutex and re-check: one of them claims the key.
  claim_ended_.NotifyAll();
}

std::shared_ptr<const CoPhyAtomRow> AtomStore::Publish(
    uint64_t schema_fingerprint, const std::string& sql_key,
    uint64_t universe_fingerprint, std::shared_ptr<const CoPhyAtomRow> row) {
  MutexLock lock(mu_);
  Key key(schema_fingerprint, sql_key, universe_fingerprint);
  // Waiters wake into the mutex, so they see the row published below.
  building_.erase(key);
  claim_ended_.NotifyAll();
  // Two sessions built the same row concurrently; the first write is
  // canonical and the duplicate is dropped so every holder shares one
  // object. A canonical row already evicted to the cold tier (the
  // publisher raced an eviction) is reloaded so both holders still
  // converge on one object; if its spill is unreadable, the freshly
  // built row takes over the key.
  if (Row stored = FindRow(key)) {
    ++stats_.races_discarded;
    return stored;
  }
  PutHot(key, row);
  ++stats_.publishes;
  if (!seen_queries_.emplace(schema_fingerprint, sql_key).second) {
    // Same (schema, query) published before under another universe —
    // or its entry was evicted without a reloadable spill copy. Either
    // way the populate was paid again.
    ++stats_.repopulates;
  }
  return row;
}

AtomStoreStats AtomStore::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

size_t AtomStore::entries() const {
  MutexLock lock(mu_);
  size_t n = hot_.size();
  for (const Key& key : spilled_) n += hot_.Contains(key) ? 0 : 1;
  return n;
}

size_t AtomStore::hot_entries() const {
  MutexLock lock(mu_);
  return hot_.size();
}

size_t AtomStore::hot_bytes() const {
  MutexLock lock(mu_);
  return hot_.bytes();
}

size_t AtomStore::peak_hot_bytes() const {
  MutexLock lock(mu_);
  return peak_hot_bytes_;
}

void AtomStore::RemoveSpillFiles() {
  for (const Key& key : spilled_) {
    std::error_code ec;
    std::filesystem::remove(SpillPath(key), ec);
  }
}

void AtomStore::Clear() {
  MutexLock lock(mu_);
  RemoveSpillFiles();
  hot_.Clear();
  spilled_.clear();
  seen_queries_.clear();
  peak_hot_bytes_ = 0;
  // Counters reset with the entries: a cleared store is a fresh store,
  // and a hit_rate() mixing pre- and post-clear epochs would misreport
  // (the old bug: stale lookups/hits surviving into the new epoch).
  stats_ = AtomStoreStats{};
}

}  // namespace dbdesign
