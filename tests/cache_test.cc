// Bounded atom caching tests: the SchemaFingerprint histogram/MCV
// collision fix (regression tests that fail against the pre-fix
// extrema-only fingerprint), AtomStore counter semantics (Clear resets
// stats; eviction preserves the repopulate-vs-fresh distinction), the
// budgeted tiered LRU (budget invariant, spill/reload round trips,
// spill-file loss degrading to a miss), the BudgetedLru primitive
// under both byte-budgeted caches, the binary atom codec, and the
// differential contract: a bounded store/session produces bit-identical
// Recommend/Refine/PlanDeployment results to an unbounded one — budgets
// bound memory, never answers.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/inmemory_backend.h"
#include "cophy/atom_codec.h"
#include "cophy/cophy.h"
#include "core/session.h"
#include "server/atom_store.h"
#include "server/server.h"
#include "util/budgeted_lru.h"
#include "util/cache_budget.h"
#include "workload/queries.h"
#include "workload/sdss.h"

namespace dbdesign {
namespace {

// "k" + std::to_string(i) built by appends: GCC 12 reports a false
// -Wrestrict on the operator+ form at -O3.
template <typename Int>
std::string Numbered(const char* prefix, Int i) {
  std::string key = prefix;
  key += std::to_string(i);
  return key;
}

// --- SchemaFingerprint regression: histogram / MCV contents ---

// Minimal stats-only backend: SchemaFingerprint reads catalog(),
// all_stats() and cost_params() only, so the cost entry points can be
// stubs that are never called.
class StatsStubBackend final : public DbmsBackend {
 public:
  StatsStubBackend(Catalog catalog, std::vector<TableStats> stats)
      : catalog_(std::move(catalog)), stats_(std::move(stats)) {}

  std::string name() const override { return "stats-stub"; }
  const CostParams& cost_params() const override { return params_; }
  const Catalog& catalog() const override { return catalog_; }
  const std::vector<TableStats>& all_stats() const override { return stats_; }
  Status RefreshStatistics(TableId, const AnalyzeOptions&) override {
    return Status::Internal("stats stub");
  }
  PhysicalDesign CurrentDesign() const override { return {}; }
  Result<PlanResult> OptimizeQuery(const BoundQuery&, const PhysicalDesign&,
                                   const PlannerKnobs&) override {
    return Status::Internal("stats stub");
  }
  uint64_t num_optimizer_calls() const override { return 0; }
  void ResetCallCount() override {}

 private:
  Catalog catalog_;
  std::vector<TableStats> stats_;
  CostParams params_;
};

// One table, one int column, fully parameterized statistics. Every
// stub built here agrees on catalog shape, row count, NDV, null_frac,
// correlation, histogram RESOLUTION and EXTREMA — the summary the
// pre-fix fingerprint stopped at.
StatsStubBackend MakeStatsStub(std::vector<int64_t> histogram_bounds,
                               std::vector<std::pair<int64_t, double>> mcv) {
  Catalog catalog;
  TableDef table("t", {ColumnDef{"c", DataType::kInt64, 0}});
  EXPECT_TRUE(catalog.AddTable(std::move(table)).ok());

  ColumnStats col;
  col.n_distinct = 100.0;
  col.null_frac = 0.0;
  col.correlation = 0.25;
  col.min = Value(int64_t{0});
  col.max = Value(int64_t{100});
  for (int64_t b : histogram_bounds) col.histogram.push_back(Value(b));
  for (const auto& [value, freq] : mcv) {
    col.mcv.push_back(McvEntry{Value(value), freq});
  }

  TableStats stats;
  stats.row_count = 1000.0;
  stats.columns.push_back(std::move(col));
  return StatsStubBackend(std::move(catalog), {std::move(stats)});
}

// Two substrates equal in every summary statistic — same histogram
// size, same min/max (the extrema are the first/last bounds) — but
// with one interior bound moved. Selectivity estimation walks the
// bounds, so these cost queries differently and must never share atom
// rows. The pre-fix fingerprint (size + extrema only) collides here.
TEST(CacheFingerprintTest, HistogramInteriorChangesFingerprint) {
  StatsStubBackend a = MakeStatsStub({0, 10, 50, 100}, {});
  StatsStubBackend b = MakeStatsStub({0, 10, 90, 100}, {});
  EXPECT_NE(SchemaFingerprint(a), SchemaFingerprint(b));

  // Determinism sanity: identical substrates fingerprint identically.
  StatsStubBackend a2 = MakeStatsStub({0, 10, 50, 100}, {});
  EXPECT_EQ(SchemaFingerprint(a), SchemaFingerprint(a2));
}

// The fingerprint keys the atom store and names spill files, so its
// digest is pinned: a hashing refactor must leave it bit-identical.
TEST(CacheFingerprintTest, DigestsArePinned) {
  StatsStubBackend stub = MakeStatsStub({0, 10, 50, 100}, {{7, 0.25}});
  EXPECT_EQ(SchemaFingerprint(stub), 0x8d5253502c901ca7ull);

  std::vector<CandidateIndex> universe = {
      {IndexDef{0, {1, 2}, false}, 12.5, 3},
      {IndexDef{1, {0}, true}, 40.0, 1},
      {IndexDef{2, {3, 1, 0}, false}, 0.75, 0}};
  EXPECT_EQ(CandidateUniverseFingerprint(universe), 0x4d203d252e873693ull);
  EXPECT_EQ(CandidateUniverseFingerprint({}), 0x14650fb0739d0383ull);
}

// Same shape for the MCV list: equal length, different member value or
// different frequency — both must change the fingerprint (frequency
// feeds equality selectivity directly).
TEST(CacheFingerprintTest, McvContentsChangeFingerprint) {
  StatsStubBackend base = MakeStatsStub({0, 100}, {{5, 0.2}, {9, 0.1}});
  StatsStubBackend other_value =
      MakeStatsStub({0, 100}, {{7, 0.2}, {9, 0.1}});
  StatsStubBackend other_freq =
      MakeStatsStub({0, 100}, {{5, 0.3}, {9, 0.1}});
  EXPECT_NE(SchemaFingerprint(base), SchemaFingerprint(other_value));
  EXPECT_NE(SchemaFingerprint(base), SchemaFingerprint(other_freq));
  EXPECT_NE(SchemaFingerprint(other_value), SchemaFingerprint(other_freq));
}

// --- Binary atom codec ---

CoPhyAtomRow MakeRow(double base_cost, int num_atoms, int id_seed) {
  CoPhyAtomRow row;
  row.base_cost = base_cost;
  for (int a = 0; a < num_atoms; ++a) {
    CoPhyAtom atom;
    atom.cost = base_cost + a * 1.5;
    for (int i = 0; i < a % 4; ++i) atom.used.push_back(id_seed + a + i);
    row.atoms.push_back(std::move(atom));
  }
  return row;
}

void ExpectBitIdenticalRows(const CoPhyAtomRow& a, const CoPhyAtomRow& b) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a.base_cost),
            std::bit_cast<uint64_t>(b.base_cost));
  ASSERT_EQ(a.atoms.size(), b.atoms.size());
  for (size_t i = 0; i < a.atoms.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.atoms[i].cost),
              std::bit_cast<uint64_t>(b.atoms[i].cost));
    EXPECT_EQ(a.atoms[i].used, b.atoms[i].used);
  }
}

TEST(AtomCodecTest, RoundTripIncludingNonFiniteCosts) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  CoPhyAtomRow row;
  row.base_cost = 1234.5;
  row.atoms.push_back(CoPhyAtom{3.25, {0, 2, 7}});
  row.atoms.push_back(CoPhyAtom{kInf, {1}});  // infeasible plan option
  row.atoms.push_back(CoPhyAtom{-kInf, {}});
  row.atoms.push_back(CoPhyAtom{std::nan(""), {4, 5}});

  Result<CoPhyAtomRow> back = DecodeAtomRow(EncodeAtomRow(row));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectBitIdenticalRows(row, back.value());

  // Degenerate rows round-trip too.
  CoPhyAtomRow empty;
  Result<CoPhyAtomRow> empty_back = DecodeAtomRow(EncodeAtomRow(empty));
  ASSERT_TRUE(empty_back.ok());
  ExpectBitIdenticalRows(empty, empty_back.value());
}

TEST(AtomCodecTest, RejectsCorruptInput) {
  std::string good = EncodeAtomRow(MakeRow(10.0, 5, 3));
  ASSERT_TRUE(DecodeAtomRow(good).ok());

  EXPECT_EQ(DecodeAtomRow("").status().code(), StatusCode::kInvalidArgument);

  std::string bad_magic = good;
  bad_magic[0] = static_cast<char>(bad_magic[0] + 1);
  EXPECT_EQ(DecodeAtomRow(bad_magic).status().code(),
            StatusCode::kInvalidArgument);

  std::string bad_version = good;
  bad_version[4] = static_cast<char>(bad_version[4] + 1);
  EXPECT_EQ(DecodeAtomRow(bad_version).status().code(),
            StatusCode::kInvalidArgument);

  // Every truncation point must fail cleanly, never read out of bounds.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(DecodeAtomRow(std::string_view(good).substr(0, len)).ok())
        << "truncated at " << len;
  }

  EXPECT_EQ(DecodeAtomRow(good + "x").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AtomCodecTest, AtomRowBytesGrowsWithContents) {
  size_t empty = AtomRowBytes(CoPhyAtomRow{});
  EXPECT_GE(empty, sizeof(CoPhyAtomRow));
  EXPECT_GT(AtomRowBytes(MakeRow(1.0, 4, 0)), empty);
  EXPECT_GT(AtomRowBytes(MakeRow(1.0, 8, 0)), AtomRowBytes(MakeRow(1.0, 4, 0)));
}

// --- AtomStore counter semantics ---

std::shared_ptr<const CoPhyAtomRow> SharedRow(double base_cost, int num_atoms,
                                              int id_seed = 0) {
  return std::make_shared<const CoPhyAtomRow>(
      MakeRow(base_cost, num_atoms, id_seed));
}

// Clear() must reset the counters with the entries: a hit_rate() mixing
// pre- and post-clear epochs misreports (the old bug left stats_ stale).
TEST(AtomStoreTest, ClearResetsStats) {
  AtomStore store;
  store.Publish(1, "q1", 10, SharedRow(5.0, 3));
  EXPECT_NE(store.Lookup(1, "q1", 10), nullptr);
  EXPECT_EQ(store.Lookup(1, "q2", 10), nullptr);

  AtomStoreStats before = store.stats();
  EXPECT_EQ(before.publishes, 1u);
  EXPECT_EQ(before.lookups, 2u);
  EXPECT_EQ(before.hits, 1u);
  EXPECT_EQ(before.misses, 1u);
  EXPECT_GT(store.hot_bytes(), 0u);

  store.Clear();
  AtomStoreStats after = store.stats();
  EXPECT_EQ(after.lookups, 0u);
  EXPECT_EQ(after.hits, 0u);
  EXPECT_EQ(after.misses, 0u);
  EXPECT_EQ(after.publishes, 0u);
  EXPECT_EQ(after.repopulates, 0u);
  EXPECT_EQ(after.hit_rate(), 0.0);
  EXPECT_EQ(store.entries(), 0u);
  EXPECT_EQ(store.hot_bytes(), 0u);
  EXPECT_EQ(store.peak_hot_bytes(), 0u);

  // The post-clear epoch counts from zero.
  EXPECT_NE(store.Publish(1, "q1", 10, SharedRow(5.0, 3)), nullptr);
  AtomStoreStats fresh = store.stats();
  EXPECT_EQ(fresh.publishes, 1u);
  EXPECT_EQ(fresh.repopulates, 0u);  // Clear forgot seen_queries_
}

// Eviction without a cold tier drops the row but must NOT forget that
// the (schema, query) was published: the rebuild is a repopulate (the
// populate was paid twice), not a fresh publish. Only Clear() resets
// that memory.
TEST(AtomStoreTest, EvictionPreservesRepopulateDistinction) {
  AtomStoreOptions options;
  options.budget_bytes = 1;  // every publish immediately evicts
  AtomStore store(options);

  std::shared_ptr<const CoPhyAtomRow> held =
      store.Publish(7, "q1", 10, SharedRow(5.0, 3));
  ASSERT_NE(held, nullptr);  // the publisher keeps its row regardless
  AtomStoreStats s = store.stats();
  EXPECT_EQ(s.publishes, 1u);
  EXPECT_EQ(s.repopulates, 0u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.spills, 0u);  // no spill dir
  EXPECT_EQ(store.hot_bytes(), 0u);

  // The evicted entry is gone: miss, then the rebuild counts as a
  // repopulate even though the entry no longer exists.
  EXPECT_EQ(store.Lookup(7, "q1", 10), nullptr);
  store.Publish(7, "q1", 10, SharedRow(5.0, 3));
  EXPECT_EQ(store.stats().repopulates, 1u);

  // Same query under a NEW universe is also a repopulate (pre-existing
  // semantics, must survive the budgeted rewrite).
  store.Publish(7, "q1", 11, SharedRow(5.0, 3));
  EXPECT_EQ(store.stats().repopulates, 2u);
  EXPECT_EQ(store.stats().evictions, 3u);  // one per publish

  // Clear() resets the distinction: the next publish is fresh again.
  store.Clear();
  store.Publish(7, "q1", 10, SharedRow(5.0, 3));
  EXPECT_EQ(store.stats().publishes, 1u);
  EXPECT_EQ(store.stats().repopulates, 0u);
}

// Single flight: the first caller claims a missing key; later callers
// find it pending until the claimant publishes (they hit the published
// row) or releases it (the next caller claims it). A pending answer
// counts nothing; every resolved one counts one lookup.
TEST(AtomStoreTest, ClaimIsSingleFlight) {
  AtomStore store;
  EXPECT_TRUE(store.Claim(1, "q", 10, /*wait=*/false).claimed);
  EXPECT_TRUE(store.Claim(1, "q", 10, /*wait=*/false).pending());
  EXPECT_EQ(store.stats().lookups, 1u);
  store.Release(1, "q", 10);  // the build failed
  EXPECT_TRUE(store.Claim(1, "q", 10, /*wait=*/false).claimed);

  CoPhyAtomClaim waited;
  std::thread waiter([&] { waited = store.Claim(1, "q", 10, /*wait=*/true); });
  while (store.stats().inflight_waits == 0) std::this_thread::yield();
  std::shared_ptr<const CoPhyAtomRow> row = SharedRow(5.0, 3);
  EXPECT_EQ(store.Publish(1, "q", 10, row), row);
  waiter.join();
  EXPECT_EQ(waited.row, row);
  EXPECT_FALSE(waited.claimed);
  EXPECT_TRUE(waited.waited);
  EXPECT_EQ(store.Claim(1, "q", 10, /*wait=*/false).row, row);
  // Another universe is another key.
  EXPECT_TRUE(store.Claim(1, "q", 11, /*wait=*/false).claimed);

  AtomStoreStats s = store.stats();
  EXPECT_EQ(s.lookups, 5u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.inflight_waits, 1u);
  EXPECT_EQ(s.publishes, 1u);
}

// A session view counts a publish the store discarded (another writer
// got there first) as a race, not as a publish, so per-session counters
// sum to the store's.
TEST(AtomStoreTest, ViewCountsADiscardedPublishAsARace) {
  AtomStore store;
  AtomStoreView a(&store, 1);
  AtomStoreView b(&store, 1);
  std::shared_ptr<const CoPhyAtomRow> first = SharedRow(5.0, 3);
  EXPECT_EQ(a.Publish("q", 10, first), first);
  EXPECT_EQ(b.Publish("q", 10, SharedRow(5.0, 3)), first);
  EXPECT_EQ(a.session_stats().publishes, 1u);
  EXPECT_EQ(a.session_stats().races_discarded, 0u);
  EXPECT_EQ(b.session_stats().publishes, 0u);
  EXPECT_EQ(b.session_stats().races_discarded, 1u);
  EXPECT_EQ(store.stats().publishes, 1u);
  EXPECT_EQ(store.stats().races_discarded, 1u);
}

// --- The tiered LRU with a cold tier ---

class SpillDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("atom_spill_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(SpillDirTest, SpillAndReloadRoundTrip) {
  std::shared_ptr<const CoPhyAtomRow> original = SharedRow(42.0, 6, 100);

  AtomStoreOptions options;
  options.budget_bytes = AtomRowBytes(*original) + 8;  // fits exactly one row
  options.spill_dir = dir_.string();
  AtomStore store(options);

  store.Publish(1, "q1", 10, original);
  EXPECT_EQ(store.hot_entries(), 1u);

  // A second row pushes q1 to the cold tier.
  store.Publish(1, "q2", 10, SharedRow(7.0, 6, 200));
  AtomStoreStats s = store.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.spills, 1u);
  EXPECT_LE(store.hot_bytes(), options.budget_bytes);
  EXPECT_LE(store.peak_hot_bytes(), options.budget_bytes);
  EXPECT_EQ(store.entries(), 2u);  // both alive, one hot + one cold

  // Transparent reload: the lookup is a hit, served by decoding the
  // spill file, and the row is bit-identical to what was published.
  std::shared_ptr<const CoPhyAtomRow> back = store.Lookup(1, "q1", 10);
  ASSERT_NE(back, nullptr);
  ExpectBitIdenticalRows(*original, *back);
  s = store.stats();
  EXPECT_EQ(s.reloads, 1u);
  EXPECT_EQ(s.reload_failures, 0u);
  EXPECT_EQ(s.hits, 1u);
  // Promoting q1 pushed q2, now least recent, to the cold tier.
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.spills, 2u);
  EXPECT_LE(store.hot_bytes(), options.budget_bytes);

  // Clear() removes the spill files along with the entries.
  store.Clear();
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

// A lost/corrupt spill file degrades to a miss + repopulate — never an
// error, never a wrong row.
TEST_F(SpillDirTest, LostSpillFileDegradesToMiss) {
  AtomStoreOptions options;
  options.budget_bytes = 1;  // every row goes cold immediately
  options.spill_dir = dir_.string();
  AtomStore store(options);

  store.Publish(1, "q1", 10, SharedRow(5.0, 4));
  ASSERT_GE(store.stats().spills, 1u);

  // Simulate crash/cleanup losing the cold tier.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::filesystem::remove(entry.path());
  }

  EXPECT_EQ(store.Lookup(1, "q1", 10), nullptr);
  AtomStoreStats s = store.stats();
  EXPECT_EQ(s.reload_failures, 1u);
  EXPECT_EQ(s.reloads, 0u);
  EXPECT_GE(s.misses, 1u);

  // The session rebuilds: counted as a repopulate, then served again.
  store.Publish(1, "q1", 10, SharedRow(5.0, 4));
  EXPECT_EQ(store.stats().repopulates, 1u);
}

// --- BudgetedLru: the one eviction primitive under both caches ---

using StringLru = BudgetedLru<std::string, int>;

// Evicts to budget and returns the victims' keys in eviction order.
std::vector<std::string> EvictKeys(StringLru& lru) {
  std::vector<std::string> victims;
  lru.EvictToBudget([&victims](const std::string& key, const int&) {
    victims.push_back(key);
  });
  return victims;
}

TEST(BudgetedLruTest, FindMarksMostRecentlyUsed) {
  StringLru lru(30);
  lru.Put("a", 1, 10);
  lru.Put("b", 2, 10);
  lru.Put("c", 3, 10);
  ASSERT_NE(lru.Find("a"), nullptr);  // recency now b, c, a
  EXPECT_EQ(*lru.Find("a"), 1);
  EXPECT_EQ(lru.Find("z"), nullptr);
  EXPECT_TRUE(lru.Contains("b"));  // Contains leaves recency alone
  EXPECT_EQ(lru.CountInRange("a", "c"), 2u);  // and so does CountInRange
  EXPECT_EQ(lru.CountInRange("c", "z"), 1u);

  lru.Put("d", 4, 10);
  EXPECT_EQ(EvictKeys(lru), std::vector<std::string>({"b"}));
  lru.set_budget(10);
  EXPECT_EQ(EvictKeys(lru), std::vector<std::string>({"c", "a"}));
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_TRUE(lru.Contains("d"));
}

TEST(BudgetedLruTest, ReplacingPutReaccountsBytes) {
  StringLru lru(100);
  lru.Put("a", 1, 40);
  lru.Put("b", 2, 30);
  EXPECT_EQ(lru.bytes(), 70u);
  lru.Put("a", 5, 10);  // replaces value and bytes, and touches "a"
  EXPECT_EQ(lru.bytes(), 40u);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(*lru.Find("a"), 5);

  lru.Put("b", 6, 95);  // grows past the budget: "a" is least recent
  EXPECT_EQ(lru.bytes(), 105u);
  EXPECT_EQ(EvictKeys(lru), std::vector<std::string>({"a"}));
  EXPECT_EQ(lru.bytes(), 95u);
}

TEST(BudgetedLruTest, EntryLargerThanBudgetEvictsItself) {
  StringLru lru(50);
  lru.Put("small", 1, 20);
  lru.Put("huge", 2, 80);
  EXPECT_EQ(EvictKeys(lru), std::vector<std::string>({"small", "huge"}));
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.bytes(), 0u);
}

// The callback sees every victim, least recent first, while the entry
// is still in the cache (the atom store writes its spill file there).
TEST(BudgetedLruTest, OnEvictSeesVictimsInLruOrderBeforeRemoval) {
  StringLru lru(25);
  for (int i = 0; i < 5; ++i) lru.Put(Numbered("k", i), i, 10);
  lru.Find("k1");  // recency: k0, k2, k3, k4, k1

  std::vector<std::pair<std::string, int>> seen;
  std::vector<bool> present;
  size_t evicted = lru.EvictToBudget([&](const std::string& key, const int& v) {
    seen.emplace_back(key, v);
    present.push_back(lru.Contains(key));
  });
  EXPECT_EQ(evicted, 3u);
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, int>>{
                      {"k0", 0}, {"k2", 2}, {"k3", 3}}));
  EXPECT_EQ(present, std::vector<bool>({true, true, true}));
  EXPECT_EQ(lru.bytes(), 20u);
  EXPECT_FALSE(lru.Contains("k0"));
  EXPECT_TRUE(lru.Contains("k1"));
}

TEST(BudgetedLruTest, EraseIfAndClearKeepBytesConsistent) {
  StringLru lru;
  for (int i = 0; i < 6; ++i) lru.Put(Numbered("k", i), i, 1u + i);
  EXPECT_EQ(lru.bytes(), 21u);

  lru.EraseIf([](const std::string&, const int& v) { return v % 2 == 0; });
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.bytes(), 2u + 4u + 6u);  // k1, k3, k5 remain

  EXPECT_TRUE(lru.Erase("k3"));
  EXPECT_FALSE(lru.Erase("k3"));
  EXPECT_EQ(lru.bytes(), 8u);

  lru.Clear();
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.bytes(), 0u);
  lru.Put("k1", 1, 3);  // a cleared cache accounts from zero
  EXPECT_EQ(lru.bytes(), 3u);
}

TEST(BudgetedLruTest, CallbacksSeeEachEntrysOwnKeyAfterReorders) {
  // Each key is stored once, in the map; the recency list points at the
  // map entry. Replacing puts, touches and erases reorder recency away
  // from key order, and every callback must still see the key that goes
  // with its value.
  StringLru lru(40);
  for (int i = 0; i < 6; ++i) lru.Put(Numbered("k", i), 10 * i, 10);
  lru.Put("k2", 99, 10);  // replace: k2 becomes most recent
  lru.Find("k0");         // recency: k1, k3, k4, k5, k2, k0
  EXPECT_TRUE(lru.Erase("k4"));
  EXPECT_EQ(lru.bytes(), 50u);

  std::vector<std::pair<std::string, int>> erased;
  lru.EraseIf([&](const std::string& key, const int& v) {
    erased.emplace_back(key, v);
    return key == "k3";
  });
  EXPECT_EQ(erased, (std::vector<std::pair<std::string, int>>{
                        {"k1", 10}, {"k3", 30}, {"k5", 50}, {"k2", 99},
                        {"k0", 0}}));
  EXPECT_FALSE(lru.Contains("k3"));
  EXPECT_EQ(lru.bytes(), 40u);

  lru.Put("k6", 60, 15);  // 55 bytes: evict k1, then k5
  std::vector<std::pair<std::string, int>> evicted;
  EXPECT_EQ(lru.EvictToBudget([&](const std::string& key, const int& v) {
              evicted.emplace_back(key, v);
            }),
            2u);
  EXPECT_EQ(evicted, (std::vector<std::pair<std::string, int>>{
                         {"k1", 10}, {"k5", 50}}));
  EXPECT_EQ(lru.bytes(), 35u);
  ASSERT_NE(lru.Find("k2"), nullptr);
  EXPECT_EQ(*lru.Find("k2"), 99);
  EXPECT_EQ(*lru.Find("k0"), 0);
  EXPECT_EQ(*lru.Find("k6"), 60);
}

// Copies are independent caches with the same entries, bytes, budget
// and recency; a move hands the entries over and leaves the source
// empty. (A solver cache that parks proven answers in a BudgetedLru is
// copied and moved by value.)
TEST(BudgetedLruTest, CopyKeepsRecencyAndMoveEmptiesTheSource) {
  auto keys = [](const StringLru& lru) {
    std::vector<std::string> out;
    lru.ForEach([&](const std::string& key, const int&) {
      out.push_back(key);
    });
    return out;
  };
  StringLru lru(30);
  for (int i = 0; i < 4; ++i) lru.Put(Numbered("k", i), i, 10);
  lru.Find("k1");  // recency: k0, k2, k3, k1
  const std::vector<std::string> order = {"k0", "k2", "k3", "k1"};

  StringLru copy = lru;
  EXPECT_EQ(keys(copy), order);
  EXPECT_EQ(copy.bytes(), 40u);
  copy.Find("k0");  // touching the copy leaves the original alone
  EXPECT_EQ(keys(lru), order);
  EXPECT_EQ(EvictKeys(copy), std::vector<std::string>({"k2"}));
  EXPECT_EQ(lru.size(), 4u);

  StringLru assigned;
  assigned.Put("other", 9, 5);
  assigned = lru;
  EXPECT_EQ(keys(assigned), order);
  EXPECT_EQ(assigned.bytes(), 40u);
  EXPECT_FALSE(assigned.Contains("other"));

  StringLru moved = std::move(lru);
  EXPECT_EQ(keys(moved), order);
  EXPECT_EQ(moved.bytes(), 40u);
  EXPECT_EQ(lru.size(), 0u);  // a moved-from cache is empty, not stale
  EXPECT_EQ(lru.bytes(), 0u);
  assigned = std::move(moved);
  EXPECT_EQ(keys(assigned), order);
  EXPECT_EQ(EvictKeys(assigned), std::vector<std::string>({"k0"}));
  EXPECT_EQ(moved.bytes(), 0u);
}

// `CoPhySolverCache{}` copy-list-initializes its `proven` cache from
// `{}`, which is ill-formed through an explicit constructor (GCC warns
// under -Wall -Wextra): the default constructor must stay implicit.
CoPhySolverCache FreshSolverCache() { return CoPhySolverCache{}; }

TEST(BudgetedLruTest, ZeroBudgetNeverEvicts) {
  StringLru lru;
  for (int i = 0; i < 100; ++i) {
    lru.Put(Numbered("k", i), i, 1000);
  }
  EXPECT_TRUE(EvictKeys(lru).empty());
  EXPECT_EQ(lru.size(), 100u);
  EXPECT_EQ(lru.bytes(), 100000u);

  // The same default, reached through an aggregate that holds a cache.
  CoPhySolverCache cache = FreshSolverCache();
  for (int i = 0; i < 3; ++i) {
    cache.proven.Put({i, 7u}, CoPhySolverCache::Entry{}, 1u << 20);
  }
  EXPECT_EQ(cache.proven.EvictToBudget(), 0u);
  EXPECT_EQ(cache.proven.size(), 3u);
}

// --- Differential: bounded == unbounded, bit for bit ---

Database SmallDb(int rows = 1200, uint64_t seed = 31) {
  SdssConfig cfg;
  cfg.photoobj_rows = rows;
  cfg.seed = seed;
  return BuildSdssDatabase(cfg);
}

Workload SmallWorkload(const Database& db, int n = 6, uint64_t seed = 5) {
  return GenerateWorkload(db, TemplateMix::OfflineDefault(), n, seed);
}

void ExpectSameRecommendation(const IndexRecommendation& a,
                              const IndexRecommendation& b) {
  ASSERT_EQ(a.indexes.size(), b.indexes.size());
  for (size_t i = 0; i < a.indexes.size(); ++i) {
    EXPECT_EQ(a.indexes[i].Key(), b.indexes[i].Key());
  }
  EXPECT_EQ(a.total_size_pages, b.total_size_pages);
  EXPECT_EQ(a.base_cost, b.base_cost);
  EXPECT_EQ(a.recommended_cost, b.recommended_cost);
  EXPECT_EQ(a.per_query_cost, b.per_query_cost);
}

void ExpectSamePlan(const DeploymentPlan& a, const DeploymentPlan& b) {
  ASSERT_EQ(a.indexes.size(), b.indexes.size());
  for (size_t i = 0; i < a.indexes.size(); ++i) {
    EXPECT_EQ(a.indexes[i].Key(), b.indexes[i].Key());
  }
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.clusters, b.clusters);
  ASSERT_EQ(a.schedule.steps.size(), b.schedule.steps.size());
  for (size_t i = 0; i < a.schedule.steps.size(); ++i) {
    EXPECT_EQ(a.schedule.steps[i].index.Key(), b.schedule.steps[i].index.Key());
    EXPECT_EQ(a.schedule.steps[i].cost_after, b.schedule.steps[i].cost_after);
  }
  EXPECT_EQ(a.schedule.base_cost, b.schedule.base_cost);
  EXPECT_EQ(a.schedule.final_cost, b.schedule.final_cost);
  EXPECT_EQ(a.schedule.total_pages, b.schedule.total_pages);
}

void ExpectSameResponse(const SessionResponse& a, const SessionResponse& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.status.code(), b.status.code());
  ASSERT_EQ(a.recommendation.has_value(), b.recommendation.has_value());
  if (a.recommendation.has_value()) {
    ExpectSameRecommendation(*a.recommendation, *b.recommendation);
  }
  ASSERT_EQ(a.plan.has_value(), b.plan.has_value());
  if (a.plan.has_value()) ExpectSamePlan(*a.plan, *b.plan);
}

// Runs the same multi-schema, two-round session sequence against one
// server and returns every response in order.
std::vector<SessionResponse> RunServerSequence(
    TuningServer& server, const std::vector<Workload>& workloads) {
  std::vector<SessionResponse> out;
  for (int round = 0; round < 2; ++round) {
    for (size_t s = 0; s < workloads.size(); ++s) {
      std::string id =
          Numbered("r", round) + Numbered("-s", s);
      std::string schema = Numbered("schema", s);
      EXPECT_TRUE(server.OpenSession(id, schema).ok());
      EXPECT_TRUE(server
                      .WithSession(id,
                                   [&](DesignSession& session) {
                                     session.SetWorkload(workloads[s]);
                                   })
                      .ok());
      ConstraintDelta tighten;
      tighten.storage_budget_pages = 500.0;
      std::vector<SessionResponse> r = server.RunBatch({
          {id, SessionOp::kRecommend, {}},
          {id, SessionOp::kPlanDeployment, {}},
          {id, SessionOp::kRefine, tighten},
      });
      for (SessionResponse& resp : r) {
        EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
        out.push_back(std::move(resp));
      }
      EXPECT_TRUE(server.CloseSession(id).ok());
    }
  }
  return out;
}

// The tentpole contract: a server whose atom store is squeezed to a
// single byte — every published row is immediately evicted to disk and
// every reuse goes through the spill codec — answers every request
// bit-identically to an unbounded server. Budgets trade work, never
// results.
TEST_F(SpillDirTest, BoundedServerBitIdenticalToUnbounded) {
  const int kSchemas = 3;
  std::vector<Database> dbs;
  std::vector<std::unique_ptr<InMemoryBackend>> backends;
  std::vector<Workload> workloads;
  for (int s = 0; s < kSchemas; ++s) {
    dbs.push_back(SmallDb(900 + 100 * s, 31 + s));
  }
  for (int s = 0; s < kSchemas; ++s) {
    backends.push_back(std::make_unique<InMemoryBackend>(dbs[s]));
    workloads.push_back(SmallWorkload(dbs[s], 5, 5 + s));
  }

  TuningServer unbounded;
  TuningServerOptions bounded_options;
  bounded_options.cache_budget.atom_store_bytes = 1;
  bounded_options.spill_dir = dir_.string();
  TuningServer bounded(bounded_options);
  for (int s = 0; s < kSchemas; ++s) {
    std::string schema = Numbered("schema", s);
    ASSERT_TRUE(unbounded.RegisterSchema(schema, *backends[s]).ok());
    ASSERT_TRUE(bounded.RegisterSchema(schema, *backends[s]).ok());
  }

  std::vector<SessionResponse> a = RunServerSequence(unbounded, workloads);
  std::vector<SessionResponse> b = RunServerSequence(bounded, workloads);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ExpectSameResponse(a[i], b[i]);

  // The bounded store actually exercised every tier transition.
  TuningServerStats stats = bounded.stats();
  EXPECT_GE(stats.atoms.evictions, 1u);
  EXPECT_GE(stats.atoms.spills, 1u);
  EXPECT_GE(stats.atoms.reloads, 1u);  // round 2 reuses round 1's spills
  EXPECT_LE(stats.atom_hot_bytes, 1u);
  EXPECT_LE(stats.atom_peak_hot_bytes, 1u);

  // The unbounded store never ticked a tiering counter.
  TuningServerStats ustats = unbounded.stats();
  EXPECT_EQ(ustats.atoms.evictions, 0u);
  EXPECT_EQ(ustats.atoms.spills, 0u);
  EXPECT_EQ(ustats.atoms.reloads, 0u);
  EXPECT_GT(ustats.atom_hot_bytes, 0u);
}

// DoI contribution-row budget: a session squeezed to one byte of DoI
// cache evicts every row after each plan build and recomputes them on
// the next — plans stay identical to the unbounded session.
TEST(CacheDifferentialTest, DoiRowBudgetPreservesPlans) {
  Database db = SmallDb();
  InMemoryBackend backend(db);
  Workload w = SmallWorkload(db);

  Designer d1(backend), d2(backend);
  DesignSession unbounded(d1), bounded(d2);
  CacheBudget budget;
  budget.doi_rows_bytes = 1;
  bounded.SetCacheBudget(budget);
  unbounded.SetWorkload(w);
  bounded.SetWorkload(w);

  ASSERT_TRUE(unbounded.Recommend().ok());
  ASSERT_TRUE(bounded.Recommend().ok());
  Result<DeploymentPlan> p1 = unbounded.PlanDeployment();
  Result<DeploymentPlan> p2 = bounded.PlanDeployment();
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  ASSERT_TRUE(p2.ok()) << p2.status().ToString();
  ExpectSamePlan(p1.value(), p2.value());
  // Every row of the five template classes is evicted after the build.
  EXPECT_EQ(bounded.doi_rows_evicted(), 5u);
  EXPECT_EQ(unbounded.doi_rows_evicted(), 0u);

  // A refine forces a replan; the bounded session recomputes its
  // evicted rows from cached atoms and still matches.
  ConstraintDelta tighten;
  tighten.storage_budget_pages = 400.0;
  Result<IndexRecommendation> r1 = unbounded.Refine(tighten);
  Result<IndexRecommendation> r2 = bounded.Refine(tighten);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ExpectSameRecommendation(r1.value(), r2.value());

  Result<DeploymentPlan> q1 = unbounded.PlanDeployment();
  Result<DeploymentPlan> q2 = bounded.PlanDeployment();
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  ExpectSamePlan(q1.value(), q2.value());
  EXPECT_EQ(bounded.doi_rows_evicted(), 10u);
  EXPECT_EQ(unbounded.doi_rows_evicted(), 0u);
}

// Solver-cache budget: trimming frontiers/entries after every solve
// costs re-solve work on the next Refine, never a different answer.
TEST(CacheDifferentialTest, SolverCacheBudgetPreservesRecommendations) {
  Database db = SmallDb();
  InMemoryBackend backend(db);
  Workload w = SmallWorkload(db);

  Designer d1(backend), d2(backend);
  DesignSession unbounded(d1), bounded(d2);
  CacheBudget budget;
  budget.solver_cache_bytes = 1;
  bounded.SetCacheBudget(budget);
  unbounded.SetWorkload(w);
  bounded.SetWorkload(w);

  Result<IndexRecommendation> r1 = unbounded.Recommend();
  Result<IndexRecommendation> r2 = bounded.Recommend();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ExpectSameRecommendation(r1.value(), r2.value());
  EXPECT_GE(bounded.solver_cache().trims, 1u);
  EXPECT_EQ(unbounded.solver_cache().trims, 0u);

  // Loosen (forces a re-solve against the trimmed cache), then tighten.
  for (double pages : {5000.0, 300.0}) {
    ConstraintDelta delta;
    delta.storage_budget_pages = pages;
    r1 = unbounded.Refine(delta);
    r2 = bounded.Refine(delta);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    ExpectSameRecommendation(r1.value(), r2.value());
  }
  EXPECT_LE(bounded.solver_cache().ApproxBytes(),
            sizeof(CoPhySolverCache) + bounded.solver_cache().entries.size() *
                                           sizeof(CoPhySolverCache::Entry) +
                sizeof(CoPhySolverCache::Entry));
}

}  // namespace
}  // namespace dbdesign
