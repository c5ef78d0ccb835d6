// Seeded-violation corpus for determinism_lint self-tests.
// Every hazard below MUST be flagged; lint_selftest.py asserts the exact
// rule fires on the exact line.  This file is never compiled.
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.h"

namespace dbdesign {

struct Report {
  std::vector<std::string> lines;
};

// unordered-iteration: hash-table order leaks into an ordered report.
Report BuildReport(const std::unordered_map<std::string, double>& costs) {
  Report r;
  for (const auto& [name, cost] : costs) {  // VIOLATION unordered-iteration
    r.lines.push_back(name + ": " + std::to_string(cost));
  }
  return r;
}

// unsanctioned-random: naked rand() instead of the seeded util/rng Rng.
int PickVictim(int n) {
  return rand() % n;  // VIOLATION unsanctioned-random
}

// wall-clock without justification.
double Elapsed() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())  // VIOLATION wall-clock
      .count();
}

// pointer-keyed-order: address order differs per run.
struct Node {};
using NodeRank = std::map<Node*, int>;  // VIOLATION pointer-keyed-order

// unannotated-mutex (a): raw std::mutex invisible to the analysis.
class RawLocked {
 public:
  void Bump() {
    std::lock_guard<std::mutex> lock(mu_);  // VIOLATION unannotated-mutex
    ++count_;
  }

 private:
  std::mutex mu_;  // VIOLATION unannotated-mutex
  int count_ = 0;
};

// unannotated-mutex (b): wrapper Mutex member guarding nothing visible.
class UncheckedLocked {
 private:
  Mutex mu_;  // VIOLATION unannotated-mutex (no DBD_GUARDED_BY references it)
  int count_ = 0;
};

// bare-assert: vanishes under NDEBUG (the default build).
int Half(int x) {
  assert(x % 2 == 0);  // VIOLATION bare-assert
  return x / 2;
}

// unsanctioned-retry (a): raw sleep bypasses the Clock seam.
void NapBetweenAttempts() {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // VIOLATION unsanctioned-retry
}

// unsanctioned-retry (b): a retry loop outside the resilience layer.
bool CallWithHomegrownRetries(int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {  // VIOLATION unsanctioned-retry
    // issue the call, maybe break...
  }
  return false;
}

// hand-rolled-lru: tick-based recency bookkeeping outside
// util/budgeted_lru.h.
struct RowCacheEntry {
  std::vector<double> row;
  uint64_t lru = 0;  // VIOLATION hand-rolled-lru
};
class RowCache {
 public:
  void Touch(const std::string& key, RowCacheEntry& entry) {
    if (entry.lru != 0) lru_order_.erase(entry.lru);  // VIOLATION hand-rolled-lru
    entry.lru = ++doi_lru_tick_;  // VIOLATION hand-rolled-lru
  }

 private:
  std::map<uint64_t, std::string> lru_order_;  // VIOLATION hand-rolled-lru
  uint64_t doi_lru_tick_ = 0;  // VIOLATION hand-rolled-lru
};

// leaf-pricing: a design tool pricing access paths itself instead of
// reading INUM's memoized prices.
std::vector<CoPhyAtom> BuildAtoms(const PlannerContext& ctx, int s,
                                  const IndexDef& index) {
  CatalogPathProvider provider(ctx);  // VIOLATION leaf-pricing
  double seq = CostSeqLeaf(ctx, s);  // VIOLATION leaf-pricing
  IndexLeafCost leaf = CostIndexLeaf(ctx, s, index);  // VIOLATION leaf-pricing
  auto lk = CostIndexParamLookup(ctx, s, col, index);  // VIOLATION leaf-pricing
  return {};
}

// hand-rolled-hash: a private FNV-1a copy instead of util/hash.h.
uint64_t HashKey(const std::string& key) {
  uint64_t h = 0xcbf29ce484222325ULL;  // VIOLATION hand-rolled-hash
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;  // VIOLATION hand-rolled-hash
  }
  return h;
}
uint64_t LegacySeed() { return 1469598103934665603ull; }  // VIOLATION hand-rolled-hash
uint64_t DecimalPrime() { return 1099511628211ull; }  // VIOLATION hand-rolled-hash

// unchecked-json-int: JSON numbers cast straight to integers.
IndexDef IndexFromJson(const Json& j) {
  IndexDef idx;
  idx.table = static_cast<TableId>(j.Find("table")->number());  // VIOLATION unchecked-json-int
  for (const Json& c : j.Find("columns")->items()) {
    idx.columns.push_back(static_cast<ColumnId>(c.number()));  // VIOLATION unchecked-json-int
  }
  return idx;
}

// NOLINT without a justification is itself a finding.
int PickOther(int n) {
  return rand() % n;  // NOLINT(determinism)
}

}  // namespace dbdesign
