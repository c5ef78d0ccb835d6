// Clean corpus for determinism_lint self-tests: every pattern here is
// the sanctioned counterpart of a violation in violations.cc and MUST
// produce zero findings.  This file is never compiled.
#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/budgeted_lru.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace dbdesign {

struct Report {
  std::vector<std::string> lines;
};

// Unordered iteration is fine when the sink is sorted before anyone
// can observe hash-table order.
Report BuildReport(const std::unordered_map<std::string, double>& costs) {
  Report r;
  for (const auto& [name, cost] : costs) {
    r.lines.push_back(name + ": " + std::to_string(cost));
  }
  std::sort(r.lines.begin(), r.lines.end());
  return r;
}

// Sanctioned randomness: the seeded util/rng Rng.
int PickVictim(Rng& rng, int n) {
  return rng.UniformInt(0, n - 1);
}

// Wall-clock read with a justification: accepted.
double Elapsed() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now()  // NOLINT(determinism): telemetry only; never feeds results
                 .time_since_epoch())
      .count();
}

// Ordered container keyed by value, not address.
using NameRank = std::map<std::string, int>;

// Annotated Mutex with visible guard coverage.
class Counter {
 public:
  void Bump() {
    MutexLock lock(mu_);
    ++count_;
  }

 private:
  Mutex mu_;
  int count_ DBD_GUARDED_BY(mu_) = 0;
};

// Source files may name the concrete Database (to build the
// InMemoryBackend a component attaches to); only headers are checked.
class Database;
double DataPages(const Database& db);

// A byte-budgeted cache built on the sanctioned BudgetedLru, named
// after what it holds; the eviction callback sees each victim.
class RowCache {
 public:
  void Add(const std::string& key, std::vector<double> row) {
    size_t bytes = row.size() * sizeof(double);
    rows_.Put(key, std::move(row), bytes);
    evicted_ += rows_.EvictToBudget();
  }

 private:
  BudgetedLru<std::string, std::vector<double>> rows_{1024};
  uint64_t evicted_ = 0;
};

// JSON integers go through the checked reader; doubles need no check.
Result<IndexDef> IndexFromJson(const Json& j) {
  IndexDef idx;
  Result<int> table = JsonInt(*j.Find("table"), 0, 7, "table id");
  if (!table.ok()) return table.status();
  idx.table = table.value();
  idx.weight = static_cast<double>(j.Find("weight")->number());
  return idx;
}

// Hashing through the one FNV-1a.
uint64_t HashKey(const std::string& key) { return Fnv1a64(key); }

// Always-on invariant instead of a bare assert.
int Half(int x) {
  DBD_CHECK_EQ(x % 2, 0);
  return x / 2;
}

}  // namespace dbdesign
