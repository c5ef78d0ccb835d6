// BudgetedLru: the library's one byte-budgeted least-recently-used
// cache, under the AtomStore's hot tier, each DesignSession's DoI
// contribution rows and the proven answers a CoPhy solver cache parks.
//
// Each entry is charged a byte count once, on Put, and the cache keeps
// the running total. Entries live in a std::map; recency is a std::list
// (front = least recent) of pointers to the map's entries, so each key
// is stored once and eviction order is a pure function of the call
// sequence. Not thread-safe: owners lock around it.

#ifndef DBDESIGN_UTIL_BUDGETED_LRU_H_
#define DBDESIGN_UTIL_BUDGETED_LRU_H_

#include <cstddef>
#include <iterator>
#include <list>
#include <map>
#include <utility>

#include "util/logging.h"

namespace dbdesign {

template <typename K, typename V>
class BudgetedLru {
 public:
  /// A budget of 0 means unbounded: EvictToBudget never evicts. The
  /// default constructor is not explicit, so an aggregate holding a
  /// cache can still be copy-list-initialized (`Owner{}`).
  BudgetedLru() = default;
  explicit BudgetedLru(size_t budget_bytes) : budget_(budget_bytes) {}
  // The entries and the recency list point at each other, so a copy
  // re-inserts every entry in recency order rather than sharing them.
  // A move keeps both node-based containers, and so every pointer.
  BudgetedLru(const BudgetedLru& other) : budget_(other.budget_) {
    CopyEntries(other);
  }
  BudgetedLru& operator=(const BudgetedLru& other) {
    if (this != &other) {
      Clear();
      budget_ = other.budget_;
      CopyEntries(other);
    }
    return *this;
  }
  BudgetedLru(BudgetedLru&& other) noexcept
      : budget_(other.budget_),
        bytes_(other.bytes_),
        entries_(std::move(other.entries_)),
        order_(std::move(other.order_)) {
    other.Clear();
  }
  BudgetedLru& operator=(BudgetedLru&& other) noexcept {
    if (this != &other) {
      budget_ = other.budget_;
      bytes_ = other.bytes_;
      entries_ = std::move(other.entries_);
      order_ = std::move(other.order_);
      other.Clear();
    }
    return *this;
  }

  /// Takes effect at the next EvictToBudget.
  void set_budget(size_t budget_bytes) { budget_ = budget_bytes; }
  size_t size() const { return entries_.size(); }
  /// Sum of the byte counts of all entries.
  size_t bytes() const { return bytes_; }

  /// Membership test; leaves recency unchanged.
  bool Contains(const K& key) const { return entries_.count(key) != 0; }
  /// Number of keys in [lo, hi); leaves recency unchanged.
  size_t CountInRange(const K& lo, const K& hi) const {
    return static_cast<size_t>(
        std::distance(entries_.lower_bound(lo), entries_.lower_bound(hi)));
  }

  /// The entry's value, marked most-recently-used; nullptr on a miss.
  V* Find(const K& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    order_.splice(order_.end(), order_, it->second.pos);
    return &it->second.value;
  }

  /// Inserts or replaces the entry as most-recently-used. Never evicts:
  /// the owner calls EvictToBudget when it is ready to lose entries.
  void Put(K key, V value, size_t bytes) {
    Erase(key);
    auto it =
        entries_.emplace(std::move(key), Entry{std::move(value), bytes, {}})
            .first;
    it->second.pos = order_.insert(order_.end(), &*it);
    bytes_ += bytes;
  }

  /// Removes the entry; false when absent.
  bool Erase(const K& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    Remove(it);
    return true;
  }

  /// Calls fn(key, value) on every entry, least recently used first.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot* slot : order_) fn(slot->first, slot->second.value);
  }

  /// Removes every entry for which pred(key, value) holds, asking in
  /// ForEach order.
  template <typename Pred>
  void EraseIf(Pred pred) {
    for (auto it = order_.begin(); it != order_.end();) {
      auto next = std::next(it);
      if (pred((*it)->first, std::as_const((*it)->second.value))) {
        Remove(entries_.find((*it)->first));
      }
      it = next;
    }
  }

  void Clear() {
    entries_.clear();
    order_.clear();
    bytes_ = 0;
  }

  /// Evicts least-recently-used entries until bytes() fits the budget,
  /// calling on_evict(key, value) on each victim before removing it
  /// (the callback must not touch this cache). An entry larger than the
  /// whole budget evicts itself. Returns the number evicted.
  template <typename OnEvict>
  size_t EvictToBudget(OnEvict&& on_evict) {
    if (budget_ == 0) return 0;
    size_t evicted = 0;
    for (; bytes_ > budget_; ++evicted) {
      const Slot& victim = *order_.front();
      on_evict(victim.first, std::as_const(victim.second.value));
      Remove(entries_.find(victim.first));
    }
    DBD_CHECK(bytes_ <= budget_);
    return evicted;
  }
  size_t EvictToBudget() {
    return EvictToBudget([](const K&, const V&) {});
  }

 private:
  struct Entry;
  /// A map entry; map nodes never move, so the list may point at them.
  using Slot = std::pair<const K, Entry>;
  using OrderIt = typename std::list<Slot*>::iterator;
  struct Entry {
    V value;
    size_t bytes;
    OrderIt pos;  ///< this entry's place in order_
  };

  using EntryIt = typename std::map<K, Entry>::iterator;

  void CopyEntries(const BudgetedLru& other) {
    for (const Slot* slot : other.order_) {
      Put(slot->first, slot->second.value, slot->second.bytes);
    }
  }

  void Remove(EntryIt it) {
    bytes_ -= it->second.bytes;
    order_.erase(it->second.pos);
    entries_.erase(it);
  }

  size_t budget_ = 0;
  size_t bytes_ = 0;
  std::map<K, Entry> entries_;
  std::list<Slot*> order_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_UTIL_BUDGETED_LRU_H_
