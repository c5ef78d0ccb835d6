// BudgetedLru: the library's one byte-budgeted least-recently-used
// cache, under both the AtomStore's hot tier and each DesignSession's
// DoI contribution rows.
//
// Each entry is charged a byte count once, on Put, and the cache keeps
// the running total. Recency is a std::list (front = least recent)
// indexed by a std::map, so eviction order is a pure function of the
// call sequence. Not thread-safe: owners lock around it.

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
  /// A budget of 0 means unbounded: EvictToBudget never evicts.
  explicit BudgetedLru(size_t budget_bytes = 0) : budget_(budget_bytes) {}
  // The index holds iterators into the list, which a copy would share.
  BudgetedLru(const BudgetedLru&) = delete;
  BudgetedLru& operator=(const BudgetedLru&) = delete;

  /// Takes effect at the next EvictToBudget.
  void set_budget(size_t budget_bytes) { budget_ = budget_bytes; }
  size_t size() const { return index_.size(); }
  /// Sum of the byte counts of all entries.
  size_t bytes() const { return bytes_; }

  /// Membership test; leaves recency unchanged.
  bool Contains(const K& key) const { return index_.count(key) != 0; }

  /// The entry's value, marked most-recently-used; nullptr on a miss.
  V* Find(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.end(), order_, it->second);
    return &it->second->value;
  }

  /// Inserts or replaces the entry as most-recently-used. Never evicts:
  /// the owner calls EvictToBudget when it is ready to lose entries.
  void Put(K key, V value, size_t bytes) {
    Erase(key);
    order_.push_back(Node{key, std::move(value), bytes});
    index_.emplace(std::move(key), std::prev(order_.end()));
    bytes_ += bytes;
  }

  /// Removes the entry; false when absent.
  bool Erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    Remove(it->second);
    return true;
  }

  /// Removes every entry for which pred(key, value) holds.
  template <typename Pred>
  void EraseIf(Pred pred) {
    for (auto it = order_.begin(); it != order_.end();) {
      auto next = std::next(it);
      if (pred(it->key, std::as_const(it->value))) Remove(it);
      it = next;
    }
  }

  void Clear() {
    index_.clear();
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
      on_evict(order_.front().key, std::as_const(order_.front().value));
      Remove(order_.begin());
    }
    DBD_CHECK(bytes_ <= budget_);
    return evicted;
  }
  size_t EvictToBudget() {
    return EvictToBudget([](const K&, const V&) {});
  }

 private:
  struct Node {
    K key;
    V value;
    size_t bytes;
  };
  using NodeIt = typename std::list<Node>::iterator;

  void Remove(NodeIt it) {
    bytes_ -= it->bytes;
    index_.erase(it->key);
    order_.erase(it);
  }

  size_t budget_;
  size_t bytes_ = 0;
  std::list<Node> order_;
  std::map<K, NodeIt> index_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_UTIL_BUDGETED_LRU_H_
