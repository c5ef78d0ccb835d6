// Clean corpus: util/budgeted_lru.h is the one place allowed to keep
// LRU recency bookkeeping.  This file is never compiled.
namespace dbdesign {

template <typename K, typename V>
class BudgetedLru {
 private:
  std::list<std::pair<K, V>> lru_order_;
  uint64_t lru_tick_ = 0;
};

}  // namespace dbdesign
