// Buffer pool: caches small (dimension) tables with LRU eviction inside a
// capacity budget that shrinks as working memory is pinned or granted.
//
// Fact tables exceed the pool and are never cached; their reuse benefit
// comes from synchronized shared scans instead (see Engine).

#ifndef CONTENDER_SIM_BUFFER_POOL_H_
#define CONTENDER_SIM_BUFFER_POOL_H_

#include <vector>

#include "sim/query_spec.h"

namespace contender::sim {

/// LRU table cache with a mutable capacity.
class BufferPool {
 public:
  explicit BufferPool(double capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Shrinks or grows the budget (memory pressure); evicts LRU victims as
  /// needed to fit the new capacity.
  void SetCapacity(double capacity_bytes);
  double capacity() const { return capacity_bytes_; }

  /// True if `table` is fully cached.
  bool IsCached(TableId table) const;

  /// Records a completed read of a cacheable table; admits it (evicting LRU
  /// victims) when it fits the capacity. Over-capacity tables are ignored.
  void Admit(TableId table, double bytes);

  /// Marks a cache hit (LRU touch).
  void Touch(TableId table);

  double cached_bytes() const { return cached_bytes_; }
  size_t num_cached_tables() const { return lru_.size(); }

 private:
  struct Entry {
    TableId table;
    double bytes;
  };

  void EvictUntilFits(double incoming_bytes);

  double capacity_bytes_;
  double cached_bytes_ = 0.0;
  // The cached tables, most recently used first. A pool holds a handful
  // of dimension tables, so a flat scan beats a node-based index and the
  // vector stops allocating once it has held the most tables it will.
  std::vector<Entry> lru_;
};

}  // namespace contender::sim

#endif  // CONTENDER_SIM_BUFFER_POOL_H_
