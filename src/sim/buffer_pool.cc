#include "sim/buffer_pool.h"

#include <algorithm>

namespace contender::sim {

void BufferPool::SetCapacity(double capacity_bytes) {
  capacity_bytes_ = capacity_bytes;
  EvictUntilFits(0.0);
}

bool BufferPool::IsCached(TableId table) const {
  return std::any_of(lru_.begin(), lru_.end(),
                     [table](const Entry& e) { return e.table == table; });
}

void BufferPool::Admit(TableId table, double bytes) {
  if (bytes > capacity_bytes_) return;
  if (IsCached(table)) {
    Touch(table);
    return;
  }
  EvictUntilFits(bytes);
  lru_.insert(lru_.begin(), Entry{table, bytes});
  cached_bytes_ += bytes;
}

void BufferPool::Touch(TableId table) {
  const auto it = std::find_if(
      lru_.begin(), lru_.end(),
      [table](const Entry& e) { return e.table == table; });
  if (it != lru_.end()) std::rotate(lru_.begin(), it, it + 1);
}

void BufferPool::EvictUntilFits(double incoming_bytes) {
  while (!lru_.empty() && cached_bytes_ + incoming_bytes > capacity_bytes_) {
    cached_bytes_ -= lru_.back().bytes;
    lru_.pop_back();
  }
}

}  // namespace contender::sim
