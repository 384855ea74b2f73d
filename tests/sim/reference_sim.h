// Verbatim copies of the simulator parts the flat buffer pool and the
// stream-count disk rule replaced: the list-plus-map LRU BufferPool and
// AllocateDiskBandwidth with its DiskDemand/DiskAllocation (only their
// namespace changed and their out-of-line definitions became inline).
// engine_parity_test's reference engine runs on them, so a defect in the
// library's pool or rate rule cannot be shared by both sides of the
// parity, and buffer_pool_test replays random call sequences against the
// copied pool.

#ifndef CONTENDER_TESTS_SIM_REFERENCE_SIM_H_
#define CONTENDER_TESTS_SIM_REFERENCE_SIM_H_

#include <cstddef>
#include <list>
#include <unordered_map>
#include <vector>

#include "sim/config.h"
#include "sim/query_spec.h"

namespace contender::sim::reference {

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
  size_t num_cached_tables() const { return entries_.size(); }

 private:
  void EvictUntilFits(double incoming_bytes);

  double capacity_bytes_;
  double cached_bytes_ = 0.0;
  // MRU at front.
  std::list<TableId> lru_;
  struct Entry {
    double bytes;
    std::list<TableId>::iterator lru_it;
  };
  std::unordered_map<TableId, Entry> entries_;
};

inline void BufferPool::SetCapacity(double capacity_bytes) {
  capacity_bytes_ = capacity_bytes;
  EvictUntilFits(0.0);
}

inline bool BufferPool::IsCached(TableId table) const {
  return entries_.count(table) > 0;
}

inline void BufferPool::Admit(TableId table, double bytes) {
  if (bytes > capacity_bytes_) return;
  auto it = entries_.find(table);
  if (it != entries_.end()) {
    Touch(table);
    return;
  }
  EvictUntilFits(bytes);
  lru_.push_front(table);
  entries_[table] = Entry{bytes, lru_.begin()};
  cached_bytes_ += bytes;
}

inline void BufferPool::Touch(TableId table) {
  auto it = entries_.find(table);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru_it);
  lru_.push_front(table);
  it->second.lru_it = lru_.begin();
}

inline void BufferPool::EvictUntilFits(double incoming_bytes) {
  while (!lru_.empty() && cached_bytes_ + incoming_bytes > capacity_bytes_) {
    const TableId victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    cached_bytes_ -= it->second.bytes;
    entries_.erase(it);
  }
}

/// Input: how many sequential scan groups are active, and the intrinsic
/// rate cap of each random stream.
struct DiskDemand {
  int num_seq_groups = 0;
  std::vector<double> random_stream_caps;
};

/// Output rates, aligned with the demand.
struct DiskAllocation {
  /// Rate granted to each sequential scan group (all groups equal).
  double seq_group_rate = 0.0;
  /// Rate granted to each random stream, same order as the caps.
  std::vector<double> random_stream_rates;
  /// Effective total bandwidth after seek degradation.
  double effective_bandwidth = 0.0;
};

/// Computes the fair-share allocation described above. With zero streams
/// all rates are zero.
inline DiskAllocation AllocateDiskBandwidth(const SimConfig& config,
                                            const DiskDemand& demand) {
  DiskAllocation out;
  const int randoms = static_cast<int>(demand.random_stream_caps.size());
  const int streams = demand.num_seq_groups + randoms;
  out.random_stream_rates.assign(demand.random_stream_caps.size(), 0.0);
  if (streams == 0) return out;

  out.effective_bandwidth =
      config.seq_bandwidth /
      (1.0 + config.seek_overhead * static_cast<double>(streams - 1));

  // Processor sharing of device *time*: each of the S streams owns 1/S of
  // the disk. A sequential group converts its slice at the (seek-degraded)
  // sequential bandwidth; a random stream converts its slice at its own
  // seek-bound intrinsic rate, so its throughput also falls as 1/S — on a
  // spindle, a seek-bound stream competing with S-1 others waits behind
  // their requests for every read.
  const double share = 1.0 / static_cast<double>(streams);
  out.seq_group_rate = out.effective_bandwidth * share;
  for (size_t i = 0; i < demand.random_stream_caps.size(); ++i) {
    out.random_stream_rates[i] = demand.random_stream_caps[i] * share;
  }
  return out;
}

}  // namespace contender::sim::reference

#endif  // CONTENDER_TESTS_SIM_REFERENCE_SIM_H_
