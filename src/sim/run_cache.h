// Memoization cache for deterministic simulator runs. The engine is a pure
// function of (query specs, hardware config, seed, run mode), so a run can
// be keyed by a content hash of those inputs and its recorded per-process
// results replayed on a hit instead of re-simulating. A caller that repeats
// runs inside one process (warm re-training, a benchmark harness) hands the
// same cache to each sampler or runner; nothing is cached by default.
//
// The cache is a bounded LRU and fully thread-safe: sim::BatchRunner
// consults it concurrently from pool workers.

#ifndef CONTENDER_SIM_RUN_CACHE_H_
#define CONTENDER_SIM_RUN_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/query_spec.h"
#include "util/mutex.h"

namespace contender::sim {

/// Incremental FNV-1a (64-bit) content hasher over the simulator's input
/// types. Doubles are hashed through their IEEE-754 bit pattern, so the
/// digest is stable across platforms and process restarts.
class RunHasher {
 public:
  void Add(uint64_t v);
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(bool v) { Add(static_cast<uint64_t>(v ? 1 : 0)); }
  void Add(double v);
  void Add(std::string_view s);
  void Add(const Phase& phase);
  void Add(const QuerySpec& spec);
  void Add(const SimConfig& config);

  uint64_t Digest() const { return state_; }

 private:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  uint64_t state_ = kOffsetBasis;
};

/// Content hash identifying one engine run: the full spec set (in add
/// order), the hardware model, the seed, and which process the run waits
/// for (-1 = run everything to completion).
uint64_t HashEngineRun(const std::vector<QuerySpec>& specs,
                       const SimConfig& config, uint64_t seed,
                       int run_until_index);

/// Thread-safe bounded LRU cache of completed runs.
class RunCache {
 public:
  /// One memoized run. `results` carries engine per-process accounting;
  /// `series` carries caller-defined numeric channels (e.g. per-stream
  /// latency samples of a steady-state run, which lives above sim).
  struct Entry {
    std::vector<ProcessResult> results;
    std::vector<std::vector<double>> series;
    double duration = 0.0;
  };

  static constexpr size_t kDefaultCapacity = 4096;

  explicit RunCache(size_t capacity = kDefaultCapacity);

  /// Returns the entry for `key` (refreshing its recency), or nullopt.
  std::optional<Entry> Lookup(uint64_t key);

  /// Inserts or overwrites `key`, evicting the least-recently-used entry
  /// when over capacity.
  void Insert(uint64_t key, Entry entry);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  using LruList = std::list<std::pair<uint64_t, Entry>>;

  mutable Mutex mutex_;
  const size_t capacity_;
  LruList lru_ GUARDED_BY(mutex_);  // front = most recently used
  std::unordered_map<uint64_t, LruList::iterator> index_ GUARDED_BY(mutex_);
  uint64_t hits_ GUARDED_BY(mutex_) = 0;
  uint64_t misses_ GUARDED_BY(mutex_) = 0;
};

}  // namespace contender::sim

#endif  // CONTENDER_SIM_RUN_CACHE_H_
