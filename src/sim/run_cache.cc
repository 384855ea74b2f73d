#include "sim/run_cache.h"

#include <bit>

namespace contender::sim {

namespace {
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t MixByte(uint64_t state, uint8_t byte) {
  return (state ^ byte) * kFnvPrime;
}
}  // namespace

void RunHasher::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    state_ = MixByte(state_, static_cast<uint8_t>(v >> (8 * i)));
  }
}

void RunHasher::Add(double v) {
  // +0.0 and -0.0 compare equal but have distinct bit patterns; normalize
  // so equal inputs always hash equal.
  if (v == 0.0) v = 0.0;
  Add(std::bit_cast<uint64_t>(v));
}

void RunHasher::Add(std::string_view s) {
  Add(static_cast<uint64_t>(s.size()));
  for (char c : s) state_ = MixByte(state_, static_cast<uint8_t>(c));
}

void RunHasher::Add(const Phase& phase) {
  Add(phase.seq_io_bytes);
  Add(phase.rnd_io_bytes);
  Add(phase.cpu_seconds);
  Add(phase.table);
  Add(phase.table_bytes);
  Add(phase.cacheable);
  Add(phase.mem_demand_bytes);
  Add(phase.spillable);
}

void RunHasher::Add(const QuerySpec& spec) {
  Add(std::string_view(spec.name));
  Add(spec.template_id);
  Add(spec.immortal);
  Add(spec.pinned_memory_bytes);
  Add(static_cast<uint64_t>(spec.phases.size()));
  for (const Phase& phase : spec.phases) Add(phase);
}

void RunHasher::Add(const SimConfig& config) {
  Add(config.seq_bandwidth);
  Add(config.random_bandwidth);
  Add(config.spill_bandwidth);
  Add(config.seek_overhead);
  Add(config.ram_bytes);
  Add(config.os_reserved_bytes);
  Add(config.buffer_pool_fraction);
  Add(config.cores);
  Add(config.spill_amplification);
  Add(config.random_io_sigma);
  Add(config.spill_io_sigma);
  Add(config.cpu_jitter);
  Add(config.startup_cpu_seconds);
}

uint64_t HashEngineRun(const std::vector<QuerySpec>& specs,
                       const SimConfig& config, uint64_t seed,
                       int run_until_index) {
  RunHasher hasher;
  hasher.Add(config);
  hasher.Add(seed);
  hasher.Add(run_until_index);
  hasher.Add(static_cast<uint64_t>(specs.size()));
  for (const QuerySpec& spec : specs) hasher.Add(spec);
  return hasher.Digest();
}

RunCache::RunCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::optional<RunCache::Entry> RunCache::Lookup(uint64_t key) {
  MutexLock lock(&mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void RunCache::Insert(uint64_t key, Entry entry) {
  MutexLock lock(&mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

size_t RunCache::size() const {
  MutexLock lock(&mutex_);
  return lru_.size();
}

uint64_t RunCache::hits() const {
  MutexLock lock(&mutex_);
  return hits_;
}

uint64_t RunCache::misses() const {
  MutexLock lock(&mutex_);
  return misses_;
}

}  // namespace contender::sim
