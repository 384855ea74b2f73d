// The count of engine runs a WorkloadSampler executed. Nothing is memoized:
// every run counts as a miss, so misses() is that count. The type exists
// only because perfbench names it (it sets WorkloadSampler::Options::cache
// and reports misses() as workload.sim_runs); the benchmark change that
// stops perfbench naming it deletes it. The sampler adds to the count on
// its calling thread, once per batch, so it needs no lock.

#ifndef CONTENDER_SIM_RUN_CACHE_H_
#define CONTENDER_SIM_RUN_CACHE_H_

#include <cstdint>

namespace contender::sim {

class RunCache {
 public:
  /// Engine runs counted so far.
  uint64_t misses() const { return runs_; }

  /// Counts `runs` more executed engine runs.
  void Count(uint64_t runs) { runs_ += runs; }

 private:
  uint64_t runs_ = 0;
};

}  // namespace contender::sim

#endif  // CONTENDER_SIM_RUN_CACHE_H_
