// Fans independent Engine runs across a ThreadPool, memoizing each run in a
// RunCache. This is the parallel substrate for the training phase: isolated
// profiles, spoiler runs at every MPL, scan-time measurements and
// steady-state mix observations are all mutually independent simulations.
//
// Determinism contract: every run's seed is supplied by the caller (derived
// before submission, never from scheduling), and results are returned
// ordered by submission index — so the output is bit-identical for any pool
// width, including 1.

#ifndef CONTENDER_SIM_BATCH_RUNNER_H_
#define CONTENDER_SIM_BATCH_RUNNER_H_

#include <future>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/query_spec.h"
#include "sim/run_cache.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace contender::sim {

/// One self-contained engine run: every spec is added at t = 0 in order.
struct EngineRun {
  std::vector<QuerySpec> specs;
  SimConfig config;
  uint64_t seed = 0;
  /// Index into `specs` of the process the run waits for (spoiler runs wait
  /// for the primary); -1 runs until all mortal processes complete.
  int run_until = -1;
};

/// Outcome of one engine run.
struct EngineRunResult {
  /// Per-process accounting, index-aligned with EngineRun::specs.
  std::vector<ProcessResult> results;
  /// Virtual time at which the run stopped.
  double duration = 0.0;
};

/// Parallel, memoizing executor of independent engine runs.
class BatchRunner {
 public:
  struct Options {
    /// Pool width; <= 0 selects the machine's hardware concurrency.
    int threads = 0;
    /// Memoization cache; nullptr (the default) disables caching.
    RunCache* cache = nullptr;
  };

  BatchRunner();
  explicit BatchRunner(const Options& options);

  /// Executes one run synchronously on the calling thread, bypassing both
  /// the pool and the cache (the deterministic reference implementation).
  static StatusOr<EngineRunResult> Execute(const EngineRun& run);

  /// Executes one run synchronously through the cache.
  StatusOr<EngineRunResult> RunOne(const EngineRun& run);

  /// Fans the batch across the pool; result i corresponds to runs[i].
  std::vector<StatusOr<EngineRunResult>> Run(
      const std::vector<EngineRun>& runs);

  /// Ordered parallel map: evaluates fn(0..n-1) on the pool and returns the
  /// results by index. `fn` must be safe to invoke concurrently; exceptions
  /// propagate to the caller. Used for independent work that is not a plain
  /// engine run (e.g. steady-state mix observations).
  template <typename Fn>
  auto Map(size_t n, Fn fn) -> std::vector<std::invoke_result_t<Fn, size_t>> {
    using R = std::invoke_result_t<Fn, size_t>;
    std::vector<std::future<R>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(pool_.Submit([fn, i] { return fn(i); }));
    }
    std::vector<R> out;
    out.reserve(n);
    for (std::future<R>& f : futures) out.push_back(f.get());
    return out;
  }

  ThreadPool& pool() { return pool_; }
  RunCache* cache() const { return cache_; }

 private:
  ThreadPool pool_;
  RunCache* cache_;
};

}  // namespace contender::sim

#endif  // CONTENDER_SIM_BATCH_RUNNER_H_
