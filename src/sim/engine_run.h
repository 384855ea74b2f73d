// One self-contained engine run and its outcome: the unit of the training
// phase's independent simulations (isolated profiles, spoiler runs at every
// MPL, scan-time measurements). WorkloadSampler::CollectAll fans a batch of
// them across ThreadPool::Map; each run's seed is supplied by the caller, so
// the result does not depend on which thread executes it.

#ifndef CONTENDER_SIM_ENGINE_RUN_H_
#define CONTENDER_SIM_ENGINE_RUN_H_

#include <vector>

#include "sim/config.h"
#include "sim/query_spec.h"
#include "util/statusor.h"

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

/// Executes `run` on the calling thread on a fresh engine.
StatusOr<EngineRunResult> Execute(const EngineRun& run);

}  // namespace contender::sim

#endif  // CONTENDER_SIM_ENGINE_RUN_H_
