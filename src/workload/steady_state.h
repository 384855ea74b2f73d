// Steady-state mix execution (paper §2, Fig. 2): one stream per mix slot,
// each stream replacing its query with a fresh instance of the same
// template as soon as one finishes, so concurrent queries start at varied
// offsets. Per-stream latencies are collected after a warmup prefix and the
// run stops once every stream holds enough samples (the still-running tail
// instances are discarded, mirroring the paper's trimming).

#ifndef CONTENDER_WORKLOAD_STEADY_STATE_H_
#define CONTENDER_WORKLOAD_STEADY_STATE_H_

#include <vector>

#include "sim/config.h"
#include "util/statusor.h"
#include "workload/workload.h"

namespace contender {

/// Counted samples per stream (paper: n = 5).
inline constexpr int kSteadyStateSamplesPerStream = 5;
/// Leading instances discarded per stream.
inline constexpr int kSteadyStateWarmupPerStream = 1;

struct StreamResult {
  /// Workload index of this stream's template.
  int template_index = -1;
  /// Counted latencies (post-warmup).
  std::vector<double> latencies;
  double mean_latency = 0.0;
};

struct SteadyStateResult {
  std::vector<StreamResult> streams;
  /// Virtual time at which collection finished.
  double duration = 0.0;
};

/// Runs the mix (workload indices, one per slot; repeats allowed) to steady
/// state under the given hardware model, drawing instance parameters and
/// the engine seed from `seed`. The function is thread-safe and is fanned
/// across a pool by WorkloadSampler::CollectAll.
StatusOr<SteadyStateResult> RunSteadyState(const Workload& workload,
                                           const std::vector<int>& mix,
                                           const sim::SimConfig& config,
                                           uint64_t seed);

}  // namespace contender

#endif  // CONTENDER_WORKLOAD_STEADY_STATE_H_
