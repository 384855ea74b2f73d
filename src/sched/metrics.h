// Schedule-quality metrics over one ScheduleResult: makespan, response
// percentiles, queue waits, SLA violations, per-tenant breakdowns, and how
// good the predictions behind each admission decision turned out to be.

#ifndef CONTENDER_SCHED_METRICS_H_
#define CONTENDER_SCHED_METRICS_H_

#include <cstddef>
#include <map>

#include "sched/simulator.h"
#include "util/summary_stats.h"
#include "util/units.h"

namespace contender::sched {

/// Keyed accumulation of one tenant's (or any other key's) schedule
/// quality: exact quantiles via the retained-sample SampleStats plus the
/// deadline tallies. fleet::ComputeFleetMetrics fills the same accumulator
/// straight from the fleet's outcomes, so fleet metrics reuse these
/// percentiles instead of reimplementing them.
struct TenantScheduleStats {
  size_t requests = 0;
  size_t deadline_requests = 0;
  size_t deadline_misses = 0;
  /// admit - arrival, seconds.
  SampleStats queue_wait;
  /// arrival -> completion, seconds.
  SampleStats response;

  /// Folds one completed request into the accumulator.
  void Add(units::Seconds wait, units::Seconds resp, bool has_deadline,
           bool missed_deadline);

  /// Misses over deadline-carrying requests; 0 when none carried one.
  [[nodiscard]] double sla_miss_rate() const;
};

struct ScheduleMetrics {
  size_t requests = 0;
  /// Requests that executed to completion (requests - shed).
  size_t completed = 0;
  /// Requests dropped by node-level overload control, by stamped reason.
  size_t shed = 0;
  std::map<overload::ShedReason, size_t> shed_by_reason;
  /// Last completion instant.
  units::Seconds makespan;

  /// admit - arrival.
  units::Seconds mean_queue_wait;
  units::Seconds max_queue_wait;

  /// arrival -> completion (what an SLA is written against).
  units::Seconds mean_response;
  units::Seconds p50_response;
  units::Seconds p95_response;
  units::Seconds p99_response;

  /// Deadline-carrying requests and how many finished late. The miss rate
  /// is 0 when no request carried a deadline.
  size_t deadline_requests = 0;
  size_t deadline_misses = 0;
  double sla_miss_rate = 0.0;

  /// Mean relative error |predicted - actual| / actual of the in-mix
  /// prediction recorded at each admission, against the realized execution
  /// latency.
  double mean_prediction_error = 0.0;

  /// Keyed by Request::tenant_id. Single-tenant streams produce exactly
  /// one entry (tenant 0) whose aggregates match the top-level fields.
  std::map<int, TenantScheduleStats> per_tenant;
};

/// Aggregates a completed run. Every outcome must be either completed or
/// shed (the simulator guarantees this for an OK result); shed outcomes
/// count in `shed`/`shed_by_reason` and are excluded from the latency,
/// deadline, and prediction-error aggregates — they never ran.
ScheduleMetrics ComputeScheduleMetrics(const ScheduleResult& result);

}  // namespace contender::sched

#endif  // CONTENDER_SCHED_METRICS_H_
