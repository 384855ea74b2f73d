#include "sched/metrics.h"

#include <cmath>

#include "util/summary_stats.h"

namespace contender::sched {

void TenantScheduleStats::Add(units::Seconds wait, units::Seconds resp,
                              bool has_deadline, bool missed_deadline) {
  ++requests;
  queue_wait.Add(wait.value());
  response.Add(resp.value());
  if (has_deadline) {
    ++deadline_requests;
    if (missed_deadline) ++deadline_misses;
  }
}

double TenantScheduleStats::sla_miss_rate() const {
  if (deadline_requests == 0) return 0.0;
  return static_cast<double>(deadline_misses) /
         static_cast<double>(deadline_requests);
}

ScheduleMetrics ComputeScheduleMetrics(const ScheduleResult& result) {
  ScheduleMetrics m;
  m.requests = result.outcomes.size();
  m.makespan = result.makespan;
  if (result.outcomes.empty()) return m;

  SampleStats waits;
  SampleStats responses;
  SummaryStats prediction_errors;
  for (const RequestOutcome& out : result.outcomes) {
    if (out.shed) {
      ++m.shed;
      ++m.shed_by_reason[out.shed_reason];
      continue;
    }
    ++m.completed;
    waits.Add(out.queue_wait.value());
    responses.Add(out.response_time.value());
    m.per_tenant[out.request.tenant_id].Add(
        out.queue_wait, out.response_time, out.request.deadline.has_value(),
        out.missed_deadline);
    if (out.request.deadline.has_value()) {
      ++m.deadline_requests;
      if (out.missed_deadline) ++m.deadline_misses;
    }
    const double actual = out.execution_latency.value();
    if (actual > 0.0) {
      prediction_errors.Add(
          std::abs(out.predicted_latency.value() - actual) / actual);
    }
  }
  m.mean_queue_wait = units::Seconds(waits.mean());
  m.max_queue_wait = units::Seconds(waits.max());
  m.mean_response = units::Seconds(responses.mean());
  m.p50_response = units::Seconds(responses.p50());
  m.p95_response = units::Seconds(responses.p95());
  m.p99_response = units::Seconds(responses.p99());
  if (m.deadline_requests > 0) {
    m.sla_miss_rate = static_cast<double>(m.deadline_misses) /
                      static_cast<double>(m.deadline_requests);
  }
  m.mean_prediction_error = prediction_errors.mean();
  return m;
}

}  // namespace contender::sched
