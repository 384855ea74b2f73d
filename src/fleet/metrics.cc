#include "fleet/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/summary_stats.h"

namespace contender::fleet {

FleetMetrics ComputeFleetMetrics(const FleetResult& result) {
  FleetMetrics m;
  m.requests = result.outcomes.size();
  m.makespan = result.makespan;
  m.failovers = result.router.failovers;
  m.degraded_routes = result.router.degraded_routes;
  m.drains = result.router.drains.size();

  SampleStats response;
  SampleStats queue_wait;
  double error_sum = 0.0;
  size_t error_count = 0;

  for (const FleetQueryOutcome& out : result.outcomes) {
    ++m.offered;
    ++m.offered_by_tenant[out.request.tenant_id];
    if (out.rejected) {
      ++m.rejected;
      ++m.rejected_by_tenant[out.request.tenant_id];
      ++m.shed_by_reason[out.shed_reason];
      ++m.shed_by_tenant[out.request.tenant_id][out.shed_reason];
      continue;
    }
    ++m.admitted;
    if (out.shed) {
      ++m.node_sheds;
      ++m.shed_by_reason[out.shed_reason];
      ++m.shed_by_tenant[out.request.tenant_id][out.shed_reason];
      continue;
    }
    if (!out.completed) continue;
    ++m.completed;
    response.Add(out.response_time.value());
    queue_wait.Add(out.queue_wait.value());
    const bool has_deadline = out.request.deadline.has_value();
    if (has_deadline) {
      ++m.deadline_requests;
      if (out.missed_deadline) ++m.deadline_misses;
    }
    if (!has_deadline || !out.missed_deadline) ++m.good_completions;
    m.per_tenant[out.request.tenant_id].Add(out.queue_wait,
                                            out.response_time, has_deadline,
                                            out.missed_deadline);
    if (out.execution_latency.value() > 0.0) {
      error_sum += std::abs(out.predicted_latency.value() -
                            out.execution_latency.value()) /
                   out.execution_latency.value();
      ++error_count;
    }
  }

  m.mean_response = units::Seconds(response.mean());
  m.p50_response = units::Seconds(response.p50());
  m.p95_response = units::Seconds(response.p95());
  m.p99_response = units::Seconds(response.p99());
  m.mean_queue_wait = units::Seconds(queue_wait.mean());
  m.max_queue_wait = units::Seconds(queue_wait.max());
  if (m.deadline_requests > 0) {
    m.sla_miss_rate = static_cast<double>(m.deadline_misses) /
                      static_cast<double>(m.deadline_requests);
  }
  if (error_count > 0) {
    m.mean_prediction_error = error_sum / static_cast<double>(error_count);
  }
  m.shed_total = m.rejected + m.node_sheds;
  if (m.makespan.value() > 0.0) {
    m.goodput_per_s =
        static_cast<double>(m.good_completions) / m.makespan.value();
  }

  // Blame rollups. Each QueryBlame is exactly conservative (self + shares
  // == excess), so summing ledgers preserves conservation globally.
  for (const QueryBlame& blame : result.blame) {
    m.total_excess_s += blame.excess.value();
    m.total_self_blame_s += blame.self_blame.value();
    TenantBlameTotals& victim = m.blame_by_tenant[blame.tenant_id];
    victim.self_s += blame.self_blame.value();
    for (const BlameShare& share : blame.shares) {
      victim.received_s += share.seconds.value();
      m.blame_by_tenant[share.culprit_tenant].inflicted_s +=
          share.seconds.value();
      m.tenant_blame_matrix_s[{blame.tenant_id, share.culprit_tenant}] +=
          share.seconds.value();
      m.blame_by_template_s[share.culprit_template] +=
          share.seconds.value();
    }
  }
  return m;
}

}  // namespace contender::fleet
