// Fleet-level quality metrics: latency/SLA aggregates over a FleetResult
// (the per-tenant percentiles fill sched::TenantScheduleStats straight from
// the fleet's outcomes, as ComputeScheduleMetrics does for one node) plus
// the blame rollups that make multi-tenancy accountable — who lost seconds
// to contention, who inflicted them, and along which (victim, culprit)
// tenant edges.

#ifndef CONTENDER_FLEET_METRICS_H_
#define CONTENDER_FLEET_METRICS_H_

#include <cstddef>
#include <map>
#include <utility>

#include "fleet/fleet_simulator.h"
#include "overload/door_control.h"
#include "sched/metrics.h"
#include "util/units.h"

namespace contender::fleet {

/// One tenant's blame ledger, in seconds of attributed slowdown.
struct TenantBlameTotals {
  /// Excess this tenant's queries suffered that was attributed to OTHER
  /// queries (any tenant, including its own co-located queries).
  double received_s = 0.0;
  /// Excess of other tenants' queries attributed to this tenant's queries.
  double inflicted_s = 0.0;
  /// Excess this tenant's queries kept as self blame (no co-residency, or
  /// split residue).
  double self_s = 0.0;
};

struct FleetMetrics {
  size_t requests = 0;
  size_t completed = 0;
  size_t rejected = 0;
  /// Requests shed by node-level overload control after admission.
  size_t node_sheds = 0;
  uint64_t failovers = 0;
  uint64_t degraded_routes = 0;
  size_t drains = 0;

  /// The conservation ledger (DESIGN.md §16). Offered = every population
  /// request; admitted = offered - door rejections; every admitted
  /// request either completes or is node-shed, so
  ///   offered == completed + shed_total  and
  ///   admitted == completed + node_sheds
  /// hold exactly (tested), fleet-wide and per tenant.
  size_t offered = 0;
  size_t admitted = 0;
  size_t shed_total = 0;
  /// Door + node sheds by stamped reason.
  std::map<overload::ShedReason, size_t> shed_by_reason;

  /// Last completion across all nodes.
  units::Seconds makespan;

  /// Fleet-level response time (original arrival -> completion) over
  /// completed requests. The percentiles are NaN when none completed.
  units::Seconds mean_response;
  units::Seconds p50_response;
  units::Seconds p95_response;
  units::Seconds p99_response;
  /// Fleet-level queue wait (original arrival -> admit).
  units::Seconds mean_queue_wait;
  units::Seconds max_queue_wait;

  /// Deadline accounting over completed requests (rejected requests never
  /// execute, so they are counted separately in `rejected`, not as SLA
  /// misses — admission control is a different failure than lateness).
  size_t deadline_requests = 0;
  size_t deadline_misses = 0;
  double sla_miss_rate = 0.0;

  /// Mean relative error of the admission-time in-mix predictions.
  double mean_prediction_error = 0.0;

  /// Completed requests that also met their deadline (or carried none) —
  /// the work the fleet actually delivered on time.
  size_t good_completions = 0;
  /// good_completions / makespan: the number the overload bench optimizes.
  double goodput_per_s = 0.0;

  /// Keyed by tenant id; exact percentiles via the retained-sample
  /// accumulators (identical machinery to the single-node per_tenant map).
  std::map<int, sched::TenantScheduleStats> per_tenant;
  std::map<int, size_t> rejected_by_tenant;
  /// The per-tenant conservation ledger: offered requests and every drop
  /// broken out by tenant and stamped ShedReason (door and node sheds
  /// combined). For each tenant, offered_by_tenant == completed +
  /// sum(shed_by_tenant[tenant]).
  std::map<int, size_t> offered_by_tenant;
  std::map<int, std::map<overload::ShedReason, size_t>> shed_by_tenant;

  /// Blame rollups. Conservation: for every tenant ledger, received + self
  /// sums (over all tenants) equal the total excess, and the matrix row
  /// sums reproduce `received_s` per victim.
  double total_excess_s = 0.0;
  double total_self_blame_s = 0.0;
  std::map<int, TenantBlameTotals> blame_by_tenant;
  /// (victim tenant, culprit tenant) -> attributed seconds.
  std::map<std::pair<int, int>, double> tenant_blame_matrix_s;
  /// Culprit template -> seconds of slowdown inflicted on others.
  std::map<int, double> blame_by_template_s;
};

/// Aggregates one fleet run. Pure function of the result.
FleetMetrics ComputeFleetMetrics(const FleetResult& result);

}  // namespace contender::fleet

#endif  // CONTENDER_FLEET_METRICS_H_
