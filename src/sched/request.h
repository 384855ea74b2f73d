// Admission-control requests: one queued execution of a workload template,
// optionally carrying an SLA deadline, plus the waiting queue the policies
// choose from. Arrival streams are drawn by scenario::Scenario.

#ifndef CONTENDER_SCHED_REQUEST_H_
#define CONTENDER_SCHED_REQUEST_H_

#include <optional>
#include <vector>

#include "overload/shed_reason.h"
#include "util/units.h"

namespace contender::sched {

/// One query execution awaiting admission.
struct Request {
  /// Dense identity in [0, stream size); outcome slots are keyed by it.
  int request_id = -1;
  /// Workload template index (position, not paper id).
  int template_index = -1;
  /// Issuing tenant. Single-tenant streams leave the default; the fleet
  /// layer stamps it so per-tenant metrics and blame attribution can key
  /// on it. Policies never read it — placement is tenant-blind, only
  /// accounting (and admission quotas, enforced upstream by the fleet
  /// router) see tenants.
  int tenant_id = 0;
  /// When the request becomes admissible.
  units::Seconds arrival_time;
  /// Absolute SLA deadline for completion; nullopt = best-effort.
  std::optional<units::Seconds> deadline;
  /// Service tier for the overload brownout ladder. Stamped by the fleet
  /// population (per tenant); single-node streams keep the default.
  /// Policies never read it — like tenant_id, only admission control and
  /// accounting see it.
  overload::Criticality criticality = overload::Criticality::kStandard;
};

/// The waiting queue: every generated-but-not-yet-admitted request, kept
/// sorted by (arrival time, request id). Because of the sort order, the
/// requests admissible at time t are exactly a leading prefix.
class RequestQueue {
 public:
  RequestQueue() = default;
  /// Takes ownership of `requests` and sorts them into queue order.
  explicit RequestQueue(std::vector<Request> requests);

  /// Inserts preserving (arrival, id) order.
  void Push(const Request& request);

  [[nodiscard]] bool empty() const { return requests_.empty(); }
  [[nodiscard]] size_t size() const { return requests_.size(); }
  [[nodiscard]] const Request& at(size_t i) const {
    return requests_[i];
  }

  /// Number of leading requests with arrival_time <= t (the admissible
  /// prefix at time t).
  [[nodiscard]] size_t ArrivedBy(units::Seconds t) const;

  /// Earliest arrival among queued requests; queue must be non-empty.
  [[nodiscard]] units::Seconds NextArrival() const;

  /// Removes and returns the request at position i.
  Request Take(size_t i);

 private:
  std::vector<Request> requests_;
};

}  // namespace contender::sched

#endif  // CONTENDER_SCHED_REQUEST_H_
