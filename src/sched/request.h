// Admission-control requests: one queued execution of a workload template,
// optionally carrying an SLA deadline, plus the waiting queue the policies
// choose from. Arrival streams are drawn by scenario::Scenario.

#ifndef CONTENDER_SCHED_REQUEST_H_
#define CONTENDER_SCHED_REQUEST_H_

#include <cstddef>
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
///
/// The stream is sorted once and never moved; a taken request stays in
/// its slot. A Fenwick tree over the untaken slots maps queue positions
/// to slots and back in O(log n), one chain per template keeps that
/// template's earliest untaken slot, and a doubly linked list threads the
/// untaken deadline-carrying slots. The queue has no inserts: that is
/// what lets the index be a sorted-once array.
class RequestQueue {
 public:
  /// The earliest queued request of one template.
  struct TemplateHead {
    int template_index;
    /// A queued request of this queue; PositionOf gives its position.
    const Request* request;
  };

  RequestQueue() = default;
  /// Takes ownership of `requests` and sorts them into queue order.
  /// Template indices must be non-negative (CHECK).
  explicit RequestQueue(std::vector<Request> requests);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] size_t size() const { return size_; }
  /// The request at queue position i < size(); O(log n).
  [[nodiscard]] const Request& at(size_t i) const;

  /// Number of leading requests with arrival_time <= t (the admissible
  /// prefix at time t); O(log n).
  [[nodiscard]] size_t ArrivedBy(units::Seconds t) const;

  /// Earliest arrival among queued requests; queue must be non-empty.
  [[nodiscard]] units::Seconds NextArrival() const;

  /// Removes and returns the request at position i; O(log n).
  Request Take(size_t i);

  /// Fills `heads` with each template that has a request among the first
  /// `count` positions, paired with its earliest one, in queue order.
  /// O(log n + T log T) for the T templates of the stream, however deep
  /// the queue: no head is ranked, so a caller pays PositionOf's O(log n)
  /// only for the head it keeps. A reused `heads` that has held T heads
  /// allocates nothing.
  void LeadingTemplateHeads(size_t count,
                            std::vector<TemplateHead>* heads) const;

  /// Calls fn(request) on each deadline-carrying request among the first
  /// `count`, in queue order, stopping once fn returns false. O(log n),
  /// then O(1) per request visited: best-effort requests cost nothing.
  template <typename Fn>
  void ForEachLeadingDeadline(size_t count, Fn&& fn) const {
    const size_t end = EndOf(count);
    for (size_t k = first_deadline_; k < end; k = deadline_next_[k]) {
      if (!fn(requests_[k])) return;
    }
  }

  /// Queue position of `request`, which must be a queued request of this
  /// queue (a reference from at() or a walk); O(log n).
  [[nodiscard]] size_t PositionOf(const Request& request) const;

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Slot of the request at queue position `position` < size().
  [[nodiscard]] size_t Select(size_t position) const;
  /// Number of untaken slots below `slot`, i.e. that slot's position.
  [[nodiscard]] size_t Rank(size_t slot) const;
  /// The first `count` positions are exactly the untaken slots below this.
  [[nodiscard]] size_t EndOf(size_t count) const {
    return count < size_ ? Select(count) : requests_.size();
  }

  /// Every request of the stream in queue order, taken ones included.
  std::vector<Request> requests_;
  std::vector<bool> taken_;
  /// Fenwick tree (1-based) over the untaken flags of requests_.
  std::vector<size_t> tree_;
  /// Next slot of the same template, taken or not; kNone past the last.
  std::vector<size_t> next_same_;
  /// Earliest untaken slot of each template index; kNone when none.
  std::vector<size_t> template_head_;
  /// Neighbours of an untaken deadline-carrying slot in the list of such
  /// slots; kNone at either end.
  std::vector<size_t> deadline_prev_;
  std::vector<size_t> deadline_next_;
  size_t first_deadline_ = kNone;
  size_t size_ = 0;
};

}  // namespace contender::sched

#endif  // CONTENDER_SCHED_REQUEST_H_
