#include "sched/request.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace contender::sched {

namespace {

// Queue order: arrival time, then request id (insertion order of the
// generator), so ties are deterministic.
bool QueueBefore(const Request& a, const Request& b) {
  if (a.arrival_time != b.arrival_time) {
    return a.arrival_time < b.arrival_time;
  }
  return a.request_id < b.request_id;
}

}  // namespace

RequestQueue::RequestQueue(std::vector<Request> requests)
    : requests_(std::move(requests)) {
  std::stable_sort(requests_.begin(), requests_.end(), QueueBefore);
}

void RequestQueue::Push(const Request& request) {
  auto pos = std::upper_bound(requests_.begin(), requests_.end(), request,
                              QueueBefore);
  requests_.insert(pos, request);
}

size_t RequestQueue::ArrivedBy(units::Seconds t) const {
  size_t n = 0;
  while (n < requests_.size() && requests_[n].arrival_time <= t) ++n;
  return n;
}

units::Seconds RequestQueue::NextArrival() const {
  CONTENDER_CHECK(!requests_.empty());
  return requests_.front().arrival_time;
}

Request RequestQueue::Take(size_t i) {
  CONTENDER_CHECK(i < requests_.size());
  Request r = requests_[i];
  requests_.erase(requests_.begin() + static_cast<std::ptrdiff_t>(i));
  return r;
}

}  // namespace contender::sched
