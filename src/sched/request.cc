#include "sched/request.h"

#include <algorithm>
#include <bit>
#include <functional>
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

// Lowest set bit: the number of slots a Fenwick node covers.
size_t LowBit(size_t j) { return j & (~j + 1); }

}  // namespace

RequestQueue::RequestQueue(std::vector<Request> requests)
    : requests_(std::move(requests)) {
  std::stable_sort(requests_.begin(), requests_.end(), QueueBefore);
  const size_t n = requests_.size();
  size_ = n;
  taken_.assign(n, false);
  // Every flag is set, so node j holds exactly the LowBit(j) slots it
  // covers.
  tree_.resize(n + 1);
  for (size_t j = 1; j <= n; ++j) tree_[j] = LowBit(j);
  deadline_prev_.assign(n, kNone);
  deadline_next_.assign(n, kNone);
  size_t* link = &first_deadline_;
  size_t last = kNone;
  for (size_t k = 0; k < n; ++k) {
    if (!requests_[k].deadline.has_value()) continue;
    *link = k;
    deadline_prev_[k] = last;
    link = &deadline_next_[k];
    last = k;
  }
  next_same_.assign(n, kNone);
  for (size_t k = n; k-- > 0;) {
    const int t = requests_[k].template_index;
    CONTENDER_CHECK(t >= 0) << "RequestQueue: negative template index " << t;
    const size_t ti = static_cast<size_t>(t);
    if (ti >= template_head_.size()) template_head_.resize(ti + 1, kNone);
    next_same_[k] = template_head_[ti];
    template_head_[ti] = k;
  }
}

size_t RequestQueue::Select(size_t position) const {
  // Binary lifting: grow the longest slot prefix holding at most
  // `position` untaken slots; the slot right after it is the answer.
  size_t slot = 0;
  for (size_t step = std::bit_floor(requests_.size()); step > 0;
       step >>= 1) {
    if (slot + step < tree_.size() && tree_[slot + step] <= position) {
      slot += step;
      position -= tree_[slot];
    }
  }
  return slot;
}

size_t RequestQueue::Rank(size_t slot) const {
  size_t rank = 0;
  for (size_t j = slot; j > 0; j -= LowBit(j)) rank += tree_[j];
  return rank;
}

const Request& RequestQueue::at(size_t i) const {
  CONTENDER_CHECK(i < size_);
  return requests_[Select(i)];
}

size_t RequestQueue::ArrivedBy(units::Seconds t) const {
  // Taken slots stay in place, so the slot array is still sorted.
  const auto end = std::upper_bound(
      requests_.begin(), requests_.end(), t,
      [](units::Seconds time, const Request& r) {
        return time < r.arrival_time;
      });
  return Rank(static_cast<size_t>(end - requests_.begin()));
}

units::Seconds RequestQueue::NextArrival() const {
  return at(0).arrival_time;
}

size_t RequestQueue::PositionOf(const Request& request) const {
  // std::less orders any two pointers, so a foreign reference fails the
  // CHECK instead of reaching the subtraction.
  const std::less<const Request*> before;
  const Request* begin = requests_.data();
  CONTENDER_CHECK(!before(&request, begin) &&
                  before(&request, begin + requests_.size()))
      << "PositionOf: not a request of this queue";
  const size_t slot = static_cast<size_t>(&request - begin);
  CONTENDER_CHECK(!taken_[slot]) << "PositionOf: request already taken";
  return Rank(slot);
}

Request RequestQueue::Take(size_t i) {
  CONTENDER_CHECK(i < size_);
  const size_t slot = Select(i);
  if (requests_[slot].deadline.has_value()) {
    const size_t prev = deadline_prev_[slot];
    const size_t next = deadline_next_[slot];
    (prev == kNone ? first_deadline_ : deadline_next_[prev]) = next;
    if (next != kNone) deadline_prev_[next] = prev;
  }
  taken_[slot] = true;
  for (size_t j = slot + 1; j < tree_.size(); j += LowBit(j)) --tree_[j];
  --size_;
  // A template's head moves only when the head itself is taken; it then
  // skips the later slots already taken from behind it.
  size_t& head =
      template_head_[static_cast<size_t>(requests_[slot].template_index)];
  while (head != kNone && taken_[head]) head = next_same_[head];
  return requests_[slot];
}

std::vector<RequestQueue::TemplateHead> RequestQueue::LeadingTemplateHeads(
    size_t count) const {
  std::vector<TemplateHead> heads;
  if (count == 0) return heads;
  const size_t end = EndOf(count);
  for (size_t t = 0; t < template_head_.size(); ++t) {
    // `position` holds the slot until the heads are sorted; slot order is
    // position order.
    if (template_head_[t] < end) {
      heads.push_back({static_cast<int>(t), template_head_[t]});
    }
  }
  std::sort(heads.begin(), heads.end(),
            [](const TemplateHead& a, const TemplateHead& b) {
              return a.position < b.position;
            });
  for (TemplateHead& head : heads) head.position = Rank(head.position);
  return heads;
}

}  // namespace contender::sched
