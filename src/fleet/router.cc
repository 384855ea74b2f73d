#include "fleet/router.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/failpoint.h"
#include "util/logging.h"

namespace contender::fleet {

namespace {

// Chaos seam: when armed, one evaluation per Route call; a fire begins a
// drain of the next rotating victim at the routed request's arrival
// instant. Firing is a pure hash of (root seed, evaluation index), so a
// whole fleet chaos run replays bit-exactly from one number.
auto& kDrainFailPoint = CONTENDER_DEFINE_FAILPOINT("fleet.node.drain");

/// Replays backlogged queries over the ascending `slots` (`count` of
/// them, slot-free instants): each cached isolated latency in
/// [isolated, end), in FIFO order, starts on the earliest slot and frees it
/// that much later; the smaller slots shift down one place and the freed
/// instant drops in after them, so the slots stay ascending. That is the
/// multiset a min-heap replay would hold, bit for bit: each step adds to a
/// minimum slot, and equal slots are interchangeable.
void ReplayBacklog(double* slots, size_t count, const double* isolated,
                   const double* end) {
  for (; isolated != end; ++isolated) {
    const double freed = slots[0] + *isolated;
    size_t j = 1;
    for (; j < count && slots[j] < freed; ++j) slots[j - 1] = slots[j];
    slots[j - 1] = freed;
  }
}

}  // namespace

const std::string& RoutePolicyName(RoutePolicy policy) {
  static const std::string kRoundRobin = "round-robin";
  static const std::string kLeastLoaded = "least-loaded";
  static const std::string kContentionAware = "contention-aware";
  switch (policy) {
    case RoutePolicy::kRoundRobin:
      return kRoundRobin;
    case RoutePolicy::kLeastLoaded:
      return kLeastLoaded;
    case RoutePolicy::kContentionAware:
      return kContentionAware;
  }
  CONTENDER_CHECK(false) << "unknown RoutePolicy";
  return kRoundRobin;
}

const std::vector<RoutePolicy>& AllRoutePolicies() {
  static const std::vector<RoutePolicy>* kinds = new std::vector<RoutePolicy>{
      RoutePolicy::kRoundRobin, RoutePolicy::kLeastLoaded,
      RoutePolicy::kContentionAware};
  return *kinds;
}

Router::Router(const sched::MixOracle* oracle, const RouterOptions& options)
    : oracle_(oracle), options_(options), door_(options.door) {
  CONTENDER_CHECK(oracle_ != nullptr);
  CONTENDER_CHECK(options_.num_nodes >= 1);
  CONTENDER_CHECK(options_.target_mpl >= 1);
  CONTENDER_CHECK(options_.tenant_quota >= 0);
  nodes_.resize(static_cast<size_t>(options_.num_nodes));
}

void Router::Advance(NodeState* node, units::Seconds now) {
  for (;;) {
    // Earliest predicted completion; ties resolve to the lowest request
    // id so replay order never depends on container internals.
    size_t best = node->running.size();
    for (size_t i = 0; i < node->running.size(); ++i) {
      if (best == node->running.size() ||
          node->running[i].completion < node->running[best].completion ||
          (node->running[i].completion == node->running[best].completion &&
           node->running[i].request_id < node->running[best].request_id)) {
        best = i;
      }
    }
    if (best == node->running.size() ||
        node->running[best].completion > now) {
      return;
    }
    const PredictedQuery done = node->running[best];
    node->running.erase(node->running.begin() +
                        static_cast<std::ptrdiff_t>(best));
    Account(node, done.template_index, done.tenant_id, -1);
    ++predicted_completions_;
    // The one event that changes a full running set: the freed slot goes
    // to the backlog head at its in-mix latency, where the replay assumed
    // isolated, or stays free. The next wait read replays afresh.
    node->replay.clear();
    if (!node->backlog.empty()) {
      const sched::Request next = node->backlog.front();
      node->backlog.pop_front();
      std::vector<double>& isolated = node->backlog_isolated;
      ++node->backlog_head;
      if (2 * node->backlog_head >= isolated.size()) {
        isolated.erase(isolated.begin(),
                       isolated.begin() +
                           static_cast<std::ptrdiff_t>(node->backlog_head));
        node->backlog_head = 0;
      }
      // The promoted query was backlogged at its arrival (<= freed), so
      // its predicted start is the slot-free instant.
      Start(node, next, done.completion);
    }
  }
}

void Router::Account(NodeState* node, int template_index, int tenant_id,
                     int delta) {
  tenant_outstanding_[tenant_id] += delta;
  const units::Bytes footprint =
      oracle_->predictor()
          .profiles()[static_cast<size_t>(template_index)]
          .working_set_bytes;
  if (delta > 0) {
    // Integer-valued footprints keep the byte ledger exact: its sums stay
    // below 2^53, so they do not depend on the order of adds and removes.
    CONTENDER_DCHECK(footprint.value() == std::floor(footprint.value()));
    node->bytes += footprint;
  } else {
    node->bytes -= footprint;
  }
}

void Router::Place(NodeState* node, const sched::Request& request,
                   units::Seconds now) {
  Account(node, request.template_index, request.tenant_id, +1);
  if (static_cast<int>(node->running.size()) < options_.target_mpl) {
    Start(node, request, now);
    return;
  }
  node->backlog.push_back(request);
  const double isolated =
      oracle_->IsolatedLatency(request.template_index).value();
  node->backlog_isolated.push_back(isolated);
  // The replay is a FIFO fold over the backlog, so a new tail extends a
  // valid one by one step.
  if (!node->replay.empty()) {
    ReplayBacklog(node->replay.data(), node->replay.size(), &isolated,
                  &isolated + 1);
  }
}

void Router::Start(NodeState* node, const sched::Request& request,
                   units::Seconds now) {
  // A valid replay implies a full running set that has not changed since
  // it was built; only Advance's pop frees a slot, and it drops the replay.
  CONTENDER_DCHECK(node->replay.empty());
  std::vector<int> mix;
  mix.reserve(node->running.size());
  for (const PredictedQuery& q : node->running) {
    mix.push_back(q.template_index);
  }
  PredictedQuery entry;
  entry.template_index = request.template_index;
  entry.tenant_id = request.tenant_id;
  entry.request_id = request.request_id;
  entry.completion = now + oracle_->PredictInMix(request.template_index, mix);
  node->running.push_back(entry);
}

double Router::PredictedWait(NodeState* node, units::Seconds now) {
  if (static_cast<int>(node->running.size()) < options_.target_mpl) {
    return 0.0;
  }
  if (node->replay.empty()) {
    // The new request starts once the whole predicted backlog ahead of it
    // has been started and one more slot frees. Replay the slot-free
    // events in absolute time: each backlogged query, in FIFO order,
    // starts on the earliest-free slot and holds it for its isolated
    // latency (the then-current mix is unknowable, and isolated is the
    // stable floor that keeps deep backlogs from looking cheap). O(mpl *
    // backlog), with no oracle call: the isolated latencies were cached
    // when the backlog grew. Place extends the result per request
    // backlogged after this, so a backlog is replayed once per promotion.
    for (const PredictedQuery& q : node->running) {
      node->replay.push_back(q.completion.value());
    }
    std::sort(node->replay.begin(), node->replay.end());
    const double* const isolated = node->backlog_isolated.data();
    ReplayBacklog(node->replay.data(), node->replay.size(),
                  isolated + node->backlog_head,
                  isolated + node->backlog_isolated.size());
  }
  // Every node is advanced to `now` before a wait is read, so no running
  // query's completion, and hence no slot, is in the past.
  CONTENDER_DCHECK(!(node->replay[0] < now.value()));
  return node->replay[0] - now.value();
}

std::vector<int> Router::HealthyNodes() const {
  std::vector<int> healthy;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].draining) healthy.push_back(static_cast<int>(i));
  }
  return healthy;
}

bool Router::WaitsRead(bool door_reads) const {
  return door_reads || options_.policy == RoutePolicy::kContentionAware;
}

std::vector<double> Router::PredictedWaits(const std::vector<int>& candidates,
                                           units::Seconds now) {
  std::vector<double> waits;
  waits.reserve(candidates.size());
  for (int n : candidates) {
    waits.push_back(PredictedWait(&nodes_[static_cast<size_t>(n)], now));
  }
  return waits;
}

int Router::Outstanding(int node) const {
  CONTENDER_CHECK(node >= 0 && node < static_cast<int>(nodes_.size()));
  const NodeState& state = nodes_[static_cast<size_t>(node)];
  return static_cast<int>(state.running.size() + state.backlog.size());
}

int Router::PickNode(const std::vector<int>& candidates,
                     const std::vector<double>& waits,
                     const sched::Request& request) {
  CONTENDER_CHECK(!candidates.empty());
  switch (options_.policy) {
    case RoutePolicy::kRoundRobin:
      return candidates[round_robin_next_++ % candidates.size()];
    case RoutePolicy::kLeastLoaded: {
      int best = candidates.front();
      for (int n : candidates) {
        if (Outstanding(n) < Outstanding(best)) best = n;
      }
      return best;
    }
    case RoutePolicy::kContentionAware:
      break;
  }
  // Contention-aware: minimize the predicted response slowdown ratio
  // (wait + L(c|M)) / L_iso.
  CONTENDER_CHECK(waits.size() == candidates.size());
  const double isolated =
      oracle_->IsolatedLatency(request.template_index).value();
  int best = candidates.front();
  double best_score = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const NodeState& node = nodes_[static_cast<size_t>(candidates[i])];
    std::vector<int> mix;
    mix.reserve(node.running.size());
    for (const PredictedQuery& q : node.running) {
      mix.push_back(q.template_index);
    }
    const double score =
        (waits[i] +
         oracle_->PredictInMix(request.template_index, mix).value()) /
        isolated;
    if (score < best_score) {
      best = candidates[i];
      best_score = score;
    }
  }
  return best;
}

StatusOr<int> Router::Route(const sched::Request& request) {
  if (request.request_id != static_cast<int>(assignments_.size())) {
    return Status::InvalidArgument(
        "Router::Route: request ids must be dense and in order");
  }
  if (request.template_index < 0 ||
      request.template_index >= oracle_->num_templates()) {
    return Status::InvalidArgument("Router::Route: unknown template index " +
                                   std::to_string(request.template_index));
  }
  if (request.arrival_time < last_arrival_) {
    // Arrival order is the routing pass's clock; going backwards would
    // silently corrupt every predicted state.
    return Status::InvalidArgument(
        "Router::Route: arrivals must be non-decreasing");
  }
  last_arrival_ = request.arrival_time;
  const units::Seconds now = request.arrival_time;
  for (NodeState& node : nodes_) {
    Advance(&node, now);
  }

  // Chaos: a fired "fleet.node.drain" evaluation begins a drain of the
  // next rotating victim that would not empty the fleet.
  if (kDrainFailPoint.ShouldFail()) {
    for (int tries = 0; tries < options_.num_nodes; ++tries) {
      const int victim = next_chaos_drain_;
      next_chaos_drain_ = (next_chaos_drain_ + 1) % options_.num_nodes;
      if (!nodes_[static_cast<size_t>(victim)].draining &&
          HealthyNodes().size() > 1) {
        CONTENDER_CHECK(BeginDrain(victim, now).ok());
        break;
      }
    }
  }

  Assignment assignment;
  assignment.effective_arrival = now;

  // The door: every rejection — static quota included — flows through
  // the overload controller and comes back stamped with its ShedReason.
  // The enabled door reads the predicted waits as its queue-delay signal.
  const std::vector<int> healthy = HealthyNodes();
  const std::vector<double> waits =
      WaitsRead(/*door_reads=*/options_.door.enabled)
          ? PredictedWaits(healthy, now)
          : std::vector<double>();
  double best_wait = std::numeric_limits<double>::infinity();
  for (double wait : waits) best_wait = std::min(best_wait, wait);
  overload::DoorSample sample;
  sample.now = now;
  sample.queue_delay = units::Seconds(waits.empty() ? 0.0 : best_wait);
  sample.criticality = request.criticality;
  sample.predicted_completions = predicted_completions_;
  sample.quota_exceeded =
      options_.tenant_quota > 0 &&
      tenant_outstanding_[request.tenant_id] >= options_.tenant_quota;
  if (options_.door.enabled &&
      options_.door.node_memory_budget > units::Bytes(0.0)) {
    const units::Bytes footprint =
        oracle_->predictor()
            .profiles()[static_cast<size_t>(request.template_index)]
            .working_set_bytes;
    bool any_headroom = false;
    for (int n : healthy) {
      if (nodes_[static_cast<size_t>(n)].bytes + footprint <=
          options_.door.node_memory_budget) {
        any_headroom = true;
        break;
      }
    }
    sample.memory_exceeded = !any_headroom;
  }
  if (const std::optional<overload::ShedReason> reason =
          door_.Decide(sample)) {
    assignment.rejected = true;
    assignment.shed_reason = *reason;
    assignments_.push_back(assignment);
    ++stats_.rejected;
    ++stats_.rejected_by_reason[*reason];
    return -1;
  }

  // Nothing since PredictedWaits touched nodes_, so the door's waits are
  // the pick's too.
  const int pick = PickNode(healthy, waits, request);
  Place(&nodes_[static_cast<size_t>(pick)], request, now);
  assignment.node = pick;
  assignment.degraded = oracle_->Degraded(request.template_index);
  assignments_.push_back(assignment);
  ++stats_.routed;
  if (assignment.degraded) ++stats_.degraded_routes;
  return pick;
}

Status Router::BeginDrain(int node, units::Seconds now) {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument("Router::BeginDrain: unknown node");
  }
  if (now < last_arrival_) {
    return Status::InvalidArgument(
        "Router::BeginDrain: drain before the last routed arrival");
  }
  NodeState& draining = nodes_[static_cast<size_t>(node)];
  if (draining.draining) return Status::OK();
  if (HealthyNodes().size() <= 1) {
    return Status::FailedPrecondition(
        "Router::BeginDrain: cannot drain the last healthy node");
  }
  // `now` becomes the routing clock, and every node advances to it, not
  // only the drained one: a failover must not queue behind a predicted
  // completion that has already passed.
  last_arrival_ = now;
  for (NodeState& state : nodes_) {
    Advance(&state, now);
  }
  draining.draining = true;

  DrainEvent event;
  event.node = node;
  event.time = now;

  // Failover: the predicted backlog re-routes through the active policy
  // among the remaining healthy nodes, in FIFO order. Predicted-running
  // queries stay — drain means "finish what you started, accept nothing
  // new". Each Place changes a node, so every contention-aware pick
  // reads fresh waits; a placement behind a full node extends its replay.
  std::deque<sched::Request> displaced;
  displaced.swap(draining.backlog);
  draining.backlog_isolated.clear();
  draining.backlog_head = 0;
  draining.replay.clear();
  // Failovers bypass the door, so only the pick may read the waits.
  const bool waits_read = WaitsRead(/*door_reads=*/false);
  for (const sched::Request& r : displaced) {
    Account(&draining, r.template_index, r.tenant_id, -1);
    const std::vector<int> healthy = HealthyNodes();
    const int pick = PickNode(
        healthy,
        waits_read ? PredictedWaits(healthy, now) : std::vector<double>(),
        r);
    Place(&nodes_[static_cast<size_t>(pick)], r, now);
    Assignment& assignment =
        assignments_[static_cast<size_t>(r.request_id)];
    assignment.node = pick;
    assignment.effective_arrival = now;
    assignment.failed_over = true;
    const bool degraded = oracle_->Degraded(r.template_index);
    assignment.degraded = assignment.degraded || degraded;
    ++stats_.failovers;
    ++event.failovers;
    if (degraded) ++stats_.degraded_routes;
  }
  stats_.drains.push_back(event);
  return Status::OK();
}

bool Router::draining(int node) const {
  CONTENDER_CHECK(node >= 0 && node < static_cast<int>(nodes_.size()));
  return nodes_[static_cast<size_t>(node)].draining;
}

}  // namespace contender::fleet
