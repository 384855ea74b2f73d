#include "fleet/router.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>

#include "util/failpoint.h"
#include "util/logging.h"

namespace contender::fleet {

namespace {

// Chaos seam: when armed, one evaluation per Route call; a fire begins a
// drain of the next rotating victim at the routed request's arrival
// instant. Firing is a pure hash of (root seed, evaluation index), so a
// whole fleet chaos run replays bit-exactly from one number.
auto& kDrainFailPoint = CONTENDER_DEFINE_FAILPOINT("fleet.node.drain");

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
    const units::Seconds freed = node->running[best].completion;
    node->running.erase(node->running.begin() +
                        static_cast<std::ptrdiff_t>(best));
    ++predicted_completions_;
    if (!node->backlog.empty()) {
      const sched::Request next = node->backlog.front();
      node->backlog.pop_front();
      // The promoted query was backlogged at its arrival (<= freed), so
      // its predicted start is the slot-free instant.
      Place(node, next, freed);
    }
  }
}

void Router::Place(NodeState* node, const sched::Request& request,
                   units::Seconds now) {
  if (static_cast<int>(node->running.size()) < options_.target_mpl) {
    std::vector<int> mix;
    mix.reserve(node->running.size());
    for (const PredictedQuery& q : node->running) {
      mix.push_back(q.template_index);
    }
    PredictedQuery entry;
    entry.template_index = request.template_index;
    entry.tenant_id = request.tenant_id;
    entry.request_id = request.request_id;
    entry.completion =
        now + oracle_->PredictInMix(request.template_index, mix);
    node->running.push_back(entry);
    return;
  }
  node->backlog.push_back(request);
}

double Router::PredictedWait(const NodeState& node,
                             units::Seconds now) const {
  if (static_cast<int>(node.running.size()) < options_.target_mpl) {
    return 0.0;
  }
  std::vector<double> remaining;
  remaining.reserve(node.running.size());
  for (const PredictedQuery& q : node.running) {
    remaining.push_back(std::max(0.0, (q.completion - now).value()));
  }
  // The new request starts once the whole predicted backlog ahead of it
  // has been started and one more slot frees. Replay the slot-free events:
  // pop the earliest predicted completion, start the next backlogged query
  // there (charged at its isolated latency — the then-current mix is
  // unknowable, and isolated is the stable floor that keeps deep backlogs
  // from looking cheap). O((mpl + backlog) log mpl) per candidate.
  std::priority_queue<double, std::vector<double>, std::greater<>> slots(
      remaining.begin(), remaining.end());
  for (const sched::Request& r : node.backlog) {
    const double freed = slots.top();
    slots.pop();
    slots.push(freed +
               oracle_->IsolatedLatency(r.template_index).value());
  }
  return slots.top();
}

std::vector<int> Router::HealthyNodes() const {
  std::vector<int> healthy;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].draining) healthy.push_back(static_cast<int>(i));
  }
  return healthy;
}

int Router::OutstandingForTenant(int tenant_id) const {
  int outstanding = 0;
  for (const NodeState& node : nodes_) {
    for (const PredictedQuery& q : node.running) {
      if (q.tenant_id == tenant_id) ++outstanding;
    }
    for (const sched::Request& r : node.backlog) {
      if (r.tenant_id == tenant_id) ++outstanding;
    }
  }
  return outstanding;
}

units::Bytes Router::PredictedNodeBytes(const NodeState& node) const {
  const std::vector<TemplateProfile>& profiles =
      oracle_->predictor().profiles();
  units::Bytes total{0.0};
  for (const PredictedQuery& q : node.running) {
    total += profiles[static_cast<size_t>(q.template_index)].working_set_bytes;
  }
  for (const sched::Request& r : node.backlog) {
    total += profiles[static_cast<size_t>(r.template_index)].working_set_bytes;
  }
  return total;
}

std::vector<double> Router::PredictedWaits(const std::vector<int>& candidates,
                                           units::Seconds now) const {
  std::vector<double> waits;
  waits.reserve(candidates.size());
  for (int n : candidates) {
    waits.push_back(PredictedWait(nodes_[static_cast<size_t>(n)], now));
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
  CONTENDER_CHECK(waits.size() == candidates.size());
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
  if (!assignments_.empty() && request.arrival_time < last_arrival_) {
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
  const std::vector<int> healthy = HealthyNodes();
  const std::vector<double> waits = PredictedWaits(healthy, now);
  double best_wait = std::numeric_limits<double>::infinity();
  for (double wait : waits) best_wait = std::min(best_wait, wait);
  overload::DoorSample sample;
  sample.now = now;
  sample.queue_delay = units::Seconds(waits.empty() ? 0.0 : best_wait);
  sample.criticality = request.criticality;
  sample.predicted_completions = predicted_completions_;
  sample.quota_exceeded =
      options_.tenant_quota > 0 &&
      OutstandingForTenant(request.tenant_id) >= options_.tenant_quota;
  if (options_.door.enabled &&
      options_.door.node_memory_budget > units::Bytes(0.0)) {
    const units::Bytes footprint =
        oracle_->predictor()
            .profiles()[static_cast<size_t>(request.template_index)]
            .working_set_bytes;
    bool any_headroom = false;
    for (int n : healthy) {
      if (PredictedNodeBytes(nodes_[static_cast<size_t>(n)]) + footprint <=
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
  NodeState& draining = nodes_[static_cast<size_t>(node)];
  if (draining.draining) return Status::OK();
  if (HealthyNodes().size() <= 1) {
    return Status::FailedPrecondition(
        "Router::BeginDrain: cannot drain the last healthy node");
  }
  Advance(&draining, now);
  draining.draining = true;

  DrainEvent event;
  event.node = node;
  event.time = now;

  // Failover: the predicted backlog re-routes through the active policy
  // among the remaining healthy nodes, in FIFO order. Predicted-running
  // queries stay — drain means "finish what you started, accept nothing
  // new". Each Place changes a node, so every pick replays fresh waits.
  std::deque<sched::Request> displaced;
  displaced.swap(draining.backlog);
  for (const sched::Request& r : displaced) {
    const std::vector<int> healthy = HealthyNodes();
    const int pick = PickNode(healthy, PredictedWaits(healthy, now), r);
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
