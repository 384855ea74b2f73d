// Parity of fleet::Router and fleet::ComputeNodeBlame with the versions
// they replaced. The replaced router replayed each node's backlog through
// a std::priority_queue, calling the oracle once per backlogged request,
// and counted tenant and byte ledgers by scanning every node; the
// replaced blame pass scanned all pairs of a node's outcomes. Both are
// copied here verbatim (only their namespace changed) as
// reference::Router and reference::ComputeNodeBlame, with one deliberate
// edit: reference::Router::BeginDrain carries the drain fix (advance every
// node to the drain instant, and reject a drain before the routing
// clock), because that fix is the one intended output change.
//
// Router parity runs seeded streams over every policy, MPL 1-6, tenant
// quota and memory budget on and off, the door on and off, explicit and
// chaos drains, degraded templates and simultaneous arrivals; every
// assignment, RouterStats, DoorStats, predicted_completions() and every
// node's outstanding count after each call must match with exact ==.
// The reference replays each backlog per route in time relative to the
// arrival; Router caches one replay per node in absolute time and
// subtracts the arrival once, so a wait can differ from the reference's
// in its last bits. The decisions must still match exactly. The same
// streams drive the cache-coherence test: after every call, each cached
// replay must equal a from-scratch absolute-time one with ==.
// Blame parity runs seeded random outcome sets (tied admits, zero-length
// and shed outcomes) and whole fleet runs, comparing every QueryBlame
// field and the oracle's probe count.

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/blame.h"
#include "fleet/fleet_simulator.h"
#include "fleet/node.h"
#include "fleet/population.h"
#include "fleet/router.h"
#include "overload/door_control.h"
#include "sched/mix_oracle.h"
#include "sched/request.h"
#include "scenario/scenario.h"
#include "test_support.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender::fleet {
namespace reference {

namespace {

auto& kDrainFailPoint = CONTENDER_DEFINE_FAILPOINT("fleet.node.drain");

}  // namespace

class Router {
 public:
  /// `oracle` supplies predicted in-mix latencies (and the template-health
  /// signal behind Assignment::degraded) and must outlive the router.
  Router(const sched::MixOracle* oracle, const RouterOptions& options);

  /// Routes one request. Calls must be made in arrival order
  /// (non-decreasing arrival_time); each call first advances the predicted
  /// node states to the arrival instant, applies any chaos-fired drain,
  /// then places (or rejects) the request. Returns the chosen node, or -1
  /// for a quota rejection. The final placement (which a later drain may
  /// still change) is read back through assignments().
  StatusOr<int> Route(const sched::Request& request);

  /// Marks `node` draining as of `now` and fails its predicted backlog
  /// over to the remaining healthy nodes. No-op when already draining;
  /// InvalidArgument for an unknown node; FailedPrecondition when it
  /// would drain the last healthy node.
  Status BeginDrain(int node, units::Seconds now);

  [[nodiscard]] bool draining(int node) const;
  /// Outstanding (predicted running + backlog) on a node.
  [[nodiscard]] int Outstanding(int node) const;

  /// Final assignment per request id seen by Route (dense ids required).
  [[nodiscard]] const std::vector<Assignment>& assignments() const {
    return assignments_;
  }
  [[nodiscard]] const RouterStats& stats() const { return stats_; }
  [[nodiscard]] const RouterOptions& options() const { return options_; }
  /// The door controller's ledger (recovery entries, brownout rungs,
  /// chaos sheds...).
  [[nodiscard]] const overload::DoorStats& door_stats() const {
    return door_.stats();
  }
  [[nodiscard]] bool in_recovery() const { return door_.in_recovery(); }
  /// Predicted completions popped by Advance so far — the belief-side
  /// goodput proxy the metastability detector tracks.
  [[nodiscard]] uint64_t predicted_completions() const {
    return predicted_completions_;
  }

 private:
  /// One predicted-unfinished query on a node.
  struct PredictedQuery {
    units::Seconds completion;
    int template_index = -1;
    int tenant_id = 0;
    int request_id = -1;
  };

  /// The router's belief about one node.
  struct NodeState {
    std::vector<PredictedQuery> running;  // size <= target_mpl
    std::deque<sched::Request> backlog;   // FIFO, predicted-waiting
    bool draining = false;
  };

  /// Advances one node's predicted state to `now`: pops predicted
  /// completions and promotes backlog head(s) into freed slots.
  void Advance(NodeState* node, units::Seconds now);

  /// Places `request` on `node` at `now`: into a free slot (predicted
  /// completion = now + predicted in-mix latency) or the backlog.
  void Place(NodeState* node, const sched::Request& request,
             units::Seconds now);

  /// Predicted seconds until `node` can start one more request, given its
  /// current backlog depth (0 when a slot is free).
  [[nodiscard]] double PredictedWait(const NodeState& node,
                                     units::Seconds now) const;

  /// Healthy = not draining.
  [[nodiscard]] std::vector<int> HealthyNodes() const;

  /// The policy: picks among `candidates` (non-empty, healthy) for
  /// `request`; `waits` is PredictedWaits(candidates, now).
  [[nodiscard]] int PickNode(const std::vector<int>& candidates,
                             const std::vector<double>& waits,
                             const sched::Request& request);

  [[nodiscard]] int OutstandingForTenant(int tenant_id) const;

  /// Predicted outstanding working-set bytes on a node (running +
  /// backlog), from the profiles' LearnedWMP-style footprints.
  [[nodiscard]] units::Bytes PredictedNodeBytes(const NodeState& node) const;

  /// PredictedWait of each of `candidates` at `now`, aligned with it.
  /// Each entry replays that node's backlog, so Route computes them once
  /// for both the door's queue-delay signal and the pick.
  [[nodiscard]] std::vector<double> PredictedWaits(
      const std::vector<int>& candidates, units::Seconds now) const;

  const sched::MixOracle* const oracle_;
  const RouterOptions options_;
  std::vector<NodeState> nodes_;
  std::vector<Assignment> assignments_;
  RouterStats stats_;
  overload::DoorController door_;
  uint64_t predicted_completions_ = 0;
  /// Round-robin cursor (counts placements, not nodes, so draining nodes
  /// are skipped without skew).
  uint64_t round_robin_next_ = 0;
  /// Next chaos-drain victim (rotates over nodes).
  int next_chaos_drain_ = 0;
  /// Clock of the routing pass (Route enforces monotonicity against it).
  units::Seconds last_arrival_;
};

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
  // The drain fix, applied to the reference too: reject a drain before
  // the routing clock, and advance every node (not only the drained one)
  // before the failovers.
  if (!assignments_.empty() && now < last_arrival_) {
    return Status::InvalidArgument(
        "Router::BeginDrain: drain before the last routed arrival");
  }
  NodeState& draining = nodes_[static_cast<size_t>(node)];
  if (draining.draining) return Status::OK();
  if (HealthyNodes().size() <= 1) {
    return Status::FailedPrecondition(
        "Router::BeginDrain: cannot drain the last healthy node");
  }
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

namespace {

/// Shared wall-clock of two execution intervals [admit, completion].
double Overlap(const sched::RequestOutcome& a,
               const sched::RequestOutcome& b) {
  const double lo =
      std::max(a.admit_time.value(), b.admit_time.value());
  const double hi =
      std::min(a.completion_time.value(), b.completion_time.value());
  return std::max(0.0, hi - lo);
}

}  // namespace

std::vector<QueryBlame> ComputeNodeBlame(const NodeResult& node,
                                         const sched::MixOracle& oracle) {
  const std::vector<sched::RequestOutcome>& outcomes =
      node.schedule.outcomes;
  std::vector<QueryBlame> blames;
  blames.reserve(outcomes.size());

  for (size_t i = 0; i < outcomes.size(); ++i) {
    const sched::RequestOutcome& victim = outcomes[i];
    QueryBlame blame;
    blame.request_id = node.global_ids[i];
    blame.tenant_id = victim.request.tenant_id;
    blame.template_index = victim.request.template_index;
    blame.isolated_latency =
        oracle.IsolatedLatency(victim.request.template_index);
    blame.execution_latency = victim.execution_latency;
    blame.excess = units::Seconds(
        std::max(0.0, (victim.execution_latency -
                       blame.isolated_latency).value()));

    // Co-residency scan: every other outcome whose execution interval
    // overlaps the victim's. Local ids are dense, so index order == id
    // order == deterministic share order (by culprit fleet id after the
    // node's sort, which preserves arrival order).
    struct Candidate {
      size_t index;
      double overlap;
      double weight;
    };
    std::vector<Candidate> candidates;
    double weighted_sum = 0.0;
    double overlap_sum = 0.0;
    for (size_t j = 0; j < outcomes.size(); ++j) {
      if (j == i) continue;
      const double overlap = Overlap(victim, outcomes[j]);
      if (overlap <= 0.0) continue;
      // Pairwise antagonism: how much a mix of exactly this co-runner is
      // predicted to slow the victim — one oracle probe per overlapping
      // pair.
      const double antagonism =
          std::max(0.0,
                   (oracle.PredictInMix(
                        victim.request.template_index,
                        {outcomes[j].request.template_index}) -
                    blame.isolated_latency)
                       .value());
      candidates.push_back({j, overlap, overlap * antagonism});
      weighted_sum += overlap * antagonism;
      overlap_sum += overlap;
    }

    double attributed = 0.0;
    if (!candidates.empty() && blame.excess.value() > 0.0) {
      // Normalized split: antagonism-weighted when the predictor sees any
      // pairwise contention, pure overlap proportions otherwise.
      const bool use_weights = weighted_sum > 0.0;
      const double denom = use_weights ? weighted_sum : overlap_sum;
      for (const Candidate& c : candidates) {
        const double mass = use_weights ? c.weight : c.overlap;
        const double share = blame.excess.value() * (mass / denom);
        if (share <= 0.0) continue;
        const sched::RequestOutcome& culprit = outcomes[c.index];
        BlameShare s;
        s.culprit_request = node.global_ids[c.index];
        s.culprit_tenant = culprit.request.tenant_id;
        s.culprit_template = culprit.request.template_index;
        s.seconds = units::Seconds(share);
        blame.shares.push_back(s);
        attributed += share;
      }
    }
    // The float residue of the normalized split (and the whole excess
    // when nothing overlapped) stays with the query itself, keeping the
    // decomposition exactly conservative.
    blame.self_blame = units::Seconds(blame.excess.value() - attributed);
    blames.push_back(std::move(blame));
  }
  return blames;
}

}  // namespace reference

/// Reads Router's per-node replay caches for the coherence test.
class RouterTestPeer {
 public:
  /// Checks every node whose replay is valid (non-empty): its running set
  /// must be full, and the replay must equal, with ==, a from-scratch
  /// min-heap replay in absolute time of its running completions and
  /// backlog, with isolated latencies asked of the oracle afresh. Returns
  /// how many valid replays it checked over a non-empty backlog.
  static int ExpectCoherent(const Router& router) {
    int checked = 0;
    for (size_t n = 0; n < router.nodes_.size(); ++n) {
      const Router::NodeState& node = router.nodes_[n];
      if (node.replay.empty()) continue;
      SCOPED_TRACE("node " + std::to_string(n));
      EXPECT_EQ(static_cast<int>(node.running.size()),
                router.options_.target_mpl);
      std::priority_queue<double, std::vector<double>, std::greater<>> slots;
      for (const Router::PredictedQuery& q : node.running) {
        slots.push(q.completion.value());
      }
      for (const sched::Request& r : node.backlog) {
        const double freed =
            slots.top() +
            router.oracle_->IsolatedLatency(r.template_index).value();
        slots.pop();
        slots.push(freed);
      }
      std::vector<double> fresh;
      for (; !slots.empty(); slots.pop()) fresh.push_back(slots.top());
      EXPECT_EQ(node.replay, fresh);
      if (!node.backlog.empty()) ++checked;
    }
    return checked;
  }
};

namespace {

using contender::testing::DefaultConfig;
using contender::testing::PaperWorkload;
using contender::testing::SharedPredictor;

/// Marks a fixed template set degraded (breaker open).
class FakeHealth : public sched::TemplateHealth {
 public:
  explicit FakeHealth(std::vector<int> degraded)
      : degraded_(std::move(degraded)) {}
  bool Degraded(int template_index) const override {
    return std::find(degraded_.begin(), degraded_.end(), template_index) !=
           degraded_.end();
  }

 private:
  const std::vector<int> degraded_;
};

// ---------------------------------------------------------------------------
// Router parity.

/// One seeded routing workload: options, the arrival stream, explicit
/// drains (applied before the request they precede) and chaos arming.
struct RouterCase {
  RouterOptions options;
  std::vector<sched::Request> requests;
  /// (index of the request the drain precedes, node, time); an index of
  /// requests.size() drains after the last arrival.
  struct Drain {
    size_t before = 0;
    int node = 0;
    double time = 0.0;
  };
  std::vector<Drain> drains;
  double chaos_drain_p = 0.0;
  double chaos_shed_p = 0.0;
  uint64_t chaos_seed = 0;
  std::vector<int> degraded_templates;
};

double MeanIsolatedLatency() {
  double sum = 0.0;
  for (const TemplateProfile& p : SharedPredictor().profiles()) {
    sum += p.isolated_latency.value();
  }
  return sum / static_cast<double>(SharedPredictor().profiles().size());
}

/// Case `index` covers policy index % 3 and MPL 1 + (index / 3) % 6. The
/// variant index / 18 sets the rest of the mix:
///   0  door off, no quota, explicit drains;
///   1  door off, tenant quota, chaos drains;
///   2  door on with a memory budget, degraded templates, explicit drains;
///   3  door on, tenant quota, chaos drains, door chaos sheds and explicit
///      drains.
/// The seed draws node count, stream, quota and budget sizes and drains.
RouterCase MakeRouterCase(int index) {
  Rng rng(0x5eed0000u + static_cast<uint64_t>(index));
  RouterCase c;
  c.options.policy = AllRoutePolicies()[static_cast<size_t>(index % 3)];
  c.options.target_mpl = 1 + (index / 3) % 6;
  c.options.num_nodes = 2 + static_cast<int>(rng.UniformInt(3));
  const int variant = (index / 18) % 4;
  const bool quota = variant == 1 || variant == 3;
  c.options.door.enabled = variant >= 2;
  if (quota) c.options.tenant_quota = 4 + static_cast<int>(rng.UniformInt(12));
  if (variant == 2) {
    // Tight enough that the memory signal binds under a backlog.
    c.options.door.node_memory_budget =
        units::Bytes(rng.Uniform(2e9, 8e9) * c.options.target_mpl);
  }
  const bool explicit_drains = variant != 1;
  if (variant == 1 || variant == 3) {
    c.chaos_drain_p = 0.01;
    c.chaos_seed = static_cast<uint64_t>(index) + 1;
  }
  if (variant == 3) c.chaos_shed_p = 0.02;
  if (variant == 2) c.degraded_templates = {1, 4, 9};

  const int num_templates =
      static_cast<int>(SharedPredictor().profiles().size());
  const int n = 160 + static_cast<int>(rng.UniformInt(80));
  // Offered load 0.8-2.5x the fleet's isolated capacity builds backlogs.
  const double capacity =
      static_cast<double>(c.options.num_nodes * c.options.target_mpl);
  const double mean_gap =
      MeanIsolatedLatency() / capacity / rng.Uniform(0.8, 2.5);
  double t = rng.Uniform(0.0, 10.0);
  for (int i = 0; i < n; ++i) {
    // A third of the gaps are zero (simultaneous arrivals); the others
    // are 1.5x longer, so the mean gap stays mean_gap.
    if (i > 0 && rng.Uniform01() >= 1.0 / 3.0) {
      t += -std::log(1.0 - rng.Uniform01()) * mean_gap * 1.5;
    }
    sched::Request r;
    r.request_id = i;
    r.template_index = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(num_templates)));
    r.tenant_id = static_cast<int>(rng.UniformInt(4));
    r.criticality = static_cast<overload::Criticality>(rng.UniformInt(3));
    r.arrival_time = units::Seconds(t);
    c.requests.push_back(r);
  }
  if (explicit_drains) {
    const int drains = 1 + static_cast<int>(rng.UniformInt(3));
    for (int d = 0; d < drains; ++d) {
      RouterCase::Drain drain;
      drain.before = static_cast<size_t>(rng.UniformInt(
          static_cast<uint64_t>(n + 1)));
      drain.node = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(c.options.num_nodes)));
      // Between the neighbouring arrivals, or exactly on one of them.
      const double lo = drain.before == 0
                            ? 0.0
                            : c.requests[drain.before - 1].arrival_time.value();
      const double hi = drain.before == c.requests.size()
                            ? lo + 500.0
                            : c.requests[drain.before].arrival_time.value();
      const double u = rng.Uniform01();
      drain.time = u < 0.2 ? lo : (u < 0.4 ? hi : lo + (hi - lo) * u);
      c.drains.push_back(drain);
    }
    std::stable_sort(
        c.drains.begin(), c.drains.end(),
        [](const RouterCase::Drain& a, const RouterCase::Drain& b) {
          return a.before < b.before;
        });
    // Drains at one gap go in time order, so none is before the clock.
    for (size_t i = 1; i < c.drains.size(); ++i) {
      if (c.drains[i].before == c.drains[i - 1].before) {
        c.drains[i].time = std::max(c.drains[i].time, c.drains[i - 1].time);
      }
    }
  }
  return c;
}

/// Everything observable about one call to Route or BeginDrain.
struct CallRecord {
  int code = 0;
  int node = -2;
  std::vector<int> outstanding;
  std::vector<bool> draining;
  uint64_t predicted_completions = 0;
  bool in_recovery = false;
};

struct RouterTrace {
  std::vector<CallRecord> calls;
  std::vector<Assignment> assignments;
  RouterStats stats;
  overload::DoorStats door;
  uint64_t predicted_completions = 0;
};

template <typename R>
CallRecord Observe(const R& router, int num_nodes, const Status& status,
                   int node) {
  CallRecord record;
  record.code = static_cast<int>(status.code());
  record.node = node;
  for (int n = 0; n < num_nodes; ++n) {
    record.outstanding.push_back(router.Outstanding(n));
    record.draining.push_back(router.draining(n));
  }
  record.predicted_completions = router.predicted_completions();
  record.in_recovery = router.in_recovery();
  return record;
}

/// Runs `c` through a router of type R; `after_call`, when set, sees the
/// router after every Route and BeginDrain.
template <typename R>
RouterTrace RunRouter(const RouterCase& c,
                      const std::function<void(const R&)>& after_call = {}) {
  auto& registry = FailPointRegistry::Global();
  if (c.chaos_drain_p > 0.0 || c.chaos_shed_p > 0.0) {
    // Re-arming restarts the evaluation count, so both routers see the
    // same fired subset.
    registry.SetRootSeed(c.chaos_seed);
    if (c.chaos_drain_p > 0.0) {
      registry.ArmProbability("fleet.node.drain", c.chaos_drain_p);
    }
    if (c.chaos_shed_p > 0.0) {
      registry.ArmProbability("overload.door.shed", c.chaos_shed_p);
    }
  }
  FakeHealth health(c.degraded_templates);
  sched::MixOracle::Options oracle_options;
  oracle_options.health = &health;
  sched::MixOracle oracle(&SharedPredictor(), oracle_options);
  R router(&oracle, c.options);
  RouterTrace trace;
  size_t next_drain = 0;
  auto drain_until = [&](size_t before) {
    for (; next_drain < c.drains.size() &&
           c.drains[next_drain].before <= before;
         ++next_drain) {
      const RouterCase::Drain& d = c.drains[next_drain];
      const Status status = router.BeginDrain(d.node, units::Seconds(d.time));
      trace.calls.push_back(
          Observe(router, c.options.num_nodes, status, d.node));
      if (after_call) after_call(router);
    }
  };
  for (size_t i = 0; i < c.requests.size(); ++i) {
    drain_until(i);
    const StatusOr<int> node = router.Route(c.requests[i]);
    trace.calls.push_back(Observe(router, c.options.num_nodes, node.status(),
                                  node.ok() ? *node : -2));
    if (after_call) after_call(router);
  }
  drain_until(c.requests.size());
  // A drain before the routing clock is refused by both.
  if (!c.requests.empty()) {
    const Status late = router.BeginDrain(
        0, c.requests.back().arrival_time - units::Seconds(1.0));
    trace.calls.push_back(Observe(router, c.options.num_nodes, late, 0));
  }
  registry.Disarm("fleet.node.drain");
  registry.Disarm("overload.door.shed");
  trace.assignments = router.assignments();
  trace.stats = router.stats();
  trace.door = router.door_stats();
  trace.predicted_completions = router.predicted_completions();
  return trace;
}

void ExpectSameTrace(const RouterTrace& want, const RouterTrace& got) {
  ASSERT_EQ(want.calls.size(), got.calls.size());
  for (size_t i = 0; i < want.calls.size(); ++i) {
    SCOPED_TRACE("call " + std::to_string(i));
    const CallRecord& a = want.calls[i];
    const CallRecord& b = got.calls[i];
    ASSERT_EQ(a.code, b.code);
    ASSERT_EQ(a.node, b.node);
    ASSERT_EQ(a.outstanding, b.outstanding);
    ASSERT_EQ(a.draining, b.draining);
    ASSERT_EQ(a.predicted_completions, b.predicted_completions);
    ASSERT_EQ(a.in_recovery, b.in_recovery);
  }
  ASSERT_EQ(want.assignments.size(), got.assignments.size());
  for (size_t i = 0; i < want.assignments.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const Assignment& a = want.assignments[i];
    const Assignment& b = got.assignments[i];
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.effective_arrival, b.effective_arrival);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.shed_reason, b.shed_reason);
    EXPECT_EQ(a.failed_over, b.failed_over);
    EXPECT_EQ(a.degraded, b.degraded);
  }
  EXPECT_EQ(want.stats.routed, got.stats.routed);
  EXPECT_EQ(want.stats.rejected, got.stats.rejected);
  EXPECT_EQ(want.stats.rejected_by_reason, got.stats.rejected_by_reason);
  EXPECT_EQ(want.stats.failovers, got.stats.failovers);
  EXPECT_EQ(want.stats.degraded_routes, got.stats.degraded_routes);
  ASSERT_EQ(want.stats.drains.size(), got.stats.drains.size());
  for (size_t i = 0; i < want.stats.drains.size(); ++i) {
    EXPECT_EQ(want.stats.drains[i].node, got.stats.drains[i].node);
    EXPECT_EQ(want.stats.drains[i].time, got.stats.drains[i].time);
    EXPECT_EQ(want.stats.drains[i].failovers, got.stats.drains[i].failovers);
  }
  EXPECT_EQ(want.door.decisions, got.door.decisions);
  EXPECT_EQ(want.door.admitted, got.door.admitted);
  EXPECT_EQ(want.door.shed, got.door.shed);
  EXPECT_EQ(want.door.shed_by_reason, got.door.shed_by_reason);
  EXPECT_EQ(want.door.recovery_sheds, got.door.recovery_sheds);
  EXPECT_EQ(want.door.recovery_entries, got.door.recovery_entries);
  EXPECT_EQ(want.door.brownout_escalations, got.door.brownout_escalations);
  EXPECT_EQ(want.door.brownout_deescalations,
            got.door.brownout_deescalations);
  EXPECT_EQ(want.door.chaos_sheds, got.door.chaos_sheds);
  EXPECT_EQ(want.predicted_completions, got.predicted_completions);
}

constexpr int kRouterCases = 72;

class RouterParity : public ::testing::TestWithParam<int> {};

TEST_P(RouterParity, MatchesReferenceBitForBit) {
  const RouterCase c = MakeRouterCase(GetParam());
  const RouterTrace want = RunRouter<reference::Router>(c);
  const RouterTrace got = RunRouter<Router>(c);
  ExpectSameTrace(want, got);
}

INSTANTIATE_TEST_SUITE_P(Cases, RouterParity,
                         ::testing::Range(0, kRouterCases));

/// The cases must reach what the parity claim is about; a generator that
/// stopped building backlogs or firing drains would pass vacuously.
TEST(RouterParityCoverage, CasesExerciseEveryBehaviour) {
  std::map<std::string, int> seen;
  for (int index = 0; index < kRouterCases; ++index) {
    const RouterCase c = MakeRouterCase(index);
    const RouterTrace trace = RunRouter<Router>(c);
    const std::string policy = RoutePolicyName(c.options.policy);
    int max_outstanding = 0;
    for (const CallRecord& call : trace.calls) {
      for (int o : call.outstanding) {
        max_outstanding = std::max(max_outstanding, o);
      }
    }
    if (max_outstanding > c.options.target_mpl + 2) ++seen["backlog/" + policy];
    ++seen["mpl/" + std::to_string(c.options.target_mpl) + "/" + policy];
    for (const auto& [reason, count] : trace.stats.rejected_by_reason) {
      if (count > 0) {
        ++seen[std::string("shed/") + overload::ShedReasonName(reason)];
      }
    }
    if (trace.stats.failovers > 0) ++seen["failover/" + policy];
    if (!trace.stats.drains.empty()) {
      ++seen[c.chaos_drain_p > 0.0 ? "drain/chaos" : "drain/explicit"];
    }
    if (trace.stats.degraded_routes > 0) ++seen["degraded"];
    if (trace.door.chaos_sheds > 0) ++seen["chaos_shed"];
    for (size_t i = 1; i < c.requests.size(); ++i) {
      if (c.requests[i].arrival_time == c.requests[i - 1].arrival_time) {
        ++seen["simultaneous"];
        break;
      }
    }
    bool refused = false;
    for (const CallRecord& call : trace.calls) {
      refused = refused || call.code ==
                               static_cast<int>(StatusCode::kInvalidArgument);
    }
    if (refused) ++seen["late_drain_refused"];
  }
  for (const std::string& policy :
       {std::string("round-robin"), std::string("least-loaded"),
        std::string("contention-aware")}) {
    EXPECT_GT(seen["backlog/" + policy], 0) << policy;
    EXPECT_GT(seen["failover/" + policy], 0) << policy;
    for (int mpl = 1; mpl <= 6; ++mpl) {
      EXPECT_GT(seen["mpl/" + std::to_string(mpl) + "/" + policy], 0);
    }
  }
  for (const char* key :
       {"shed/quota", "shed/memory-pressure", "shed/queue-delay",
        "drain/chaos", "drain/explicit", "degraded", "chaos_shed",
        "simultaneous", "late_drain_refused"}) {
    EXPECT_GT(seen[key], 0) << key;
  }
}

/// Router keeps each node's backlog replay between routes and extends it
/// as the backlog grows. After every Route and BeginDrain of every parity
/// case, each cached replay must equal a from-scratch one.
TEST(RouterCacheCoherence, EveryCachedReplayMatchesAFreshOne) {
  std::map<std::string, int> checked;
  for (int index = 0; index < kRouterCases; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    const RouterCase c = MakeRouterCase(index);
    int& count = checked[RoutePolicyName(c.options.policy)];
    RunRouter<Router>(c, [&count](const Router& router) {
      count += RouterTestPeer::ExpectCoherent(router);
    });
  }
  // Every policy reads waits through the door, so each must have held
  // valid replays over real backlogs.
  for (const RoutePolicy policy : AllRoutePolicies()) {
    EXPECT_GT(checked[RoutePolicyName(policy)], 100)
        << RoutePolicyName(policy);
  }
}

// ---------------------------------------------------------------------------
// Blame parity.

void ExpectSameBlame(const std::vector<QueryBlame>& want,
                     const std::vector<QueryBlame>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("victim " + std::to_string(i));
    const QueryBlame& a = want[i];
    const QueryBlame& b = got[i];
    EXPECT_EQ(a.request_id, b.request_id);
    EXPECT_EQ(a.tenant_id, b.tenant_id);
    EXPECT_EQ(a.template_index, b.template_index);
    EXPECT_EQ(a.isolated_latency, b.isolated_latency);
    EXPECT_EQ(a.execution_latency, b.execution_latency);
    EXPECT_EQ(a.excess, b.excess);
    EXPECT_EQ(a.self_blame, b.self_blame);
    ASSERT_EQ(a.shares.size(), b.shares.size());
    for (size_t s = 0; s < a.shares.size(); ++s) {
      EXPECT_EQ(a.shares[s].culprit_request, b.shares[s].culprit_request);
      EXPECT_EQ(a.shares[s].culprit_tenant, b.shares[s].culprit_tenant);
      EXPECT_EQ(a.shares[s].culprit_template, b.shares[s].culprit_template);
      EXPECT_EQ(a.shares[s].seconds, b.shares[s].seconds);
    }
  }
}

/// Both blame passes over `node`, each on a fresh oracle; the probe counts
/// must match too (FleetNodeSummary::oracle_evaluations counts them).
void ExpectBlameParity(const NodeResult& node) {
  sched::MixOracle want_oracle(&SharedPredictor());
  sched::MixOracle got_oracle(&SharedPredictor());
  const std::vector<QueryBlame> want =
      reference::ComputeNodeBlame(node, want_oracle);
  const std::vector<QueryBlame> got = ComputeNodeBlame(node, got_oracle);
  ExpectSameBlame(want, got);
  EXPECT_EQ(want_oracle.evaluations(), got_oracle.evaluations());
}

/// A seeded outcome set on a coarse time grid, so admits tie and
/// intervals touch end to start; some outcomes are zero-length and some
/// are shed (never admitted: zero admit and completion).
NodeResult RandomOutcomes(uint64_t seed) {
  Rng rng(seed);
  const int num_templates =
      static_cast<int>(SharedPredictor().profiles().size());
  const int n = static_cast<int>(rng.UniformInt(int64_t{0}, int64_t{80}));
  NodeResult node;
  int global = static_cast<int>(rng.UniformInt(50));
  for (int i = 0; i < n; ++i) {
    sched::RequestOutcome out;
    out.request.request_id = i;
    out.request.template_index = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(num_templates)));
    out.request.tenant_id = static_cast<int>(rng.UniformInt(4));
    const double kind = rng.Uniform01();
    if (kind < 0.1) {
      out.shed = true;
      out.shed_reason = overload::ShedReason::kQueueDelay;
    } else {
      const double admit = 10.0 * static_cast<double>(rng.UniformInt(40));
      const double length =
          kind < 0.2 ? 0.0
                     : (kind < 0.5 ? 10.0 * static_cast<double>(
                                                1 + rng.UniformInt(8))
                                   : rng.Uniform(0.5, 120.0));
      out.admit_time = units::Seconds(admit);
      out.completion_time = units::Seconds(admit + length);
      out.execution_latency = units::Seconds(length);
      out.completed = true;
    }
    node.schedule.outcomes.push_back(out);
    global += 1 + static_cast<int>(rng.UniformInt(3));
    node.global_ids.push_back(global);
  }
  return node;
}

TEST(BlameParity, RandomOutcomeSetsMatchReference) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectBlameParity(RandomOutcomes(seed));
  }
}

/// Whole fleet runs: FleetSimulator's blame must equal the reference pass
/// over each node's realized schedule, recomposed from the public Router
/// and Node exactly as the simulator runs them.
TEST(BlameParity, FleetRunsMatchReference) {
  std::vector<units::Seconds> isolated;
  for (const TemplateProfile& p : SharedPredictor().profiles()) {
    isolated.push_back(p.isolated_latency);
  }
  int cases = 0;
  for (const RoutePolicy policy : AllRoutePolicies()) {
    for (const int mpl : {2, 3, 5}) {
      SCOPED_TRACE(RoutePolicyName(policy) + " mpl " + std::to_string(mpl));
      scenario::ScenarioParams params;
      params.num_tenants = 4;
      params.num_requests = 96;
      params.mean_interarrival = units::Seconds(6.0);
      params.skew = 1.0;
      params.templates_per_tenant = 10;
      params.deadline_probability = 0.5;
      params.seed = 40 + static_cast<uint64_t>(cases++);
      auto population = GeneratePopulation(
          isolated, params,
          *scenario::FindScenario(scenario::kPoissonSteadyName));
      ASSERT_TRUE(population.ok()) << population.status();

      FleetOptions options;
      options.num_nodes = 3;
      options.target_mpl = mpl;
      options.policy = policy;
      options.seed = params.seed;
      options.drains = {{1, units::Seconds(150.0)}};
      FleetSimulator simulator(&PaperWorkload(), DefaultConfig(),
                               &SharedPredictor());
      auto fleet = simulator.Run(*population, options);
      ASSERT_TRUE(fleet.ok()) << fleet.status();

      RouterOptions router_options;
      router_options.num_nodes = options.num_nodes;
      router_options.target_mpl = options.target_mpl;
      router_options.policy = options.policy;
      sched::MixOracle routing_oracle(&SharedPredictor());
      Router router(&routing_oracle, router_options);
      bool drained = false;
      for (const sched::Request& r : population->requests) {
        if (!drained && !(r.arrival_time < options.drains[0].time)) {
          ASSERT_TRUE(router
                          .BeginDrain(options.drains[0].node,
                                      options.drains[0].time)
                          .ok());
          drained = true;
        }
        ASSERT_TRUE(router.Route(r).ok());
      }
      std::vector<std::vector<sched::Request>> per_node(
          static_cast<size_t>(options.num_nodes));
      for (size_t id = 0; id < router.assignments().size(); ++id) {
        const Assignment& a = router.assignments()[id];
        if (a.rejected) continue;
        sched::Request r = population->requests[id];
        r.arrival_time = a.effective_arrival;
        per_node[static_cast<size_t>(a.node)].push_back(r);
      }
      Rng root(options.seed);
      std::vector<QueryBlame> merged;
      for (int i = 0; i < options.num_nodes; ++i) {
        NodeOptions node_options;
        node_options.node_id = i;
        node_options.target_mpl = options.target_mpl;
        node_options.policy = options.node_policy;
        node_options.seed = root.Next();
        Node node(&PaperWorkload(), DefaultConfig(), &SharedPredictor(),
                  node_options);
        auto result = node.Run(per_node[static_cast<size_t>(i)]);
        ASSERT_TRUE(result.ok()) << result.status();
        ExpectBlameParity(*result);
        const std::vector<QueryBlame> blame =
            reference::ComputeNodeBlame(*result, node.oracle());
        merged.insert(merged.end(), blame.begin(), blame.end());
      }
      std::sort(merged.begin(), merged.end(),
                [](const QueryBlame& a, const QueryBlame& b) {
                  return a.request_id < b.request_id;
                });
      ExpectSameBlame(merged, fleet->blame);
    }
  }
}

}  // namespace
}  // namespace contender::fleet
