// Fleet-level placement: which node gets each arriving request.
//
// The router is the fleet's belief holder. It never sees ground-truth
// execution — it maintains a *predicted* per-node state machine (running
// mixes and FIFO backlogs advanced on predicted completions, the same
// L(c|M) estimates the single-node policies admit on) and routes against
// that belief, exactly as a real front-end routes on load reports rather
// than on the future. Placement decisions are therefore a pure function
// of (options, oracle, arrival stream, chaos seed) and bit-exactly
// reproducible; the execution pass later realizes each node's stream on
// the real sim::Engine.
//
// Policies:
//   kRoundRobin       cyclic over healthy nodes; the placement baseline.
//   kLeastLoaded      fewest outstanding (predicted running + backlog).
//   kContentionAware  minimize predicted wait + L(c|M)/L_iso slowdown of
//                     the candidate inside the node's predicted running
//                     mix. L(c|M) is the oracle's degradation-ladder
//                     answer: when the request's template has an open
//                     circuit breaker it comes from tier 1 (transferred
//                     QS). Requests routed with an open breaker are
//                     counted in stats().degraded_routes.
//
// Drain/failover: BeginDrain (explicit, or fired by the seeded
// "fleet.node.drain" fail point — one evaluation per Route call, so chaos
// replays are bit-exact from the root seed alone) marks a node draining:
// it finishes its predicted-running queries but accepts nothing new, and
// every request still in its predicted backlog is immediately re-routed
// through the active policy among the remaining healthy nodes (counted in
// stats().failovers). The last healthy node can never drain.
//
// Tenancy: an optional per-tenant quota caps outstanding (predicted
// unfinished) requests fleet-wide; a request over quota is rejected at
// the door and never reaches a node.
//
// Thread-compat: a Router is externally synchronized by design — the
// routing pass is a sequential scan of the arrival stream (Route calls
// must have non-decreasing arrival times). All cross-thread work happens
// downstream in the execution pass, where nodes are independent.

#ifndef CONTENDER_FLEET_ROUTER_H_
#define CONTENDER_FLEET_ROUTER_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "overload/door_control.h"
#include "sched/mix_oracle.h"
#include "sched/request.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender::fleet {

enum class RoutePolicy {
  kRoundRobin,
  kLeastLoaded,
  kContentionAware,
};

[[nodiscard]] const std::string& RoutePolicyName(RoutePolicy policy);
[[nodiscard]] const std::vector<RoutePolicy>& AllRoutePolicies();

struct RouterOptions {
  int num_nodes = 4;
  /// Per-node MPL budget the predicted state machines admit against
  /// (must match the MPL the execution pass runs nodes at).
  int target_mpl = 3;
  RoutePolicy policy = RoutePolicy::kContentionAware;
  /// Max outstanding (predicted unfinished) requests per tenant across
  /// the whole fleet; 0 = unlimited.
  int tenant_quota = 0;
  /// Door-side overload control (DESIGN.md §16): CoDel on predicted wait,
  /// the criticality brownout ladder, the metastability detector, and the
  /// predicted-working-set memory budget. Off by default; quota
  /// enforcement runs through the door either way so every rejection
  /// carries a ShedReason.
  overload::DoorOptions door;
};

/// Where one request ended up after the routing pass.
struct Assignment {
  /// Final node, or -1 when rejected.
  int node = -1;
  /// When the request became available on its final node: the original
  /// arrival, or the drain instant for failed-over requests.
  units::Seconds effective_arrival;
  bool rejected = false;
  /// Why the door shed it (meaningful only when `rejected`; every
  /// rejection is stamped — lint rule R10).
  overload::ShedReason shed_reason = overload::ShedReason::kQuota;
  /// True when a drain moved the request off its first node.
  bool failed_over = false;
  /// True when the request's template had an open circuit breaker when
  /// it was placed (its predicted latency started at ladder tier 1).
  bool degraded = false;
};

/// One drain occurrence (explicit or chaos-fired).
struct DrainEvent {
  int node = -1;
  units::Seconds time;
  /// Backlog requests re-routed off the node by this drain.
  int failovers = 0;
};

struct RouterStats {
  uint64_t routed = 0;
  uint64_t rejected = 0;
  /// Door rejections broken out by stamped reason (sums to `rejected`).
  std::map<overload::ShedReason, uint64_t> rejected_by_reason;
  uint64_t failovers = 0;
  uint64_t degraded_routes = 0;
  std::vector<DrainEvent> drains;
};

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
  /// still change) is read back through assignments(). An out-of-order id
  /// or arrival, or a template index outside the oracle's templates, is
  /// InvalidArgument and leaves the router untouched.
  StatusOr<int> Route(const sched::Request& request);

  /// Marks `node` draining as of `now` and fails its predicted backlog
  /// over to the remaining healthy nodes. Every node is first advanced to
  /// `now`, so failovers see no predicted completion already in the past,
  /// and `now` becomes the routing pass's clock. No-op when already
  /// draining; InvalidArgument for an unknown node or a `now` before the
  /// last routed arrival; FailedPrecondition when it would drain the last
  /// healthy node.
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
  friend class RouterTestPeer;

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
    /// Isolated latency of each backlogged request, in backlog order from
    /// `backlog_head` on: the replay's input, contiguous and free of
    /// oracle calls. The consumed prefix is dropped once it is at least
    /// half the array.
    std::vector<double> backlog_isolated;
    size_t backlog_head = 0;
    /// The slot-free instants (absolute, ascending, target_mpl of them)
    /// left once the whole backlog has been replayed over the running
    /// completions; replay[0] is when one more request could start. Empty
    /// while stale. PredictedWait builds it on a full node, Place extends
    /// it by one step per request backlogged after that, and only
    /// Advance's pop of a predicted completion (which changes the running
    /// set) drops it, so a backlog is replayed once per promotion.
    std::vector<double> replay;
    /// Predicted outstanding working-set bytes (running + backlog), from
    /// the profiles' LearnedWMP-style footprints. Footprints are
    /// integer-valued, so sums below 2^53 are exact in any order.
    units::Bytes bytes{0.0};
    bool draining = false;
  };

  /// Advances one node's predicted state to `now`: pops predicted
  /// completions and promotes backlog head(s) into freed slots.
  void Advance(NodeState* node, units::Seconds now);

  /// Makes `request` outstanding on `node` at `now` (tenant and byte
  /// ledgers included): into a free slot or the backlog.
  void Place(NodeState* node, const sched::Request& request,
             units::Seconds now);

  /// Starts `request` in a free slot of `node` at `now`: predicted
  /// completion = now + predicted in-mix latency.
  void Start(NodeState* node, const sched::Request& request,
             units::Seconds now);

  /// The templates running on `node`, in mix_: one probe's mix, filled
  /// without allocating once mix_ has grown to the MPL.
  [[nodiscard]] std::span<const int> RunningTemplates(const NodeState& node);

  /// Predicted seconds until `node` can start one more request, given its
  /// current backlog depth (0 when a slot is free): replay[0] - now,
  /// rebuilding the replay first when it is stale. `node` must already be
  /// advanced to `now`.
  [[nodiscard]] double PredictedWait(NodeState* node, units::Seconds now);

  /// Fills healthy_ with the healthy (not draining) nodes, ascending.
  void FillHealthy();

  /// How many nodes are healthy.
  [[nodiscard]] int HealthyCount() const;

  /// Whether a routing step reads predicted waits: the contention-aware
  /// pick always does, and the door when `door_reads`. Route and
  /// BeginDrain build no replay otherwise.
  [[nodiscard]] bool WaitsRead(bool door_reads) const;

  /// The policy: picks among `candidates` (non-empty, healthy) for
  /// `request`; `waits` is FillWaits' waits_, empty when WaitsRead is
  /// false.
  [[nodiscard]] int PickNode(const std::vector<int>& candidates,
                             const std::vector<double>& waits,
                             const sched::Request& request);

  /// Ledger bookkeeping for one request joining (+1) or leaving (-1) the
  /// outstanding set of `node`: its tenant's count and the node's bytes.
  void Account(NodeState* node, int template_index, int tenant_id,
               int delta);

  /// Fills waits_ with the PredictedWait of each healthy_ node at `now`,
  /// aligned with it, when `read`; empties it otherwise. Route computes
  /// them once for both the door's queue-delay signal and the pick.
  void FillWaits(bool read, units::Seconds now);

  const sched::MixOracle* const oracle_;
  const RouterOptions options_;
  std::vector<NodeState> nodes_;
  std::vector<Assignment> assignments_;
  /// Outstanding (predicted unfinished) requests per tenant, fleet-wide.
  std::map<int, int> tenant_outstanding_;
  RouterStats stats_;
  overload::DoorController door_;
  uint64_t predicted_completions_ = 0;
  /// Round-robin cursor (counts placements, not nodes, so draining nodes
  /// are skipped without skew).
  uint64_t round_robin_next_ = 0;
  /// Next chaos-drain victim (rotates over nodes).
  int next_chaos_drain_ = 0;
  /// Scratch for RunningTemplates, FillHealthy and FillWaits: a route
  /// allocates nothing once they have grown. A chaos drain runs before
  /// Route fills healthy_ and waits_, so one pair serves both.
  std::vector<int> mix_;
  std::vector<int> healthy_;
  std::vector<double> waits_;
  /// Clock of the routing pass: the last routed arrival or drain instant,
  /// -inf before the first of either (Route and BeginDrain enforce
  /// monotonicity against it).
  units::Seconds last_arrival_{-std::numeric_limits<double>::infinity()};
};

}  // namespace contender::fleet

#endif  // CONTENDER_FLEET_ROUTER_H_
