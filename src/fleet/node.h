// One simulated machine of the fleet: a sched::ScheduleSimulator (which
// drives a private sim::Engine) plus the node's own MixOracle and MPL
// budget. Nodes are independent once the router has fixed placements — no
// shared mutable state — so the fleet's execution pass runs them on a
// thread pool with bit-identical results at any thread count (seeds are
// pre-derived per node, results land in node-index slots).

#ifndef CONTENDER_FLEET_NODE_H_
#define CONTENDER_FLEET_NODE_H_

#include <memory>
#include <vector>

#include "sched/metrics.h"
#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sched/simulator.h"
#include "sim/config.h"
#include "util/statusor.h"
#include "workload/workload.h"

namespace contender::fleet {

struct NodeOptions {
  int node_id = 0;
  /// The node's MPL budget (slots held by its admission loop).
  int target_mpl = 3;
  /// Local admission policy the node runs over its own queue.
  sched::PolicyKind policy = sched::PolicyKind::kGreedyContention;
  /// Seeds the node's query-instance draws and engine (pre-derived by the
  /// fleet simulator from the root seed, in node-id order).
  uint64_t seed = 42;
  /// Options for the node's private MixOracle; the constructor's `health`
  /// replaces Options::health.
  sched::MixOracle::Options oracle_options;
  /// Node-level overload control forwarded into the schedule loop
  /// (adaptive AIMD limiter + queue-head CoDel). Off by default.
  overload::NodeOverloadOptions overload;
};

/// The realized execution of one node's assigned sub-stream.
struct NodeResult {
  int node_id = 0;
  /// Outcomes indexed by node-local id; requests inside carry local ids.
  sched::ScheduleResult schedule;
  /// Node-local id -> fleet-wide request id.
  std::vector<int> global_ids;
};

class Node {
 public:
  /// `workload` and `predictor` must outlive the node; the node builds its
  /// own MixOracle over the shared immutable predictor (optionally wired
  /// to the shared `health` breaker bank for the degradation ladder).
  Node(const Workload* workload, const sim::SimConfig& config,
       const ContenderPredictor* predictor, const NodeOptions& options,
       const sched::TemplateHealth* health = nullptr);

  /// Executes `assigned` (fleet-wide ids, any order; arrival times are the
  /// router's effective arrivals) to completion under the node's policy
  /// and MPL. Requests are remapped to dense node-local ids in
  /// (arrival, fleet id) order; NodeResult::global_ids maps back.
  StatusOr<NodeResult> Run(const std::vector<sched::Request>& assigned);

  [[nodiscard]] const sched::MixOracle& oracle() const { return *oracle_; }
  [[nodiscard]] const NodeOptions& options() const { return options_; }

 private:
  const NodeOptions options_;
  sched::ScheduleSimulator simulator_;
  std::unique_ptr<sched::MixOracle> oracle_;
  std::unique_ptr<sched::Policy> policy_;
};

}  // namespace contender::fleet

#endif  // CONTENDER_FLEET_NODE_H_
