// The fleet orchestration layer: N Nodes behind a Router, fed by a
// multi-tenant ClientPopulation, with drain/failover chaos and per-query
// blame attribution. Composes every layer below it — core predictor
// (via MixOracle), sim::Engine (via each Node's ScheduleSimulator),
// sched policies, the serve health/failpoint machinery and util's thread
// pool — under one deterministic two-pass run:
//
//   Routing pass (sequential):   the Router scans the merged arrival
//     stream in time order and fixes every request's placement against
//     its *predicted* node states (plus quota rejections, chaos drains
//     and failovers). Placements are final after this pass.
//   Execution pass (parallel):   each node realizes its fixed sub-stream
//     on a private sim::Engine through its own MixOracle and MPL budget.
//     Nodes share nothing mutable, so the pass fans out over a
//     ThreadPool; per-node seeds are pre-derived in node-id order and
//     results land in node-index slots, making the whole FleetResult
//     bit-identical at every thread count (the PR 1 determinism idiom).
//
// Blame attribution (fleet/blame.h) then decomposes each query's
// realized slowdown across its co-residents, the per-tenant
// accountability signal FleetMetrics aggregates.

#ifndef CONTENDER_FLEET_FLEET_SIMULATOR_H_
#define CONTENDER_FLEET_FLEET_SIMULATOR_H_

#include <vector>

#include "fleet/blame.h"
#include "fleet/node.h"
#include "fleet/population.h"
#include "fleet/router.h"
#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sim/config.h"
#include "util/statusor.h"
#include "util/units.h"
#include "workload/workload.h"

namespace contender::fleet {

/// An explicit (non-chaos) drain: `node` stops accepting work at `time`.
struct ScheduledDrain {
  int node = -1;
  units::Seconds time;
};

struct FleetOptions {
  int num_nodes = 4;
  /// Per-node MPL budget (router belief and node execution both use it).
  int target_mpl = 3;
  /// Fleet placement policy.
  RoutePolicy policy = RoutePolicy::kContentionAware;
  /// Per-node local admission policy.
  sched::PolicyKind node_policy = sched::PolicyKind::kGreedyContention;
  /// Max outstanding requests per tenant fleet-wide; 0 = unlimited.
  int tenant_quota = 0;
  /// Root seed: node engine/instance seeds derive from it in node order.
  uint64_t seed = 42;
  /// Execution-pass parallelism; 0 = hardware concurrency. Results are
  /// bit-identical for every value.
  int threads = 1;
  /// Explicit drains, applied at their times during the routing pass
  /// (chaos drains additionally fire from the "fleet.node.drain" fail
  /// point).
  std::vector<ScheduledDrain> drains;
  /// Options for the router's and every node's MixOracle. The simulator's
  /// own `health` (constructor) replaces Options::health.
  sched::MixOracle::Options oracle_options;
  /// Door-side overload control for the router (DESIGN.md §16).
  overload::DoorOptions door;
  /// Node-level overload control, forwarded into every node.
  overload::NodeOverloadOptions node_overload;
};

/// One request's journey through the fleet. Latency fields are only
/// meaningful when `completed`; a rejected request never executes.
struct FleetQueryOutcome {
  /// The original population request (fleet-wide id, original arrival).
  sched::Request request;
  /// Final executing node; -1 when rejected.
  int node = -1;
  /// Shed at the router door (never reached a node).
  bool rejected = false;
  /// Shed by node-level overload control after admission to a node.
  bool shed = false;
  /// Why the drop happened (meaningful when `rejected` or `shed`; every
  /// drop is stamped — lint rule R10).
  overload::ShedReason shed_reason = overload::ShedReason::kQuota;
  bool failed_over = false;
  /// The placement decision descended the degradation ladder.
  bool degraded_route = false;
  bool completed = false;
  bool missed_deadline = false;
  units::Seconds admit_time;
  /// admit - original fleet arrival (includes time stranded on a drained
  /// node's backlog before failover).
  units::Seconds queue_wait;
  units::Seconds execution_latency;
  units::Seconds completion_time;
  /// completion - original fleet arrival: the fleet-level SLA clock.
  units::Seconds response_time;
  /// The node admission loop's in-mix prediction for this request.
  units::Seconds predicted_latency;
};

/// Per-node execution summary.
struct FleetNodeSummary {
  int node_id = 0;
  size_t requests = 0;
  units::Seconds makespan;
  /// In-mix predictions the node's oracle evaluated, and those it made
  /// while the template's breaker was open (the degradation ladder then
  /// starts at tier 1, transferred QS).
  uint64_t oracle_evaluations = 0;
  uint64_t oracle_degradations = 0;
  /// Node overload control: requests CoDel-shed off the local queue and
  /// the AIMD limiter's final state.
  uint64_t queue_sheds = 0;
  int final_admission_limit = 0;
  uint64_t limit_decreases = 0;
};

struct FleetResult {
  /// Indexed by fleet-wide request id.
  std::vector<FleetQueryOutcome> outcomes;
  /// Last completion across all nodes.
  units::Seconds makespan;
  RouterStats router;
  /// The router door's overload ledger (sheds by reason, recovery
  /// entries, brownout transitions, chaos sheds).
  overload::DoorStats door;
  /// Per-query blame decompositions, ordered by request id (rejected
  /// requests carry none).
  std::vector<QueryBlame> blame;
  std::vector<FleetNodeSummary> nodes;
};

class FleetSimulator {
 public:
  /// `workload` and `predictor` must outlive the simulator. `health`, when
  /// given, wires the serve-layer breaker bank into the router's and every
  /// node's oracle (the degradation ladder at fleet scale); it must also
  /// outlive the simulator.
  FleetSimulator(const Workload* workload, const sim::SimConfig& config,
                 const ContenderPredictor* predictor,
                 const sched::TemplateHealth* health = nullptr);

  /// Runs the population to completion. Bit-exactly deterministic for a
  /// fixed (population, options, chaos root seed) at any thread count.
  StatusOr<FleetResult> Run(const Population& population,
                            const FleetOptions& options) const;

 private:
  const Workload* workload_;
  sim::SimConfig config_;
  const ContenderPredictor* predictor_;
  const sched::TemplateHealth* health_;
};

}  // namespace contender::fleet

#endif  // CONTENDER_FLEET_FLEET_SIMULATOR_H_
