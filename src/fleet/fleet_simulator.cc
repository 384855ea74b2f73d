#include "fleet/fleet_simulator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace contender::fleet {

namespace {

/// Everything one node's execution task produces. Blame and the summary
/// are computed inside the task (against the node's own oracle) so the
/// assembly loop only concatenates.
struct NodeRun {
  NodeResult result;
  std::vector<QueryBlame> blame;
  FleetNodeSummary summary;
};

Status ValidateOptions(const FleetOptions& options) {
  if (options.num_nodes < 1) {
    return Status::InvalidArgument("FleetOptions: num_nodes must be >= 1");
  }
  if (options.target_mpl < 1) {
    return Status::InvalidArgument("FleetOptions: target_mpl must be >= 1");
  }
  if (options.threads < 0 || options.threads > ThreadPool::kMaxThreads) {
    return Status::InvalidArgument(
        "FleetOptions: threads must be in [0, " +
        std::to_string(ThreadPool::kMaxThreads) + "]");
  }
  if (options.tenant_quota < 0) {
    return Status::InvalidArgument("FleetOptions: tenant_quota must be >= 0");
  }
  for (const ScheduledDrain& drain : options.drains) {
    if (drain.node < 0 || drain.node >= options.num_nodes) {
      return Status::InvalidArgument(
          "FleetOptions: drain names an unknown node");
    }
    if (drain.time.value() < 0.0) {
      return Status::InvalidArgument(
          "FleetOptions: drain time must be non-negative");
    }
  }
  return Status::OK();
}

}  // namespace

FleetSimulator::FleetSimulator(const Workload* workload,
                               const sim::SimConfig& config,
                               const ContenderPredictor* predictor,
                               const sched::TemplateHealth* health)
    : workload_(workload),
      config_(config),
      predictor_(predictor),
      health_(health) {
  CONTENDER_CHECK(workload_ != nullptr);
  CONTENDER_CHECK(predictor_ != nullptr);
}

StatusOr<FleetResult> FleetSimulator::Run(const Population& population,
                                          const FleetOptions& options) const {
  CONTENDER_RETURN_IF_ERROR(ValidateOptions(options));

  // ---- Routing pass (sequential): fix every placement. ----------------
  sched::MixOracle::Options routing_oracle_options = options.oracle_options;
  routing_oracle_options.health = health_;
  sched::MixOracle routing_oracle(predictor_, routing_oracle_options);

  RouterOptions router_options;
  router_options.num_nodes = options.num_nodes;
  router_options.target_mpl = options.target_mpl;
  router_options.policy = options.policy;
  router_options.tenant_quota = options.tenant_quota;
  router_options.door = options.door;
  Router router(&routing_oracle, router_options);

  // Explicit drains interleave with the arrival scan by time (stable on
  // node id for simultaneous drains).
  std::vector<ScheduledDrain> drains = options.drains;
  std::stable_sort(drains.begin(), drains.end(),
                   [](const ScheduledDrain& a, const ScheduledDrain& b) {
                     return a.time < b.time;
                   });
  size_t next_drain = 0;
  for (const sched::Request& request : population.requests) {
    while (next_drain < drains.size() &&
           !(request.arrival_time < drains[next_drain].time)) {
      CONTENDER_RETURN_IF_ERROR(router.BeginDrain(
          drains[next_drain].node, drains[next_drain].time));
      ++next_drain;
    }
    CONTENDER_RETURN_IF_ERROR(router.Route(request).status());
  }
  // Drains past the last arrival still fail the predicted backlog over.
  for (; next_drain < drains.size(); ++next_drain) {
    CONTENDER_RETURN_IF_ERROR(
        router.BeginDrain(drains[next_drain].node, drains[next_drain].time));
  }

  const std::vector<Assignment>& assignments = router.assignments();
  CONTENDER_CHECK(assignments.size() == population.requests.size());

  // Per-node sub-streams: fleet-wide ids, effective arrivals. The node
  // itself remaps to dense local ids.
  std::vector<std::vector<sched::Request>> per_node(
      static_cast<size_t>(options.num_nodes));
  for (size_t id = 0; id < assignments.size(); ++id) {
    const Assignment& assignment = assignments[id];
    if (assignment.rejected) continue;
    sched::Request request = population.requests[id];
    request.arrival_time = assignment.effective_arrival;
    // Deadlines stay absolute: a failed-over request does not get SLA
    // credit for the time it spent stranded on the drained node.
    per_node[static_cast<size_t>(assignment.node)].push_back(request);
  }

  // ---- Execution pass (parallel): realize each node's sub-stream. -----
  // Seeds are drawn in node-id order before any task is submitted, and
  // results land in node-index slots, so the output is bit-identical at
  // every thread count.
  Rng root(options.seed);
  std::vector<uint64_t> node_seeds;
  node_seeds.reserve(static_cast<size_t>(options.num_nodes));
  for (int i = 0; i < options.num_nodes; ++i) {
    node_seeds.push_back(root.Next());
  }

  const int threads =
      options.threads > 0 ? options.threads : ThreadPool::DefaultThreads();
  ThreadPool pool(threads);
  std::vector<StatusOr<NodeRun>> node_runs = pool.Map(
      static_cast<size_t>(options.num_nodes),
      [this, &per_node, &node_seeds, &options](size_t i) -> StatusOr<NodeRun> {
        NodeOptions node_options;
        node_options.node_id = static_cast<int>(i);
        node_options.target_mpl = options.target_mpl;
        node_options.policy = options.node_policy;
        node_options.seed = node_seeds[i];
        node_options.oracle_options = options.oracle_options;
        node_options.overload = options.node_overload;
        Node node(workload_, config_, predictor_, node_options, health_);
        NodeRun run;
        CONTENDER_ASSIGN_OR_RETURN(run.result, node.Run(per_node[i]));
        run.blame = ComputeNodeBlame(run.result, node.oracle());
        run.summary.node_id = static_cast<int>(i);
        run.summary.requests = run.result.schedule.outcomes.size();
        run.summary.makespan = run.result.schedule.makespan;
        run.summary.oracle_evaluations = node.oracle().evaluations();
        run.summary.oracle_degradations = node.oracle().degradations();
        run.summary.queue_sheds = run.result.schedule.queue_sheds;
        run.summary.final_admission_limit =
            run.result.schedule.final_admission_limit;
        run.summary.limit_decreases = run.result.schedule.limit_decreases;
        return run;
      });

  // ---- Assembly (sequential, node order). ------------------------------
  FleetResult fleet;
  fleet.router = router.stats();
  fleet.door = router.door_stats();
  fleet.outcomes.resize(population.requests.size());
  for (size_t id = 0; id < population.requests.size(); ++id) {
    FleetQueryOutcome& out = fleet.outcomes[id];
    out.request = population.requests[id];
    out.node = assignments[id].node;
    out.rejected = assignments[id].rejected;
    out.shed_reason = assignments[id].shed_reason;
    out.failed_over = assignments[id].failed_over;
    out.degraded_route = assignments[id].degraded;
  }

  fleet.nodes.reserve(node_runs.size());
  for (StatusOr<NodeRun>& node_run : node_runs) {
    CONTENDER_ASSIGN_OR_RETURN(NodeRun run, std::move(node_run));
    for (size_t local = 0; local < run.result.schedule.outcomes.size();
         ++local) {
      const sched::RequestOutcome& outcome =
          run.result.schedule.outcomes[local];
      const int id = run.result.global_ids[local];
      FleetQueryOutcome& out = fleet.outcomes[static_cast<size_t>(id)];
      CONTENDER_CHECK(!out.rejected && !out.completed && !out.shed);
      if (outcome.shed) {
        out.shed = true;
        out.shed_reason = outcome.shed_reason;
        out.queue_wait = outcome.queue_wait;
        continue;
      }
      out.completed = outcome.completed;
      out.admit_time = outcome.admit_time;
      out.execution_latency = outcome.execution_latency;
      out.completion_time = outcome.completion_time;
      out.predicted_latency = outcome.predicted_latency;
      out.missed_deadline = outcome.missed_deadline;
      // Fleet-level clocks run from the *original* arrival, so failover
      // stranding shows up as queue wait and response time.
      out.queue_wait = outcome.admit_time - out.request.arrival_time;
      out.response_time = outcome.completion_time - out.request.arrival_time;
    }
    if (run.result.schedule.makespan.value() > fleet.makespan.value()) {
      fleet.makespan = run.result.schedule.makespan;
    }
    fleet.blame.insert(fleet.blame.end(), run.blame.begin(), run.blame.end());
    fleet.nodes.push_back(run.summary);
  }

  // Every routed request must have been realized (or deliberately shed,
  // with a stamped reason) by exactly one node.
  for (const FleetQueryOutcome& out : fleet.outcomes) {
    CONTENDER_CHECK(out.rejected || out.completed || out.shed);
  }
  std::sort(fleet.blame.begin(), fleet.blame.end(),
            [](const QueryBlame& a, const QueryBlame& b) {
              return a.request_id < b.request_id;
            });
  return fleet;
}

}  // namespace contender::fleet
