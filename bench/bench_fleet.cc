// Cluster-scale fleet simulation: routes a multi-tenant open-loop
// population across N nodes under every placement policy and sweeps the
// nodes × policy × tenant-skew grid, reporting fleet makespan, response
// percentiles, SLA misses, failovers and the per-tenant blame ledgers.
// The headline: contention-aware routing — placing each query where its
// predicted slowdown ratio (wait + L(c|M)) / L_iso is smallest — beats
// round-robin on makespan, p95 response and SLA misses on the grid
// aggregate at the default seed (checked, like bench_scheduler's
// greedy-vs-FIFO win).
//
//   ./build/bench/bench_fleet [--seed=42] [--requests=96]
//       [--mean_interarrival=25] [--tenants=4] [--mpl=3]
//       [--deadline_probability=0.6] [--json=BENCH_fleet.json]
//
// Also property-checks fleet determinism inline: every cell re-runs at a
// different thread count and must be bit-identical.

#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "bench_support.h"
#include "fleet/fleet_simulator.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/router.h"
#include "scenario/scenario.h"

using namespace contender;
using namespace contender::fleet;

namespace {

bool SameFleet(const FleetResult& a, const FleetResult& b) {
  if (a.makespan != b.makespan || a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.outcomes[i].node != b.outcomes[i].node ||
        a.outcomes[i].completion_time != b.outcomes[i].completion_time ||
        a.outcomes[i].response_time != b.outcomes[i].response_time) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::cout << "Training Contender on the TPC-DS-like workload...\n";
  bench::Experiment e = bench::CollectExperiment(flags);
  auto predictor =
      ContenderPredictor::Train(e.data.profiles, e.data.scan_times,
                                e.data.observations, {});
  CONTENDER_CHECK(predictor.ok()) << predictor.status();

  std::vector<units::Seconds> reference;
  for (const TemplateProfile& p : e.data.profiles) {
    reference.push_back(p.isolated_latency);
  }

  const scenario::Scenario* poisson =
      scenario::FindScenario(scenario::kPoissonSteadyName);
  scenario::ScenarioParams population_options;
  population_options.num_tenants = flags.GetInt("tenants", 4);
  population_options.num_requests = flags.GetInt("requests", 96);
  population_options.mean_interarrival =
      units::Seconds(flags.GetDouble("mean_interarrival", 25.0));
  population_options.templates_per_tenant = 10;
  population_options.deadline_probability =
      flags.GetDouble("deadline_probability", 0.6);
  population_options.min_slack = flags.GetDouble("min_slack", 3.0);
  population_options.max_slack = flags.GetDouble("max_slack", 10.0);
  population_options.seed = e.seed;

  const int target_mpl = flags.GetInt("mpl", 3);
  const bool check_wins = flags.GetBool("check", true);
  const std::vector<int> node_counts = {2, 4};
  const std::vector<double> skews = {0.0, 1.5};

  TablePrinter table({"Nodes", "Skew", "Policy", "Makespan", "p95 resp",
                      "SLA miss", "Failover", "Degraded", "Blame recv"});
  bench::Json cells = bench::Json::Array();

  // Grid aggregates for the headline check.
  std::map<RoutePolicy, double> sum_makespan;
  std::map<RoutePolicy, double> sum_p95;
  std::map<RoutePolicy, double> sum_sla;

  for (int nodes : node_counts) {
    for (double skew : skews) {
      scenario::ScenarioParams cell_population = population_options;
      cell_population.skew = skew;
      auto population =
          GeneratePopulation(reference, cell_population, *poisson);
      CONTENDER_CHECK(population.ok()) << population.status();

      for (RoutePolicy policy : AllRoutePolicies()) {
        FleetSimulator simulator(&e.workload, e.config, &*predictor);
        FleetOptions options;
        options.num_nodes = nodes;
        options.target_mpl = target_mpl;
        options.policy = policy;
        options.seed = e.seed;
        options.threads = 1;
        auto result = simulator.Run(*population, options);
        CONTENDER_CHECK(result.ok()) << result.status();

        // Determinism property: the parallel execution pass must be
        // bit-identical to the serial one.
        options.threads = 4;
        auto replay = simulator.Run(*population, options);
        CONTENDER_CHECK(replay.ok()) << replay.status();
        CONTENDER_CHECK(SameFleet(*result, *replay))
            << "thread-count divergence: " << RoutePolicyName(policy)
            << " nodes=" << nodes << " skew=" << skew;

        const FleetMetrics m = ComputeFleetMetrics(*result);
        sum_makespan[policy] += m.makespan.value();
        sum_p95[policy] += m.p95_response.value();
        sum_sla[policy] += m.sla_miss_rate;

        double blame_received = 0.0;
        bench::Json tenants = bench::Json::Array();
        for (const auto& [tenant, totals] : m.blame_by_tenant) {
          blame_received += totals.received_s;
          bench::Json entry = bench::Json::Object();
          entry.Set("tenant", tenant)
              .Set("received_s", totals.received_s)
              .Set("inflicted_s", totals.inflicted_s)
              .Set("self_s", totals.self_s);
          const auto stats = m.per_tenant.find(tenant);
          if (stats != m.per_tenant.end()) {
            entry
                .Set("requests",
                     static_cast<uint64_t>(stats->second.requests))
                .Set("p95_response_s", stats->second.response.p95())
                .Set("sla_miss_rate", stats->second.sla_miss_rate());
          }
          tenants.Append(entry);
        }

        table.AddRow({std::to_string(nodes), FormatDouble(skew, 1),
                      RoutePolicyName(policy),
                      FormatDouble(m.makespan.value(), 0) + " s",
                      FormatDouble(m.p95_response.value(), 0) + " s",
                      FormatPercent(m.sla_miss_rate, 0),
                      std::to_string(m.failovers),
                      std::to_string(m.degraded_routes),
                      FormatDouble(blame_received, 0) + " s"});
        cells.Append(
            bench::Json::Object()
                .Set("nodes", nodes)
                .Set("skew", skew)
                .Set("policy", RoutePolicyName(policy))
                .Set("makespan_s", m.makespan.value())
                .Set("mean_response_s", m.mean_response.value())
                .Set("p50_response_s", m.p50_response.value())
                .Set("p95_response_s", m.p95_response.value())
                .Set("p99_response_s", m.p99_response.value())
                .Set("sla_miss_rate", m.sla_miss_rate)
                .Set("deadline_misses",
                     static_cast<uint64_t>(m.deadline_misses))
                .Set("rejected", static_cast<uint64_t>(m.rejected))
                .Set("failovers", m.failovers)
                .Set("degraded_routes", m.degraded_routes)
                .Set("total_excess_s", m.total_excess_s)
                .Set("total_self_blame_s", m.total_self_blame_s)
                .Set("mean_prediction_error", m.mean_prediction_error)
                .Set("tenants", tenants));
      }
    }
  }
  table.Print(std::cout);

  const double cell_count =
      static_cast<double>(node_counts.size() * skews.size());
  std::cout << "\nGrid aggregate (mean over " << node_counts.size() << "x"
            << skews.size() << " nodes x skew cells):\n";
  for (RoutePolicy policy : AllRoutePolicies()) {
    std::cout << "  " << RoutePolicyName(policy) << ": makespan "
              << FormatDouble(sum_makespan[policy] / cell_count, 0)
              << " s, p95 "
              << FormatDouble(sum_p95[policy] / cell_count, 0)
              << " s, SLA miss "
              << FormatPercent(sum_sla[policy] / cell_count, 1) << "\n";
  }

  const RoutePolicy ca = RoutePolicy::kContentionAware;
  const RoutePolicy rr = RoutePolicy::kRoundRobin;
  if (check_wins) {
    CONTENDER_CHECK(sum_makespan[ca] < sum_makespan[rr])
        << "contention-aware lost on grid makespan";
    CONTENDER_CHECK(sum_p95[ca] < sum_p95[rr])
        << "contention-aware lost on grid p95";
    CONTENDER_CHECK(sum_sla[ca] < sum_sla[rr])
        << "contention-aware lost on grid SLA misses";
    std::cout << "Contention-aware routing beats round-robin on makespan, "
                 "p95 and SLA misses on the grid aggregate (checked).\n";
  }

  const std::string json_path = flags.GetString("json", "BENCH_fleet.json");
  bench::Json root = bench::Json::Object();
  root.Set("bench", "fleet")
      .Set("seed", e.seed)
      .Set("requests",
           static_cast<uint64_t>(population_options.num_requests))
      .Set("tenants",
           static_cast<uint64_t>(population_options.num_tenants))
      .Set("target_mpl", target_mpl)
      .Set("mean_interarrival_s",
           population_options.mean_interarrival.value())
      .Set("deadline_probability",
           population_options.deadline_probability)
      .Set("cells", cells)
      .Set("aggregate",
           bench::Json::Object()
               .Set("contention_aware_makespan_s",
                    sum_makespan[ca] / cell_count)
               .Set("round_robin_makespan_s", sum_makespan[rr] / cell_count)
               .Set("contention_aware_p95_s", sum_p95[ca] / cell_count)
               .Set("round_robin_p95_s", sum_p95[rr] / cell_count)
               .Set("contention_aware_sla_miss", sum_sla[ca] / cell_count)
               .Set("round_robin_sla_miss", sum_sla[rr] / cell_count));
  bench::WriteJsonFile(json_path, root);
  std::cout << "Wrote " << json_path << "\n";
  return 0;
}
