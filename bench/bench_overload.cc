// The overload-control matrix: pushes three workload scenarios (steady
// Poisson, MMPP flash crowds, heavy-tailed tenants) through the fleet at
// ~3-6x its service rate under three admission regimes —
//
//   none          every arrival is admitted (the metastable baseline:
//                 queues grow without bound, deadlines die in line);
//   static-quota  the legacy per-tenant outstanding cap, the only
//                 pre-overload control the fleet had;
//   adaptive      the full DESIGN.md §16 stack: door CoDel + brownout
//                 ladder + metastability recovery, node AIMD limits and
//                 node CoDel queue shedding —
//
// and reports goodput (on-time completions per second), SLA misses, and
// every shed broken out by stamped ShedReason. The headline (checked at
// the default seed): under flash-crowd traffic the adaptive controller
// beats no-control on BOTH goodput and SLA miss rate on the grid
// aggregate — shedding the right work early is worth more than the work
// itself. Also property-checked inline: every cell is bit-identical when
// re-run at a different thread count, and a chaos-armed cell
// ("overload.door.shed") replays bit-exactly from the fail-point root
// seed alone.
//
//   ./build/bench/bench_overload [--seed=42] [--requests=96]
//       [--mean_interarrival=4] [--tenants=6] [--mpl=3]
//       [--deadline_probability=0.6] [--json=BENCH_overload.json]

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
#include "overload/shed_reason.h"
#include "scenario/scenario.h"
#include "util/failpoint.h"

using namespace contender;
using namespace contender::fleet;

namespace {

struct ControlRegime {
  const char* name;
  void (*configure)(FleetOptions*);
};

const std::vector<ControlRegime>& Regimes() {
  static const std::vector<ControlRegime> regimes = {
      {"none", [](FleetOptions*) {}},
      {"static-quota",
       [](FleetOptions* options) { options->tenant_quota = 3; }},
      {"adaptive",
       [](FleetOptions* options) {
         options->door.enabled = true;
         options->node_overload.adaptive_limit = true;
         options->node_overload.codel_shed = true;
       }},
  };
  return regimes;
}

bool SameFleet(const FleetResult& a, const FleetResult& b) {
  if (a.makespan != b.makespan || a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const FleetQueryOutcome& x = a.outcomes[i];
    const FleetQueryOutcome& y = b.outcomes[i];
    if (x.node != y.node || x.rejected != y.rejected || x.shed != y.shed ||
        x.shed_reason != y.shed_reason ||
        x.completion_time != y.completion_time ||
        x.response_time != y.response_time) {
      return false;
    }
  }
  return true;
}

size_t ShedCount(const FleetMetrics& m, overload::ShedReason reason) {
  auto it = m.shed_by_reason.find(reason);
  return it == m.shed_by_reason.end() ? 0 : it->second;
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

  scenario::ScenarioParams population_options;
  population_options.num_tenants = flags.GetInt("tenants", 6);
  population_options.num_requests = flags.GetInt("requests", 96);
  // ~4 s between arrivals against node service times in the tens of
  // seconds: a sustained overload every regime must face.
  population_options.mean_interarrival =
      units::Seconds(flags.GetDouble("mean_interarrival", 4.0));
  population_options.skew = 1.0;
  population_options.templates_per_tenant = 10;
  population_options.deadline_probability =
      flags.GetDouble("deadline_probability", 0.6);
  population_options.min_slack = flags.GetDouble("min_slack", 3.0);
  population_options.max_slack = flags.GetDouble("max_slack", 10.0);
  population_options.seed = e.seed;

  const int target_mpl = flags.GetInt("mpl", 3);
  const bool check_wins = flags.GetBool("check", true);
  const std::vector<std::string> scenario_names = {
      "poisson-steady", "flash-crowd", "heavy-tail-tenants"};
  const std::vector<int> node_counts = {2, 4};

  TablePrinter table({"Scenario", "Nodes", "Control", "Goodput/s",
                      "Completed", "Shed", "q-delay", "quota", "brownout",
                      "SLA miss", "p95 resp"});
  bench::Json cells = bench::Json::Array();

  // Flash-crowd aggregates (summed over node counts) for the headline.
  std::map<std::string, double> crowd_goodput;
  std::map<std::string, double> crowd_sla;
  std::map<std::string, size_t> crowd_good;

  for (const std::string& scenario_name : scenario_names) {
    const scenario::Scenario* scenario =
        scenario::FindScenario(scenario_name);
    CONTENDER_CHECK(scenario != nullptr)
        << scenario_name << " missing from the scenario registry";
    auto population =
        GeneratePopulation(reference, population_options, *scenario);
    CONTENDER_CHECK(population.ok()) << population.status();

    for (int nodes : node_counts) {
      for (const ControlRegime& regime : Regimes()) {
        FleetSimulator simulator(&e.workload, e.config, &*predictor);
        FleetOptions options;
        options.num_nodes = nodes;
        options.target_mpl = target_mpl;
        options.seed = e.seed;
        options.threads = 1;
        regime.configure(&options);
        auto result = simulator.Run(*population, options);
        CONTENDER_CHECK(result.ok()) << result.status();

        // Determinism property: the execution pass fans out over a
        // thread pool, the result must not notice.
        options.threads = 4;
        auto replay = simulator.Run(*population, options);
        CONTENDER_CHECK(replay.ok()) << replay.status();
        CONTENDER_CHECK(SameFleet(*result, *replay))
            << "thread-count divergence: " << scenario_name << "/"
            << regime.name << " nodes=" << nodes;

        const FleetMetrics m = ComputeFleetMetrics(*result);
        // Conservation ledger: every offered request accounted exactly
        // once, in every cell.
        CONTENDER_CHECK(m.offered == m.completed + m.shed_total)
            << scenario_name << "/" << regime.name;
        CONTENDER_CHECK(m.admitted == m.completed + m.node_sheds)
            << scenario_name << "/" << regime.name;

        if (scenario_name == "flash-crowd") {
          crowd_goodput[regime.name] += m.goodput_per_s;
          crowd_sla[regime.name] += m.sla_miss_rate;
          crowd_good[regime.name] += m.good_completions;
        }

        const size_t queue_delay_sheds =
            ShedCount(m, overload::ShedReason::kQueueDelay);
        const size_t quota_sheds =
            ShedCount(m, overload::ShedReason::kQuota);
        const size_t brownout_sheds =
            ShedCount(m, overload::ShedReason::kCriticalityBrownout);
        table.AddRow({scenario_name, std::to_string(nodes), regime.name,
                      FormatDouble(m.goodput_per_s, 4),
                      std::to_string(m.completed),
                      std::to_string(m.shed_total),
                      std::to_string(queue_delay_sheds),
                      std::to_string(quota_sheds),
                      std::to_string(brownout_sheds),
                      FormatPercent(m.sla_miss_rate, 0),
                      FormatDouble(m.p95_response.value(), 0) + " s"});

        bench::Json sheds = bench::Json::Object();
        for (overload::ShedReason reason : overload::AllShedReasons()) {
          sheds.Set(overload::ShedReasonName(reason),
                    static_cast<uint64_t>(ShedCount(m, reason)));
        }
        cells.Append(
            bench::Json::Object()
                .Set("scenario", scenario_name)
                .Set("nodes", nodes)
                .Set("control", regime.name)
                .Set("goodput_per_s", m.goodput_per_s)
                .Set("good_completions",
                     static_cast<uint64_t>(m.good_completions))
                .Set("offered", static_cast<uint64_t>(m.offered))
                .Set("admitted", static_cast<uint64_t>(m.admitted))
                .Set("completed", static_cast<uint64_t>(m.completed))
                .Set("rejected", static_cast<uint64_t>(m.rejected))
                .Set("node_sheds", static_cast<uint64_t>(m.node_sheds))
                .Set("shed_total", static_cast<uint64_t>(m.shed_total))
                .Set("shed_by_reason", sheds)
                .Set("sla_miss_rate", m.sla_miss_rate)
                .Set("makespan_s", m.makespan.value())
                .Set("p95_response_s", m.p95_response.value())
                .Set("mean_queue_wait_s", m.mean_queue_wait.value())
                .Set("recovery_entries", result->door.recovery_entries)
                .Set("recovery_sheds", result->door.recovery_sheds)
                .Set("brownout_escalations",
                     result->door.brownout_escalations));
      }
    }
  }
  table.Print(std::cout);

  // Chaos replay property: with the door's fail point armed, a run is a
  // pure function of the fail-point root seed — at any thread count.
  {
    const scenario::Scenario* crowd = scenario::FindScenario("flash-crowd");
    auto population =
        GeneratePopulation(reference, population_options, *crowd);
    CONTENDER_CHECK(population.ok()) << population.status();
    FleetOptions options;
    options.num_nodes = 4;
    options.target_mpl = target_mpl;
    options.seed = e.seed;
    Regimes()[2].configure(&options);

    auto& registry = FailPointRegistry::Global();
    FleetSimulator simulator(&e.workload, e.config, &*predictor);
    registry.SetRootSeed(e.seed);
    registry.ArmProbability("overload.door.shed", 0.05);
    options.threads = 1;
    auto chaos_serial = simulator.Run(*population, options);
    registry.SetRootSeed(e.seed);
    registry.ArmProbability("overload.door.shed", 0.05);
    options.threads = 4;
    auto chaos_parallel = simulator.Run(*population, options);
    registry.Disarm("overload.door.shed");
    CONTENDER_CHECK(chaos_serial.ok()) << chaos_serial.status();
    CONTENDER_CHECK(chaos_parallel.ok()) << chaos_parallel.status();
    CONTENDER_CHECK(chaos_serial->door.chaos_sheds > 0)
        << "door chaos never fired at p=0.05";
    CONTENDER_CHECK(SameFleet(*chaos_serial, *chaos_parallel))
        << "chaos-armed run diverged across thread counts";
    std::cout << "\nChaos replay: " << chaos_serial->door.chaos_sheds
              << " injected door sheds, bit-identical at 1 and 4 threads "
                 "(checked).\n";
  }

  const double cell_count = static_cast<double>(node_counts.size());
  std::cout << "\nFlash-crowd aggregate (mean over " << node_counts.size()
            << " node counts):\n";
  for (const ControlRegime& regime : Regimes()) {
    std::cout << "  " << regime.name << ": goodput "
              << FormatDouble(crowd_goodput[regime.name] / cell_count, 4)
              << "/s, SLA miss "
              << FormatPercent(crowd_sla[regime.name] / cell_count, 1)
              << ", on-time completions "
              << crowd_good[regime.name] << "\n";
  }

  if (check_wins) {
    CONTENDER_CHECK(crowd_goodput["adaptive"] > crowd_goodput["none"])
        << "adaptive control lost on flash-crowd goodput";
    CONTENDER_CHECK(crowd_sla["adaptive"] < crowd_sla["none"])
        << "adaptive control lost on flash-crowd SLA misses";
    // The blunt quota also posts good rates — by rejecting most of the
    // offered work outright. The controller must beat it on the absolute
    // amount of on-time work delivered, or "shed the right work" is just
    // "shed most work".
    CONTENDER_CHECK(crowd_good["adaptive"] > crowd_good["static-quota"])
        << "adaptive control delivered less on-time work than the "
           "static quota";
    std::cout << "Adaptive overload control beats no-control on goodput "
                 "AND SLA misses, and beats the static quota on on-time "
                 "completions, under flash-crowd traffic (checked).\n";
  }

  const std::string json_path =
      flags.GetString("json", "BENCH_overload.json");
  bench::Json root = bench::Json::Object();
  root.Set("bench", "overload")
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
               .Set("flash_crowd_goodput_none",
                    crowd_goodput["none"] / cell_count)
               .Set("flash_crowd_goodput_quota",
                    crowd_goodput["static-quota"] / cell_count)
               .Set("flash_crowd_goodput_adaptive",
                    crowd_goodput["adaptive"] / cell_count)
               .Set("flash_crowd_sla_none", crowd_sla["none"] / cell_count)
               .Set("flash_crowd_sla_quota",
                    crowd_sla["static-quota"] / cell_count)
               .Set("flash_crowd_sla_adaptive",
                    crowd_sla["adaptive"] / cell_count));
  bench::WriteJsonFile(json_path, root);
  std::cout << "Wrote " << json_path << "\n";
  return 0;
}
