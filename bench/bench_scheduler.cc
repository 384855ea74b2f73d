// The paper's motivating application (§1): admission control for concurrent
// analytical workloads driven by CQPP. Trains Contender, generates one
// deterministic arrival stream over the TPC-DS-like workload, and executes
// it under every admission policy at MPL 2-5, reporting makespan, response
// percentiles, SLA misses and per-admission prediction error. The headline:
// the greedy contention-aware policy beats FIFO on makespan and p95 at
// every MPL using nothing but the predictor's in-mix latency estimates.
//
//   ./build/bench/bench_scheduler [--seed=42] [--requests=32]
//       [--mean_interarrival=25] [--deadline_probability=0.5]

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "bench_support.h"
#include "scenario/scenario.h"
#include "sched/metrics.h"
#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sched/request.h"
#include "sched/simulator.h"

using namespace contender;
using namespace contender::sched;

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
  scenario::ScenarioParams arrivals;
  arrivals.num_requests = flags.GetInt("requests", 32);
  arrivals.mean_interarrival =
      units::Seconds(flags.GetDouble("mean_interarrival", 25.0));
  arrivals.deadline_probability =
      flags.GetDouble("deadline_probability", 0.5);
  arrivals.min_slack = flags.GetDouble("min_slack", 3.0);
  arrivals.max_slack = flags.GetDouble("max_slack", 10.0);
  arrivals.seed = e.seed;
  auto generated = scenario::FindScenario(scenario::kPoissonSteadyName)
                       ->GenerateTrace(reference, arrivals);
  CONTENDER_CHECK(generated.ok()) << generated.status();
  const std::vector<Request> requests = std::move(generated->requests);
  std::cout << "Arrival stream: " << requests.size() << " requests, mean "
            << "interarrival " << FormatDouble(
                   arrivals.mean_interarrival.value(), 0)
            << " s, deadlines on "
            << FormatPercent(arrivals.deadline_probability, 0)
            << " of requests\n\n";

  const bool check_wins = flags.GetBool("check", true);
  ScheduleSimulator simulator(&e.workload, e.config);
  TablePrinter table({"Policy", "MPL", "Makespan", "Mean wait", "p95 resp",
                      "p99 resp", "SLA miss", "Pred err"});
  MixOracle oracle(&*predictor);
  bench::Json runs = bench::Json::Array();

  for (int mpl : {2, 3, 4, 5}) {
    ScheduleOptions options;
    options.target_mpl = mpl;
    options.seed = e.seed;
    ScheduleMetrics fifo_metrics;
    ScheduleMetrics greedy_metrics;
    for (PolicyKind kind : AllPolicyKinds()) {
      auto policy = MakePolicy(kind);
      auto result = simulator.Run(requests, policy.get(), &oracle, options);
      CONTENDER_CHECK(result.ok()) << result.status();

      const ScheduleMetrics m = ComputeScheduleMetrics(*result);
      if (kind == PolicyKind::kFifo) fifo_metrics = m;
      if (kind == PolicyKind::kGreedyContention) greedy_metrics = m;
      table.AddRow({policy->name(), std::to_string(mpl),
                    FormatDouble(m.makespan.value(), 0) + " s",
                    FormatDouble(m.mean_queue_wait.value(), 0) + " s",
                    FormatDouble(m.p95_response.value(), 0) + " s",
                    FormatDouble(m.p99_response.value(), 0) + " s",
                    FormatPercent(m.sla_miss_rate, 0),
                    FormatPercent(m.mean_prediction_error, 1)});
      runs.Append(bench::Json::Object()
                      .Set("policy", policy->name())
                      .Set("mpl", mpl)
                      .Set("makespan_s", m.makespan.value())
                      .Set("mean_queue_wait_s", m.mean_queue_wait.value())
                      .Set("p95_response_s", m.p95_response.value())
                      .Set("p99_response_s", m.p99_response.value())
                      .Set("sla_miss_rate", m.sla_miss_rate)
                      .Set("mean_prediction_error",
                           m.mean_prediction_error));
    }
    if (check_wins) {
      CONTENDER_CHECK(greedy_metrics.makespan < fifo_metrics.makespan)
          << "greedy-contention lost on makespan at MPL " << mpl;
      CONTENDER_CHECK(greedy_metrics.p95_response <
                      fifo_metrics.p95_response)
          << "greedy-contention lost on p95 at MPL " << mpl;
    }
  }
  table.Print(std::cout);

  std::cout << "\nOracle: " << oracle.evaluations() << " evaluations ("
            << oracle.fallbacks() << " fallbacks)\n";
  if (check_wins) {
    std::cout << "Greedy contention-aware beats FIFO on makespan and p95 "
                 "latency at every MPL (checked).\n";
  }

  const std::string json_path = flags.GetString("json", "BENCH_sched.json");
  bench::Json root = bench::Json::Object();
  root.Set("bench", "scheduler")
      .Set("seed", e.seed)
      .Set("requests", static_cast<uint64_t>(requests.size()))
      .Set("mean_interarrival_s", arrivals.mean_interarrival.value())
      .Set("deadline_probability", arrivals.deadline_probability)
      .Set("runs", runs)
      .Set("oracle", bench::Json::Object()
                         .Set("evaluations", oracle.evaluations())
                         .Set("fallbacks", oracle.fallbacks()));
  bench::WriteJsonFile(json_path, root);
  std::cout << "Wrote " << json_path << "\n";
  return 0;
}
