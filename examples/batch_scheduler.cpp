// Admission control with CQPP (the paper's motivating application, §1):
// train Contender, generate one deterministic arrival stream, and run it
// through the sched/ admission controller under FIFO and under the greedy
// contention-aware policy. Everything interesting — queueing, policy
// scoring, prediction caching, execution — lives in src/sched/; this file
// only wires a workload to it and prints the comparison.
//
//   ./build/examples/batch_scheduler [--seed=42] [--requests=24] [--mpl=3]

#include <iostream>
#include <utility>

#include "core/predictor.h"
#include "scenario/scenario.h"
#include "sched/metrics.h"
#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sched/request.h"
#include "sched/simulator.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "workload/sampler.h"

using namespace contender;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Workload workload = Workload::Paper();
  sim::SimConfig machine;

  WorkloadSampler::Options sampling;
  sampling.seed = flags.Seed();
  WorkloadSampler sampler(&workload, machine, sampling);
  std::cout << "Training Contender...\n";
  auto data = sampler.CollectAll();
  CONTENDER_CHECK(data.ok()) << data.status();
  auto predictor = ContenderPredictor::Train(
      data->profiles, data->scan_times, data->observations,
      ContenderPredictor::Options{});
  CONTENDER_CHECK(predictor.ok()) << predictor.status();

  // One shared arrival stream: both policies face the identical batch.
  std::vector<units::Seconds> reference;
  for (const TemplateProfile& p : data->profiles) {
    reference.push_back(p.isolated_latency);
  }
  scenario::ScenarioParams arrivals;
  arrivals.num_requests = flags.GetInt("requests", 24);
  arrivals.mean_interarrival = units::Seconds(30.0);
  arrivals.seed = flags.Seed();
  auto generated = scenario::FindScenario(scenario::kPoissonSteadyName)
                       ->GenerateTrace(reference, arrivals);
  CONTENDER_CHECK(generated.ok()) << generated.status();
  const std::vector<sched::Request> requests =
      std::move(generated->requests);

  sched::ScheduleSimulator simulator(&workload, machine);
  sched::MixOracle oracle(&*predictor);
  sched::ScheduleOptions options;
  options.target_mpl = flags.GetInt("mpl", 3);
  options.seed = flags.Seed();

  TablePrinter table({"Policy", "Makespan", "Mean wait", "p95 resp",
                      "Speedup"});
  units::Seconds fifo_makespan;
  for (sched::PolicyKind kind : {sched::PolicyKind::kFifo,
                                 sched::PolicyKind::kGreedyContention}) {
    auto policy = sched::MakePolicy(kind);
    auto result = simulator.Run(requests, policy.get(), &oracle, options);
    CONTENDER_CHECK(result.ok()) << result.status();
    const sched::ScheduleMetrics m = ComputeScheduleMetrics(*result);
    if (kind == sched::PolicyKind::kFifo) fifo_makespan = m.makespan;
    table.AddRow({policy->name(),
                  FormatDouble(m.makespan.value(), 0) + " s",
                  FormatDouble(m.mean_queue_wait.value(), 0) + " s",
                  FormatDouble(m.p95_response.value(), 0) + " s",
                  FormatDouble(fifo_makespan.value() / m.makespan.value(),
                               2) + "x"});
  }
  table.Print(std::cout);
  std::cout << "\nThe contention-aware policy admits queries that share "
               "scans with the running mix and defers mutually "
               "antagonistic ones.\n";
  return 0;
}
