// Capacity planning / cloud provisioning with CQPP (paper §1): pick the
// highest multiprogramming level at which every query of a recurring
// workload mix is predicted to meet its latency SLO, then validate the
// choice in the simulator.
//
//   ./build/examples/capacity_planner [--seed=42] [--slo_factor=3.5]

#include <iostream>

#include "core/predictor.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "workload/sampler.h"
#include "workload/steady_state.h"

using namespace contender;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Workload workload = Workload::Paper();
  sim::SimConfig machine;

  // SLO: each query must finish within slo_factor x isolated latency.
  const double slo_factor = flags.GetDouble("slo_factor", 3.5);

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

  // The recurring workload: analysts run these templates continuously.
  std::vector<int> pool = {workload.IndexOfId(15), workload.IndexOfId(26),
                           workload.IndexOfId(27), workload.IndexOfId(62),
                           workload.IndexOfId(71)};

  std::cout << "\nSLO: every query within " << slo_factor
            << "x of its isolated latency.\n\n";
  TablePrinter table({"MPL", "Predicted worst SLO ratio", "Meets SLO?",
                      "Observed worst ratio"});
  int chosen = 1;  // MPL 1 (isolation) always meets the SLO
  for (int mpl = 2; mpl <= 5; ++mpl) {
    // The mix at this MPL: the first `mpl` pool members.
    std::vector<int> mix(pool.begin(), pool.begin() + mpl);
    double worst_predicted = 0.0;
    for (size_t s = 0; s < mix.size(); ++s) {
      std::vector<int> partners;
      for (size_t o = 0; o < mix.size(); ++o) {
        if (o != s) partners.push_back(mix[o]);
      }
      auto pred = predictor->PredictKnown(mix[s], partners);
      CONTENDER_CHECK(pred.ok()) << pred.status();
      const double iso =
          data->profiles[static_cast<size_t>(mix[s])].isolated_latency.value();
      worst_predicted = std::max(worst_predicted, pred->value() / iso);
    }
    const bool ok = worst_predicted <= slo_factor;
    if (ok && chosen == mpl - 1) chosen = mpl;  // stop at the first miss

    // Validate with a steady-state execution.
    auto observed = RunSteadyState(workload, mix, machine,
                                   flags.Seed() + static_cast<uint64_t>(mpl));
    CONTENDER_CHECK(observed.ok());
    double worst_observed = 0.0;
    for (const StreamResult& stream : observed->streams) {
      const double iso =
          data->profiles[static_cast<size_t>(stream.template_index)]
              .isolated_latency.value();
      worst_observed = std::max(worst_observed, stream.mean_latency / iso);
    }
    table.AddRow({std::to_string(mpl), FormatDouble(worst_predicted, 2) + "x",
                  ok ? "yes" : "no",
                  FormatDouble(worst_observed, 2) + "x"});
  }
  table.Print(std::cout);
  std::cout << "\nProvisioning decision: run this workload at MPL " << chosen
            << " (highest level predicted to meet the SLO).\n";
  return 0;
}
