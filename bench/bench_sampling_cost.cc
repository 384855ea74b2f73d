// Reproduces the paper's §5.4 sampling-cost analysis: how much training
// (simulated) time each approach needs before it can predict a NEW template
// at MPLs 2-5.
//
//   Prior work [8]     : LHS mix samples of the new template against the
//                        existing workload at every MPL (>= 2*m*k runs);
//   Contender (linear) : one isolated run + one spoiler run per MPL;
//   Contender (const)  : one isolated run only (KNN-predicted spoiler).
//
// Paper: spoiler-only sampling cuts training time to ~23% of mix sampling;
// the KNN variant reduces it to a single isolated execution.

#include "bench_support.h"

#include "ml/lhs.h"
#include "workload/steady_state.h"

int main(int argc, char** argv) {
  using namespace contender;

  Flags flags(argc, argv);
  bench::Experiment e = bench::CollectExperiment(flags);
  const std::vector<int> mpls = {2, 3, 4, 5};
  const int lhs_runs_per_mpl = 2;  // samples of the new template per MPL

  std::cout << "=== Section 5.4: sampling cost of adding one new template "
               "===\n\n";

  // Average over every template playing the role of "the new template".
  SummaryStats prior_cost, linear_cost, constant_cost;
  Rng rng(e.seed ^ 0xcafe);

  for (int t = 0; t < e.workload.size(); ++t) {
    const TemplateProfile& p = e.data.profiles[static_cast<size_t>(t)];
    // Prior work: steady-state mix samples at each MPL where the new
    // template runs against random members of the known workload.
    double prior = 0.0;
    for (int mpl : mpls) {
      for (int run = 0; run < lhs_runs_per_mpl; ++run) {
        std::vector<int> mix = {t};
        for (int s = 1; s < mpl; ++s) {
          mix.push_back(static_cast<int>(
              rng.UniformInt(static_cast<uint64_t>(e.workload.size()))));
        }
        auto result = RunSteadyState(e.workload, mix, e.config, rng.Next());
        CONTENDER_CHECK(result.ok());
        prior += result->duration;
      }
    }
    // Contender linear: isolated + spoiler per MPL.
    double linear = p.isolated_latency.value();
    for (int mpl : mpls) linear += p.spoiler_latency.at(mpl).value();
    // Contender constant: isolated only.
    const double constant = p.isolated_latency.value();

    prior_cost.Add(prior);
    linear_cost.Add(linear);
    constant_cost.Add(constant);
  }

  TablePrinter table({"Approach", "Samples per new template",
                      "Avg sim. time", "vs prior work"});
  auto rel = [&](double v) {
    return FormatPercent(v / prior_cost.mean());
  };
  table.AddRow({"Prior work [8] (LHS mixes)",
                std::to_string(lhs_runs_per_mpl * static_cast<int>(mpls.size())) +
                    " steady-state mixes",
                FormatDouble(prior_cost.mean(), 0) + " s", "100%"});
  table.AddRow({"Contender (linear: spoiler/MPL)",
                "1 isolated + " + std::to_string(mpls.size()) + " spoiler",
                FormatDouble(linear_cost.mean(), 0) + " s",
                rel(linear_cost.mean())});
  table.AddRow({"Contender (constant: KNN spoiler)", "1 isolated",
                FormatDouble(constant_cost.mean(), 0) + " s",
                rel(constant_cost.mean())});
  table.Print(std::cout);

  std::cout << "\nMix-space sizes (25 templates): MPL 2 = "
            << DistinctMixCount(25, 2) << ", MPL 5 = "
            << DistinctMixCount(25, 5)
            << " distinct mixes — exhaustive sampling is intractable "
               "(paper §2).\n";
  std::cout << "Paper: spoiler-only sampling is ~23% of the mix-sampling "
               "cost; the KNN variant needs only the isolated run.\n";
  return 0;
}
