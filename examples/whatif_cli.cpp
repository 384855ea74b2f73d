// What-if explorer: a small CLI over the trained predictor.
//
//   ./build/examples/whatif_cli --primary=71 --with=26,33 [--seed=42]
//       predict the latency of template q71 running with q26 and q33
//       (MPL = 1 + number of partners), and verify with a steady-state
//       simulation (--no-verify to skip).
//
//   ./build/examples/whatif_cli --list
//       show the workload templates and their isolated profiles.

#include <charconv>
#include <iostream>
#include <sstream>

#include "core/predictor.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "workload/sampler.h"
#include "workload/steady_state.h"

using namespace contender;

namespace {

// Parses --with's comma-separated template ids. Each item must be a whole
// int ("26x" and "99999999999" are not); empty items are skipped.
std::vector<int> ParseIdList(const std::string& csv) {
  std::vector<int> ids;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    int id = 0;
    const char* last = item.data() + item.size();
    const auto [ptr, ec] = std::from_chars(item.data(), last, id);
    CONTENDER_CHECK(ec == std::errc() && ptr == last)
        << "--with=" << csv << ": item " << item << " is not an int";
    ids.push_back(id);
  }
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Workload workload = Workload::Paper();
  sim::SimConfig machine;

  WorkloadSampler::Options sampling;
  sampling.seed = flags.Seed();
  WorkloadSampler sampler(&workload, machine, sampling);

  if (flags.GetBool("list", false)) {
    std::cout << "Profiling the workload (isolated runs)...\n\n";
    TablePrinter table({"Template", "Description", "Isolated", "p_t",
                        "Working set"});
    for (int i = 0; i < workload.size(); ++i) {
      auto p = sampler.ProfileTemplate(i);
      CONTENDER_CHECK(p.ok()) << p.status();
      table.AddRow({"q" + std::to_string(workload.tmpl(i).id),
                    workload.tmpl(i).description,
                    FormatDouble(p->isolated_latency.value(), 0) + " s",
                    FormatDouble(p->io_fraction.value(), 2),
                    FormatDouble(p->working_set_bytes.value() / 1e6, 0) + " MB"});
    }
    table.Print(std::cout);
    return 0;
  }

  const int primary_id = flags.GetInt("primary", 71);
  const std::vector<int> partner_ids =
      ParseIdList(flags.GetString("with", "26,33"));
  const int primary = workload.IndexOfId(primary_id);
  CONTENDER_CHECK(primary >= 0) << "unknown template q" << primary_id;
  std::vector<int> partners;
  for (int id : partner_ids) {
    const int idx = workload.IndexOfId(id);
    CONTENDER_CHECK(idx >= 0) << "unknown template q" << id;
    partners.push_back(idx);
  }
  CONTENDER_CHECK(!partners.empty()) << "--with must name partners";
  CONTENDER_CHECK(partners.size() <= 4) << "MPL 2-5 supported";

  std::cout << "Training Contender (seed " << flags.Seed() << ")...\n";
  auto data = sampler.CollectAll();
  CONTENDER_CHECK(data.ok()) << data.status();
  auto predictor = ContenderPredictor::Train(
      data->profiles, data->scan_times, data->observations,
      ContenderPredictor::Options{});
  CONTENDER_CHECK(predictor.ok()) << predictor.status();

  auto predicted = predictor->PredictKnown(primary, partners);
  CONTENDER_CHECK(predicted.ok()) << predicted.status();
  const TemplateProfile& profile =
      data->profiles[static_cast<size_t>(primary)];

  std::cout << "\nq" << primary_id << " with {";
  for (size_t i = 0; i < partners.size(); ++i) {
    std::cout << (i ? ", q" : "q") << workload.tmpl(partners[i]).id;
  }
  std::cout << "}  (MPL " << partners.size() + 1 << ")\n";
  std::cout << "  isolated latency:  "
            << FormatDouble(profile.isolated_latency.value(), 0) << " s\n";
  std::cout << "  predicted latency: " << FormatDouble(predicted->value(), 0)
            << " s  (slowdown "
            << FormatDouble(*predicted / profile.isolated_latency, 2)
            << "x)\n";

  if (flags.GetBool("verify", true)) {
    std::vector<int> mix = {primary};
    mix.insert(mix.end(), partners.begin(), partners.end());
    auto observed = RunSteadyState(workload, mix, machine, flags.Seed() + 1);
    CONTENDER_CHECK(observed.ok()) << observed.status();
    const double actual = observed->streams[0].mean_latency;
    std::cout << "  observed latency:  " << FormatDouble(actual, 0)
              << " s  (prediction error "
              << FormatPercent(std::abs(actual - predicted->value()) / actual)
              << ")\n";
  }
  return 0;
}
