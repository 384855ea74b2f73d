// Reproduces paper Table 3: signed R^2 of simple linear regressions
// correlating template features with the y-intercept and slope of the QS
// models (MPL 2 reference models).
//
// Paper values (intercept / slope): I/O time 0.18/-0.05, working set
// -0.24/0.11, plan steps 0.31/-0.29, records 0.12/-0.22, isolated latency
// 0.36/-0.51, spoiler latency 0.27/-0.49, spoiler slowdown 0.08/-0.24.
// Key shape: isolated latency is the strongest (negative) predictor of the
// slope, which is why Contender transfers µ from l_min.

#include "bench_support.h"

#include "core/qs_transfer.h"

int main(int argc, char** argv) {
  using namespace contender;

  Flags flags(argc, argv);
  const int mpl = bench::SampledMplFlag(flags, 2);
  bench::Experiment e = bench::CollectExperiment(flags);

  auto models = FitReferenceModels(e.data.profiles, e.data.scan_times,
                                   e.data.observations, units::Mpl(mpl));
  CONTENDER_CHECK(models.ok()) << models.status();

  std::cout << "=== Table 3: template features vs QS coefficients "
               "(signed R^2, MPL " << mpl << ") ===\n\n";
  TablePrinter table({"Query Template Feature", "Y-Intercept b", "Slope u"});
  for (const FeatureCorrelation& fc :
       CorrelateFeaturesWithQs(e.data.profiles, *models, units::Mpl(mpl))) {
    table.AddRow({fc.feature, FormatDouble(fc.r2_intercept, 2),
                  FormatDouble(fc.r2_slope, 2)});
  }
  table.Print(std::cout);

  std::cout << "\nPaper shape: 'Isolated latency' has the largest-magnitude "
               "correlation with the slope (negative: lighter queries are "
               "more sensitive to contention).\n";
  return 0;
}
