// Reproduces paper Figure 9: predicting the spoiler latency of a *new*
// template from isolated statistics only, leave-one-template-out.
// Contender's KNN (working-set size + I/O fraction -> growth coefficients
// of the 3 nearest templates) vs the I/O-Time regression baseline.
//
// Paper shape: KNN ~15% MRE, I/O Time ~20%, at every MPL.

#include "bench_support.h"

#include "core/spoiler_model.h"

int main(int argc, char** argv) {
  using namespace contender;

  Flags flags(argc, argv);
  bench::Experiment e = bench::CollectExperiment(flags);

  std::cout << "=== Figure 9: spoiler prediction for new templates "
               "(leave-one-out) ===\n\n";

  TablePrinter table({"MPL", "KNN", "I/O Time"});
  SummaryStats knn_all, io_all;
  for (int mpl : {2, 3, 4, 5}) {
    std::vector<double> obs, knn_pred, io_pred;
    for (size_t held = 0; held < e.data.profiles.size(); ++held) {
      std::vector<TemplateProfile> refs;
      for (size_t i = 0; i < e.data.profiles.size(); ++i) {
        if (i != held) refs.push_back(e.data.profiles[i]);
      }
      KnnSpoilerPredictor::Options opts;
      opts.k = flags.GetInt("k", 3);
      auto knn = KnnSpoilerPredictor::Fit(refs, opts);
      auto io = IoTimeSpoilerPredictor::Fit(refs, {1, 2, 3, 4, 5});
      CONTENDER_CHECK(knn.ok());
      CONTENDER_CHECK(io.ok());
      const TemplateProfile& target = e.data.profiles[held];
      obs.push_back(target.spoiler_latency.at(mpl).value());
      knn_pred.push_back(knn->Predict(target, units::Mpl(mpl))->value());
      io_pred.push_back(io->Predict(target, units::Mpl(mpl))->value());
    }
    const double knn_mre = MeanRelativeError(obs, knn_pred);
    const double io_mre = MeanRelativeError(obs, io_pred);
    knn_all.Add(knn_mre);
    io_all.Add(io_mre);
    table.AddRow({std::to_string(mpl), FormatPercent(knn_mre),
                  FormatPercent(io_mre)});
  }
  table.AddRow({"Avg", FormatPercent(knn_all.mean()),
                FormatPercent(io_all.mean())});
  table.Print(std::cout);

  std::cout << "\nPaper: KNN ~15% vs I/O Time ~20%; KNN wins at every MPL "
               "because it uses two isolated statistics (working set + I/O "
               "time) instead of one.\n";
  return 0;
}
