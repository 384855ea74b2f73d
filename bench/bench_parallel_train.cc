// Measures parallel profiling & training: wall-clock of the full pipeline
// (§2 sampling via WorkloadSampler::CollectAll + predictor training) with a
// pool of 1 and a pool of 4, while verifying that both produce bit-identical
// training data and predictions. The speedup needs real cores.
//
// Flags: --seed, --lhs_runs, --threads (width of the "wide" run, default 4).

#include "bench_support.h"

#include <chrono>

namespace contender::bench {
namespace {

struct TrainedRun {
  TrainingData data;
  /// PredictKnown over every training observation, in observation order.
  std::vector<double> predictions;
  double collect_seconds = 0.0;
  double train_seconds = 0.0;
};

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TrainedRun RunPipeline(const Workload& workload, const sim::SimConfig& config,
                       const Flags& flags, int threads) {
  TrainedRun run;
  WorkloadSampler::Options options;
  options.seed = flags.Seed();
  options.lhs_runs = flags.GetInt("lhs_runs", 4);
  options.threads = threads;

  auto collect_start = std::chrono::steady_clock::now();
  WorkloadSampler sampler(&workload, config, options);
  auto data = sampler.CollectAll();
  CONTENDER_CHECK(data.ok()) << data.status();
  run.collect_seconds = Seconds(collect_start);
  run.data = std::move(*data);

  ContenderPredictor::Options train_options;
  train_options.train_threads = threads;
  auto train_start = std::chrono::steady_clock::now();
  auto predictor = ContenderPredictor::Train(
      run.data.profiles, run.data.scan_times, run.data.observations,
      train_options);
  CONTENDER_CHECK(predictor.ok()) << predictor.status();
  run.train_seconds = Seconds(train_start);

  for (const MixObservation& o : run.data.observations) {
    auto pred = predictor->PredictKnown(o.primary_index,
                                        o.concurrent_indices);
    run.predictions.push_back(pred.ok() ? pred->value() : -1.0);
  }
  return run;
}

/// Exact (bitwise-value) equality of everything downstream code consumes.
bool Identical(const TrainedRun& a, const TrainedRun& b) {
  if (a.data.sampling_seconds != b.data.sampling_seconds) return false;
  if (a.data.scan_times != b.data.scan_times) return false;
  if (a.data.profiles.size() != b.data.profiles.size()) return false;
  for (size_t i = 0; i < a.data.profiles.size(); ++i) {
    const TemplateProfile& pa = a.data.profiles[i];
    const TemplateProfile& pb = b.data.profiles[i];
    if (pa.isolated_latency != pb.isolated_latency ||
        pa.io_fraction != pb.io_fraction ||
        pa.working_set_bytes != pb.working_set_bytes ||
        pa.spoiler_latency != pb.spoiler_latency) {
      return false;
    }
  }
  if (a.data.observations.size() != b.data.observations.size()) return false;
  for (size_t i = 0; i < a.data.observations.size(); ++i) {
    if (a.data.observations[i].latency != b.data.observations[i].latency) {
      return false;
    }
  }
  return a.predictions == b.predictions;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const Workload workload = Workload::Paper();
  const sim::SimConfig config;
  const int wide = flags.GetInt("threads", 4);

  std::cout << "=== Parallel profiling & training (CollectAll + Train) "
               "===\n\n";

  const TrainedRun one = RunPipeline(workload, config, flags, /*threads=*/1);
  const TrainedRun many = RunPipeline(workload, config, flags, wide);
  CONTENDER_CHECK(Identical(one, many))
      << "pool-" << wide << " diverged from pool-1";

  auto total = [](const TrainedRun& r) {
    return r.collect_seconds + r.train_seconds;
  };
  TablePrinter table({"Scenario", "Collect", "Train", "Total", "Speedup"});
  auto row = [&](const std::string& name, const TrainedRun& r) {
    table.AddRow({name, FormatDouble(r.collect_seconds, 2) + " s",
                  FormatDouble(r.train_seconds, 3) + " s",
                  FormatDouble(total(r), 2) + " s",
                  FormatDouble(total(one) / total(r), 2) + "x"});
  };
  row("pool=1", one);
  row("pool=" + std::to_string(wide), many);
  table.Print(std::cout);

  std::cout << "\nBoth pool widths produced bit-identical profiles, "
               "observations and predictions.\n";
  return 0;
}

}  // namespace
}  // namespace contender::bench

int main(int argc, char** argv) { return contender::bench::Main(argc, argv); }
