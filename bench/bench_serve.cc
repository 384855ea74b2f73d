// Serving-layer benchmark: concurrent prediction throughput against the
// hot-swappable PredictionService, and tail latency while the
// RefitController drains observations and swaps snapshots mid-traffic.
//
//   ./build/bench/bench_serve [--seed=42] [--requests=4000]
//       [--refit_rounds=4] [--json=BENCH_serve.json] [--check]
//
// Two experiments:
//   1. Throughput scaling: T client threads (T in 1,2,4,8,16) answer
//      deterministic per-thread request streams via Predict(); reports
//      aggregate QPS and per-request latency percentiles. On multi-core
//      hosts --check asserts multi-thread throughput beats single-thread.
//   2. Refit under traffic: clients keep predicting while the controller
//      performs hot-swap refits; reports p99 with and without swaps and
//      verifies every answered batch bit-equals a recompute on the
//      snapshot version that stamped it (the swap is atomic and readers
//      never observe torn state).

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "bench_support.h"
#include "serve/refit_controller.h"
#include "util/random.h"

using namespace contender;
using namespace contender::serve;

namespace {

PredictRequest DrawRequest(Rng* rng, int num_templates) {
  PredictRequest r;
  r.template_index = static_cast<int>(
      rng->UniformInt(static_cast<uint64_t>(num_templates)));
  const uint64_t mix_size = rng->UniformInt(4);
  for (uint64_t j = 0; j < mix_size; ++j) {
    r.concurrent.push_back(static_cast<int>(
        rng->UniformInt(static_cast<uint64_t>(num_templates))));
  }
  return r;
}

std::vector<PredictRequest> MakeStream(uint64_t seed, size_t count,
                                       int num_templates) {
  Rng rng(seed);
  std::vector<PredictRequest> stream;
  stream.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    stream.push_back(DrawRequest(&rng, num_templates));
  }
  return stream;
}

struct PerThreadResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t requests = 0;
};

struct ThroughputResult {
  int threads = 0;
  double qps = 0.0;
  // Percentiles of the MERGED per-thread sample distributions (exact:
  // SampleStats::Merge concatenates retained samples, so the combined
  // quantile is computed over every request, not approximated).
  double p50_us = 0.0;
  double p99_us = 0.0;
  // Worst single-thread tail — the conservative number a fairness
  // regression shows up in first (one starved client, healthy merge).
  double worst_p99_us = 0.0;
  std::vector<PerThreadResult> per_thread;
};

ThroughputResult MeasureThroughput(const PredictionService& service,
                                   int threads, size_t total_requests,
                                   uint64_t seed) {
  const int num_templates = service.snapshot()->num_templates();
  const size_t per_thread = total_requests / static_cast<size_t>(threads);
  std::vector<std::vector<PredictRequest>> streams;
  for (int t = 0; t < threads; ++t) {
    streams.push_back(MakeStream(seed + static_cast<uint64_t>(t),
                                 per_thread, num_templates));
  }

  std::vector<SampleStats> latencies(static_cast<size_t>(threads));
  std::vector<double> thread_wall_s(static_cast<size_t>(threads), 0.0);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([t, &service, &streams, &latencies,
                          &thread_wall_s] {
      SampleStats& stats = latencies[static_cast<size_t>(t)];
      const auto thread_start = std::chrono::steady_clock::now();
      for (const PredictRequest& r : streams[static_cast<size_t>(t)]) {
        const auto start = std::chrono::steady_clock::now();
        auto got = service.Predict(r.template_index, r.concurrent);
        const auto stop = std::chrono::steady_clock::now();
        CONTENDER_CHECK(got.ok()) << got.status();
        stats.Add(std::chrono::duration<double, std::micro>(stop - start)
                      .count());
      }
      thread_wall_s[static_cast<size_t>(t)] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        thread_start)
              .count();
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  ThroughputResult result;
  result.threads = threads;
  size_t answered = 0;
  SampleStats merged;
  for (int t = 0; t < threads; ++t) {
    const SampleStats& s = latencies[static_cast<size_t>(t)];
    PerThreadResult pt;
    pt.requests = s.count();
    if (!s.empty()) {
      answered += s.count();
      pt.p50_us = s.p50();
      pt.p99_us = s.p99();
      pt.qps = thread_wall_s[static_cast<size_t>(t)] > 0.0
                   ? static_cast<double>(s.count()) /
                         thread_wall_s[static_cast<size_t>(t)]
                   : 0.0;
      result.worst_p99_us = std::max(result.worst_p99_us, pt.p99_us);
      merged.Merge(s);
    }
    result.per_thread.push_back(pt);
  }
  if (!merged.empty()) {
    result.p50_us = merged.p50();
    result.p99_us = merged.p99();
  }
  result.qps = static_cast<double>(answered) / wall_s;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int requests = flags.GetInt("requests", 4000);
  CONTENDER_CHECK(requests >= 1)
      << "--requests=" << requests << " must be at least 1";
  const size_t total_requests = static_cast<size_t>(requests);
  std::cout << "Training Contender on the TPC-DS-like workload...\n";
  bench::Experiment e = bench::CollectExperiment(flags);
  auto predictor = ContenderPredictor::Train(
      e.data.profiles, e.data.scan_times, e.data.observations, {});
  CONTENDER_CHECK(predictor.ok()) << predictor.status();

  // Serve behind a health tracker so the run also reports the degradation
  // ladder's counters (tier mix, breaker trips). With healthy traffic every
  // answer stays at tier 0 and the counters document that.
  auto initial_snapshot = ModelSnapshot::Create(*predictor, 1);
  PredictionService::Options service_options;
  service_options.health =
      std::make_shared<HealthTracker>(initial_snapshot->num_templates());
  PredictionService service(std::move(initial_snapshot), service_options);
  const unsigned hardware = std::thread::hardware_concurrency();
  const bool check = flags.GetBool("check", false);

  // Experiment 1: throughput scaling over client thread counts. Each row
  // reports the merged latency distribution plus the worst single-thread
  // tail; the JSON additionally carries the full per-thread breakdown so
  // the dashboard can spot one starved client behind a healthy aggregate.
  TablePrinter table(
      {"Clients", "QPS", "p50 (us)", "p99 (us)", "worst p99 (us)"});
  bench::Json scaling = bench::Json::Array();
  std::vector<ThroughputResult> results;
  for (int threads : {1, 2, 4, 8, 16}) {
    const ThroughputResult r =
        MeasureThroughput(service, threads, total_requests, e.seed);
    results.push_back(r);
    table.AddRow({std::to_string(r.threads), FormatDouble(r.qps, 0),
                  FormatDouble(r.p50_us, 1), FormatDouble(r.p99_us, 1),
                  FormatDouble(r.worst_p99_us, 1)});
    bench::Json per_thread = bench::Json::Array();
    for (const PerThreadResult& pt : r.per_thread) {
      per_thread.Append(bench::Json::Object()
                            .Set("qps", pt.qps)
                            .Set("p50_us", pt.p50_us)
                            .Set("p99_us", pt.p99_us)
                            .Set("requests", pt.requests));
    }
    scaling.Append(bench::Json::Object()
                       .Set("threads", r.threads)
                       .Set("qps", r.qps)
                       .Set("p50_us", r.p50_us)
                       .Set("p99_us", r.p99_us)
                       .Set("worst_p99_us", r.worst_p99_us)
                       .Set("per_thread", per_thread));
  }
  table.Print(std::cout);
  if (hardware >= 2) {
    double best_multi = 0.0;
    for (const ThroughputResult& r : results) {
      if (r.threads > 1) best_multi = std::max(best_multi, r.qps);
    }
    std::cout << "Multi-thread best " << FormatDouble(best_multi, 0)
              << " QPS vs single-thread "
              << FormatDouble(results.front().qps, 0) << " QPS\n";
    if (check) {
      CONTENDER_CHECK(best_multi > results.front().qps)
          << "no throughput scaling on a multi-core host";
    }
  } else {
    std::cout << "Single hardware thread: scaling comparison skipped.\n";
  }

  // Experiment 2: tail latency while the controller hot-swaps refit
  // snapshots under live traffic, with batch-consistency verification.
  const int refit_rounds = flags.GetInt("refit_rounds", 4);
  ObservationLog log(&service);
  RefitOptions refit_options;
  refit_options.min_new_observations = 32;
  RefitController controller(&service, &log, e.data.observations,
                             refit_options);

  std::map<uint64_t, std::shared_ptr<const ModelSnapshot>> by_version;
  by_version[service.snapshot()->version()] = service.snapshot();

  constexpr int kTrafficThreads = 4;
  const size_t per_thread = total_requests / kTrafficThreads;
  const int num_templates = service.snapshot()->num_templates();
  std::vector<SampleStats> quiet(kTrafficThreads), swapping(kTrafficThreads);
  std::vector<std::vector<std::pair<PredictRequest, PredictResult>>>
      answered(kTrafficThreads);

  auto run_traffic = [&](std::vector<SampleStats>* stats, bool record) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kTrafficThreads; ++t) {
      // `stats` must be captured by value: the threads outlive this
      // factory's stack frame.
      workers.emplace_back([&, t, record, stats] {
        Rng rng(e.seed + 100 + static_cast<uint64_t>(t));
        for (size_t i = 0; i < per_thread; ++i) {
          std::vector<PredictRequest> batch;
          for (int j = 0; j < 4; ++j) {
            batch.push_back(DrawRequest(&rng, num_templates));
          }
          const auto start = std::chrono::steady_clock::now();
          const auto results_batch = service.PredictBatch(batch);
          const auto stop = std::chrono::steady_clock::now();
          (*stats)[static_cast<size_t>(t)].Add(
              std::chrono::duration<double, std::micro>(stop - start)
                  .count());
          if (record && i % 16 == 0) {
            for (size_t j = 0; j < batch.size(); ++j) {
              CONTENDER_CHECK(results_batch[j].status.ok());
              answered[static_cast<size_t>(t)].emplace_back(
                  batch[j], results_batch[j]);
            }
          }
          i += batch.size() - 1;  // count batch entries against the budget
        }
      });
    }
    return workers;
  };

  // Baseline: no refits in flight.
  {
    auto workers = run_traffic(&quiet, /*record=*/false);
    for (std::thread& w : workers) w.join();
  }
  // Under refit churn: the main thread ingests and swaps while traffic runs.
  {
    auto workers = run_traffic(&swapping, /*record=*/true);
    size_t next = 0;
    for (int round = 0; round < refit_rounds; ++round) {
      for (size_t i = 0; i < refit_options.min_new_observations; ++i) {
        MixObservation obs =
            e.data.observations[next++ % e.data.observations.size()];
        obs.latency = obs.latency * (round % 2 == 0 ? 1.1 : 0.95);
        CONTENDER_CHECK(log.Ingest(obs).ok());
      }
      auto step = controller.Step();
      CONTENDER_CHECK(step.ok()) << step.status();
      if (step->refit) {
        by_version[step->published_version] = service.snapshot();
      }
    }
    for (std::thread& w : workers) w.join();
  }

  double quiet_p99 = 0.0, swap_p99 = 0.0;
  for (int t = 0; t < kTrafficThreads; ++t) {
    if (!quiet[static_cast<size_t>(t)].empty()) {
      quiet_p99 = std::max(quiet_p99, quiet[static_cast<size_t>(t)].p99());
    }
    if (!swapping[static_cast<size_t>(t)].empty()) {
      swap_p99 = std::max(swap_p99, swapping[static_cast<size_t>(t)].p99());
    }
  }

  // Consistency audit: every recorded answer recomputes bit-exactly on the
  // snapshot of the version that stamped it.
  size_t audited = 0;
  for (const auto& per_thread_answers : answered) {
    for (const auto& [request, result] : per_thread_answers) {
      auto it = by_version.find(result.snapshot_version);
      CONTENDER_CHECK(it != by_version.end())
          << "unknown snapshot version " << result.snapshot_version;
      CONTENDER_CHECK(result.latency ==
                      it->second->PredictInMix(request.template_index,
                                               request.concurrent))
          << "torn read at version " << result.snapshot_version;
      ++audited;
    }
  }

  std::cout << "\nRefit under traffic: " << controller.refits()
            << " hot-swaps, batch p99 " << FormatDouble(swap_p99, 1)
            << " us (baseline " << FormatDouble(quiet_p99, 1) << " us), "
            << audited << " answers audited bit-exact against their "
            << "snapshot version.\n";

  // Degradation ladder counters: on a healthy run every answer should be
  // tier 0 (full model) with zero breaker trips; anything else in the JSON
  // flags a model-health regression to the perf dashboard.
  const uint64_t tier_full =
      service.tier_count(DegradationTier::kFullModel);
  const uint64_t tier_transfer =
      service.tier_count(DegradationTier::kTransferredQs);
  const uint64_t tier_isolated =
      service.tier_count(DegradationTier::kIsolatedHeuristic);
  const uint64_t breaker_trips = service.health()->trips();
  std::cout << "Degradation ladder: tier0=" << tier_full
            << " tier1=" << tier_transfer << " tier2=" << tier_isolated
            << ", breaker trips " << breaker_trips << "\n";

  const std::string json_path =
      flags.GetString("json", "BENCH_serve.json");
  bench::Json root = bench::Json::Object();
  root.Set("bench", "serve")
      .Set("seed", e.seed)
      .Set("requests", static_cast<uint64_t>(total_requests))
      .Set("hardware_threads", static_cast<uint64_t>(hardware))
      .Set("scaling", scaling)
      .Set("refit", bench::Json::Object()
                        .Set("rounds", refit_rounds)
                        .Set("hot_swaps", controller.refits())
                        .Set("baseline_p99_us", quiet_p99)
                        .Set("during_refit_p99_us", swap_p99)
                        .Set("answers_audited",
                             static_cast<uint64_t>(audited)))
      .Set("degradation",
           bench::Json::Object()
               .Set("tier_full_model", tier_full)
               .Set("tier_transferred_qs", tier_transfer)
               .Set("tier_isolated_heuristic", tier_isolated)
               .Set("breaker_trips", breaker_trips));
  bench::WriteJsonFile(json_path, root);
  std::cout << "Wrote " << json_path << "\n";
  return 0;
}
