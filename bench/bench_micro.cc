// Microbenchmarks (google-benchmark) for the hot paths of the library:
// the fluid engine (one query, spoiled, and a closed loop), steady-state
// mix execution, CQI computation, the degradation ladder's in-mix
// predictions, the greedy admission Pick, the fleet Route, QS fitting,
// spoiler prediction, and LHS generation.

#include <benchmark/benchmark.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/cqi.h"
#include "core/predictor.h"
#include "core/qs_model.h"
#include "core/spoiler_model.h"
#include "fleet/router.h"
#include "math/regression.h"
#include "ml/lhs.h"
#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sched/request.h"
#include "sim/engine.h"
#include "sim/spoiler.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/sampler.h"
#include "workload/steady_state.h"
#include "workload/workload.h"

namespace contender {
namespace {

const Workload& BenchWorkload() {
  static const Workload* w = new Workload(Workload::Paper());
  return *w;
}

const TrainingData& BenchData() {
  static const TrainingData* data = [] {
    WorkloadSampler::Options options;
    WorkloadSampler sampler(&BenchWorkload(), sim::SimConfig{}, options);
    auto collected = sampler.CollectAll();
    CONTENDER_CHECK(collected.ok());
    return new TrainingData(std::move(*collected));
  }();
  return *data;
}

void BM_IsolatedQueryExecution(benchmark::State& state) {
  const Workload& w = BenchWorkload();
  const int idx = static_cast<int>(state.range(0));
  sim::SimConfig config;
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::Engine engine(config, seed++);
    const int pid = engine.AddProcess(w.InstantiateNominal(idx), units::Seconds(0.0));
    CONTENDER_CHECK(engine.Run().ok());
    benchmark::DoNotOptimize(engine.result(pid).latency());
  }
}
BENCHMARK(BM_IsolatedQueryExecution)->Arg(0)->Arg(6)->Arg(21);

void BM_SpoilerRun(benchmark::State& state) {
  const Workload& w = BenchWorkload();
  const int mpl = static_cast<int>(state.range(0));
  sim::SimConfig config;
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::Engine engine(config, seed++);
    for (const auto& s : sim::MakeSpoiler(config, units::Mpl(mpl))) {
      engine.AddProcess(s, units::Seconds(0.0));
    }
    const int pid = engine.AddProcess(w.InstantiateNominal(0), units::Seconds(0.0));
    CONTENDER_CHECK(engine.RunUntilProcessCompletes(pid).ok());
    benchmark::DoNotOptimize(engine.result(pid).latency());
  }
}
BENCHMARK(BM_SpoilerRun)->Arg(2)->Arg(5);

void BM_SteadyStateMix(benchmark::State& state) {
  const Workload& w = BenchWorkload();
  const int mpl = static_cast<int>(state.range(0));
  sim::SimConfig config;
  uint64_t seed = 1;
  std::vector<int> mix;
  for (int i = 0; i < mpl; ++i) mix.push_back(i * 3 % w.size());
  for (auto _ : state) {
    auto result = RunSteadyState(w, mix, config, seed++);
    CONTENDER_CHECK(result.ok());
    benchmark::DoNotOptimize(result->duration);
  }
}
BENCHMARK(BM_SteadyStateMix)->Arg(2)->Arg(5);

// The engine alone in a closed loop: MPL 5 over 2048 pre-instantiated
// paper-template queries, each completion adding the next one. Reports
// the engine's cost per process, AddProcess's copy of the spec included.
void BM_EngineClosedLoop(benchmark::State& state) {
  constexpr size_t kMpl = 5;
  constexpr size_t kProcesses = 2048;
  const Workload& w = BenchWorkload();
  Rng rng(5);
  std::vector<sim::QuerySpec> specs;
  specs.reserve(kProcesses);
  for (size_t i = 0; i < kProcesses; ++i) {
    specs.push_back(w.Instantiate(
        static_cast<int>(i % static_cast<size_t>(w.size())), &rng));
  }
  const sim::SimConfig config;
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::Engine engine(config, seed++);
    size_t next = kMpl;
    engine.SetCompletionCallback([&](const sim::ProcessResult&) {
      if (next < kProcesses) engine.AddProcess(specs[next++], engine.now());
    });
    for (size_t i = 0; i < kMpl; ++i) {
      engine.AddProcess(specs[i], units::Seconds(0.0));
    }
    CONTENDER_CHECK(engine.Run().ok());
    benchmark::DoNotOptimize(engine.now());
  }
  state.counters["per_process"] = benchmark::Counter(
      static_cast<double>(kProcesses),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineClosedLoop)->Unit(benchmark::kMillisecond);

// The CQI kernel the ladder runs, compiled once outside the loop: one
// mix preparation (sort and scanner count) and one full-CQI score per
// iteration, for template 0 beside an MPL-5 mix.
void BM_ComputeCqi(benchmark::State& state) {
  const TrainingData& data = BenchData();
  const CqiKernel kernel(data.profiles, data.scan_times);
  const std::vector<int> concurrent = {9, 1, 13, 5};
  PreparedMix mix;
  for (auto _ : state) {
    kernel.Prepare(concurrent, /*canonical=*/true, &mix);
    benchmark::DoNotOptimize(
        kernel.Score(kernel.PrimarySlots(0), mix, CqiVariant::kFull));
  }
}
BENCHMARK(BM_ComputeCqi);

const ContenderPredictor& BenchPredictor() {
  static const ContenderPredictor* predictor = [] {
    const TrainingData& data = BenchData();
    auto trained =
        ContenderPredictor::Train(data.profiles, data.scan_times,
                                  data.observations,
                                  ContenderPredictor::Options{});
    CONTENDER_CHECK(trained.ok()) << trained.status();
    return new ContenderPredictor(std::move(*trained));
  }();
  return *predictor;
}

// One ladder answer per iteration, cycling through 256 fixed seeded
// (template, unsorted co-runners) pairs at MPL range(0). range(1) is
// allow_full_model: 1 answers at tier 0, 0 at tier 1 (transferred QS,
// whose KNN spoiler prediction dominates).
void BM_PredictInMix(benchmark::State& state) {
  const ContenderPredictor& predictor = BenchPredictor();
  const int mpl = static_cast<int>(state.range(0));
  const bool allow_full_model = state.range(1) != 0;
  const DegradationTier expected = allow_full_model
                                       ? DegradationTier::kFullModel
                                       : DegradationTier::kTransferredQs;
  const int64_t n = static_cast<int64_t>(predictor.profiles().size());
  Rng rng(19);
  std::vector<std::pair<int, std::vector<int>>> mixes(256);
  for (auto& [t, mix] : mixes) {
    t = static_cast<int>(rng.UniformInt(0, n - 1));
    for (int i = 1; i < mpl; ++i) {
      mix.push_back(static_cast<int>(rng.UniformInt(0, n - 1)));
    }
    CONTENDER_CHECK(predictor.PredictInMix(t, mix, allow_full_model).tier ==
                    expected);
  }
  size_t next = 0;
  for (auto _ : state) {
    const auto& [t, mix] = mixes[next++ % mixes.size()];
    benchmark::DoNotOptimize(
        predictor.PredictInMix(t, mix, allow_full_model).latency);
  }
}
BENCHMARK(BM_PredictInMix)
    ->ArgNames({"mpl", "full_model"})
    ->Args({2, 1})
    ->Args({5, 1})
    ->Args({2, 0});

// One greedy-contention Pick per iteration over an arrived queue of
// range(0) requests drawn from 13 of the 25 templates (about the breadth a
// sched-backlog queue settles at), scored against the four co-runners of
// an MPL-5 node. Pick does not consume the queue, so every iteration
// decides over the same depth; a flat time across depths means the cost
// follows the templates, not the backlog.
void BM_GreedyPick(benchmark::State& state) {
  sched::MixOracle oracle(&BenchPredictor());
  const int depth = static_cast<int>(state.range(0));
  Rng rng(13);
  std::vector<int> templates = rng.Permutation(oracle.num_templates());
  templates.resize(13);
  // Drawn before the stream, so every depth scores against the same mix.
  std::vector<int> running(4);
  for (int& t : running) {
    t = static_cast<int>(rng.UniformInt(
        static_cast<uint64_t>(oracle.num_templates())));
  }
  std::vector<sched::Request> requests(static_cast<size_t>(depth));
  for (int id = 0; id < depth; ++id) {
    sched::Request& r = requests[static_cast<size_t>(id)];
    r.request_id = id;
    r.template_index = templates[rng.UniformInt(templates.size())];
    r.arrival_time = units::Seconds(static_cast<double>(id));
  }
  const sched::RequestQueue queue(std::move(requests));
  const sched::SchedContext ctx{units::Seconds(static_cast<double>(depth)),
                                &running, &oracle};
  auto policy = sched::MakePolicy(sched::PolicyKind::kGreedyContention);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->Pick(queue, ctx).value());
  }
}
BENCHMARK(BM_GreedyPick)->ArgName("depth")->Arg(64)->Arg(512)->Arg(4096);

// One contention-aware Route per iteration on a 4-node fleet at MPL 3
// whose nodes hold about range(0) backlogged requests each. Every request
// arrives at t = 0, so no predicted completion pops and each route joins
// a full node's backlog: this is the append path of the cached replay
// (perfbench fleet-skewed's fleet.route_us covers promotions). The router
// is rebuilt off the clock once the timed routes have grown the backlogs
// by a quarter, so the depth stays within 25% of nominal; a flat time
// across depths means a route does not replay the backlog.
void BM_RouterRoute(benchmark::State& state) {
  constexpr int kNodes = 4;
  const int depth = static_cast<int>(state.range(0));
  const sched::MixOracle oracle(&BenchPredictor());
  fleet::RouterOptions options;
  options.num_nodes = kNodes;
  options.target_mpl = 3;
  options.policy = fleet::RoutePolicy::kContentionAware;
  const size_t prefill =
      static_cast<size_t>(kNodes * (options.target_mpl + depth));
  Rng rng(23);
  std::vector<sched::Request> stream(prefill +
                                     static_cast<size_t>(kNodes * depth / 4));
  for (size_t id = 0; id < stream.size(); ++id) {
    sched::Request& r = stream[id];
    r.request_id = static_cast<int>(id);
    r.template_index = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(oracle.num_templates())));
    r.arrival_time = units::Seconds(0.0);
  }
  std::optional<fleet::Router> router;
  size_t next = stream.size();
  for (auto _ : state) {
    if (next == stream.size()) {
      state.PauseTiming();
      router.emplace(&oracle, options);
      for (next = 0; next < prefill; ++next) {
        CONTENDER_CHECK(router->Route(stream[next]).ok());
      }
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(router->Route(stream[next++]).value());
  }
}
BENCHMARK(BM_RouterRoute)->ArgName("depth")->Arg(64)->Arg(512)->Arg(4096);

void BM_FitReferenceModels(benchmark::State& state) {
  const TrainingData& data = BenchData();
  for (auto _ : state) {
    auto models = FitReferenceModels(data.profiles, data.scan_times,
                                     data.observations, units::Mpl(4));
    benchmark::DoNotOptimize(models.ok());
  }
}
BENCHMARK(BM_FitReferenceModels);

void BM_KnnSpoilerPredict(benchmark::State& state) {
  const TrainingData& data = BenchData();
  KnnSpoilerPredictor::Options opts;
  auto predictor = KnnSpoilerPredictor::Fit(data.profiles, opts);
  CONTENDER_CHECK(predictor.ok());
  for (auto _ : state) {
    auto lmax = predictor->Predict(data.profiles[7], units::Mpl(4));
    benchmark::DoNotOptimize(lmax.ok());
  }
}
BENCHMARK(BM_KnnSpoilerPredict);

void BM_LatinHypercube(benchmark::State& state) {
  Rng rng(3);
  const int mpl = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto mixes = LatinHypercubeSample(25, mpl, &rng);
    benchmark::DoNotOptimize(mixes.ok());
  }
}
BENCHMARK(BM_LatinHypercube)->Arg(2)->Arg(5);

void BM_SimpleLinearFit(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> x, y;
  for (int i = 0; i < 64; ++i) {
    x.push_back(rng.Uniform01());
    y.push_back(2.0 * x.back() + rng.Normal(0.0, 0.1));
  }
  for (auto _ : state) {
    auto fit = FitSimpleLinear(x, y);
    benchmark::DoNotOptimize(fit.ok());
  }
}
BENCHMARK(BM_SimpleLinearFit);

}  // namespace
}  // namespace contender

BENCHMARK_MAIN();
