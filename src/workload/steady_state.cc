#include "workload/steady_state.h"

#include <algorithm>
#include <unordered_map>

#include "sim/engine.h"
#include "util/summary_stats.h"

namespace contender {

StatusOr<SteadyStateResult> RunSteadyState(const Workload& workload,
                                           const std::vector<int>& mix,
                                           const sim::SimConfig& config,
                                           uint64_t seed) {
  if (mix.empty()) {
    return Status::InvalidArgument("RunSteadyState: empty mix");
  }
  for (int idx : mix) {
    if (idx < 0 || idx >= workload.size()) {
      return Status::InvalidArgument("RunSteadyState: bad template index");
    }
  }
  Rng rng(seed);
  sim::Engine engine(config, rng.Next());

  const size_t num_streams = mix.size();
  constexpr int kNeeded =
      kSteadyStateWarmupPerStream + kSteadyStateSamplesPerStream;

  std::vector<std::vector<double>> collected(num_streams);
  std::unordered_map<int, size_t> stream_of_process;

  auto launch = [&](size_t stream) {
    const int idx = mix[stream];
    const int pid =
        engine.AddProcess(workload.Instantiate(idx, &rng), engine.now());
    stream_of_process[pid] = stream;
  };

  auto all_collected = [&]() {
    for (const auto& c : collected) {
      if (static_cast<int>(c.size()) < kNeeded) return false;
    }
    return true;
  };

  engine.SetCompletionCallback([&](const sim::ProcessResult& r) {
    auto it = stream_of_process.find(r.process_id);
    if (it == stream_of_process.end()) return;
    const size_t stream = it->second;
    collected[stream].push_back(r.latency().value());
    if (all_collected()) {
      engine.RequestStop();
      return;
    }
    launch(stream);
  });

  for (size_t s = 0; s < num_streams; ++s) launch(s);

  Status st = engine.Run();
  if (!st.ok()) return st;

  // Trim each stream's warmup prefix and still-running tail.
  SteadyStateResult result;
  result.streams.resize(num_streams);
  for (size_t s = 0; s < num_streams; ++s) {
    StreamResult& sr = result.streams[s];
    sr.template_index = mix[s];
    const auto& c = collected[s];
    const size_t begin =
        std::min(c.size(), static_cast<size_t>(kSteadyStateWarmupPerStream));
    const size_t end = std::min(
        c.size(), begin + static_cast<size_t>(kSteadyStateSamplesPerStream));
    sr.latencies.assign(c.begin() + static_cast<long>(begin),
                        c.begin() + static_cast<long>(end));
    sr.mean_latency = Mean(sr.latencies);
  }
  result.duration = engine.now().value();
  return result;
}

}  // namespace contender
