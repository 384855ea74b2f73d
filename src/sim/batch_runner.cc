#include "sim/batch_runner.h"

#include "sim/engine.h"

namespace contender::sim {

BatchRunner::BatchRunner() : BatchRunner(Options()) {}

BatchRunner::BatchRunner(const Options& options)
    : pool_(options.threads <= 0 ? ThreadPool::DefaultThreads()
                                 : options.threads),
      cache_(options.cache) {}

StatusOr<EngineRunResult> BatchRunner::Execute(const EngineRun& run) {
  if (run.specs.empty()) {
    return Status::InvalidArgument("EngineRun: no specs");
  }
  if (run.run_until >= static_cast<int>(run.specs.size())) {
    return Status::InvalidArgument("EngineRun: run_until out of range");
  }
  Engine engine(run.config, run.seed);
  std::vector<int> pids;
  pids.reserve(run.specs.size());
  for (const QuerySpec& spec : run.specs) {
    pids.push_back(engine.AddProcess(spec, units::Seconds(0.0)));
  }
  Status status =
      run.run_until >= 0
          ? engine.RunUntilProcessCompletes(
                pids[static_cast<size_t>(run.run_until)])
          : engine.Run();
  if (!status.ok()) return status;
  EngineRunResult out;
  out.results.reserve(pids.size());
  for (int pid : pids) out.results.push_back(engine.result(pid));
  out.duration = engine.now().value();
  return out;
}

StatusOr<EngineRunResult> BatchRunner::RunOne(const EngineRun& run) {
  if (cache_ == nullptr) return Execute(run);
  const uint64_t key =
      HashEngineRun(run.specs, run.config, run.seed, run.run_until);
  if (std::optional<RunCache::Entry> entry = cache_->Lookup(key)) {
    EngineRunResult out;
    out.results = std::move(entry->results);
    out.duration = entry->duration;
    return out;
  }
  StatusOr<EngineRunResult> result = Execute(run);
  if (result.ok()) {
    RunCache::Entry entry;
    entry.results = result->results;
    entry.duration = result->duration;
    cache_->Insert(key, std::move(entry));
  }
  return result;
}

std::vector<StatusOr<EngineRunResult>> BatchRunner::Run(
    const std::vector<EngineRun>& runs) {
  std::vector<std::future<StatusOr<EngineRunResult>>> futures;
  futures.reserve(runs.size());
  for (const EngineRun& run : runs) {
    futures.push_back(pool_.Submit([this, &run] { return RunOne(run); }));
  }
  std::vector<StatusOr<EngineRunResult>> out;
  out.reserve(runs.size());
  for (auto& future : futures) out.push_back(future.get());
  return out;
}

}  // namespace contender::sim
