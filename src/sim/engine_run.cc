#include "sim/engine_run.h"

#include "sim/engine.h"

namespace contender::sim {

StatusOr<EngineRunResult> Execute(const EngineRun& run) {
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

}  // namespace contender::sim
