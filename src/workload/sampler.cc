#include "workload/sampler.h"

#include <algorithm>

#include "ml/lhs.h"
#include "sim/spoiler.h"
#include "util/thread_pool.h"
#include "workload/query_plan.h"
#include "workload/steady_state.h"

namespace contender {

WorkloadSampler::WorkloadSampler(const Workload* workload,
                                 const sim::SimConfig& config,
                                 const Options& options)
    : workload_(workload), config_(config), options_(options),
      rng_(options.seed) {}

void WorkloadSampler::CountRuns(size_t runs) {
  if (options_.cache != nullptr) options_.cache->Count(runs);
}

sim::EngineRun WorkloadSampler::IsolatedRun(int index, uint64_t seed) const {
  sim::EngineRun run;
  run.specs.push_back(workload_->InstantiateNominal(index));
  run.config = config_;
  run.seed = seed;
  return run;
}

sim::EngineRun WorkloadSampler::SpoilerRun(int index, int mpl,
                                           uint64_t seed) const {
  sim::EngineRun run;
  run.specs = sim::MakeSpoiler(config_, units::Mpl(mpl));
  run.specs.push_back(workload_->InstantiateNominal(index));
  run.config = config_;
  run.seed = seed;
  run.run_until = static_cast<int>(run.specs.size()) - 1;
  return run;
}

StatusOr<sim::EngineRun> WorkloadSampler::ScanRun(sim::TableId table,
                                                  uint64_t seed) const {
  auto def = workload_->catalog().FindById(table);
  if (!def.ok()) return def.status();
  sim::QuerySpec spec;
  spec.name = "scan-" + def->name;
  sim::Phase phase;
  phase.seq_io_bytes = def->bytes;
  phase.table = def->id;
  phase.table_bytes = def->bytes;
  phase.cacheable = !def->is_fact;
  spec.phases.push_back(phase);
  sim::EngineRun run;
  run.specs.push_back(std::move(spec));
  run.config = config_;
  run.seed = seed;
  return run;
}

TemplateProfile WorkloadSampler::MakeProfileSkeleton(int index) const {
  TemplateProfile profile;
  profile.template_index = index;
  profile.template_id = workload_->tmpl(index).id;
  const PlanNode& plan = workload_->NominalPlan(index);
  profile.plan_steps = CountPlanSteps(plan);
  profile.records_accessed = SumPlanRows(plan);
  profile.fact_tables = FactTablesScanned(plan, workload_->catalog());
  const sim::QuerySpec spec = workload_->InstantiateNominal(index);
  double ws = 0.0;
  for (const sim::Phase& phase : spec.phases) {
    ws = std::max(ws, phase.mem_demand_bytes);
  }
  profile.working_set_bytes = units::Bytes(ws);
  return profile;
}

StatusOr<TemplateProfile> WorkloadSampler::ProfileTemplate(int index) {
  if (index < 0 || index >= workload_->size()) {
    return Status::InvalidArgument("ProfileTemplate: bad template index");
  }
  TemplateProfile profile = MakeProfileSkeleton(index);

  // Isolated cold-cache run (fresh engine => empty buffer pool).
  auto isolated = sim::Execute(IsolatedRun(index, rng_.Next()));
  CountRuns(1);
  if (!isolated.ok()) return isolated.status();
  const sim::ProcessResult& r = isolated->results.back();
  profile.isolated_latency = r.latency();
  profile.io_fraction = r.io_fraction();
  return profile;
}

StatusOr<std::vector<MixObservation>> WorkloadSampler::ObserveMixSeeded(
    const std::vector<int>& mix, uint64_t seed) const {
  auto result = RunSteadyState(*workload_, mix, config_, seed);
  if (!result.ok()) return result.status();

  std::vector<MixObservation> out;
  for (size_t s = 0; s < result->streams.size(); ++s) {
    MixObservation obs;
    obs.primary_index = mix[s];
    obs.mpl = static_cast<int>(mix.size());
    for (size_t o = 0; o < mix.size(); ++o) {
      if (o != s) obs.concurrent_indices.push_back(mix[o]);
    }
    obs.latency = units::Seconds(result->streams[s].mean_latency);
    out.push_back(std::move(obs));
  }
  return out;
}

StatusOr<std::vector<std::vector<int>>> WorkloadSampler::MixesForMpl(
    int mpl) {
  const int n = workload_->size();
  if (mpl == 2) return AllPairs(n);
  return LatinHypercubeRuns(n, mpl, options_.lhs_runs, &rng_);
}

StatusOr<TrainingData> WorkloadSampler::CollectAll() {
  TrainingData data;
  const int n = workload_->size();
  for (int mpl : options_.mpls) {
    if (mpl < 2) {
      return Status::InvalidArgument("CollectAll: spoiler MPLs must be >= 2");
    }
    if (mpl > 2 && options_.lhs_runs < 1) {
      return Status::InvalidArgument(
          "CollectAll: lhs_runs must be >= 1 to sample MPLs above 2");
    }
  }

  // Phase 1: draw every run's seed from the sampler Rng in a fixed order
  // before any run starts, so the collected data does not depend on the
  // pool width.
  struct ProfileTask {
    uint64_t isolated_seed = 0;
    std::vector<std::pair<int, uint64_t>> spoiler_seeds;  // (mpl, seed)
  };
  std::vector<ProfileTask> profile_tasks(static_cast<size_t>(n));
  for (ProfileTask& task : profile_tasks) {
    task.isolated_seed = rng_.Next();
    for (int mpl : options_.mpls) {
      task.spoiler_seeds.emplace_back(mpl, rng_.Next());
    }
  }
  const std::vector<TableDef> fact_tables = workload_->catalog().FactTables();
  std::vector<uint64_t> scan_seeds;
  scan_seeds.reserve(fact_tables.size());
  for (size_t f = 0; f < fact_tables.size(); ++f) {
    scan_seeds.push_back(rng_.Next());
  }
  struct MixTask {
    std::vector<int> mix;
    uint64_t seed = 0;
  };
  std::vector<MixTask> mix_tasks;
  for (int mpl : options_.mpls) {
    auto mixes = MixesForMpl(mpl);
    if (!mixes.ok()) return mixes.status();
    for (auto& mix : *mixes) {
      mix_tasks.push_back({std::move(mix), rng_.Next()});
    }
  }

  // Phase 2: fan every engine run (isolated, spoilers, scans) across the
  // pool; the flattened run list is consumed back in index order.
  std::vector<sim::EngineRun> runs;
  for (int i = 0; i < n; ++i) {
    const ProfileTask& task = profile_tasks[static_cast<size_t>(i)];
    runs.push_back(IsolatedRun(i, task.isolated_seed));
    for (const auto& [mpl, seed] : task.spoiler_seeds) {
      runs.push_back(SpoilerRun(i, mpl, seed));
    }
  }
  for (size_t f = 0; f < fact_tables.size(); ++f) {
    auto run = ScanRun(fact_tables[f].id, scan_seeds[f]);
    if (!run.ok()) return run.status();
    runs.push_back(std::move(*run));
  }
  ThreadPool pool(options_.threads <= 0 ? ThreadPool::DefaultThreads()
                                        : options_.threads);
  std::vector<StatusOr<sim::EngineRunResult>> outcomes = pool.Map(
      runs.size(), [&runs](size_t r) { return sim::Execute(runs[r]); });
  CountRuns(runs.size());

  size_t cursor = 0;
  for (int i = 0; i < n; ++i) {
    const StatusOr<sim::EngineRunResult>& isolated = outcomes[cursor++];
    if (!isolated.ok()) return isolated.status();
    TemplateProfile profile = MakeProfileSkeleton(i);
    profile.isolated_latency = isolated->results.back().latency();
    profile.io_fraction = isolated->results.back().io_fraction();
    for (const auto& [mpl, seed] : profile_tasks[static_cast<size_t>(i)]
                                       .spoiler_seeds) {
      (void)seed;
      const StatusOr<sim::EngineRunResult>& spoiled = outcomes[cursor++];
      if (!spoiled.ok()) return spoiled.status();
      profile.spoiler_latency[mpl] = spoiled->results.back().latency();
    }
    data.sampling_seconds += profile.isolated_latency;
    for (const auto& [mpl, lmax] : profile.spoiler_latency) {
      (void)mpl;
      data.sampling_seconds += lmax;
    }
    data.profiles.push_back(std::move(profile));
  }
  for (size_t f = 0; f < fact_tables.size(); ++f) {
    const StatusOr<sim::EngineRunResult>& scan = outcomes[cursor++];
    if (!scan.ok()) return scan.status();
    const units::Seconds s_f = scan->results.back().latency();
    data.scan_times[fact_tables[f].id] = s_f;
    data.sampling_seconds += s_f;
  }

  // Phase 3: steady-state mix observations, fanned the same way.
  auto mix_results = pool.Map(mix_tasks.size(), [this, &mix_tasks](size_t m) {
    return ObserveMixSeeded(mix_tasks[m].mix, mix_tasks[m].seed);
  });
  CountRuns(mix_tasks.size());
  for (const auto& obs : mix_results) {
    if (!obs.ok()) return obs.status();
    data.observations.insert(data.observations.end(), obs->begin(),
                             obs->end());
  }
  return data;
}

}  // namespace contender
