// Property suite for the training phase's determinism contract: fanning
// engine runs, or a whole CollectAll, across a pool of any width with
// ThreadPool::Map produces results bit-identical to sequential execution.

#include "sim/engine_run.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/spoiler.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/sampler.h"
#include "workload/workload.h"

namespace contender::sim {
namespace {

void ExpectSameProcessResult(const ProcessResult& a, const ProcessResult& b) {
  EXPECT_EQ(a.process_id, b.process_id);
  EXPECT_EQ(a.template_id, b.template_id);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.io_busy_seconds, b.io_busy_seconds);
  EXPECT_EQ(a.cpu_busy_seconds, b.cpu_busy_seconds);
  EXPECT_EQ(a.disk_bytes_read, b.disk_bytes_read);
  EXPECT_EQ(a.bytes_saved_by_cache, b.bytes_saved_by_cache);
  EXPECT_EQ(a.bytes_saved_by_shared_scan, b.bytes_saved_by_shared_scan);
  EXPECT_EQ(a.max_memory_granted, b.max_memory_granted);
  EXPECT_EQ(a.spill_bytes, b.spill_bytes);
}

void ExpectSameOutcome(const StatusOr<EngineRunResult>& a,
                       const StatusOr<EngineRunResult>& b) {
  ASSERT_EQ(a.ok(), b.ok());
  if (!a.ok()) return;
  EXPECT_EQ(a->duration, b->duration);
  ASSERT_EQ(a->results.size(), b->results.size());
  for (size_t i = 0; i < a->results.size(); ++i) {
    ExpectSameProcessResult(a->results[i], b->results[i]);
  }
}

QuerySpec RandomSpec(Rng* rng, int tag) {
  QuerySpec spec;
  spec.name = "rand-" + std::to_string(tag);
  spec.template_id = tag;
  const int num_phases = 1 + static_cast<int>(rng->UniformInt(3));
  for (int ph = 0; ph < num_phases; ++ph) {
    Phase phase;
    if (rng->Uniform01() < 0.8) {
      phase.seq_io_bytes = rng->Uniform(1e8, 3e9);
      phase.table = static_cast<TableId>(rng->UniformInt(5));
      phase.table_bytes = phase.seq_io_bytes * rng->Uniform(1.0, 2.0);
      phase.cacheable = rng->Uniform01() < 0.3;
    }
    if (rng->Uniform01() < 0.5) {
      phase.rnd_io_bytes = rng->Uniform(1e6, 5e7);
    }
    phase.cpu_seconds = rng->Uniform(0.1, 20.0);
    if (rng->Uniform01() < 0.4) {
      phase.mem_demand_bytes = rng->Uniform(1e8, 4e9);
      phase.spillable = true;
    }
    spec.phases.push_back(phase);
  }
  return spec;
}

/// A randomized batch: synthetic multi-process runs, some waiting on a
/// designated primary, plus a few real spoiler runs from the paper workload.
std::vector<EngineRun> RandomBatch(uint64_t seed) {
  Rng rng(seed);
  std::vector<EngineRun> runs;
  for (int r = 0; r < 16; ++r) {
    EngineRun run;
    const int num_specs = 1 + static_cast<int>(rng.UniformInt(3));
    for (int s = 0; s < num_specs; ++s) {
      run.specs.push_back(RandomSpec(&rng, r * 10 + s));
    }
    if (rng.Uniform01() < 0.3) {
      run.run_until = static_cast<int>(run.specs.size()) - 1;
    }
    run.seed = rng.Next();
    runs.push_back(std::move(run));
  }
  const Workload workload = Workload::Paper();
  for (int mpl : {2, 3}) {
    EngineRun run;
    run.specs = MakeSpoiler(run.config, units::Mpl(mpl));
    run.specs.push_back(
        workload.InstantiateNominal(static_cast<int>(rng.UniformInt(
            static_cast<uint64_t>(workload.size())))));
    run.run_until = static_cast<int>(run.specs.size()) - 1;
    run.seed = rng.Next();
    runs.push_back(std::move(run));
  }
  return runs;
}

/// Executes the batch on a pool of `threads` workers, results by index.
std::vector<StatusOr<EngineRunResult>> RunOnPool(
    const std::vector<EngineRun>& runs, int threads) {
  ThreadPool pool(threads);
  return pool.Map(runs.size(), [&runs](size_t r) { return Execute(runs[r]); });
}

TEST(PoolDeterminismTest, PoolExecutionMatchesSequential) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::vector<EngineRun> runs = RandomBatch(seed);

    std::vector<StatusOr<EngineRunResult>> sequential;
    for (const EngineRun& run : runs) sequential.push_back(Execute(run));

    const std::vector<StatusOr<EngineRunResult>> pooled = RunOnPool(runs, 4);
    ASSERT_EQ(pooled.size(), sequential.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      ExpectSameOutcome(pooled[i], sequential[i]);
    }
  }
}

TEST(PoolDeterminismTest, PoolWidthDoesNotChangeResults) {
  const std::vector<EngineRun> runs = RandomBatch(7);
  const auto a = RunOnPool(runs, 1);
  const auto b = RunOnPool(runs, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ExpectSameOutcome(a[i], b[i]);
}

void ExpectSameTrainingData(const TrainingData& a, const TrainingData& b) {
  EXPECT_EQ(a.sampling_seconds, b.sampling_seconds);
  ASSERT_EQ(a.profiles.size(), b.profiles.size());
  for (size_t i = 0; i < a.profiles.size(); ++i) {
    const TemplateProfile& pa = a.profiles[i];
    const TemplateProfile& pb = b.profiles[i];
    EXPECT_EQ(pa.template_index, pb.template_index);
    EXPECT_EQ(pa.template_id, pb.template_id);
    EXPECT_EQ(pa.isolated_latency, pb.isolated_latency);
    EXPECT_EQ(pa.io_fraction, pb.io_fraction);
    EXPECT_EQ(pa.working_set_bytes, pb.working_set_bytes);
    EXPECT_EQ(pa.records_accessed, pb.records_accessed);
    EXPECT_EQ(pa.plan_steps, pb.plan_steps);
    EXPECT_EQ(pa.fact_tables, pb.fact_tables);
    EXPECT_EQ(pa.spoiler_latency, pb.spoiler_latency);
  }
  EXPECT_EQ(a.scan_times, b.scan_times);
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (size_t i = 0; i < a.observations.size(); ++i) {
    const MixObservation& oa = a.observations[i];
    const MixObservation& ob = b.observations[i];
    EXPECT_EQ(oa.primary_index, ob.primary_index);
    EXPECT_EQ(oa.concurrent_indices, ob.concurrent_indices);
    EXPECT_EQ(oa.mpl, ob.mpl);
    EXPECT_EQ(oa.latency, ob.latency);
  }
}

WorkloadSampler::Options ReducedOptions(int threads) {
  WorkloadSampler::Options options;
  options.mpls = {2, 3};
  options.lhs_runs = 1;
  options.seed = 99;
  options.threads = threads;
  return options;
}

TEST(PoolDeterminismTest, CollectAllIsPoolWidthInvariant) {
  const Workload workload = Workload::Paper();
  const SimConfig config;

  WorkloadSampler one(&workload, config, ReducedOptions(1));
  WorkloadSampler four(&workload, config, ReducedOptions(4));
  auto a = one.CollectAll();
  auto b = four.CollectAll();
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectSameTrainingData(*a, *b);
}

}  // namespace
}  // namespace contender::sim
