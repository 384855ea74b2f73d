// The workload sampler: orchestrates all measurements Contender trains on —
// isolated (cold-cache) profiles, fact-table scan times (s_f), spoiler
// latencies per MPL, and steady-state mix observations (all pairs at MPL 2,
// Latin Hypercube runs at higher MPLs).
//
// The training runs are mutually independent simulations, so CollectAll()
// fans them across a pool with ThreadPool::Map. Every run's seed is drawn
// from the sampler's Rng before any run starts, in a fixed order, and the
// results are consumed by index, so the collected data is bit-identical for
// every pool width (including 1).

#ifndef CONTENDER_WORKLOAD_SAMPLER_H_
#define CONTENDER_WORKLOAD_SAMPLER_H_

#include <map>
#include <utility>
#include <vector>

#include "core/template_profile.h"
#include "sim/config.h"
#include "sim/engine_run.h"
#include "sim/run_cache.h"
#include "util/statusor.h"
#include "util/units.h"
#include "workload/workload.h"

namespace contender {

/// Everything the training phase collects.
struct TrainingData {
  std::vector<TemplateProfile> profiles;
  /// s_f: isolated full-scan time per fact table.
  ScanTimes scan_times;
  /// Steady-state observations, keyed implicitly by MPL in each entry.
  std::vector<MixObservation> observations;
  /// Total virtual time spent sampling (for the §5.4 cost accounting).
  units::Seconds sampling_seconds;
};

/// Sampling driver bound to one workload and one hardware model.
class WorkloadSampler {
 public:
  struct Options {
    /// MPLs to sample (mixes and spoiler latencies).
    std::vector<int> mpls = {2, 3, 4, 5};
    /// LHS rounds per MPL above 2 (paper: 4).
    int lhs_runs = 4;
    uint64_t seed = 42;
    /// Pool width for CollectAll; <= 0 selects hardware concurrency.
    int threads = 0;
    /// When non-null, counts every engine run the sampler executes.
    sim::RunCache* cache = nullptr;
  };

  WorkloadSampler(const Workload* workload, const sim::SimConfig& config,
                  const Options& options);

  /// Isolated cold-cache profile of one template (no spoiler latencies);
  /// draws one seed from the sampler's Rng.
  StatusOr<TemplateProfile> ProfileTemplate(int index);

  /// Runs the full paper §2 sampling protocol, fanned across the pool.
  StatusOr<TrainingData> CollectAll();

  /// The mixes CollectAll() would execute, per MPL. CollectAll runs
  /// exactly these; sampler_test pins the enumeration through it.
  StatusOr<std::vector<std::vector<int>>> MixesForMpl(int mpl);

 private:
  /// One isolated cold-cache run of a template's nominal instance.
  sim::EngineRun IsolatedRun(int index, uint64_t seed) const;
  /// Spoiler streams at `mpl` plus the primary; waits for the primary.
  sim::EngineRun SpoilerRun(int index, int mpl, uint64_t seed) const;
  /// Isolated full scan of one table.
  StatusOr<sim::EngineRun> ScanRun(sim::TableId table, uint64_t seed) const;
  /// Profile fields derived from the plan alone (no simulation).
  TemplateProfile MakeProfileSkeleton(int index) const;
  /// Steady-state observation of one mix under an explicit seed
  /// (thread-safe).
  StatusOr<std::vector<MixObservation>> ObserveMixSeeded(
      const std::vector<int>& mix, uint64_t seed) const;
  /// Adds `runs` executed engine runs to the options' counter, if any.
  void CountRuns(size_t runs);

  const Workload* workload_;
  sim::SimConfig config_;
  Options options_;
  Rng rng_;
};

}  // namespace contender

#endif  // CONTENDER_WORKLOAD_SAMPLER_H_
