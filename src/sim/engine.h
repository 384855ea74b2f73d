// The execution engine: a deterministic fluid (rate-based) discrete-event
// simulator of concurrent analytical queries competing for one disk, a
// buffer pool, working memory, and CPU cores.
//
// Between events every active process progresses its current phase's
// demands at constant rates:
//   - sequential I/O: scan groups (one per table) share the disk fairly
//     with random streams (see disk.h); all members of a scan group advance
//     at the full group rate (synchronized scans);
//   - spill I/O: swap-style scattered traffic from memory shortfalls,
//     modeled as a private random stream (seek-bound, never shared);
//   - random I/O: capped by a per-phase stochastic intrinsic rate;
//   - CPU: one core per process, processor sharing when oversubscribed.
// The engine advances to the earliest demand completion / arrival, updates
// accounting, and re-solves rates.

#ifndef CONTENDER_SIM_ENGINE_H_
#define CONTENDER_SIM_ENGINE_H_

#include <functional>
#include <limits>
#include <vector>

#include "sim/buffer_pool.h"
#include "sim/config.h"
#include "sim/query_spec.h"
#include "util/random.h"
#include "util/status.h"
#include "util/units.h"

namespace contender::sim {

/// Concurrent query execution simulator. Single-threaded, deterministic
/// under a fixed seed. One Engine models one continuous machine run (the
/// buffer pool persists across queries added to the same engine).
class Engine {
 public:
  /// Invoked when a process completes; may call AddProcess (steady-state
  /// drivers) and may request a stop via RequestStop().
  using CompletionCallback = std::function<void(const ProcessResult&)>;

  Engine(const SimConfig& config, uint64_t seed);

  /// Schedules a query to start at `start_time` (>= now). Returns the
  /// process id. The engine prepends the per-query startup CPU cost for
  /// mortal processes.
  int AddProcess(const QuerySpec& spec, units::Seconds start_time);

  void SetCompletionCallback(CompletionCallback cb) {
    completion_callback_ = std::move(cb);
  }

  /// Runs until every mortal process has completed and no arrivals remain
  /// (immortal spoiler streams do not keep the engine alive), or until
  /// RequestStop() is called from the completion callback.
  Status Run();

  /// Runs until the given process completes (other processes keep running
  /// up to that instant, then the engine stops).
  Status RunUntilProcessCompletes(int process_id);

  /// Stops the run loop after the current event (valid inside callbacks).
  void RequestStop() { stop_requested_ = true; }

  units::Seconds now() const { return units::Seconds(now_); }
  const SimConfig& config() const { return config_; }
  const BufferPool& buffer_pool() const { return buffer_pool_; }
  /// Currently granted working memory plus pinned memory.
  units::Bytes memory_in_use() const;

  /// Accounting for any process ever added.
  const ProcessResult& result(int process_id) const;
  size_t num_processes() const { return processes_.size(); }

 private:
  struct Process {
    QuerySpec spec;
    ProcessResult result;
    bool arrived = false;
    bool done = false;
    size_t phase_index = 0;
    bool phase_ready = false;
    // Remaining demands of the current phase.
    double seq_remaining = 0.0;
    double spill_remaining = 0.0;
    double rnd_remaining = 0.0;
    double cpu_remaining = 0.0;
    // Per-phase draws and grants.
    double rnd_rate_multiplier = 1.0;
    double spill_rate_multiplier = 1.0;
    double mem_granted = 0.0;
    // The pin ActivateArrivals granted (the request clipped to what was
    // free), released exactly at completion.
    double pinned = 0.0;
    // Scan metadata for the current phase.
    TableId seq_table = kNoTable;
    double seq_table_bytes = 0.0;
    bool seq_cacheable = false;
    bool seq_from_cache = false;
  };

  /// Starts the process's next phase: memory grant, spill computation,
  /// cache check, noise draws. Recursively skips empty phases.
  void InitPhase(Process* p);

  /// True once every demand of the current phase is exhausted.
  static bool PhaseDone(const Process& p);

  void CompletePhase(Process* p);
  void CompleteProcess(Process* p);

  /// Memory-pressure reclaim: takes up to `need` bytes from arrived
  /// processes whose current grant exceeds `requester_demand` (largest
  /// first); victims incur swap (spill) traffic. Returns the bytes freed.
  double RevokeMemoryFromLargerHolders(Process* requester, double need,
                                       double requester_demand);

  /// One fluid step: solve rates, pick dt, advance. Returns false when
  /// nothing can make progress (no active demand and no pending arrival).
  bool Step();

  void ActivateArrivals();
  double NextArrivalTime() const;
  void UpdateBufferPoolCapacity();

  SimConfig config_;
  Rng rng_;
  double now_ = 0.0;
  bool stop_requested_ = false;

  std::vector<Process> processes_;
  // Indices of processes not yet arrived, kept sorted by start time.
  std::vector<int> pending_;

  BufferPool buffer_pool_;
  double pinned_memory_ = 0.0;
  double granted_working_memory_ = 0.0;

  CompletionCallback completion_callback_;

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();
  static constexpr double kEps = 1e-7;
};

}  // namespace contender::sim

#endif  // CONTENDER_SIM_ENGINE_H_
