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
// accounting, and re-solves rates. A step makes one classification pass
// over the active processes and allocates nothing once its scratch has
// grown to the largest active set.

#ifndef CONTENDER_SIM_ENGINE_H_
#define CONTENDER_SIM_ENGINE_H_

#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
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
  /// drivers) and may request a stop via RequestStop(). The result
  /// reference stays valid for the whole call, AddProcess included.
  using CompletionCallback = std::function<void(const ProcessResult&)>;

  Engine(const SimConfig& config, uint64_t seed);

  /// Schedules a query to start at `start_time` (>= now). Returns the
  /// process id. The spec's phases move into the engine (pass an rvalue
  /// to avoid a copy). Mortal processes run the per-query startup CPU
  /// cost first.
  int AddProcess(QuerySpec spec, units::Seconds start_time);

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

  /// Accounting for any process ever added. The reference stays valid
  /// for the engine's lifetime (later AddProcess calls do not move it).
  const ProcessResult& result(int process_id) const;
  size_t num_processes() const { return processes_.size(); }

 private:
  struct Process {
    /// The spec's phases. A process with `startup` runs the engine's
    /// startup_phase_ while phase_index == 0 and phases[i] at index i + 1.
    std::vector<Phase> phases;
    bool startup = false;
    bool immortal = false;
    double pinned_memory_bytes = 0.0;
    ProcessResult result;
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
    bool seq_from_cache = false;
    // Set by Step's classification pass for this step: the random and
    // spill streams' intrinsic caps (bandwidth x multiplier) and the size
    // of the scan group the sequential stream belongs to (1 if private).
    double rnd_cap = 0.0;
    double spill_cap = 0.0;
    int scan_group_size = 1;
  };

  /// The phase the process is on; null once it has run them all.
  const Phase* CurrentPhase(const Process& p) const;

  /// Starts the process's next phase: memory grant, spill computation,
  /// cache check, noise draws. Recursively skips empty phases.
  void InitPhase(Process* p);

  /// True once every demand of the current phase is exhausted.
  static bool PhaseDone(const Process& p);

  void CompletePhase(Process* p);
  void CompleteProcess(Process* p);

  /// Memory-pressure reclaim: takes up to `need` bytes from active
  /// processes whose current grant exceeds `requester_demand` (largest
  /// first, ties to the lowest id); victims incur swap (spill) traffic.
  /// Returns the bytes freed.
  double RevokeMemoryFromLargerHolders(Process* requester, double need,
                                       double requester_demand);

  /// One fluid step: solve rates, pick dt, advance. Returns false when
  /// nothing can make progress (no active demand and no pending arrival).
  bool Step();

  /// Step's advance pass: moves every active process `dt` forward at this
  /// step's rates, in id order.
  void Advance(double dt, double seq_rate, double cpu_rate, double disk_share);

  /// Sum of `field` over the active processes (the memory-ledger checks).
  double SumActive(double Process::*field) const;

  void ActivateArrivals();
  double NextArrivalTime() const;
  void UpdateBufferPoolCapacity();

  SimConfig config_;
  Rng rng_;
  double now_ = 0.0;
  bool stop_requested_ = false;

  // Every process ever added, indexed by id. A deque, so AddProcess (from
  // a completion callback too) never moves a live Process: active_ points
  // into it and callbacks hold ProcessResult references.
  std::deque<Process> processes_;
  // The arrived processes in ascending id order. Finished ones linger,
  // skipped, until the next step's classification pass drops them. The
  // order is observable: InitPhase draws from rng_ in it and reclaim
  // breaks victim ties by it.
  std::vector<Process*> active_;
  // Not-yet-arrived processes as a min-heap on (start time, id).
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>, std::greater<>>
      pending_;
  size_t num_done_ = 0;
  // Mortal processes not yet completed, pending ones included: Run's
  // termination test.
  size_t unfinished_mortal_ = 0;
  // The per-query startup CPU phase mortal processes run first.
  Phase startup_phase_;

  // Step's scratch, refilled by every classification pass; its capacity
  // persists, so steps stop allocating once it covers the active set.
  std::vector<std::pair<TableId, Process*>> scan_members_;  // (table, member)
  // Processes with a random or spill stream this step.
  std::vector<const Process*> seek_bound_;

  BufferPool buffer_pool_;
  double pinned_memory_ = 0.0;
  double granted_working_memory_ = 0.0;

  CompletionCallback completion_callback_;

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();
  static constexpr double kEps = 1e-7;
  // How far a memory ledger may drift from its recomputed sum: the running
  // ledgers accumulate the rounding of every grant and release.
  static constexpr double kLedgerSlackBytes = 1.0;
};

}  // namespace contender::sim

#endif  // CONTENDER_SIM_ENGINE_H_
