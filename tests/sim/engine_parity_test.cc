// Parity of sim::Engine with the engine it replaced. That engine rescanned
// every process ever added on each event; it is copied here verbatim (only
// its namespace changed) as reference::Engine, and runs on the verbatim
// list-plus-map BufferPool and AllocateDiskBandwidth of reference_sim.h,
// not on the library's pool and rate rule. Both engines run the same
// seeded workloads and every ProcessResult field, the completion order and
// now() must match with exact ==. The workloads cover start times out of
// id order and tied, AddProcess from completion callbacks, memory pressure
// that revokes grants, shared and cached scans, immortal spoilers,
// RunUntilProcessCompletes and RequestStop.
//
// The reference keeps two lifetime bugs of the replaced engine, both on a
// completion callback that calls AddProcess (which may reallocate its
// processes_ vector): the callback's ProcessResult argument refers into
// that vector, and Step's activation pass iterates the vector while
// InitPhase can complete a process. The callbacks below read their
// argument before AddProcess, and callbacks only add processes in
// workloads with a startup CPU phase, so no process completes during
// activation there; neither bug is exercised.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/config.h"
#include "sim/engine.h"
#include "sim/query_spec.h"
#include "sim/reference_sim.h"
#include "sim/spoiler.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/units.h"

namespace contender::sim {
namespace reference {

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

namespace {
// Demand remainders below these thresholds count as exhausted.
constexpr double kByteEps = 0.5;
constexpr double kCpuEps = 1e-9;
}  // namespace

Engine::Engine(const SimConfig& config, uint64_t seed)
    : config_(config),
      rng_(seed),
      buffer_pool_(
          std::max(0.0, config.ram_bytes - config.os_reserved_bytes) *
          config.buffer_pool_fraction) {}

int Engine::AddProcess(const QuerySpec& spec, units::Seconds start) {
  const double start_time = start.value();
  CONTENDER_CHECK(start_time >= now_ - kEps)
      << "process scheduled in the past";
  Process p;
  p.spec = spec;
  if (!spec.immortal && config_.startup_cpu_seconds > 0.0) {
    Phase startup;
    startup.cpu_seconds = config_.startup_cpu_seconds;
    p.spec.phases.insert(p.spec.phases.begin(), startup);
  }
  const int id = static_cast<int>(processes_.size());
  p.result.process_id = id;
  p.result.template_id = spec.template_id;
  p.result.name = spec.name;
  p.result.start_time = start_time;
  processes_.push_back(std::move(p));
  pending_.push_back(id);
  std::sort(pending_.begin(), pending_.end(), [&](int a, int b) {
    const double ta = processes_[static_cast<size_t>(a)].result.start_time;
    const double tb = processes_[static_cast<size_t>(b)].result.start_time;
    if (ta != tb) return ta < tb;
    return a < b;  // deterministic tie-break: insertion order
  });
  return id;
}

units::Bytes Engine::memory_in_use() const {
  return units::Bytes(pinned_memory_ + granted_working_memory_);
}

const ProcessResult& Engine::result(int process_id) const {
  return processes_.at(static_cast<size_t>(process_id)).result;
}

void Engine::UpdateBufferPoolCapacity() {
  const double grantable =
      std::max(0.0, config_.ram_bytes - config_.os_reserved_bytes);
  const double free_ram =
      std::max(0.0, grantable - pinned_memory_ - granted_working_memory_);
  buffer_pool_.SetCapacity(free_ram * config_.buffer_pool_fraction);
}

void Engine::ActivateArrivals() {
  while (!pending_.empty()) {
    const int id = pending_.front();
    Process& p = processes_[static_cast<size_t>(id)];
    if (p.result.start_time > now_ + kEps) break;
    pending_.erase(pending_.begin());
    p.arrived = true;
    p.result.start_time = now_;
    // Pin memory with priority; the pin is bounded by what exists.
    const double grantable =
        std::max(0.0, config_.ram_bytes - config_.os_reserved_bytes);
    const double available =
        std::max(0.0, grantable - pinned_memory_ - granted_working_memory_);
    p.pinned = std::min(p.spec.pinned_memory_bytes, available);
    pinned_memory_ += p.pinned;
    p.result.max_memory_granted =
        std::max(p.result.max_memory_granted, p.pinned);
    UpdateBufferPoolCapacity();
  }
}

double Engine::NextArrivalTime() const {
  if (pending_.empty()) return kInfinity;
  return processes_[static_cast<size_t>(pending_.front())].result.start_time;
}

bool Engine::PhaseDone(const Process& p) {
  return p.seq_remaining <= kByteEps && p.spill_remaining <= kByteEps &&
         p.rnd_remaining <= kByteEps && p.cpu_remaining <= kCpuEps;
}

void Engine::InitPhase(Process* p) {
  while (!p->done) {
    if (p->phase_index >= p->spec.phases.size()) {
      CompleteProcess(p);
      return;
    }
    const Phase& phase = p->spec.phases[p->phase_index];

    p->seq_remaining = phase.seq_io_bytes;
    p->seq_table = phase.table;
    p->seq_table_bytes = phase.table_bytes;
    p->seq_cacheable = phase.cacheable;
    p->seq_from_cache = false;
    if (p->seq_remaining > 0.0 && phase.cacheable &&
        buffer_pool_.IsCached(phase.table)) {
      buffer_pool_.Touch(phase.table);
      p->result.bytes_saved_by_cache += p->seq_remaining;
      p->seq_remaining = 0.0;
      p->seq_from_cache = true;
    }

    p->rnd_remaining = phase.rnd_io_bytes;
    if (p->rnd_remaining > 0.0) {
      const double sigma = config_.random_io_sigma;
      p->rnd_rate_multiplier =
          sigma > 0.0 ? rng_.LogNormal(-0.5 * sigma * sigma, sigma) : 1.0;
    } else {
      p->rnd_rate_multiplier = 1.0;
    }

    double cpu = phase.cpu_seconds;
    if (cpu > 0.0 && config_.cpu_jitter > 0.0) {
      cpu *= std::max(0.1, rng_.Normal(1.0, config_.cpu_jitter));
    }
    p->cpu_remaining = cpu;

    // Working-memory grant and spill calculus.
    p->mem_granted = 0.0;
    p->spill_remaining = 0.0;
    if (phase.mem_demand_bytes > 0.0) {
      const double grantable =
          std::max(0.0, config_.ram_bytes - config_.os_reserved_bytes);
      double available = std::max(
          0.0, grantable - pinned_memory_ - granted_working_memory_);
      if (phase.mem_demand_bytes > available) {
        // Memory pressure: the OS reclaims pages from the largest resident
        // working sets first. Revoke grants from processes holding more
        // than this phase demands; the victims re-read the swapped pages
        // (spill traffic). Pinned memory is never revoked.
        available += RevokeMemoryFromLargerHolders(
            p, phase.mem_demand_bytes - available, phase.mem_demand_bytes);
      }
      p->mem_granted = std::min(phase.mem_demand_bytes, available);
      granted_working_memory_ += p->mem_granted;
      p->result.max_memory_granted =
          std::max(p->result.max_memory_granted, p->mem_granted);
      const double shortfall = phase.mem_demand_bytes - p->mem_granted;
      if (phase.spillable && shortfall > 0.0) {
        p->spill_remaining = shortfall * config_.spill_amplification;
        p->result.spill_bytes += p->spill_remaining;
        const double sigma = config_.spill_io_sigma;
        p->spill_rate_multiplier =
            sigma > 0.0 ? rng_.LogNormal(-0.5 * sigma * sigma, sigma) : 1.0;
      }
      UpdateBufferPoolCapacity();
    }

    p->phase_ready = true;
    if (!PhaseDone(*p)) return;
    CompletePhase(p);
  }
}

double Engine::RevokeMemoryFromLargerHolders(Process* requester, double need,
                                             double requester_demand) {
  double freed = 0.0;
  while (need > 0.0) {
    Process* victim = nullptr;
    for (Process& cand : processes_) {
      if (&cand == requester || cand.done || !cand.arrived) continue;
      // Only working sets of comparable or larger size are reclaim
      // victims; small residents are left alone.
      if (cand.mem_granted <= 0.5 * requester_demand) continue;
      if (victim == nullptr || cand.mem_granted > victim->mem_granted) {
        victim = &cand;
      }
    }
    if (victim == nullptr) break;
    const double take = std::min(victim->mem_granted, need);
    victim->mem_granted -= take;
    granted_working_memory_ -= take;
    const double swap = take * config_.spill_amplification;
    victim->spill_remaining += swap;
    victim->result.spill_bytes += swap;
    if (victim->spill_rate_multiplier == 1.0 &&
        config_.spill_io_sigma > 0.0) {
      const double sigma = config_.spill_io_sigma;
      victim->spill_rate_multiplier =
          rng_.LogNormal(-0.5 * sigma * sigma, sigma);
    }
    freed += take;
    need -= take;
  }
  return freed;
}

void Engine::CompletePhase(Process* p) {
  const Phase& phase = p->spec.phases[p->phase_index];
  if (p->mem_granted > 0.0) {
    granted_working_memory_ -= p->mem_granted;
    p->mem_granted = 0.0;
    UpdateBufferPoolCapacity();
  }
  if (phase.cacheable && !p->seq_from_cache && phase.seq_io_bytes > 0.0 &&
      phase.seq_io_bytes >= phase.table_bytes - kByteEps) {
    buffer_pool_.Admit(phase.table, phase.table_bytes);
  }
  ++p->phase_index;
  p->phase_ready = false;
}

void Engine::CompleteProcess(Process* p) {
  p->done = true;
  p->phase_ready = false;
  p->result.end_time = now_;
  p->result.completed = true;
  if (p->pinned > 0.0) {
    pinned_memory_ -= p->pinned;
    p->pinned = 0.0;
    UpdateBufferPoolCapacity();
  }
  if (completion_callback_) completion_callback_(p->result);
}

bool Engine::Step() {
  const size_t pending_before = pending_.size();
  size_t done_before = 0;
  for (const Process& p : processes_) {
    if (p.done) ++done_before;
  }

  ActivateArrivals();

  for (Process& p : processes_) {
    if (p.arrived && !p.done && !p.phase_ready) InitPhase(&p);
  }

  // Build disk demand: shared scan groups for non-negative tables, private
  // sequential streams for negative tables, and seek-bound random streams
  // for index I/O and spill (swap) traffic.
  std::map<TableId, std::vector<size_t>> scan_groups;
  int private_streams = 0;
  enum class RndKind { kIndex, kSpill };
  std::vector<std::pair<size_t, RndKind>> rnd_streams;
  DiskDemand demand;
  for (size_t i = 0; i < processes_.size(); ++i) {
    Process& p = processes_[i];
    if (!p.arrived || p.done || !p.phase_ready) continue;
    if (p.seq_remaining > kByteEps) {
      if (p.seq_table >= 0) {
        scan_groups[p.seq_table].push_back(i);
      } else {
        ++private_streams;
      }
    }
    if (p.rnd_remaining > kByteEps) {
      rnd_streams.emplace_back(i, RndKind::kIndex);
      demand.random_stream_caps.push_back(config_.random_bandwidth *
                                          p.rnd_rate_multiplier);
    }
    if (p.spill_remaining > kByteEps) {
      rnd_streams.emplace_back(i, RndKind::kSpill);
      demand.random_stream_caps.push_back(config_.spill_bandwidth *
                                          p.spill_rate_multiplier);
    }
  }
  demand.num_seq_groups =
      static_cast<int>(scan_groups.size()) + private_streams;
  const DiskAllocation alloc = AllocateDiskBandwidth(config_, demand);

  // Per-process rates.
  const size_t n = processes_.size();
  std::vector<double> seq_rate(n, 0.0), spill_rate(n, 0.0), rnd_rate(n, 0.0);
  std::vector<int> group_size(n, 1);
  for (const auto& [table, members] : scan_groups) {
    for (size_t i : members) {
      seq_rate[i] = alloc.seq_group_rate;
      group_size[i] = static_cast<int>(members.size());
    }
  }
  for (size_t i = 0; i < n; ++i) {
    Process& p = processes_[i];
    if (!p.arrived || p.done || !p.phase_ready) continue;
    if (p.seq_remaining > kByteEps && p.seq_table < 0) {
      seq_rate[i] = alloc.seq_group_rate;
    }
  }
  for (size_t k = 0; k < rnd_streams.size(); ++k) {
    const auto& [i, kind] = rnd_streams[k];
    if (kind == RndKind::kIndex) {
      rnd_rate[i] = alloc.random_stream_rates[k];
    } else {
      spill_rate[i] = alloc.random_stream_rates[k];
    }
  }

  int cpu_active = 0;
  for (const Process& p : processes_) {
    if (p.arrived && !p.done && p.phase_ready && p.cpu_remaining > kCpuEps) {
      ++cpu_active;
    }
  }
  const double cpu_rate =
      cpu_active == 0
          ? 0.0
          : std::min(1.0, static_cast<double>(config_.cores) /
                              static_cast<double>(cpu_active));

  // Earliest completion among all active demands, capped by next arrival.
  double dt = kInfinity;
  for (size_t i = 0; i < n; ++i) {
    const Process& p = processes_[i];
    if (!p.arrived || p.done || !p.phase_ready) continue;
    if (p.seq_remaining > kByteEps && seq_rate[i] > 0.0) {
      dt = std::min(dt, p.seq_remaining / seq_rate[i]);
    }
    if (p.spill_remaining > kByteEps && spill_rate[i] > 0.0) {
      dt = std::min(dt, p.spill_remaining / spill_rate[i]);
    }
    if (p.rnd_remaining > kByteEps && rnd_rate[i] > 0.0) {
      dt = std::min(dt, p.rnd_remaining / rnd_rate[i]);
    }
    if (p.cpu_remaining > kCpuEps && cpu_rate > 0.0) {
      dt = std::min(dt, p.cpu_remaining / cpu_rate);
    }
  }
  const double arrival_gap = NextArrivalTime() - now_;
  const bool has_arrival = std::isfinite(arrival_gap);
  if (!std::isfinite(dt)) {
    if (has_arrival) {
      now_ += std::max(0.0, arrival_gap);
      return true;
    }
    // No advanceable demand: the step still made progress if it activated
    // arrivals or completed zero-demand processes (e.g., full cache hits).
    size_t done_now = 0;
    for (const Process& p : processes_) {
      if (p.done) ++done_now;
    }
    return done_now != done_before || pending_.size() != pending_before;
  }
  if (has_arrival && arrival_gap < dt) {
    dt = std::max(0.0, arrival_gap);
  }

  // Advance.
  now_ += dt;
  for (size_t i = 0; i < n; ++i) {
    Process& p = processes_[i];
    if (!p.arrived || p.done || !p.phase_ready) continue;
    const bool had_io = p.seq_remaining > kByteEps ||
                        p.spill_remaining > kByteEps ||
                        p.rnd_remaining > kByteEps;
    if (p.seq_remaining > kByteEps && seq_rate[i] > 0.0) {
      const double bytes = std::min(p.seq_remaining, seq_rate[i] * dt);
      p.seq_remaining -= bytes;
      const double share = static_cast<double>(group_size[i]);
      p.result.disk_bytes_read += bytes / share;
      p.result.bytes_saved_by_shared_scan += bytes * (share - 1.0) / share;
    }
    if (p.spill_remaining > kByteEps && spill_rate[i] > 0.0) {
      const double bytes = std::min(p.spill_remaining, spill_rate[i] * dt);
      p.spill_remaining -= bytes;
      p.result.disk_bytes_read += bytes;
    }
    if (p.rnd_remaining > kByteEps && rnd_rate[i] > 0.0) {
      const double bytes = std::min(p.rnd_remaining, rnd_rate[i] * dt);
      p.rnd_remaining -= bytes;
      p.result.disk_bytes_read += bytes;
    }
    if (p.cpu_remaining > kCpuEps && cpu_rate > 0.0) {
      const double work = std::min(p.cpu_remaining, cpu_rate * dt);
      p.cpu_remaining -= work;
      p.result.cpu_busy_seconds += dt;
    }
    if (had_io) p.result.io_busy_seconds += dt;

    if (p.seq_remaining <= kByteEps) p.seq_remaining = 0.0;
    if (p.spill_remaining <= kByteEps) p.spill_remaining = 0.0;
    if (p.rnd_remaining <= kByteEps) p.rnd_remaining = 0.0;
    if (p.cpu_remaining <= kCpuEps) p.cpu_remaining = 0.0;
  }

  // Phase / process completions (callbacks may add arrivals).
  for (size_t i = 0; i < n; ++i) {
    Process& p = processes_[i];
    if (!p.arrived || p.done || !p.phase_ready) continue;
    if (PhaseDone(p)) {
      CompletePhase(&p);
      InitPhase(&p);
    }
  }
  return true;
}

Status Engine::Run() {
  stop_requested_ = false;
  while (!stop_requested_) {
    bool mortal_active = false;
    for (const Process& p : processes_) {
      if (!p.spec.immortal && !p.done) {
        mortal_active = true;
        break;
      }
    }
    if (!mortal_active) break;
    if (!Step()) {
      return Status::Internal("engine stalled with unfinished processes");
    }
  }
  return Status::OK();
}

Status Engine::RunUntilProcessCompletes(int process_id) {
  if (process_id < 0 ||
      static_cast<size_t>(process_id) >= processes_.size()) {
    return Status::InvalidArgument("unknown process id");
  }
  stop_requested_ = false;
  while (!stop_requested_ &&
         !processes_[static_cast<size_t>(process_id)].done) {
    if (!Step()) {
      return Status::Internal("engine stalled before target completed");
    }
  }
  return Status::OK();
}

}  // namespace reference

namespace {

struct Arrival {
  QuerySpec spec;
  double start = 0.0;
};

// One seeded scenario, built once and replayed on both engines.
struct Workload {
  SimConfig config;
  uint64_t engine_seed = 0;
  bool lockstep = false;  // see RandomQuery
  std::vector<Arrival> initial;
  // Every `chain_every`-th completion adds one process (0 = never), drawn
  // from an Rng seeded with `chain_seed`, at most `chain_budget` times.
  int chain_every = 0;
  int chain_budget = 0;
  uint64_t chain_seed = 0;
  // RequestStop at this completion count (0 = never); Run resumes after.
  int stop_at = 0;
  // RunUntilProcessCompletes(run_until) before Run (-1 = skip).
  int run_until = -1;
  // Arrivals added between the first and the second Run.
  std::vector<Arrival> late;
};

// Fact tables are 0..2; this one is small and cacheable.
constexpr TableId kDimensionTable = 3;

// With `lockstep`, CPU demands sit on a 2.5 s grid: run jitter-free from
// grid start times, processes that arrived in different orders finish
// phases at the same event, where the order of their next InitPhase draws
// shows. Memory demands sit on a 0.5 GB grid, so reclaim meets victims
// with equal grants.
QuerySpec RandomQuery(Rng* rng, int id, bool lockstep) {
  QuerySpec q;
  q.name = "q" + std::to_string(id);
  q.template_id = id % 7;
  const int phases = static_cast<int>(rng->UniformInt(int64_t{0}, int64_t{4}));
  for (int i = 0; i < phases; ++i) {
    Phase p;
    switch (rng->UniformInt(uint64_t{5})) {
      case 0: {  // shared fact-table scan
        p.table = static_cast<TableId>(rng->UniformInt(uint64_t{3}));
        p.table_bytes = 400.0 * kMB * (p.table + 1);
        p.seq_io_bytes = rng->Uniform01() < 0.5
                             ? p.table_bytes
                             : rng->Uniform(0.1, 1.0) * p.table_bytes;
        break;
      }
      case 1:  // cacheable dimension scan, read whole
        p.table = kDimensionTable;
        p.table_bytes = 150.0 * kMB;
        p.seq_io_bytes = p.table_bytes;
        p.cacheable = true;
        break;
      case 2:  // private scan
        p.table = -1 - static_cast<TableId>(rng->UniformInt(uint64_t{2}));
        p.seq_io_bytes = rng->Uniform(20.0, 300.0) * kMB;
        break;
      case 3:
        p.rnd_io_bytes = rng->Uniform(1.0, 30.0) * kMB;
        break;
      default:
        break;
    }
    if (rng->Uniform01() < 0.6) {
      p.cpu_seconds =
          lockstep ? 2.5 * static_cast<double>(rng->UniformInt(
                               int64_t{1}, int64_t{4}))
                   : rng->Uniform(0.0, 12.0);
    }
    if (rng->Uniform01() < 0.4) {
      p.mem_demand_bytes =
          lockstep ? 0.5 * kGB * static_cast<double>(rng->UniformInt(
                                     int64_t{1}, int64_t{5}))
                   : rng->Uniform(0.2, 2.5) * kGB;
      p.spillable = rng->Uniform01() < 0.8;
    }
    q.phases.push_back(p);
  }
  if (rng->Uniform01() < 0.3) {
    q.pinned_memory_bytes = rng->Uniform(0.2, 1.8) * kGB;
  }
  return q;
}

// Start times out of id order; on a coarse grid (so ties are common) a
// third of the time, or always with `lockstep`.
double RandomStart(Rng* rng, double horizon, bool lockstep) {
  if (lockstep || rng->Uniform01() < 0.35) {
    return 2.5 * static_cast<double>(rng->UniformInt(
                     static_cast<uint64_t>(horizon / 2.5)));
  }
  return rng->Uniform(0.0, horizon);
}

Workload MakeWorkload(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.engine_seed = seed * 7919 + 1;
  SimConfig& c = w.config;
  c.ram_bytes = rng.Uniform(3.0, 6.0) * kGB;  // tight: grants get revoked
  c.os_reserved_bytes = 1.0 * kGB;
  c.cores = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{4}));
  c.seek_overhead = rng.Uniform(0.0, 0.1);
  c.random_io_sigma = 0.3;
  c.spill_io_sigma = rng.Uniform01() < 0.5 ? 0.0 : 0.1;
  const bool lockstep = rng.Uniform01() < 0.5;
  c.cpu_jitter = lockstep ? 0.0 : 0.03;
  c.spill_amplification = 2.0;
  const bool chained = rng.Uniform01() < 0.6;
  // A zero startup cost lets phase-less and fully cached processes finish
  // during activation; the reference tolerates that only while callbacks
  // add nothing.
  const bool startup = chained || rng.Uniform01() < 0.5;
  if (!startup) {
    c.startup_cpu_seconds = 0.0;
  } else {
    c.startup_cpu_seconds = lockstep ? 0.5 : rng.Uniform(0.05, 0.5);
  }
  w.lockstep = lockstep;

  if (rng.Uniform01() < 0.4) {
    const int level = static_cast<int>(rng.UniformInt(int64_t{2}, int64_t{4}));
    SimConfig spoiler_config = c;
    spoiler_config.ram_bytes = 0.5 * c.ram_bytes;  // leave room to grant
    for (const QuerySpec& s : MakeSpoiler(spoiler_config, units::Mpl(level))) {
      w.initial.push_back({s, 0.0});
    }
  }
  const int n = static_cast<int>(rng.UniformInt(int64_t{8}, int64_t{40}));
  for (int i = 0; i < n; ++i) {
    const int id = static_cast<int>(w.initial.size());
    QuerySpec q = RandomQuery(&rng, id, lockstep);
    w.initial.push_back({std::move(q), RandomStart(&rng, 60.0, lockstep)});
  }
  if (chained) {
    w.chain_every = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{3}));
    w.chain_budget = static_cast<int>(rng.UniformInt(int64_t{5}, int64_t{30}));
    w.chain_seed = seed ^ 0x5bd1e995ULL;
  }
  if (rng.Uniform01() < 0.4) {
    w.stop_at = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{n}));
  }
  if (rng.Uniform01() < 0.4) {
    w.run_until = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(w.initial.size())));
  }
  const int late = static_cast<int>(rng.UniformInt(int64_t{0}, int64_t{5}));
  for (int i = 0; i < late; ++i) {
    QuerySpec q = RandomQuery(&rng, 1000 + i, lockstep);
    w.late.push_back({std::move(q), RandomStart(&rng, 30.0, lockstep)});
  }
  return w;
}

// Everything observable about one run.
struct Outcome {
  std::vector<ProcessResult> results;
  std::vector<int> completion_order;
  std::vector<double> completion_now;
  std::vector<double> memory_at_completion;
  std::vector<std::string> statuses;
  double now = 0.0;
};

template <typename EngineT>
Outcome Drive(const Workload& w) {
  EngineT engine(w.config, w.engine_seed);
  Rng chain_rng(w.chain_seed);
  Outcome out;
  int added = 0;
  engine.SetCompletionCallback([&](const ProcessResult& r) {
    // The argument is read before AddProcess (see the header comment).
    out.completion_order.push_back(r.process_id);
    out.completion_now.push_back(engine.now().value());
    out.memory_at_completion.push_back(engine.memory_in_use().value());
    const int completions = static_cast<int>(out.completion_order.size());
    if (w.chain_every > 0 && completions % w.chain_every == 0 &&
        added < w.chain_budget) {
      QuerySpec q = RandomQuery(&chain_rng, 2000 + added, w.lockstep);
      const double delay = chain_rng.Uniform01() < 0.4
                               ? 0.0
                               : RandomStart(&chain_rng, 15.0, w.lockstep);
      ++added;
      engine.AddProcess(q, engine.now() + units::Seconds(delay));
    }
    if (completions == w.stop_at) engine.RequestStop();
  });
  for (const Arrival& a : w.initial) {
    engine.AddProcess(a.spec, units::Seconds(a.start));
  }
  if (w.run_until >= 0) {
    out.statuses.push_back(
        engine.RunUntilProcessCompletes(w.run_until).ToString());
  }
  out.statuses.push_back(engine.Run().ToString());
  for (const Arrival& a : w.late) {
    engine.AddProcess(a.spec, engine.now() + units::Seconds(a.start));
  }
  out.statuses.push_back(engine.Run().ToString());
  for (size_t id = 0; id < engine.num_processes(); ++id) {
    out.results.push_back(engine.result(static_cast<int>(id)));
  }
  out.now = engine.now().value();
  return out;
}

void ExpectSameResult(const ProcessResult& a, const ProcessResult& b) {
  SCOPED_TRACE("process " + std::to_string(b.process_id));
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

class EngineParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineParity, MatchesReferenceBitForBit) {
  const Workload w = MakeWorkload(GetParam());
  const Outcome want = Drive<reference::Engine>(w);
  const Outcome got = Drive<Engine>(w);
  EXPECT_EQ(got.statuses, want.statuses);
  EXPECT_EQ(got.now, want.now);
  EXPECT_EQ(got.completion_order, want.completion_order);
  EXPECT_EQ(got.completion_now, want.completion_now);
  EXPECT_EQ(got.memory_at_completion, want.memory_at_completion);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (size_t i = 0; i < got.results.size(); ++i) {
    ExpectSameResult(got.results[i], want.results[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineParity,
                         ::testing::Range(uint64_t{1}, uint64_t{61}));

// The seeded workloads must actually reach the behaviours the parity is
// about; a generator change that stops exercising one fails here.
TEST(EngineParityCoverage, WorkloadsExerciseEveryBehaviour) {
  int spills = 0, cache_hits = 0, shared = 0, tied = 0, chained = 0,
      stopped = 0, spoiled = 0, clipped_pins = 0;
  for (uint64_t seed = 1; seed < 61; ++seed) {
    const Workload w = MakeWorkload(seed);
    const Outcome o = Drive<Engine>(w);
    chained += o.results.size() > w.initial.size() + w.late.size();
    stopped += w.stop_at > 0;
    std::vector<double> starts;
    bool spoiler = false;
    for (const Arrival& a : w.initial) {
      spoiler = spoiler || a.spec.immortal;
      if (!a.spec.immortal) starts.push_back(a.start);
    }
    spoiled += spoiler;
    std::sort(starts.begin(), starts.end());
    tied += std::adjacent_find(starts.begin(), starts.end()) != starts.end();
    bool spill = false, hit = false, share = false, clip = false;
    for (const ProcessResult& r : o.results) {
      spill = spill || r.spill_bytes > 0.0;
      hit = hit || r.bytes_saved_by_cache > 0.0;
      share = share || r.bytes_saved_by_shared_scan > 0.0;
    }
    for (size_t i = 0; i < w.initial.size(); ++i) {
      const double pin = w.initial[i].spec.pinned_memory_bytes;
      clip = clip || (pin > 0.0 && o.results[i].max_memory_granted < pin);
    }
    spills += spill;
    cache_hits += hit;
    shared += share;
    clipped_pins += clip;
  }
  EXPECT_GE(spills, 10);
  EXPECT_GE(cache_hits, 10);
  EXPECT_GE(shared, 10);
  EXPECT_GE(tied, 10);
  EXPECT_GE(chained, 10);
  EXPECT_GE(stopped, 10);
  EXPECT_GE(spoiled, 10);
  EXPECT_GE(clipped_pins, 5);
}

}  // namespace
}  // namespace contender::sim
