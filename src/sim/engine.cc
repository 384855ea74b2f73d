#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "sim/disk.h"
#include "util/logging.h"

namespace contender::sim {

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

}  // namespace contender::sim
