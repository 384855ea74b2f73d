#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

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
  // One allocation for the phase list, startup phase first.
  const bool startup = !spec.immortal && config_.startup_cpu_seconds > 0.0;
  p.phases.reserve(spec.phases.size() + (startup ? 1 : 0));
  if (startup) {
    p.phases.emplace_back().cpu_seconds = config_.startup_cpu_seconds;
  }
  p.phases.insert(p.phases.end(), spec.phases.begin(), spec.phases.end());
  p.immortal = spec.immortal;
  p.pinned_memory_bytes = spec.pinned_memory_bytes;
  const int id = static_cast<int>(processes_.size());
  p.result.process_id = id;
  p.result.template_id = spec.template_id;
  p.result.name = spec.name;
  p.result.start_time = start_time;
  if (!spec.immortal) ++unfinished_mortal_;
  processes_.push_back(std::move(p));
  // Ties in start time activate in id (insertion) order.
  pending_.emplace(start_time, id);
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
  while (!pending_.empty() && pending_.top().first <= now_ + kEps) {
    const int id = pending_.top().second;
    pending_.pop();
    Process& p = processes_[static_cast<size_t>(id)];
    active_.insert(std::upper_bound(active_.begin(), active_.end(), id), id);
    p.result.start_time = now_;
    // Pin memory with priority; the pin is bounded by what exists.
    const double grantable =
        std::max(0.0, config_.ram_bytes - config_.os_reserved_bytes);
    const double available =
        std::max(0.0, grantable - pinned_memory_ - granted_working_memory_);
    p.pinned = std::min(p.pinned_memory_bytes, available);
    pinned_memory_ += p.pinned;
    p.result.max_memory_granted =
        std::max(p.result.max_memory_granted, p.pinned);
    UpdateBufferPoolCapacity();
  }
}

double Engine::NextArrivalTime() const {
  if (pending_.empty()) return kInfinity;
  return pending_.top().first;
}

bool Engine::PhaseDone(const Process& p) {
  return p.seq_remaining <= kByteEps && p.spill_remaining <= kByteEps &&
         p.rnd_remaining <= kByteEps && p.cpu_remaining <= kCpuEps;
}

void Engine::InitPhase(Process* p) {
  while (!p->done) {
    if (p->phase_index >= p->phases.size()) {
      CompleteProcess(p);
      return;
    }
    const Phase& phase = p->phases[p->phase_index];

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
    for (const int id : active_) {
      Process& cand = processes_[static_cast<size_t>(id)];
      if (&cand == requester || cand.done) continue;
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
  const Phase& phase = p->phases[p->phase_index];
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
  ++num_done_;
  if (!p->immortal) --unfinished_mortal_;
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
  // Drop the ids the previous step finished (erase_if keeps id order).
  std::erase_if(active_, [&](int id) {
    return processes_[static_cast<size_t>(id)].done;
  });
  const size_t pending_before = pending_.size();
  const size_t done_before = num_done_;

  ActivateArrivals();

  // Callbacks run inside these loops may AddProcess; that touches neither
  // active_ nor any live Process, so the loops and their references hold.
  for (const int id : active_) {
    Process& p = processes_[static_cast<size_t>(id)];
    if (!p.done && !p.phase_ready) InitPhase(&p);
  }

  // Build disk demand: shared scan groups for non-negative tables, private
  // sequential streams for negative tables, and seek-bound random streams
  // for index I/O and spill (swap) traffic.
  const size_t n = active_.size();
  scan_members_.clear();
  random_streams_.clear();
  demand_.random_stream_caps.clear();
  int private_streams = 0;
  int cpu_active = 0;
  for (size_t slot = 0; slot < n; ++slot) {
    const Process& p = processes_[static_cast<size_t>(active_[slot])];
    if (p.done || !p.phase_ready) continue;
    if (p.seq_remaining > kByteEps) {
      if (p.seq_table >= 0) {
        scan_members_.emplace_back(p.seq_table, slot);
      } else {
        ++private_streams;
      }
    }
    if (p.rnd_remaining > kByteEps) {
      random_streams_.emplace_back(slot, false);
      demand_.random_stream_caps.push_back(config_.random_bandwidth *
                                           p.rnd_rate_multiplier);
    }
    if (p.spill_remaining > kByteEps) {
      random_streams_.emplace_back(slot, true);
      demand_.random_stream_caps.push_back(config_.spill_bandwidth *
                                           p.spill_rate_multiplier);
    }
    if (p.cpu_remaining > kCpuEps) ++cpu_active;
  }
  // Sorting by table makes each scan group a contiguous run.
  std::sort(scan_members_.begin(), scan_members_.end());
  group_size_.assign(n, 1);
  int scan_groups = 0;
  for (size_t begin = 0, end = 0; begin < scan_members_.size(); begin = end) {
    end = begin + 1;
    while (end < scan_members_.size() &&
           scan_members_[end].first == scan_members_[begin].first) {
      ++end;
    }
    ++scan_groups;
    for (size_t m = begin; m < end; ++m) {
      group_size_[scan_members_[m].second] = static_cast<int>(end - begin);
    }
  }
  demand_.num_seq_groups = scan_groups + private_streams;
  const DiskAllocation alloc = AllocateDiskBandwidth(config_, demand_);

  // Per-process rates. Every sequential stream, shared or private, runs
  // at the group rate.
  const double seq_rate = alloc.seq_group_rate;
  rnd_rate_.assign(n, 0.0);
  spill_rate_.assign(n, 0.0);
  for (size_t k = 0; k < random_streams_.size(); ++k) {
    const auto& [slot, spill] = random_streams_[k];
    (spill ? spill_rate_ : rnd_rate_)[slot] = alloc.random_stream_rates[k];
  }
  const double cpu_rate =
      cpu_active == 0
          ? 0.0
          : std::min(1.0, static_cast<double>(config_.cores) /
                              static_cast<double>(cpu_active));

  // Earliest completion among all active demands, capped by next arrival.
  double dt = kInfinity;
  for (size_t slot = 0; slot < n; ++slot) {
    const Process& p = processes_[static_cast<size_t>(active_[slot])];
    if (p.done || !p.phase_ready) continue;
    if (p.seq_remaining > kByteEps && seq_rate > 0.0) {
      dt = std::min(dt, p.seq_remaining / seq_rate);
    }
    if (p.spill_remaining > kByteEps && spill_rate_[slot] > 0.0) {
      dt = std::min(dt, p.spill_remaining / spill_rate_[slot]);
    }
    if (p.rnd_remaining > kByteEps && rnd_rate_[slot] > 0.0) {
      dt = std::min(dt, p.rnd_remaining / rnd_rate_[slot]);
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
    return num_done_ != done_before || pending_.size() != pending_before;
  }
  if (has_arrival && arrival_gap < dt) {
    dt = std::max(0.0, arrival_gap);
  }

  // Advance.
  now_ += dt;
  for (size_t slot = 0; slot < n; ++slot) {
    Process& p = processes_[static_cast<size_t>(active_[slot])];
    if (p.done || !p.phase_ready) continue;
    const bool had_io = p.seq_remaining > kByteEps ||
                        p.spill_remaining > kByteEps ||
                        p.rnd_remaining > kByteEps;
    if (p.seq_remaining > kByteEps && seq_rate > 0.0) {
      const double bytes = std::min(p.seq_remaining, seq_rate * dt);
      p.seq_remaining -= bytes;
      const double share = static_cast<double>(group_size_[slot]);
      p.result.disk_bytes_read += bytes / share;
      p.result.bytes_saved_by_shared_scan += bytes * (share - 1.0) / share;
    }
    if (p.spill_remaining > kByteEps && spill_rate_[slot] > 0.0) {
      const double bytes =
          std::min(p.spill_remaining, spill_rate_[slot] * dt);
      p.spill_remaining -= bytes;
      p.result.disk_bytes_read += bytes;
    }
    if (p.rnd_remaining > kByteEps && rnd_rate_[slot] > 0.0) {
      const double bytes = std::min(p.rnd_remaining, rnd_rate_[slot] * dt);
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
  for (const int id : active_) {
    Process& p = processes_[static_cast<size_t>(id)];
    if (p.done || !p.phase_ready) continue;
    if (PhaseDone(p)) {
      CompletePhase(&p);
      InitPhase(&p);
    }
  }
  return true;
}

Status Engine::Run() {
  stop_requested_ = false;
  while (!stop_requested_ && unfinished_mortal_ > 0) {
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
