#include "sim/engine.h"

#include <algorithm>
#include <cmath>

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
          config.buffer_pool_fraction) {
  startup_phase_.cpu_seconds = config.startup_cpu_seconds;
}

int Engine::AddProcess(QuerySpec spec, units::Seconds start) {
  const double start_time = start.value();
  CONTENDER_CHECK(start_time >= now_ - kEps)
      << "process scheduled in the past";
  const int id = static_cast<int>(processes_.size());
  Process& p = processes_.emplace_back();
  p.phases = std::move(spec.phases);
  p.startup = !spec.immortal && config_.startup_cpu_seconds > 0.0;
  p.immortal = spec.immortal;
  p.pinned_memory_bytes = spec.pinned_memory_bytes;
  p.result.process_id = id;
  p.result.template_id = spec.template_id;
  p.result.name = std::move(spec.name);
  p.result.start_time = start_time;
  if (!spec.immortal) ++unfinished_mortal_;
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
    active_.insert(std::upper_bound(active_.begin(), active_.end(), id,
                                    [](int key, const Process* q) {
                                      return key < q->result.process_id;
                                    }),
                   &p);
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

const Phase* Engine::CurrentPhase(const Process& p) const {
  if (p.startup && p.phase_index == 0) return &startup_phase_;
  const size_t i = p.phase_index - (p.startup ? 1 : 0);
  return i < p.phases.size() ? &p.phases[i] : nullptr;
}

bool Engine::PhaseDone(const Process& p) {
  return p.seq_remaining <= kByteEps && p.spill_remaining <= kByteEps &&
         p.rnd_remaining <= kByteEps && p.cpu_remaining <= kCpuEps;
}

void Engine::InitPhase(Process* p) {
  while (!p->done) {
    const Phase* current = CurrentPhase(*p);
    if (current == nullptr) {
      CompleteProcess(p);
      return;
    }
    const Phase& phase = *current;

    p->seq_remaining = phase.seq_io_bytes;
    p->seq_table = phase.table;
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
    for (Process* cand : active_) {
      if (cand == requester || cand->done) continue;
      // Only working sets of comparable or larger size are reclaim
      // victims; small residents are left alone.
      if (cand->mem_granted <= 0.5 * requester_demand) continue;
      if (victim == nullptr || cand->mem_granted > victim->mem_granted) {
        victim = cand;
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
  const Phase& phase = *CurrentPhase(*p);
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
  const size_t pending_before = pending_.size();
  const size_t done_before = num_done_;

  ActivateArrivals();

  // Only this step's arrivals lack a ready phase: the completion pass gave
  // every other live process its next phase. Callbacks run inside these
  // loops may AddProcess; that touches neither active_ nor any live
  // Process, so the loops and their references hold.
  if (pending_.size() != pending_before) {
    for (Process* p : active_) {
      if (!p->done && !p->phase_ready) InitPhase(p);
    }
  }

  // The classification pass. It drops finished processes (compacting
  // active_ in id order) and collects the disk streams: shared scan groups
  // for non-negative tables, private sequential streams for negative
  // tables, and seek-bound random streams for index I/O and spill (swap)
  // traffic.
  scan_members_.clear();
  seek_bound_.clear();
  int private_streams = 0;
  int random_streams = 0;
  int cpu_active = 0;
  double min_seq = kInfinity;
  double min_cpu = kInfinity;
  size_t live = 0;
  for (Process* const ptr : active_) {
    Process& p = *ptr;
    if (p.done) continue;
    CONTENDER_DCHECK(p.phase_ready)
        << "process " << p.result.process_id << " has no phase";
    active_[live++] = ptr;
    if (p.seq_remaining > kByteEps) {
      min_seq = std::min(min_seq, p.seq_remaining);
      p.scan_group_size = 1;
      if (p.seq_table >= 0) {
        scan_members_.emplace_back(p.seq_table, &p);
      } else {
        ++private_streams;
      }
    }
    const bool rnd = p.rnd_remaining > kByteEps;
    const bool spill = p.spill_remaining > kByteEps;
    if (rnd) p.rnd_cap = config_.random_bandwidth * p.rnd_rate_multiplier;
    if (spill) p.spill_cap = config_.spill_bandwidth * p.spill_rate_multiplier;
    if (rnd || spill) seek_bound_.push_back(&p);
    random_streams += static_cast<int>(rnd) + static_cast<int>(spill);
    if (p.cpu_remaining > kCpuEps) {
      min_cpu = std::min(min_cpu, p.cpu_remaining);
      ++cpu_active;
    }
  }
  active_.resize(live);
  // Sorting by table makes each scan group a contiguous run.
  std::sort(scan_members_.begin(), scan_members_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  int scan_groups = 0;
  for (size_t begin = 0, end = 0; begin < scan_members_.size(); begin = end) {
    end = begin + 1;
    while (end < scan_members_.size() &&
           scan_members_[end].first == scan_members_[begin].first) {
      ++end;
    }
    ++scan_groups;
    for (size_t m = begin; m < end; ++m) {
      scan_members_[m].second->scan_group_size = static_cast<int>(end - begin);
    }
  }
  // Every sequential stream, shared or private, runs at the group rate; a
  // random or spill stream runs at its cap times the time share.
  const DiskShare disk = ShareDiskBandwidth(
      config_, scan_groups + private_streams + random_streams);
  const double seq_rate = disk.seq_group_rate;
  const double cpu_rate =
      cpu_active == 0
          ? 0.0
          : std::min(1.0, static_cast<double>(config_.cores) /
                              static_cast<double>(cpu_active));

  // Earliest completion among all active demands, capped by next arrival.
  // Division by one positive rate is monotone, so the least sequential and
  // CPU remainders give those streams' earliest completion exactly; each
  // random or spill stream has its own rate.
  double dt = kInfinity;
  if (seq_rate > 0.0) dt = std::min(dt, min_seq / seq_rate);
  if (cpu_rate > 0.0) dt = std::min(dt, min_cpu / cpu_rate);
  for (const Process* p : seek_bound_) {
    const double rnd_rate = p->rnd_cap * disk.share;
    if (p->rnd_remaining > kByteEps && rnd_rate > 0.0) {
      dt = std::min(dt, p->rnd_remaining / rnd_rate);
    }
    const double spill_rate = p->spill_cap * disk.share;
    if (p->spill_remaining > kByteEps && spill_rate > 0.0) {
      dt = std::min(dt, p->spill_remaining / spill_rate);
    }
  }
  const double arrival_gap = NextArrivalTime() - now_;
  const bool has_arrival = std::isfinite(arrival_gap);
  bool progressed = true;
  if (std::isfinite(dt)) {
    if (has_arrival && arrival_gap < dt) {
      dt = std::max(0.0, arrival_gap);
    }
    Advance(dt, seq_rate, cpu_rate, disk.share);
    // Phase / process completions (callbacks may add arrivals).
    for (Process* p : active_) {
      if (p->done || !p->phase_ready) continue;
      if (PhaseDone(*p)) {
        CompletePhase(p);
        InitPhase(p);
      }
    }
  } else if (has_arrival) {
    now_ += std::max(0.0, arrival_gap);
  } else {
    // No advanceable demand: the step still made progress if it activated
    // arrivals or completed zero-demand processes (e.g., full cache hits).
    progressed = num_done_ != done_before || pending_.size() != pending_before;
  }
  CONTENDER_DCHECK(std::abs(SumActive(&Process::pinned) - pinned_memory_) <=
                   kLedgerSlackBytes)
      << "pinned-memory ledger " << pinned_memory_ << " drifted from "
      << SumActive(&Process::pinned);
  CONTENDER_DCHECK(std::abs(SumActive(&Process::mem_granted) -
                            granted_working_memory_) <= kLedgerSlackBytes)
      << "working-memory ledger " << granted_working_memory_
      << " drifted from " << SumActive(&Process::mem_granted);
  return progressed;
}

void Engine::Advance(double dt, double seq_rate, double cpu_rate,
                     double disk_share) {
  now_ += dt;
  for (Process* const ptr : active_) {
    Process& p = *ptr;
    const bool had_io = p.seq_remaining > kByteEps ||
                        p.spill_remaining > kByteEps ||
                        p.rnd_remaining > kByteEps;
    if (p.seq_remaining > kByteEps && seq_rate > 0.0) {
      const double bytes = std::min(p.seq_remaining, seq_rate * dt);
      p.seq_remaining -= bytes;
      const double share = static_cast<double>(p.scan_group_size);
      p.result.disk_bytes_read += bytes / share;
      p.result.bytes_saved_by_shared_scan += bytes * (share - 1.0) / share;
    }
    const double spill_rate = p.spill_cap * disk_share;
    if (p.spill_remaining > kByteEps && spill_rate > 0.0) {
      const double bytes = std::min(p.spill_remaining, spill_rate * dt);
      p.spill_remaining -= bytes;
      p.result.disk_bytes_read += bytes;
    }
    const double rnd_rate = p.rnd_cap * disk_share;
    if (p.rnd_remaining > kByteEps && rnd_rate > 0.0) {
      const double bytes = std::min(p.rnd_remaining, rnd_rate * dt);
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
}

double Engine::SumActive(double Process::*field) const {
  double sum = 0.0;
  for (const Process* p : active_) sum += p->*field;
  return sum;
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
