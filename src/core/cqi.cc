#include "core/cqi.h"

#include <algorithm>

#include "util/logging.h"

namespace contender {

namespace {

Status ValidateConcurrent(size_t num_templates,
                          std::span<const int> concurrent_indices) {
  if (concurrent_indices.empty()) {
    return Status::InvalidArgument("CQI: empty concurrent set");
  }
  for (int c : concurrent_indices) {
    if (c < 0 || static_cast<size_t>(c) >= num_templates) {
      return Status::InvalidArgument("CQI: bad concurrent index");
    }
  }
  return Status::OK();
}

Status ValidatePrimary(const std::vector<TemplateProfile>& profiles,
                       int primary_index) {
  if (primary_index < 0 ||
      primary_index >= static_cast<int>(profiles.size())) {
    return Status::InvalidArgument("CQI: bad primary index");
  }
  return Status::OK();
}

Status NonPositiveIsolatedLatency() {
  return Status::FailedPrecondition("CQI: non-positive isolated latency");
}

bool Contains(std::span<const size_t> slots, size_t slot) {
  for (size_t s : slots) {
    if (s == slot) return true;
  }
  return false;
}

}  // namespace

CqiKernel::CqiKernel(const std::vector<TemplateProfile>& profiles,
                     const ScanTimes& scan_times) {
  for (const TemplateProfile& p : profiles) {
    tables_.insert(tables_.end(), p.fact_tables.begin(), p.fact_tables.end());
  }
  std::sort(tables_.begin(), tables_.end());
  tables_.erase(std::unique(tables_.begin(), tables_.end()), tables_.end());
  scan_times_.resize(tables_.size());
  for (size_t s = 0; s < tables_.size(); ++s) {
    auto it = scan_times.find(tables_[s]);
    if (it != scan_times.end()) scan_times_[s] = it->second;
  }
  templates_.reserve(profiles.size());
  for (const TemplateProfile& p : profiles) {
    Template t;
    t.l_min = p.isolated_latency;
    t.io_seconds = p.isolated_latency * p.io_fraction;
    t.listing_begin = listings_.size();
    t.distinct_begin = distinct_.size();
    for (sim::TableId f : p.fact_tables) {
      const size_t slot = SlotOf(f);
      listings_.push_back(slot);
      if (!Contains({distinct_.data() + t.distinct_begin,
                     distinct_.size() - t.distinct_begin},
                    slot)) {
        distinct_.push_back(slot);
      }
    }
    t.listing_end = listings_.size();
    t.distinct_end = distinct_.size();
    templates_.push_back(t);
  }
}

size_t CqiKernel::SlotOf(sim::TableId id) const {
  auto it = std::lower_bound(tables_.begin(), tables_.end(), id);
  if (it == tables_.end() || *it != id) return kNoSlot;
  return static_cast<size_t>(it - tables_.begin());
}

void CqiKernel::Prepare(std::span<const int> co_runners, bool canonical,
                        PreparedMix* mix) const {
  const std::span<int> co = mix->co_runners_.Resize(co_runners.size());
  std::copy(co_runners.begin(), co_runners.end(), co.begin());
  if (canonical) std::sort(co.begin(), co.end());
  const std::span<PreparedMix::SlotCount> slots =
      mix->slots_.Resize(tables_.size());
  std::fill(slots.begin(), slots.end(), PreparedMix::SlotCount{});
  mix->latencies_positive_ = true;
  for (int c : co) {
    CONTENDER_DCHECK(c >= 0 && static_cast<size_t>(c) < templates_.size());
    const Template& t = templates_[static_cast<size_t>(c)];
    if (t.l_min.value() <= 0.0) mix->latencies_positive_ = false;
    for (size_t k = t.distinct_begin; k < t.distinct_end; ++k) {
      ++slots[distinct_[k]].scanners;
    }
  }
  for (size_t s = 0; s < slots.size(); ++s) {
    if (slots[s].scanners > 1) {
      slots[s].tau_share =
          (1.0 - 1.0 / static_cast<double>(slots[s].scanners)) *
          scan_times_[s];
    }
  }
}

void CqiKernel::PrimarySlots(const TemplateProfile& profile,
                             PrimarySlotBuffer* slots) const {
  size_t known = 0;
  for (sim::TableId f : profile.fact_tables) {
    if (SlotOf(f) != kNoSlot) ++known;
  }
  const std::span<size_t> out = slots->Resize(known);
  size_t k = 0;
  for (sim::TableId f : profile.fact_tables) {
    const size_t slot = SlotOf(f);
    if (slot != kNoSlot) out[k++] = slot;
  }
}

CqiTerms CqiKernel::TermsOf(std::span<const size_t> primary,
                            const PreparedMix& mix, int c,
                            CqiVariant variant) const {
  const Template& t = templates_[static_cast<size_t>(c)];
  CqiTerms terms;
  terms.total_io_seconds = t.io_seconds;
  if (variant != CqiVariant::kBaselineIo) {
    const PreparedMix::SlotCount* counts = mix.slots_.view().data();
    for (size_t k = t.listing_begin; k < t.listing_end; ++k) {
      const size_t slot = listings_[k];
      if (Contains(primary, slot)) {
        // ω_c (Eq. 2): a scan shared with the primary, once per listing.
        terms.omega += scan_times_[slot];
      } else if (variant == CqiVariant::kFull &&
                 counts[slot].scanners > 1) {
        // τ_c (Eq. 3): a scan shared among the non-primary queries only
        // (tables the primary scans are in ω; no double counting).
        terms.tau += counts[slot].tau_share;
      }
    }
  }
  // Eq. 4, truncated at zero.
  terms.r = std::max(0.0, (terms.total_io_seconds - terms.omega - terms.tau) /
                              t.l_min);  // Seconds / Seconds -> ratio
  return terms;
}

units::Cqi CqiKernel::Score(std::span<const size_t> primary,
                            const PreparedMix& mix,
                            CqiVariant variant) const {
  CONTENDER_DCHECK(!mix.empty() && mix.latencies_positive() &&
                   mix.slots_.view().size() == tables_.size());
  const std::span<const int> co = mix.co_runners();
  double sum = 0.0;
  double r = 0.0;
  for (size_t i = 0; i < co.size(); ++i) {
    // A repeated co-runner has the same terms; a canonical mix lists its
    // repeats side by side.
    if (i == 0 || co[i] != co[i - 1]) r = TermsOf(primary, mix, co[i], variant).r;
    sum += r;
  }
  // Eq. 5: average competing fraction across the concurrent queries.
  return units::Cqi(sum / static_cast<double>(co.size()));
}

CqiTerms CqiKernel::Terms(std::span<const size_t> primary,
                          const PreparedMix& mix, size_t position,
                          CqiVariant variant) const {
  return TermsOf(primary, mix, mix.co_runners()[position], variant);
}

StatusOr<units::Cqi> CqiKernel::Compute(std::span<const size_t> primary,
                                        std::span<const int> co_runners,
                                        CqiVariant variant,
                                        PreparedMix* mix) const {
  CONTENDER_RETURN_IF_ERROR(ValidateConcurrent(templates_.size(), co_runners));
  Prepare(co_runners, /*canonical=*/false, mix);
  if (!mix->latencies_positive()) return NonPositiveIsolatedLatency();
  return Score(primary, *mix, variant);
}

StatusOr<CqiTerms> ComputeCqiTerms(
    const std::vector<TemplateProfile>& profiles,
    const ScanTimes& scan_times, int primary_index,
    const std::vector<int>& concurrent_indices, size_t concurrent_position,
    CqiVariant variant) {
  CONTENDER_RETURN_IF_ERROR(ValidatePrimary(profiles, primary_index));
  CONTENDER_RETURN_IF_ERROR(
      ValidateConcurrent(profiles.size(), concurrent_indices));
  if (concurrent_position >= concurrent_indices.size()) {
    return Status::InvalidArgument("CQI: bad concurrent position");
  }
  const TemplateProfile& c = profiles[static_cast<size_t>(
      concurrent_indices[concurrent_position])];
  if (c.isolated_latency.value() <= 0.0) return NonPositiveIsolatedLatency();
  const CqiKernel kernel(profiles, scan_times);
  PreparedMix mix;
  kernel.Prepare(concurrent_indices, /*canonical=*/false, &mix);
  return kernel.Terms(kernel.PrimarySlots(primary_index), mix,
                      concurrent_position, variant);
}

StatusOr<units::Cqi> ComputeCqiFor(const TemplateProfile& primary,
                                   const std::vector<TemplateProfile>& profiles,
                                   std::span<const int> concurrent_indices,
                                   const ScanTimes& scan_times,
                                   CqiVariant variant) {
  const CqiKernel kernel(profiles, scan_times);
  PrimarySlotBuffer slots;
  kernel.PrimarySlots(primary, &slots);
  PreparedMix mix;
  return kernel.Compute(slots.view(), concurrent_indices, variant, &mix);
}

StatusOr<units::Cqi> ComputeCqi(const std::vector<TemplateProfile>& profiles,
                                const ScanTimes& scan_times,
                                int primary_index,
                                const std::vector<int>& concurrent_indices,
                                CqiVariant variant) {
  CONTENDER_RETURN_IF_ERROR(ValidatePrimary(profiles, primary_index));
  const CqiKernel kernel(profiles, scan_times);
  PreparedMix mix;
  return kernel.Compute(kernel.PrimarySlots(primary_index),
                        concurrent_indices, variant, &mix);
}

}  // namespace contender
