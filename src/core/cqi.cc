#include "core/cqi.h"

#include <algorithm>
#include <array>

namespace contender {

namespace {

Status ValidateConcurrent(const std::vector<TemplateProfile>& profiles,
                          std::span<const int> concurrent_indices) {
  if (concurrent_indices.empty()) {
    return Status::InvalidArgument("CQI: empty concurrent set");
  }
  const int n = static_cast<int>(profiles.size());
  for (int c : concurrent_indices) {
    if (c < 0 || c >= n) {
      return Status::InvalidArgument("CQI: bad concurrent index");
    }
  }
  return Status::OK();
}

Status ValidateIndices(const std::vector<TemplateProfile>& profiles,
                       int primary_index,
                       std::span<const int> concurrent_indices) {
  if (primary_index < 0 ||
      primary_index >= static_cast<int>(profiles.size())) {
    return Status::InvalidArgument("CQI: bad primary index");
  }
  return ValidateConcurrent(profiles, concurrent_indices);
}

Status CheckIsolatedLatency(const TemplateProfile& c) {
  if (c.isolated_latency.value() <= 0.0) {
    return Status::FailedPrecondition("CQI: non-positive isolated latency");
  }
  return Status::OK();
}

/// One fact table a mix scans.
struct ScannedTable {
  sim::TableId id;
  /// Whether the primary scans it too (the ω test of Eq. 2).
  bool primary_scans;
  /// h_f: the co-runners scanning it, each counted once however often its
  /// profile lists the table (TemplateProfile::ScansFactTable's answer).
  int scanners;
  /// Mix position of the co-runner counted last.
  size_t last_scanner;
  /// s_f (zero for a table missing from ScanTimes), looked up once per mix
  /// and only for a table that enters ω or τ.
  units::Seconds scan_time;
  /// τ's credit per listing, (1 - 1/h_f) * s_f (Eq. 3).
  units::Seconds tau_share;
};

/// The fact tables one mix scans. Entries live in an inline array on the
/// caller's stack; a mix listing more (co-runner, table) pairs than the
/// array holds takes a heap array of that many entries instead, so no mix
/// can write past its table.
class MixScans {
 public:
  MixScans(const TemplateProfile& primary,
           const std::vector<TemplateProfile>& profiles,
           std::span<const int> concurrent, const ScanTimes& scan_times,
           CqiVariant variant) {
    size_t listed = 0;
    for (int c : concurrent) {
      listed += profiles[static_cast<size_t>(c)].fact_tables.size();
    }
    if (listed > inline_.size()) {
      spilled_.resize(listed);
      tables_ = spilled_.data();
    }
    for (size_t i = 0; i < concurrent.size(); ++i) {
      const TemplateProfile& c = profiles[static_cast<size_t>(concurrent[i])];
      for (sim::TableId f : c.fact_tables) {
        ScannedTable* table = FindOrNull(f);
        if (table == nullptr) {
          table = &tables_[size_++];
          *table = {f, primary.ScansFactTable(f), 1, i, {}, {}};
        } else if (table->last_scanner != i) {
          ++table->scanners;
          table->last_scanner = i;
        }
      }
    }
    for (size_t k = 0; k < size_; ++k) {
      ScannedTable& table = tables_[k];
      const bool in_omega =
          variant != CqiVariant::kBaselineIo && table.primary_scans;
      const bool in_tau = variant == CqiVariant::kFull &&
                          !table.primary_scans && table.scanners > 1;
      if (!in_omega && !in_tau) continue;
      auto it = scan_times.find(table.id);
      if (it != scan_times.end()) table.scan_time = it->second;
      if (in_tau) {
        table.tau_share =
            (1.0 - 1.0 / static_cast<double>(table.scanners)) *
            table.scan_time;
      }
    }
  }
  MixScans(const MixScans&) = delete;
  MixScans& operator=(const MixScans&) = delete;

  /// The entry of table `f`, which some co-runner of the mix lists.
  const ScannedTable& Find(sim::TableId f) const { return *FindOrNull(f); }

 private:
  ScannedTable* FindOrNull(sim::TableId f) const {
    for (size_t k = 0; k < size_; ++k) {
      if (tables_[k].id == f) return &tables_[k];
    }
    return nullptr;
  }

  std::array<ScannedTable, 16> inline_{};
  std::vector<ScannedTable> spilled_;
  ScannedTable* tables_ = inline_.data();
  size_t size_ = 0;
};

/// Eqs. 2–4 for co-runner `c` of the mix `scans` describes; `c` must have
/// passed CheckIsolatedLatency.
CqiTerms TermsFor(const TemplateProfile& c, const MixScans& scans,
                  CqiVariant variant) {
  CqiTerms terms;
  terms.total_io_seconds = c.isolated_latency * c.io_fraction;
  if (variant != CqiVariant::kBaselineIo) {
    for (sim::TableId f : c.fact_tables) {
      const ScannedTable& table = scans.Find(f);
      if (table.primary_scans) {
        // ω_c (Eq. 2): a scan shared with the primary, once per listing.
        terms.omega += table.scan_time;
      } else if (variant == CqiVariant::kFull && table.scanners > 1) {
        // τ_c (Eq. 3): a scan shared among the non-primary queries only
        // (tables the primary scans are in ω; no double counting).
        terms.tau += table.tau_share;
      }
    }
  }
  // Eq. 4, truncated at zero.
  terms.r =
      std::max(0.0, (terms.total_io_seconds - terms.omega - terms.tau) /
                        c.isolated_latency);  // Seconds / Seconds -> ratio
  return terms;
}

/// The kernel: Eq. 5 over valid, non-empty `concurrent`.
StatusOr<units::Cqi> MixCqi(const TemplateProfile& primary,
                            const std::vector<TemplateProfile>& profiles,
                            std::span<const int> concurrent,
                            const ScanTimes& scan_times, CqiVariant variant) {
  const MixScans scans(primary, profiles, concurrent, scan_times, variant);
  double sum = 0.0;
  for (int index : concurrent) {
    const TemplateProfile& c = profiles[static_cast<size_t>(index)];
    CONTENDER_RETURN_IF_ERROR(CheckIsolatedLatency(c));
    sum += TermsFor(c, scans, variant).r;
  }
  // Eq. 5: average competing fraction across the concurrent queries.
  return units::Cqi(sum / static_cast<double>(concurrent.size()));
}

}  // namespace

StatusOr<CqiTerms> ComputeCqiTerms(
    const std::vector<TemplateProfile>& profiles,
    const ScanTimes& scan_times, int primary_index,
    const std::vector<int>& concurrent_indices, size_t concurrent_position,
    CqiVariant variant) {
  CONTENDER_RETURN_IF_ERROR(
      ValidateIndices(profiles, primary_index, concurrent_indices));
  if (concurrent_position >= concurrent_indices.size()) {
    return Status::InvalidArgument("CQI: bad concurrent position");
  }
  const TemplateProfile& c = profiles[static_cast<size_t>(
      concurrent_indices[concurrent_position])];
  CONTENDER_RETURN_IF_ERROR(CheckIsolatedLatency(c));
  const MixScans scans(profiles[static_cast<size_t>(primary_index)], profiles,
                       concurrent_indices, scan_times, variant);
  return TermsFor(c, scans, variant);
}

StatusOr<units::Cqi> ComputeCqiFor(const TemplateProfile& primary,
                                   const std::vector<TemplateProfile>& profiles,
                                   std::span<const int> concurrent_indices,
                                   const ScanTimes& scan_times,
                                   CqiVariant variant) {
  CONTENDER_RETURN_IF_ERROR(ValidateConcurrent(profiles, concurrent_indices));
  return MixCqi(primary, profiles, concurrent_indices, scan_times, variant);
}

StatusOr<units::Cqi> ComputeCqi(const std::vector<TemplateProfile>& profiles,
                                const ScanTimes& scan_times,
                                int primary_index,
                                const std::vector<int>& concurrent_indices,
                                CqiVariant variant) {
  CONTENDER_RETURN_IF_ERROR(
      ValidateIndices(profiles, primary_index, concurrent_indices));
  return MixCqi(profiles[static_cast<size_t>(primary_index)], profiles,
                concurrent_indices, scan_times, variant);
}

}  // namespace contender
