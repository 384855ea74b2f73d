// Concurrent Query Intensity (paper §4.1, Eqs. 2–5): for a primary template
// in a mix, the average fraction of each concurrent query's isolated I/O
// time that directly competes with the primary for the I/O bus, after
// crediting positive interactions (shared fact-table scans with the primary
// and among the concurrent queries themselves).

#ifndef CONTENDER_CORE_CQI_H_
#define CONTENDER_CORE_CQI_H_

#include <span>
#include <vector>

#include "core/template_profile.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender {

/// The metric variants compared in Table 2.
enum class CqiVariant {
  /// Average of the concurrent queries' isolated I/O fractions p_c.
  kBaselineIo,
  /// Baseline minus shared scans with the primary (ω only).
  kPositiveIo,
  /// Full CQI: also credits shared scans among non-primaries (ω and τ).
  kFull,
};

/// Computes r_{t,m} for `primary` against `concurrent` (both are workload
/// indices into `profiles`; repeats allowed). `scan_times` maps fact-table
/// id to its isolated scan time s_f. Negative per-query I/O estimates are
/// truncated to zero (paper §4.1).
StatusOr<units::Cqi> ComputeCqi(const std::vector<TemplateProfile>& profiles,
                                const ScanTimes& scan_times,
                                int primary_index,
                                const std::vector<int>& concurrent_indices,
                                CqiVariant variant);

/// Profile-primary form: the primary need not belong to `profiles` (used
/// when predicting for a new, unseen template); `concurrent_indices` are
/// still indices into `profiles`. ComputeCqi, ComputeCqiTerms, the QS
/// training sets and every ContenderPredictor answer run the same kernel:
/// it gathers the fact tables the mix scans into a table on the stack,
/// looks up each contributing s_f once, and allocates nothing.
StatusOr<units::Cqi> ComputeCqiFor(const TemplateProfile& primary,
                                   const std::vector<TemplateProfile>& profiles,
                                   std::span<const int> concurrent_indices,
                                   const ScanTimes& scan_times,
                                   CqiVariant variant);

/// Per-concurrent-query breakdown (exposed for tests and diagnostics).
struct CqiTerms {
  units::Seconds total_io_seconds;  ///< l_min(c) * p_c
  units::Seconds omega;  ///< shared-with-primary scan seconds (Eq. 2)
  units::Seconds tau;    ///< shared-among-concurrent credit (Eq. 3)
  double r = 0.0;        ///< Eq. 4, truncated at zero (a ratio)
};

/// Terms for one concurrent query c in the mix (same arguments as above).
StatusOr<CqiTerms> ComputeCqiTerms(
    const std::vector<TemplateProfile>& profiles,
    const ScanTimes& scan_times, int primary_index,
    const std::vector<int>& concurrent_indices, size_t concurrent_position,
    CqiVariant variant);

}  // namespace contender

#endif  // CONTENDER_CORE_CQI_H_
