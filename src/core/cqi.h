// Concurrent Query Intensity (paper §4.1, Eqs. 2–5): for a primary template
// in a mix, the average fraction of each concurrent query's isolated I/O
// time that directly competes with the primary for the I/O bus, after
// crediting positive interactions (shared fact-table scans with the primary
// and among the concurrent queries themselves).
//
// One kernel computes every CQI in the tree. CqiKernel compiles a profile
// set and its scan times once into dense arrays: per template its l_min,
// its I/O seconds l_min × p_t and its fact-table listing as slots, per slot
// its s_f. The primary enters the CQI only through the ω test, so the
// kernel splits the work in two: Prepare counts a mix's fact-table
// scanners (h_f) into a PreparedMix once, and Score sums Eqs. 2–5 for any
// primary against it. A scheduler decision prepares the running mix once
// and scores every candidate template against it.

#ifndef CONTENDER_CORE_CQI_H_
#define CONTENDER_CORE_CQI_H_

#include <array>
#include <cstddef>
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
/// still indices into `profiles`.
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

/// N elements held in place, moved to the heap only when sized past N: an
/// ordinary mix costs no allocation, and no size is too large. Resize
/// leaves the elements unspecified; callers write every one.
template <typename T, size_t N>
class InlineBuffer {
 public:
  std::span<T> Resize(size_t n) {
    size_ = n;
    if (n <= N) return {inline_.data(), n};
    if (heap_.size() < n) heap_.resize(n);
    return {heap_.data(), n};
  }
  [[nodiscard]] std::span<const T> view() const {
    return {size_ <= N ? inline_.data() : heap_.data(), size_};
  }

 private:
  std::array<T, N> inline_{};
  std::vector<T> heap_;
  size_t size_ = 0;
};

/// A mix of co-runners counted against one CqiKernel: the co-runners in
/// the order their terms are summed and, per fact-table slot, h_f (the
/// co-runners scanning the table, each counted once however often its
/// profile lists it) and τ's credit per listing, (1 - 1/h_f) * s_f. A
/// PreparedMix is reusable; after a mix of a given size it allocates
/// nothing, and up to 16 co-runners and 16 fact tables never allocate.
class PreparedMix {
 public:
  [[nodiscard]] size_t size() const { return co_runners_.view().size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// False when some co-runner's l_min is not positive. Eq. 4 divides by
  /// it, so no CQI over such a mix is defined.
  [[nodiscard]] bool latencies_positive() const {
    return latencies_positive_;
  }

 private:
  friend class CqiKernel;

  std::span<const int> co_runners() const { return co_runners_.view(); }

  struct SlotCount {
    size_t scanners = 0;
    units::Seconds tau_share;
  };

  InlineBuffer<int, 16> co_runners_;
  InlineBuffer<SlotCount, 16> slots_;
  bool latencies_positive_ = true;
};

/// The fact-table slots of a primary outside the kernel's profile set.
using PrimarySlotBuffer = InlineBuffer<size_t, 8>;

/// Eqs. 2–5 over one profile set and its scan times, compiled once. A
/// table missing from the scan times has s_f = 0. Copies stand alone.
class CqiKernel {
 public:
  CqiKernel() = default;
  CqiKernel(const std::vector<TemplateProfile>& profiles,
            const ScanTimes& scan_times);

  /// Counts `co_runners` (valid template indices; repeats allowed) into
  /// `mix`, in the given order, or sorted when `canonical`.
  void Prepare(std::span<const int> co_runners, bool canonical,
               PreparedMix* mix) const;

  /// The slots template `template_index` scans: its side of the ω test.
  [[nodiscard]] std::span<const size_t> PrimarySlots(
      int template_index) const {
    const Template& t = templates_[static_cast<size_t>(template_index)];
    return {distinct_.data() + t.distinct_begin,
            t.distinct_end - t.distinct_begin};
  }
  /// The slots a profile outside the set scans, into `slots`. A table no
  /// template of the set lists is left out: no co-runner can share it.
  void PrimarySlots(const TemplateProfile& profile,
                    PrimarySlotBuffer* slots) const;

  /// Eq. 5 for a primary scanning `primary` against `mix`, which must be
  /// non-empty, prepared by this kernel and latencies_positive(). The
  /// terms are summed in the mix's order.
  [[nodiscard]] units::Cqi Score(std::span<const size_t> primary,
                                 const PreparedMix& mix,
                                 CqiVariant variant) const;
  /// Eqs. 2–4 for the co-runner at `position` of `mix`, whose l_min must
  /// be positive.
  [[nodiscard]] CqiTerms Terms(std::span<const size_t> primary,
                               const PreparedMix& mix, size_t position,
                               CqiVariant variant) const;

  /// Checked Prepare + Score over `co_runners` in the given order, with
  /// ComputeCqi's errors for an empty mix, an unknown co-runner and a
  /// non-positive l_min. `mix` is scratch.
  StatusOr<units::Cqi> Compute(std::span<const size_t> primary,
                               std::span<const int> co_runners,
                               CqiVariant variant, PreparedMix* mix) const;

 private:
  struct Template {
    units::Seconds l_min;
    /// l_min × p_t: the co-runner's isolated I/O seconds.
    units::Seconds io_seconds;
    /// The fact-table listing as slots, repeats kept, in listings_.
    size_t listing_begin = 0;
    size_t listing_end = 0;
    /// The distinct slots, in distinct_.
    size_t distinct_begin = 0;
    size_t distinct_end = 0;
  };

  /// The slot of table `id`, or kNoSlot when no template lists it.
  [[nodiscard]] size_t SlotOf(sim::TableId id) const;
  /// Eqs. 2–4 for template `c` as a co-runner in `mix`.
  [[nodiscard]] CqiTerms TermsOf(std::span<const size_t> primary,
                                 const PreparedMix& mix, int c,
                                 CqiVariant variant) const;

  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  std::vector<Template> templates_;
  std::vector<size_t> listings_;
  std::vector<size_t> distinct_;
  /// Table id of each slot, ascending.
  std::vector<sim::TableId> tables_;
  /// s_f of each slot.
  std::vector<units::Seconds> scan_times_;
};

}  // namespace contender

#endif  // CONTENDER_CORE_CQI_H_
