// The end-to-end Contender pipeline (paper Fig. 5): train reference QS
// models on a known workload, then predict concurrent latency for known
// templates (via their own QS model) and for new templates (via QS
// coefficient transfer plus measured or KNN-predicted spoiler latency).
// PredictInMix composes the two into the degradation ladder that every
// in-mix consumer (sched, fleet, serve) answers through.

#ifndef CONTENDER_CORE_PREDICTOR_H_
#define CONTENDER_CORE_PREDICTOR_H_

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/cqi.h"
#include "core/qs_model.h"
#include "core/qs_transfer.h"
#include "core/spoiler_model.h"
#include "core/template_profile.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender {

/// Which isolated statistic the QS slope is transferred from (§5.3).
enum class TransferFeature {
  /// The paper's choice: µ regressed on isolated latency (Table 3).
  kIsolatedLatency,
  /// Ablation: µ regressed on 1 / (l_max/l_min - 1). The QS slope is
  /// approximately (mix sensitivity) / (spoiler range), so the inverse
  /// spoiler slowdown is the theory-suggested predictor; it uses only
  /// information Contender already has (the measured or KNN-predicted
  /// spoiler latency).
  kInverseSpoilerSlowdown,
};

/// Where a new template's continuum upper bound comes from.
enum class SpoilerSource {
  /// Measured spoiler latency in the profile (linear-time sampling).
  kMeasured,
  /// KNN-predicted from isolated statistics (constant-time sampling).
  kKnnPredicted,
};

/// Which rung of the degradation ladder (ContenderPredictor::PredictInMix)
/// produced an answer.
enum class DegradationTier {
  /// The template's own QS reference model at the mix's MPL.
  kFullModel = 0,
  /// QS coefficients transferred from the reference templates, continuum
  /// upper bound from the KNN spoiler predictor (paper §6's new-template
  /// path, reused for a known template without a usable model).
  kTransferredQs = 1,
  /// The measured isolated latency l_min (the continuum lower bound).
  kIsolatedHeuristic = 2,
};

const char* DegradationTierName(DegradationTier tier);

/// One answer from the degradation ladder: the latency plus the tier that
/// produced it.
struct TieredPrediction {
  units::Seconds latency;
  DegradationTier tier = DegradationTier::kFullModel;
};

/// Trained Contender predictor for one workload and hardware model.
class ContenderPredictor {
 public:
  struct Options {
    /// MPLs with reference models.
    std::vector<int> mpls = {2, 3, 4, 5};
    CqiVariant variant = CqiVariant::kFull;
    /// Neighbors for spoiler prediction.
    int knn_k = 3;
    /// MPLs used when fitting reference spoiler growth models.
    std::vector<int> spoiler_train_mpls = {1, 2, 3, 4, 5};
    /// Feature the QS slope is transferred from for new templates.
    TransferFeature transfer_feature = TransferFeature::kIsolatedLatency;
    /// Pool width for the per-MPL model fits; <= 0 selects hardware
    /// concurrency. Results are bit-identical for every width.
    int train_threads = 0;
  };

  /// Trains on the known workload: isolated profiles (with spoiler
  /// latencies), fact-table scan times, and steady-state mix observations.
  static StatusOr<ContenderPredictor> Train(
      std::vector<TemplateProfile> profiles, ScanTimes scan_times,
      const std::vector<MixObservation>& observations,
      const Options& options);

  /// Predicts the latency of a *known* template (index into the training
  /// profiles) executing with the given concurrent templates.
  StatusOr<units::Seconds> PredictKnown(
      int template_index, const std::vector<int>& concurrent_indices) const;

  /// Predicts the latency of a *new* template described only by
  /// `new_profile` (isolated stats + plan semantics; spoiler latencies
  /// required only for SpoilerSource::kMeasured). Concurrent queries are
  /// known-workload indices.
  StatusOr<units::Seconds> PredictNew(
      const TemplateProfile& new_profile,
      const std::vector<int>& concurrent_indices,
      SpoilerSource spoiler_source) const;

  /// The degradation ladder: the in-mix latency of known template
  /// `template_index` beside `concurrent` (known-workload indices, any
  /// order), from the first tier that answers:
  ///   tier 0  PredictKnown (skipped when `allow_full_model` is false,
  ///           e.g. while the template's circuit breaker is open);
  ///   tier 1  PredictNew on the template's own profile with a
  ///           KNN-predicted spoiler latency;
  ///   tier 2  the isolated latency l_min.
  /// A copy of the mix is sorted first — CQI sums over the mix and
  /// floating-point addition is not associative — so the answer is a pure
  /// function of the (template, multiset, allow_full_model) triple. The
  /// copy lives on the stack up to kInlineMix (16) co-runners, so such a
  /// call allocates nothing unless it falls to tier 1. An empty mix is MPL 1:
  /// l_min at tier 0. Every consumer of in-mix predictions (scheduler,
  /// fleet router, serving) answers through this one function. The chaos
  /// sites "core.ladder.full_model" and "core.ladder.transfer" are probed
  /// once per call, each only when its tier is attempted; a fire skips
  /// that tier. `template_index` and every co-runner must be valid workload
  /// indices (CHECKed before any fail-point probe).
  [[nodiscard]] TieredPrediction PredictInMix(
      int template_index, const std::vector<int>& concurrent,
      bool allow_full_model = true) const;

  /// Unknown-Y variant (§6.3): the new template's own QS slope is supplied;
  /// only the intercept is transferred.
  StatusOr<units::Seconds> PredictNewWithKnownSlope(
      const TemplateProfile& new_profile,
      const std::vector<int>& concurrent_indices, double known_slope,
      SpoilerSource spoiler_source) const;

  /// Online-refit entry point (§6: the models are cheap enough to maintain
  /// incrementally): returns a copy of this predictor whose per-template QS
  /// reference models for `template_indices` are refit at every trained MPL
  /// from `observations` — the *full* training set, i.e. the original
  /// observations plus whatever has streamed in since. Transfer models,
  /// the spoiler KNN and the profiles are untouched. A template whose
  /// refreshed training set is too small or degenerate at some MPL keeps
  /// its existing model there, so a refit never loses coverage.
  /// serve::RefitController builds hot-swappable snapshots through this.
  StatusOr<ContenderPredictor> WithRefitTemplates(
      const std::vector<MixObservation>& observations,
      const std::vector<int>& template_indices) const;

  // Accessors for experiment harnesses.
  const std::vector<TemplateProfile>& profiles() const { return profiles_; }
  const ScanTimes& scan_times() const { return scan_times_; }
  /// Reference QS models at `mpl` (template index -> model).
  StatusOr<std::map<int, QsModel>> ReferenceModels(units::Mpl mpl) const;
  StatusOr<QsTransferModel> TransferModel(units::Mpl mpl) const;
  const KnnSpoilerPredictor& knn_spoiler() const { return *knn_spoiler_; }
  /// Predicted spoiler latency for an arbitrary profile.
  StatusOr<units::Seconds> PredictSpoilerLatency(
      const TemplateProfile& profile, units::Mpl mpl) const;

 private:
  /// Co-runners PredictInMix sorts on the stack; a larger mix is copied to
  /// the heap.
  static constexpr size_t kInlineMix = 16;

  ContenderPredictor() = default;

  // PredictKnown and PredictNew over any contiguous mix; the ladder passes
  // its sorted stack copy.
  StatusOr<units::Seconds> PredictKnownImpl(
      int template_index, std::span<const int> concurrent_indices) const;
  StatusOr<units::Seconds> PredictNewImpl(
      const TemplateProfile& new_profile,
      std::span<const int> concurrent_indices,
      SpoilerSource spoiler_source) const;
  StatusOr<units::Seconds> PredictWithModel(
      const TemplateProfile& primary, const QsModel& qs,
      std::span<const int> concurrent, units::Seconds l_max) const;
  StatusOr<units::Seconds> ResolveSpoiler(const TemplateProfile& profile,
                                          units::Mpl mpl,
                                          SpoilerSource source) const;

  /// One tier-0 cell: a template's QS reference model at one MPL, if it
  /// has one, and its measured spoiler latency l_max there. Cells hold
  /// values, so a copied predictor stands alone.
  struct ReferenceCell {
    std::optional<QsModel> model;
    std::optional<units::Seconds> l_max;
  };

  /// Fills the row of `mpl` from the fitted `models` (template -> model).
  void SetReferenceModels(int mpl, const std::map<int, QsModel>& models);
  /// The row of `mpl`, or nullptr when it has no reference models.
  const std::vector<ReferenceCell>* ReferenceRow(units::Mpl mpl) const;

  Options options_;
  std::vector<TemplateProfile> profiles_;
  ScanTimes scan_times_;
  /// Reference models indexed [MPL][template index]; the row of an MPL
  /// without reference models is empty.
  std::vector<std::vector<ReferenceCell>> reference_cells_;
  std::map<int, QsTransferModel> transfer_models_;  // mpl -> transfer
  std::optional<KnnSpoilerPredictor> knn_spoiler_;
};

}  // namespace contender

#endif  // CONTENDER_CORE_PREDICTOR_H_
