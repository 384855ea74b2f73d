// An immutable, shareable unit of serving state: one trained
// ContenderPredictor stamped with a monotonically increasing version.
// Snapshots are created on the heap via Create() and only ever handed out
// as shared_ptr<const>, so a reader that loaded a snapshot keeps it alive
// across any number of hot-swaps — the swap protocol
// (serve::PredictionService) never blocks or invalidates in-flight
// readers, and a snapshot is destroyed exactly when the last reader drops
// it.
//
// PredictInMix() is lock-free (a pure function of the snapshot) and
// delegates to sched::PredictInMixUncached, so it is bit-identical to a
// sched::MixOracle over the same predictor by construction.

#ifndef CONTENDER_SERVE_MODEL_SNAPSHOT_H_
#define CONTENDER_SERVE_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/predictor.h"
#include "sched/mix_oracle.h"
#include "serve/health.h"
#include "util/units.h"

namespace contender::serve {

/// One answer from the degradation ladder: the latency plus the tier that
/// produced it (serve/health.h documents the ladder).
struct TieredPrediction {
  units::Seconds latency;
  DegradationTier tier = DegradationTier::kFullModel;
};

/// Immutable (predictor, version) pair, shared only through
/// shared_ptr<const> and never copied.
class ModelSnapshot {
 public:
  /// Wraps a trained predictor into version `version`.
  static std::shared_ptr<const ModelSnapshot> Create(
      ContenderPredictor predictor, uint64_t version);

  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

  /// Lock-free canonicalized in-mix prediction with isolated-latency
  /// fallback — the same pure function sched::MixOracle evaluates.
  [[nodiscard]] units::Seconds PredictInMix(
      int template_index, const std::vector<int>& concurrent) const {
    return sched::PredictInMixUncached(predictor_, template_index,
                                       concurrent);
  }

  /// The degradation ladder (serve/health.h): full QS model →
  /// transferred-QS via the KNN spoiler (paper §6's new-template path) →
  /// isolated latency, stamping the tier that answered. Pass
  /// `allow_full_model = false` when the template's circuit breaker is
  /// open to start the descent at tier 1. With the full model allowed, no
  /// open breaker and no armed fail points, the answer is bit-identical to
  /// PredictInMix (same canonicalized pure function). Lock-free except for
  /// the fail-point probes ("serve.snapshot.qs_model",
  /// "serve.snapshot.transfer" — a fired probe forces the descent past
  /// that tier).
  [[nodiscard]] TieredPrediction PredictInMixTiered(
      int template_index, const std::vector<int>& concurrent,
      bool allow_full_model = true) const;

  /// l_min of a known template.
  [[nodiscard]] units::Seconds IsolatedLatency(int template_index) const;

  [[nodiscard]] const ContenderPredictor& predictor() const {
    return predictor_;
  }
  [[nodiscard]] uint64_t version() const { return version_; }
  [[nodiscard]] int num_templates() const {
    return static_cast<int>(predictor_.profiles().size());
  }

 private:
  ModelSnapshot(ContenderPredictor predictor, uint64_t version);

  ContenderPredictor predictor_;
  uint64_t version_ = 0;
};

}  // namespace contender::serve

#endif  // CONTENDER_SERVE_MODEL_SNAPSHOT_H_
