// An immutable, shareable unit of serving state: one trained
// ContenderPredictor stamped with a monotonically increasing version.
// Snapshots are created on the heap via Create() and only ever handed out
// as shared_ptr<const>, so a reader that loaded a snapshot keeps it alive
// across any number of hot-swaps — the swap protocol
// (serve::PredictionService) never blocks or invalidates in-flight
// readers, and a snapshot is destroyed exactly when the last reader drops
// it.
//
// PredictInMix() is lock-free (a pure function of the snapshot) and is the
// core degradation ladder with the full model allowed
// (ContenderPredictor::PredictInMix), so it is bit-identical to a
// sched::MixOracle without a health signal over the same predictor by
// construction.

#ifndef CONTENDER_SERVE_MODEL_SNAPSHOT_H_
#define CONTENDER_SERVE_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/predictor.h"
#include "util/units.h"

namespace contender::serve {

/// Immutable (predictor, version) pair, shared only through
/// shared_ptr<const> and never copied.
class ModelSnapshot {
 public:
  /// Wraps a trained predictor into version `version`.
  static std::shared_ptr<const ModelSnapshot> Create(
      ContenderPredictor predictor, uint64_t version);

  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

  /// The ladder's latency with the full model allowed. With no open
  /// breaker and no armed fail point this is exactly what
  /// PredictionService serves from this snapshot.
  [[nodiscard]] units::Seconds PredictInMix(
      int template_index, const std::vector<int>& concurrent) const {
    return predictor_.PredictInMix(template_index, concurrent).latency;
  }

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
