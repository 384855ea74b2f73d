#include "serve/model_snapshot.h"

#include <algorithm>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"

namespace contender::serve {

namespace {

// Chaos sites: a fire forces the ladder past the corresponding tier, as if
// the tier's model had failed.
auto& kQsModelFailPoint = CONTENDER_DEFINE_FAILPOINT("serve.snapshot.qs_model");
auto& kTransferFailPoint =
    CONTENDER_DEFINE_FAILPOINT("serve.snapshot.transfer");

}  // namespace

ModelSnapshot::ModelSnapshot(ContenderPredictor predictor, uint64_t version)
    : predictor_(std::move(predictor)), version_(version) {}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::Create(
    ContenderPredictor predictor, uint64_t version) {
  // Not make_shared: the constructor is private, and a plain `new` keeps
  // the control block separate so a stray weak_ptr cannot pin the (large)
  // predictor after the last strong reference dies.
  return std::shared_ptr<const ModelSnapshot>(
      new ModelSnapshot(std::move(predictor), version));
}

TieredPrediction ModelSnapshot::PredictInMixTiered(
    int template_index, const std::vector<int>& concurrent,
    bool allow_full_model) const {
  const auto& profiles = predictor_.profiles();
  CONTENDER_CHECK(template_index >= 0 &&
                  static_cast<size_t>(template_index) < profiles.size())
      << "ModelSnapshot: unknown template index " << template_index;
  const TemplateProfile& profile =
      profiles[static_cast<size_t>(template_index)];
  // An empty mix is MPL 1: the isolated latency IS the model's answer, not
  // a degradation — short-circuit before any fail-point probe so disarmed
  // and armed runs agree on empty mixes.
  if (concurrent.empty()) {
    return {profile.isolated_latency, DegradationTier::kFullModel};
  }
  // Canonical (sorted) mix once, shared by every tier — the same
  // canonicalization PredictInMixUncached applies, so tier 0 is
  // bit-identical to PredictInMix by construction.
  std::vector<int> canonical = concurrent;
  std::sort(canonical.begin(), canonical.end());

  if (allow_full_model && !kQsModelFailPoint.ShouldFail()) {
    auto full = predictor_.PredictKnown(template_index, canonical);
    if (full.ok()) return {*full, DegradationTier::kFullModel};
  }
  if (!kTransferFailPoint.ShouldFail()) {
    auto transferred = predictor_.PredictNew(profile, canonical,
                                             SpoilerSource::kKnnPredicted);
    if (transferred.ok()) {
      return {*transferred, DegradationTier::kTransferredQs};
    }
  }
  return {profile.isolated_latency, DegradationTier::kIsolatedHeuristic};
}

units::Seconds ModelSnapshot::IsolatedLatency(int template_index) const {
  const auto& profiles = predictor_.profiles();
  CONTENDER_CHECK(template_index >= 0 &&
                  static_cast<size_t>(template_index) < profiles.size())
      << "ModelSnapshot: unknown template index " << template_index;
  return profiles[static_cast<size_t>(template_index)].isolated_latency;
}

}  // namespace contender::serve
