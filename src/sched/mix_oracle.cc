#include "sched/mix_oracle.h"

#include <algorithm>

#include "util/failpoint.h"
#include "util/logging.h"

namespace contender::sched {

namespace {

// Chaos site: a fired evaluation answers with the isolated latency (the
// same degradation an open breaker forces).
auto& kPredictFailPoint = CONTENDER_DEFINE_FAILPOINT("sched.mix_oracle.predict");

}  // namespace

units::Seconds PredictInMixUncached(const ContenderPredictor& predictor,
                                    int template_index,
                                    std::vector<int> concurrent,
                                    bool* used_fallback) {
  const auto& profiles = predictor.profiles();
  CONTENDER_CHECK(template_index >= 0 &&
                  static_cast<size_t>(template_index) < profiles.size())
      << "PredictInMixUncached: unknown template index " << template_index;
  if (used_fallback != nullptr) *used_fallback = false;
  const units::Seconds isolated =
      profiles[static_cast<size_t>(template_index)].isolated_latency;
  if (concurrent.empty()) return isolated;
  // Evaluate on the canonical (sorted) mix so the answer is a pure function
  // of the multiset — CQI sums over the mix in the order given, and
  // floating-point addition is not associative.
  std::sort(concurrent.begin(), concurrent.end());
  auto predicted = predictor.PredictKnown(template_index, concurrent);
  if (predicted.ok()) return *predicted;
  // No model covers this (template, MPL); degrade to the continuum lower
  // bound so the score stays defined.
  if (used_fallback != nullptr) *used_fallback = true;
  return isolated;
}

MixOracle::MixOracle(const ContenderPredictor* predictor)
    : MixOracle(predictor, Options()) {}

MixOracle::MixOracle(const ContenderPredictor* predictor,
                     const Options& options)
    : predictor_(predictor), options_(options) {
  CONTENDER_CHECK(predictor_ != nullptr);
}

units::Seconds MixOracle::IsolatedLatency(int template_index) const {
  const auto& profiles = predictor_->profiles();
  CONTENDER_CHECK(template_index >= 0 &&
                  static_cast<size_t>(template_index) < profiles.size())
      << "MixOracle: unknown template index " << template_index;
  return profiles[static_cast<size_t>(template_index)].isolated_latency;
}

bool MixOracle::Degraded(int template_index) const {
  return options_.health != nullptr &&
         options_.health->Degraded(template_index);
}

units::Seconds MixOracle::PredictInMix(
    int template_index, const std::vector<int>& concurrent) const {
  if (concurrent.empty()) return IsolatedLatency(template_index);

  // An open breaker (or a fired chaos site) answers with the isolated lower
  // bound instead of the untrusted model.
  if (kPredictFailPoint.ShouldFail() || Degraded(template_index)) {
    degradations_.Add(template_index);
    return IsolatedLatency(template_index);
  }

  bool used_fallback = false;
  const units::Seconds value = PredictInMixUncached(
      *predictor_, template_index, concurrent, &used_fallback);
  evaluations_.Add(template_index);
  if (used_fallback) fallbacks_.Add(template_index);
  return value;
}

uint64_t MixOracle::evaluations() const { return evaluations_.Total(); }

uint64_t MixOracle::fallbacks() const { return fallbacks_.Total(); }

uint64_t MixOracle::degradations() const { return degradations_.Total(); }

}  // namespace contender::sched
