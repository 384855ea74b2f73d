#include "sched/mix_oracle.h"

#include "util/logging.h"

namespace contender::sched {

units::Seconds PredictInMixUncached(const ContenderPredictor& predictor,
                                    int template_index,
                                    std::vector<int> concurrent) {
  return predictor.PredictInMix(template_index, concurrent).latency;
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

units::Seconds MixOracle::PredictInMix(int template_index,
                                       const PreparedMix& mix) const {
  if (mix.empty()) return IsolatedLatency(template_index);
  // An open breaker quarantines the template's own model: the ladder
  // starts at tier 1.
  const bool degraded = Degraded(template_index);
  const TieredPrediction answer =
      predictor_->PredictInMix(template_index, mix, !degraded);
  if (degraded) {
    degradations_.fetch_add(1, std::memory_order_relaxed);
  } else {
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    if (answer.tier != DegradationTier::kFullModel) {
      fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return answer.latency;
}

units::Seconds MixOracle::PredictInMix(
    int template_index, std::span<const int> concurrent) const {
  if (concurrent.empty()) return IsolatedLatency(template_index);
  PreparedMix mix;
  predictor_->PrepareMix(concurrent, &mix);
  return PredictInMix(template_index, mix);
}

units::Seconds MixOracle::PredictInMix(
    int template_index, std::initializer_list<int> concurrent) const {
  return PredictInMix(template_index, std::span<const int>(concurrent));
}

uint64_t MixOracle::evaluations() const {
  return evaluations_.load(std::memory_order_relaxed);
}

uint64_t MixOracle::fallbacks() const {
  return fallbacks_.load(std::memory_order_relaxed);
}

uint64_t MixOracle::degradations() const {
  return degradations_.load(std::memory_order_relaxed);
}

}  // namespace contender::sched
