// Adapter between the admission policies and ContenderPredictor.
//
// Every answer comes from the core degradation ladder
// (ContenderPredictor::PredictInMix): the oracle adds only the
// per-template health signal — an open breaker starts the ladder at tier
// 1 — and its probe counters. The ladder canonicalizes the mix, so every
// answer is a pure function of the (template, multiset, breaker) triple.
// The oracle keeps no memo: the policies prepare the running mix once per
// admission (ContenderPredictor::PrepareMix) and score each distinct
// queued template against it once (sched/policy.h), so one decision costs
// one mix preparation plus at most one probe per template.

#ifndef CONTENDER_SCHED_MIX_ORACLE_H_
#define CONTENDER_SCHED_MIX_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/predictor.h"
#include "util/units.h"

namespace contender::sched {

/// Per-template health as seen by the scheduler: Degraded(t) means t's
/// circuit breaker is open — its own QS model is currently not trusted, so
/// the oracle's answers for t start at tier 1 of the degradation ladder
/// (transferred QS), exactly as serving's do. serve::HealthTracker
/// implements this (the interface lives here so sched/ does not depend on
/// serve/). Implementations must be thread-safe.
class TemplateHealth {
 public:
  virtual ~TemplateHealth() = default;
  [[nodiscard]] virtual bool Degraded(int template_index) const = 0;
};

/// The ladder's latency with the full model allowed:
/// predictor.PredictInMix(template_index, concurrent).latency. Kept only
/// because perfbench/ calls this name.
units::Seconds PredictInMixUncached(const ContenderPredictor& predictor,
                                    int template_index,
                                    std::vector<int> concurrent);

/// Thread-safe view of a trained predictor for policy evaluation, with the
/// per-template health signal and probe counters. Every oracle in the
/// tree is probed from one thread (the scheduler loop, one fleet node, or
/// the sequential routing pass), so the counters are plain relaxed
/// atomics.
class MixOracle {
 public:
  struct Options {
    /// Optional per-template health signal (must outlive the oracle). When
    /// a template's breaker is open, PredictInMix starts the ladder at
    /// tier 1 for it.
    const TemplateHealth* health = nullptr;
  };

  explicit MixOracle(const ContenderPredictor* predictor);
  MixOracle(const ContenderPredictor* predictor, const Options& options);

  /// Predicted latency of `template_index` executing inside the prepared
  /// mix of the other running queries (from predictor().PrepareMix): the
  /// ladder's answer, with the full model allowed unless the template's
  /// breaker is open. An empty mix yields the isolated latency. Each call
  /// is one probe for the counters below.
  units::Seconds PredictInMix(int template_index,
                              const PreparedMix& mix) const;
  /// The same for `concurrent` (workload indices, order-irrelevant),
  /// prepared for this one probe.
  units::Seconds PredictInMix(int template_index,
                              std::span<const int> concurrent) const;
  units::Seconds PredictInMix(int template_index,
                              std::initializer_list<int> concurrent) const;

  /// l_min of a template (one profile lookup).
  units::Seconds IsolatedLatency(int template_index) const;

  /// True when the health signal reports an open breaker for the template
  /// (always false without an Options::health).
  bool Degraded(int template_index) const;

  int num_templates() const {
    return static_cast<int>(predictor_->profiles().size());
  }
  const ContenderPredictor& predictor() const { return *predictor_; }

  /// Non-empty-mix PredictInMix calls with the full model allowed.
  uint64_t evaluations() const;
  /// Evaluations the ladder answered below tier 0 (no QS model covers the
  /// (template, MPL), or a fired "core.ladder.full_model" fail point).
  uint64_t fallbacks() const;
  /// Non-empty-mix PredictInMix calls made while the template's breaker
  /// was open.
  uint64_t degradations() const;
  /// Hit/miss view for reports that print a memo hit ratio: with no memo,
  /// nothing hits and every evaluation misses.
  uint64_t hits() const { return 0; }
  uint64_t misses() const { return evaluations(); }

 private:
  const ContenderPredictor* const predictor_;
  const Options options_;
  mutable std::atomic<uint64_t> evaluations_{0};
  mutable std::atomic<uint64_t> fallbacks_{0};
  mutable std::atomic<uint64_t> degradations_{0};
};

}  // namespace contender::sched

#endif  // CONTENDER_SCHED_MIX_ORACLE_H_
