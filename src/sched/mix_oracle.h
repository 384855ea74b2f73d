// Adapter between the admission policies and ContenderPredictor.
//
// The oracle canonicalizes the mix (sorted) before evaluating it — CQI sums
// over the mix, so permutations of one multiset would otherwise differ in
// the low floating-point bits — so every answer is a pure function of the
// (template, multiset) pair. It keeps no memo: the policies score each
// distinct queued template once per admission (sched/policy.h), so one
// decision costs at most one probe per template, and a probe is one
// predictor evaluation.

#ifndef CONTENDER_SCHED_MIX_ORACLE_H_
#define CONTENDER_SCHED_MIX_ORACLE_H_

#include <cstdint>
#include <vector>

#include "core/predictor.h"
#include "util/sharded_counter.h"
#include "util/units.h"

namespace contender::sched {

/// Per-template health as seen by the scheduler: Degraded(t) means t's
/// circuit breaker is open — its model's predictions are currently not
/// trusted, and consumers must fall back to isolated-latency reasoning
/// instead of scheduling on garbage. serve::HealthTracker implements this
/// (the interface lives here so sched/ does not depend on serve/).
/// Implementations must be thread-safe.
class TemplateHealth {
 public:
  virtual ~TemplateHealth() = default;
  [[nodiscard]] virtual bool Degraded(int template_index) const = 0;
};

/// The pure canonicalized prediction behind MixOracle: sorts the mix,
/// predicts via the predictor's reference/transfer models, and falls back
/// to the template's isolated latency when no model covers the (template,
/// MPL) pair — so the answer is total and a pure function of the
/// (template, multiset) pair. Lock-free; serve::ModelSnapshot readers call
/// it directly on the hot path, and the oracle delegates to it, so oracle
/// and snapshot answers are bit-identical by construction.
/// `template_index` must be a valid workload index. If `used_fallback` is
/// non-null it is set to whether the isolated-latency degradation fired.
units::Seconds PredictInMixUncached(const ContenderPredictor& predictor,
                                    int template_index,
                                    std::vector<int> concurrent,
                                    bool* used_fallback = nullptr);

/// Thread-safe view of a trained predictor for policy evaluation, with the
/// per-template health signal and probe counters. Counters are
/// cache-line-padded stripes, so concurrent probes never share a line.
class MixOracle {
 public:
  struct Options {
    /// Optional per-template health signal (must outlive the oracle). When
    /// a template's breaker is open, PredictInMix degrades to its isolated
    /// latency and policies switch to shortest-isolated scoring.
    const TemplateHealth* health = nullptr;
  };

  explicit MixOracle(const ContenderPredictor* predictor);
  MixOracle(const ContenderPredictor* predictor, const Options& options);

  /// Predicted latency of `template_index` executing inside `concurrent`
  /// (workload indices of the other running queries, order-irrelevant).
  /// An empty mix yields the isolated latency. When the predictor has no
  /// reference/QS model covering the mix's MPL or template, the oracle
  /// falls back to the isolated latency (counted in fallbacks()) so policy
  /// scores stay total and deterministic.
  units::Seconds PredictInMix(int template_index,
                              const std::vector<int>& concurrent) const;

  /// l_min of a template (one profile lookup).
  units::Seconds IsolatedLatency(int template_index) const;

  /// True when the health signal reports an open breaker for the template
  /// (always false without an Options::health). Policies consult this to
  /// drop to shortest-isolated scoring.
  bool Degraded(int template_index) const;

  int num_templates() const {
    return static_cast<int>(predictor_->profiles().size());
  }
  const ContenderPredictor& predictor() const { return *predictor_; }

  /// PredictInMix calls answered by evaluating the predictor (non-empty
  /// mix, not degraded).
  uint64_t evaluations() const;
  uint64_t fallbacks() const;
  /// PredictInMix calls answered with the isolated latency because of an
  /// open breaker or a fired "sched.mix_oracle.predict" fail point.
  uint64_t degradations() const;
  /// Hit/miss view for reports that print a memo hit ratio: with no memo,
  /// nothing hits and every evaluation misses.
  uint64_t hits() const { return 0; }
  uint64_t misses() const { return evaluations(); }

 private:
  const ContenderPredictor* const predictor_;
  const Options options_;
  /// Striped by template index, so concurrent probes of different
  /// templates count on different cache lines.
  mutable ShardedCounter evaluations_;
  mutable ShardedCounter fallbacks_;
  mutable ShardedCounter degradations_;
};

}  // namespace contender::sched

#endif  // CONTENDER_SCHED_MIX_ORACLE_H_
